package interp

// Portfolio schedule exploration: K concurrent explorer workers, each with
// a fully instance-scoped stack (controller, strategy stream, runtime,
// shadow state, telemetry instruments), running disjoint shares of the
// schedule budget.
//
// Determinism contract. The merged output is byte-identical for every
// worker count and GOMAXPROCS value, because nothing a worker does depends
// on another worker:
//
//   - Schedule i's strategy is a pure function of (Strategy, Seed, i) and
//     the calibration horizon, which is fixed by schedule 0 before any
//     worker starts. Two schedules are *duplicates* when their strategy
//     identities (name + seed) are equal — a static property computed up
//     front — which makes their decision traces, reports, and decision
//     counts equal by construction.
//   - Only primaries (first occurrences) execute. They are dealt to the
//     workers in ascending index order, so each worker's trace ring sees
//     ascending schedules and the ring-tail merge matches the sequential
//     window.
//   - The merge stage canonicalizes by ascending schedule index: each
//     duplicate's row is copied from its primary, findings dedupe to their
//     minimum schedule, counters sum, gauges take maxima, and trace events
//     re-sequence by (schedule, emission order). Duplicates contribute no
//     telemetry, substrate stats, or trace events.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ir"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/token"
)

// ExploreOptions configures systematic schedule exploration.
type ExploreOptions struct {
	// Schedules is the number of schedules to run (default 100).
	Schedules int
	// Strategy selects the schedule generator: "random", "pct", "rr", or
	// "mix" (default), which interleaves a bounded round-robin sweep with
	// PCT random-priority schedules and uniform random schedules.
	Strategy string
	// Seed perturbs the whole exploration; schedule i derives its own seed
	// from (Seed, i).
	Seed int64
	// Workers is the number of concurrent explorer workers (default 1,
	// clamped to the number of schedules that execute after calibration).
	// The merged output is identical for every worker count.
	Workers int
}

// ScheduleOutcome summarizes one explored schedule.
type ScheduleOutcome struct {
	Index    int    `json:"index"`
	Strategy string `json:"strategy"`
	Seed     int64  `json:"seed"`
	Deadlock bool   `json:"deadlock,omitempty"`
	Reports  int    `json:"reports"`
	New      int    `json:"new"`
	// Duplicate marks a schedule whose strategy identity repeats an
	// earlier index: its results are equal to the original's by
	// construction, so it is not executed and its row is copied.
	Duplicate bool `json:"dup,omitempty"`
}

// Finding is one distinct violation discovered during exploration,
// deduplicated by (site, kind) across schedules.
type Finding struct {
	Kind     ReportKind `json:"-"`
	KindName string     `json:"kind"`
	Pos      token.Pos  `json:"-"`
	Site     string     `json:"site"`
	Msg      string     `json:"msg"`
	Schedule int        `json:"schedule"` // first schedule that exposed it
	Strategy string     `json:"strategy"`
	Seed     int64      `json:"seed"`
}

// ExploreSummary is the coverage report of an exploration run.
type ExploreSummary struct {
	Schedules int   `json:"schedules"`
	Decisions int64 `json:"decisions"`
	// Duplicates counts schedules whose strategy identity repeated an
	// earlier index (a static property of the strategy family and seed).
	Duplicates int               `json:"duplicates"`
	Findings   []Finding         `json:"findings"`
	Outcomes   []ScheduleOutcome `json:"outcomes"`
	// Telemetry aggregates per-site metrics across every schedule (nil
	// unless the template config enabled Metrics).
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
	// Trace is the merged event tracer spanning all schedules (nil unless
	// tracing was enabled); events carry the schedule index they ran in.
	Trace *telemetry.Tracer `json:"-"`

	// The fields below describe how the portfolio ran, not what it found.
	// They are excluded from JSON because they vary with worker count and
	// timing, and the JSON output is pinned byte-identical across both.

	// Workers is the worker count the exploration actually used.
	Workers int `json:"-"`
	// SkippedExecutions counts schedules that were not executed. Every
	// duplicate is copied from its primary at merge time, so it equals
	// Duplicates by construction.
	SkippedExecutions int `json:"-"`
	// FirstFinding is the wall-clock time from the start of exploration to
	// the first schedule observed with at least one report (0 if none).
	FirstFinding time.Duration `json:"-"`
}

// findingKey dedupes reports by (site, kind): the same violation rediscovered
// under another interleaving is not a new finding.
func findingKey(r Report) string {
	return fmt.Sprintf("%d|%s:%d:%d", r.Kind, r.Pos.File, r.Pos.Line, r.Pos.Col)
}

// exploreStrategy builds schedule i's strategy. The round-robin sweep uses
// quanta 1..4; PCT uses 3 change points over the calibrated decision
// horizon.
func exploreStrategy(kind string, seed int64, i int, horizon int64) sched.Strategy {
	if horizon < 16 {
		horizon = 4096
	}
	derived := seed*1_000_003 + int64(i)
	switch kind {
	case "random":
		return sched.NewRandom(derived)
	case "pct":
		return sched.NewPCT(derived, 3, horizon)
	case "rr":
		return sched.NewRoundRobin(int64(1 + i%4))
	default: // mix
		switch i % 4 {
		case 0:
			return sched.NewRoundRobin(int64(1 + (i/4)%4))
		case 1, 2:
			return sched.NewPCT(derived, 3, horizon)
		default:
			return sched.NewRandom(derived)
		}
	}
}

// schedResult is one schedule's contribution to the canonical merge.
type schedResult struct {
	name      string
	seed      int64
	decisions int64
	deadlock  bool
	// reports are the schedule's reports in the runtime's deterministic
	// emission order.
	reports []Report
	dup     bool
	// global holds the schedule's substrate gauges and counter totals
	// (hasGlobal set); duplicates never contribute one.
	global    telemetry.GlobalStats
	hasGlobal bool
}

// instruments is one worker's instance-scoped telemetry stack.
type instruments struct {
	tel    *telemetry.Collector
	tracer *telemetry.Tracer
}

// exploration carries the per-run state shared by the calibration run and
// the workers.
type exploration struct {
	prog    *ir.Program
	cfg     Config
	opt     ExploreOptions
	horizon int64
	metrics bool
	results []schedResult

	start        time.Time
	firstFinding atomic.Int64 // nanoseconds since start; 0 = none yet
}

// execute runs schedule i on a fresh runtime wired to the worker's
// instruments and stores its result row.
func (e *exploration) execute(i int, ins instruments) {
	strat := exploreStrategy(e.opt.Strategy, e.opt.Seed, i, e.horizon)
	ctl := sched.New(strat, sched.Options{})
	c := e.cfg
	c.Sched = ctl
	c.Telemetry = ins.tel
	c.Tracer = ins.tracer
	c.Counters = new(telemetry.Counters) // per-schedule spine → per-schedule totals
	if ins.tracer != nil {
		ins.tracer.SetSchedule(i)
		// Reset the decision stamp: events before the schedule's first
		// decision must not inherit the previous schedule's count, which
		// would differ with the worker's queue and break worker-count
		// independence.
		ins.tracer.SetStep(-1)
	}
	rt := New(e.prog, c)
	rt.Run() // thread failures surface as reports
	res := schedResult{
		name:      strat.Name(),
		seed:      strat.Seed(),
		decisions: ctl.Decisions(),
		deadlock:  ctl.Deadlocked(),
		reports:   rt.Reports(),
	}
	if e.metrics {
		res.global = rt.globalStats()
		res.hasGlobal = true
	}
	if len(res.reports) > 0 {
		e.firstFinding.CompareAndSwap(0, int64(time.Since(e.start))+1)
	}
	e.results[i] = res
}

// Explore runs the program under opt.Schedules controlled schedules —
// distributed over opt.Workers concurrent workers — and aggregates the
// distinct findings. cfg is used as a template; its Sched, Telemetry,
// Tracer, and Counters fields are overwritten per schedule so every worker
// owns an instance-scoped stack.
func Explore(prog *ir.Program, cfg Config, opt ExploreOptions) *ExploreSummary {
	if opt.Schedules <= 0 {
		opt.Schedules = 100
	}
	if opt.Strategy == "" {
		opt.Strategy = "mix"
	}

	// Strategy identities are pure functions of (Strategy, Seed, index), so
	// the duplicate structure of the whole exploration is static: dupOf[i]
	// is the first earlier index with the same identity, or -1. Primaries
	// after the calibration run form the work queue.
	dupOf := make([]int, opt.Schedules)
	first := make(map[string]int)
	var queue []int
	for i := range dupOf {
		s := exploreStrategy(opt.Strategy, opt.Seed, i, 4096)
		identity := fmt.Sprintf("%s|%d", s.Name(), s.Seed())
		if j, ok := first[identity]; ok {
			dupOf[i] = j
			continue
		}
		dupOf[i] = -1
		first[identity] = i
		if i > 0 {
			queue = append(queue, i)
		}
	}
	if opt.Workers > len(queue) {
		opt.Workers = len(queue)
	}
	if opt.Workers <= 0 {
		opt.Workers = 1
	}

	info := siteInfos(prog)
	tracing := cfg.TraceCapacity > 0 || cfg.Tracer != nil
	e := &exploration{
		prog:    prog,
		cfg:     cfg,
		opt:     opt,
		metrics: cfg.Metrics || cfg.Telemetry != nil,
		results: make([]schedResult, opt.Schedules),
		start:   time.Now(),
	}
	// The template's shared-instance fields are replaced by per-worker
	// instances below; drop them so runtimes never alias across workers.
	e.cfg.Telemetry, e.cfg.Tracer, e.cfg.Counters = nil, nil, nil

	workerIns := make([]instruments, opt.Workers) // [0] doubles as the calibration run's
	for w := range workerIns {
		if e.metrics {
			workerIns[w].tel = telemetry.NewCollector(info)
		}
		if tracing {
			workerIns[w].tracer = telemetry.NewTracer(cfg.TraceCapacity, info)
		}
	}

	// Calibration: schedule 0 runs first, alone, under the default horizon;
	// its decision count fixes the PCT horizon for every later schedule, so
	// strategy construction never depends on execution order.
	e.execute(0, workerIns[0])
	e.horizon = e.results[0].decisions

	// Workers: worker w runs queue[w], queue[w+Workers], … in ascending
	// order. Worker 0 inherits the calibration run's instruments, so with
	// one worker the run degenerates to the sequential single-collector
	// exploration.
	var wg sync.WaitGroup
	for w := range workerIns {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := w; n < len(queue); n += opt.Workers {
				e.execute(queue[n], workerIns[w])
			}
		}(w)
	}
	wg.Wait()

	// Canonical merge: ascending schedule index, duplicates copied from
	// their primary, findings attributed to their minimum index. Identical
	// for every worker count by the determinism contract above.
	sum := &ExploreSummary{Schedules: opt.Schedules, Workers: opt.Workers}
	if ns := e.firstFinding.Load(); ns > 0 {
		sum.FirstFinding = time.Duration(ns - 1)
	}
	seen := make(map[string]bool)
	for i := range e.results {
		r := &e.results[i]
		if j := dupOf[i]; j >= 0 {
			p := &e.results[j] // same name and seed: that is the identity
			*r = schedResult{
				name:      p.name,
				seed:      p.seed,
				decisions: p.decisions,
				deadlock:  p.deadlock,
				reports:   p.reports,
				dup:       true,
			}
			sum.Duplicates++
		}
		sum.Decisions += r.decisions
		out := ScheduleOutcome{
			Index:     i,
			Strategy:  r.name,
			Seed:      r.seed,
			Deadlock:  r.deadlock,
			Reports:   len(r.reports),
			Duplicate: r.dup,
		}
		for _, rep := range r.reports {
			key := findingKey(rep)
			if seen[key] {
				continue
			}
			seen[key] = true
			out.New++
			sum.Findings = append(sum.Findings, Finding{
				Kind:     rep.Kind,
				KindName: rep.Kind.String(),
				Pos:      rep.Pos,
				Site:     fmt.Sprintf("%s:%d:%d", rep.Pos.File, rep.Pos.Line, rep.Pos.Col),
				Msg:      rep.Msg,
				Schedule: i,
				Strategy: r.name,
				Seed:     r.seed,
			})
		}
		sum.Outcomes = append(sum.Outcomes, out)
	}
	sum.SkippedExecutions = sum.Duplicates

	// Telemetry merge: per-site counters fold into one collector
	// (commutative sums and mask ORs), per-schedule substrate totals fold
	// in ascending index order, and the per-worker trace rings merge into
	// one frozen ring re-sequenced by (schedule, emission order).
	if e.metrics {
		master := cfg.Telemetry
		if master == nil {
			master = telemetry.NewCollector(info)
		}
		for _, ins := range workerIns {
			master.Merge(ins.tel)
		}
		globals := make([]telemetry.GlobalStats, 0, opt.Schedules)
		for _, r := range e.results {
			if r.hasGlobal {
				globals = append(globals, r.global)
			}
		}
		sum.Telemetry = master.Snapshot(telemetry.MergeGlobalStats(globals...), elisionInfo(prog))
	}
	if tracing {
		parts := make([]*telemetry.Tracer, len(workerIns))
		for w, ins := range workerIns {
			parts[w] = ins.tracer
		}
		sum.Trace = telemetry.MergeTracers(cfg.TraceCapacity, info, parts...)
	}
	return sum
}
