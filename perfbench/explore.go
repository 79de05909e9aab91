package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/ir"
)

// explore-mix: interp.Explore with the default mix strategy over the three
// racy programs and the six Table-1 models at Quick scale. Scheduler
// handoffs and one interp.New per schedule do the work; the racy programs
// give a time to first finding.

const (
	// racySchedules and modelSchedules are the schedule counts of one
	// exploration. Under the mix strategy schedule 4 is a seed-independent
	// round-robin one that exposes a race in each racy program, so every
	// seed has a known answer; from schedule 16 on the strategy repeats
	// round-robin schedules, so the racy explorations also run the
	// portfolio's duplicate skipping. The models, tens of times costlier
	// per schedule, run the five that bound the known answer.
	racySchedules  = 20
	modelSchedules = 5
	// exploreDeadline bounds one exploration through the template
	// Config.Interrupt. The longest exploration that finishes (stunnel)
	// takes about 0.4 s. The Quick fftw model livelocks under PCT
	// schedules (main spins on yield while PCT keeps it the
	// highest-priority ready thread), so most of its explorations end here.
	exploreDeadline = time.Second
	// livelockModel is the model with that known scheduler defect. Its
	// deadline hits are counted in explore.deadline_hits and failed_frac,
	// and cost req_per_s the second each spends, but are not failed ops:
	// the fix belongs in sched, and a deadline hit on any other program
	// is a failure.
	livelockModel = "fftw.shc"
)

type eprog struct {
	name string
	prog *ir.Program
	racy bool // must yield at least one finding; the models must yield none
	// livelocks marks the known fftw livelock: a deadline hit is expected.
	livelocks bool
	// schedules is the schedule count of one exploration.
	schedules int
}

type explore struct {
	progs   []eprog
	workers int
}

func setupExplore(rc runConfig) (instance, error) {
	e := &explore{workers: runtime.NumCPU()}
	add := func(name, src string, racy bool) error {
		prog, err := compileProgram(name, src)
		if err != nil {
			return err
		}
		schedules := modelSchedules
		if racy {
			schedules = racySchedules
		}
		e.progs = append(e.progs, eprog{name: name, prog: prog, racy: racy, livelocks: name == livelockModel, schedules: schedules})
		return nil
	}
	for _, b := range bench.RacyBenchmarks {
		if err := add("racy-"+b.Name+".shc", b.Source(), true); err != nil {
			return nil, err
		}
	}
	for _, b := range bench.Benchmarks {
		if err := add(b.Name+".shc", b.Source(bench.Quick), false); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (e *explore) close() {}

// exploreResult is one exploration's summary and whether the deadline cut
// it short.
type exploreResult struct {
	sum      *interp.ExploreSummary
	deadline bool
}

// checkExplore judges an exploration against the known answer. The
// schedules a cut exploration did run are judged too: a model may yield
// no finding on any of them.
func checkExplore(p eprog, r exploreResult) error {
	n := len(r.sum.Findings)
	if !p.racy && n != 0 {
		return wrong("%s: %d findings on an annotated model", p.name, n)
	}
	if r.deadline {
		if p.livelocks {
			return nil
		}
		return fmt.Errorf("%s: exploration hit the %v deadline", p.name, exploreDeadline)
	}
	if p.racy && n == 0 {
		return wrong("%s: no finding on a racy program", p.name)
	}
	return nil
}

// exploreOp is one bounded exploration.
func (e *explore) exploreOp(tr *tracer, p eprog, seed int64, schedules int) exploreResult {
	cfg := interp.DefaultConfig()
	stop := new(atomic.Bool)
	cfg.Interrupt = stop // every schedule's runtime inherits it
	timer := time.AfterFunc(exploreDeadline, func() { stop.Store(true) })
	id := tr.begin("interp.Explore", -1)
	sum := interp.Explore(p.prog, cfg, interp.ExploreOptions{
		Schedules: schedules,
		Strategy:  "mix",
		Seed:      seed,
		Workers:   e.workers,
	})
	tr.end(id)
	return exploreResult{sum: sum, deadline: !timer.Stop()}
}

func (e *explore) run(rc runConfig) (*outcome, error) {
	out := newOutcome()
	log := newOpLog()
	out.ops = log
	rng := rand.New(rand.NewSource(rc.seed))
	for _, p := range e.progs { // warm-up, off the clock
		e.exploreOp(nil, p, rng.Int63n(1<<30), 2)
	}
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	plain := make(map[string][]float64)
	traced := make(map[string][]float64)
	var lay struct {
		done                             int // explorations that finished
		schedules, decisions, dups, skip int
		wall                             time.Duration
		firstFinding                     []float64
		newBytes                         uint64
		probes                           int
	}
	h0 := readHeap()
	var loop time.Duration
	livelockRuns := 0
	for round := 0; round == 0 || loop < rc.budget; round++ {
		var rtr *tracer
		if rc.trace && round%2 == 0 {
			rtr = tr
		}
		for _, i := range rng.Perm(len(e.progs)) {
			p := e.progs[i]
			seed := rng.Int63n(1 << 30)
			rc.host.tick()
			// Each exploration starts on a collected heap, off the clock,
			// as a `sharc explore` process would.
			runtime.GC()
			t0 := time.Now()
			r := e.exploreOp(rtr, p, seed, p.schedules)
			d := time.Since(t0)
			loop += d
			if p.livelocks {
				livelockRuns++
			}
			err := checkExplore(p, r)
			out.note(err)
			// Only finished explorations count in req_per_s and the medians.
			log.add(p.name, d, err == nil && !r.deadline)
			if err == nil && r.deadline {
				out.livelocks++
			}
			if !rc.trace {
				continue
			}
			if rtr == nil {
				plain[p.name] = append(plain[p.name], ms(d))
				continue
			}
			traced[p.name] = append(traced[p.name], ms(d))
			if !r.deadline {
				lay.done++
				lay.schedules += r.sum.Schedules
				lay.decisions += int(r.sum.Decisions)
				lay.dups += r.sum.Duplicates
				lay.skip += r.sum.SkippedExecutions
				lay.wall += d
				if p.racy && r.sum.FirstFinding > 0 {
					lay.firstFinding = append(lay.firstFinding, ms(r.sum.FirstFinding))
				}
			}
			// interp.New is called inside Explore once per schedule; time
			// one call from outside, off the op's clock.
			h := readHeap()
			id := rtr.begin("interp.New", -1)
			interp.New(p.prog, interp.DefaultConfig())
			rtr.end(id)
			lay.newBytes += readHeap().since(h).allocBytes
			lay.probes++
		}
	}
	heap := readHeap().since(h0)
	fmt.Fprintf(os.Stderr, "known failure: %d of %d explorations of %s hit the %v deadline (livelock under PCT)\n",
		out.livelocks, livelockRuns, livelockModel, exploreDeadline)

	m := out.metrics
	m["run_geomean_ms"] = geomeanOfMedians(log.byProg)
	// Correct explorations per second of the whole loop: an exploration
	// cut by the deadline spends its second without adding to the count,
	// so more livelocks or slower explorations lower req_per_s.
	m["req_per_s"] = float64(log.ok) / loop.Seconds()
	m["alloc_mb_per_op"] = mb(heap.allocBytes) / float64(out.attempted)
	m["gc.cycles_per_op"] = float64(heap.gcCycles) / float64(out.attempted)
	if !rc.trace {
		return out, nil
	}
	m["trace.overhead_pct"] = 100 * (ratioOfMedians(traced, plain) - 1)
	m["interp.setup_ms"] = tr.mean("interp.New")
	m["interp.setup_mb"] = mb(lay.newBytes) / float64(lay.probes)
	m["explore.deadline_hits"] = float64(out.livelocks)
	m["first_finding_ms"] = median(lay.firstFinding)
	if lay.done > 0 {
		n := float64(lay.done)
		m["schedules_per_s"] = float64(lay.schedules) / lay.wall.Seconds()
		m["sched.decisions"] = float64(lay.decisions) / n
		m["sched.decisions_per_s"] = float64(lay.decisions) / lay.wall.Seconds()
		m["explore.duplicates"] = float64(lay.dups) / n
		m["portfolio.skipped"] = float64(lay.skip) / n
	}
	if lay.dups > 0 {
		m["portfolio.skip_ratio"] = float64(lay.skip) / float64(lay.dups)
	}
	return out, tr.write(spanDir(rc), spanFile("explore-mix", rc))
}
