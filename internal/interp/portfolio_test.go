package interp_test

// The portfolio explorer's determinism contract, tested three ways:
//
//  1. Worker-count independence: the full summary (JSON) and the merged
//     event trace are byte-identical for workers ∈ {1, 2, 8} and varied
//     GOMAXPROCS, and every duplicate's row is its primary's.
//  2. Sequential equivalence: `Workers: 1` matches an independent
//     in-test sequential reference — a plain loop with no goroutines that
//     executes every schedule, duplicates included — on the full corpus.
//  3. Process isolation: two different programs explored concurrently
//     (metrics and tracing on) each produce exactly their solo output,
//     proving no shared mutable state across interp/sched/shadow/telemetry.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/compile"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/sched"
)

// exploreBytes renders everything observable from an exploration: the
// summary JSON plus the merged trace JSONL (empty when tracing is off).
func exploreBytes(t *testing.T, sum *interp.ExploreSummary) (string, string) {
	t.Helper()
	data, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if sum.Trace != nil {
		if err := sum.Trace.WriteJSONL(&trace); err != nil {
			t.Fatal(err)
		}
	}
	return string(data), trace.String()
}

// TestExploreWorkerCountIndependence pins the contract the portfolio
// design rests on: same seed ⇒ byte-identical output for every worker
// count and GOMAXPROCS value.
func TestExploreWorkerCountIndependence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cases := []struct {
		name, file string
		opt        interp.ExploreOptions
		// maxWorkers is the clamp: one worker per primary after the
		// calibration run.
		maxWorkers int
	}{
		{"racy_pair.shc", "racy_pair.shc", interp.ExploreOptions{Schedules: 40, Seed: 3}, 8},
		{"racy_handoff.shc", "racy_handoff.shc", interp.ExploreOptions{Schedules: 40, Seed: 3}, 8},
		{"bank.shc", "bank.shc", interp.ExploreOptions{Schedules: 40, Seed: 3}, 8},
		// Four primaries, one of them the calibration run: 8 requested
		// workers clamp to 3, and 20 of 24 rows are merge-time copies.
		{"rr_racy_pair.shc", "racy_pair.shc", interp.ExploreOptions{Schedules: 24, Strategy: "rr", Seed: 3}, 3},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			prog := buildCorpus(t, tc.file, compile.DefaultOptions())
			cfg := interp.DefaultConfig()
			cfg.Metrics = true
			cfg.TraceCapacity = 512 // smaller than the event stream: the ring-tail merge is exercised
			run := func(workers int) (*interp.ExploreSummary, string, string) {
				opt := tc.opt
				opt.Workers = workers
				sum := interp.Explore(prog, cfg, opt)
				checkDuplicateRows(t, sum)
				sumJSON, trace := exploreBytes(t, sum)
				return sum, sumJSON, trace
			}
			_, baseSum, baseTrace := run(1)
			if baseTrace == "" {
				t.Fatal("tracing produced no events")
			}
			for _, workers := range []int{2, 8} {
				for _, procs := range []int{1, 4} {
					runtime.GOMAXPROCS(procs)
					sum, sumJSON, trace := run(workers)
					if want := min(workers, tc.maxWorkers); sum.Workers != want {
						t.Errorf("workers=%d: ran %d workers, want %d", workers, sum.Workers, want)
					}
					if sumJSON != baseSum {
						t.Errorf("workers=%d procs=%d: summary JSON diverges from workers=1", workers, procs)
					}
					if trace != baseTrace {
						t.Errorf("workers=%d procs=%d: merged trace diverges from workers=1", workers, procs)
					}
				}
			}
		})
	}
}

// checkDuplicateRows asserts the merge-time copy: no duplicate executes,
// and each duplicate's row equals its primary's apart from its index, its
// dup mark, and New — a duplicate is never first to expose a finding.
func checkDuplicateRows(t *testing.T, sum *interp.ExploreSummary) {
	t.Helper()
	if sum.SkippedExecutions != sum.Duplicates {
		t.Errorf("skipped %d executions, want one per duplicate (%d)", sum.SkippedExecutions, sum.Duplicates)
	}
	primary := make(map[string]interp.ScheduleOutcome)
	dups := 0
	for _, o := range sum.Outcomes {
		identity := fmt.Sprintf("%s|%d", o.Strategy, o.Seed)
		p, seen := primary[identity]
		if seen != o.Duplicate {
			t.Errorf("schedule %d: dup=%v, but identity seen before=%v", o.Index, o.Duplicate, seen)
		}
		if !seen {
			primary[identity] = o
			continue
		}
		dups++
		if o.New != 0 {
			t.Errorf("duplicate schedule %d reports %d new finding(s)", o.Index, o.New)
		}
		got := o
		got.Index, got.Duplicate, got.New = p.Index, p.Duplicate, p.New
		if got != p {
			t.Errorf("duplicate row %+v differs from its primary %+v", o, p)
		}
	}
	if dups != sum.Duplicates {
		t.Errorf("%d duplicate rows, summary counts %d", dups, sum.Duplicates)
	}
}

// referenceStrategy is an independent copy of the explorer's strategy
// derivation, pinned here so a drive-by change to the generator surfaces
// as a test failure rather than silently reshaping every exploration.
func referenceStrategy(kind string, seed int64, i int, horizon int64) sched.Strategy {
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
	default:
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

// referenceExplore is the sequential reference: one schedule at a time, no
// goroutines, no merge-time copying — every schedule executes, duplicates
// included. The portfolio explorer must match it exactly.
func referenceExplore(t *testing.T, build func(ctl *sched.Controller) *interp.Runtime, kind string, seed int64, schedules int) *interp.ExploreSummary {
	t.Helper()
	sum := &interp.ExploreSummary{Schedules: schedules}
	seen := make(map[string]bool)
	firstOf := make(map[string]int)
	var horizon int64
	for i := 0; i < schedules; i++ {
		h := horizon
		if i == 0 {
			h = 0 // calibration: schedule 0 runs under the default horizon
		}
		strat := referenceStrategy(kind, seed, i, h)
		ctl := sched.New(strat, sched.Options{})
		rt := build(ctl)
		rt.Run()
		if i == 0 {
			horizon = ctl.Decisions()
		}
		identity := fmt.Sprintf("%s|%d", strat.Name(), strat.Seed())
		dup := false
		if j, ok := firstOf[identity]; ok && j < i {
			dup = true
		} else {
			firstOf[identity] = i
		}
		sum.Decisions += ctl.Decisions()
		if dup {
			sum.Duplicates++
		}
		out := interp.ScheduleOutcome{
			Index:     i,
			Strategy:  strat.Name(),
			Seed:      strat.Seed(),
			Deadlock:  ctl.Deadlocked(),
			Duplicate: dup,
		}
		for _, r := range rt.Reports() {
			out.Reports++
			key := fmt.Sprintf("%d|%s:%d:%d", r.Kind, r.Pos.File, r.Pos.Line, r.Pos.Col)
			if seen[key] {
				continue
			}
			seen[key] = true
			out.New++
			sum.Findings = append(sum.Findings, interp.Finding{
				Kind:     r.Kind,
				KindName: r.Kind.String(),
				Pos:      r.Pos,
				Site:     fmt.Sprintf("%s:%d:%d", r.Pos.File, r.Pos.Line, r.Pos.Col),
				Msg:      r.Msg,
				Schedule: i,
				Strategy: strat.Name(),
				Seed:     strat.Seed(),
			})
		}
		sum.Outcomes = append(sum.Outcomes, out)
	}
	return sum
}

// TestExploreSequentialEquivalence pins Workers:1 (and, transitively via
// the independence test, every worker count) against the sequential
// reference on the full corpus.
func TestExploreSequentialEquivalence(t *testing.T) {
	for _, file := range allCorpusFiles {
		file := file
		t.Run(file, func(t *testing.T) {
			prog := buildCorpus(t, file, compile.DefaultOptions())
			for _, kind := range []string{"mix", "rr"} {
				got := interp.Explore(prog, interp.DefaultConfig(), interp.ExploreOptions{
					Schedules: 24, Strategy: kind, Seed: 5, Workers: 1,
				})
				want := referenceExplore(t, func(ctl *sched.Controller) *interp.Runtime {
					cfg := interp.DefaultConfig()
					cfg.Sched = ctl
					return interp.New(prog, cfg)
				}, kind, 5, 24)
				gj, err := json.Marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				wj, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				if string(gj) != string(wj) {
					t.Errorf("%s: portfolio Workers:1 diverges from the sequential reference\ngot:  %s\nwant: %s",
						kind, gj, wj)
				}
			}
		})
	}
}

// TestExploreProcessIsolation explores two different programs concurrently
// with full instrumentation and demands each produces exactly its solo
// output — the multiple-checked-programs-in-one-process guarantee.
func TestExploreProcessIsolation(t *testing.T) {
	progA := buildCorpus(t, "racy_pair.shc", compile.DefaultOptions())
	progB := buildCorpus(t, "bank.shc", compile.DefaultOptions())
	cfg := interp.DefaultConfig()
	cfg.Metrics = true
	cfg.TraceCapacity = 256
	run := func(p *ir.Program) (string, string) {
		sum := interp.Explore(p, cfg, interp.ExploreOptions{
			Schedules: 20, Seed: 7, Workers: 4,
		})
		return exploreBytes(t, sum)
	}
	soloA1, soloA2 := run(progA)
	soloB1, soloB2 := run(progB)
	var wg sync.WaitGroup
	var concA1, concA2, concB1, concB2 string
	wg.Add(2)
	go func() { defer wg.Done(); concA1, concA2 = run(progA) }()
	go func() { defer wg.Done(); concB1, concB2 = run(progB) }()
	wg.Wait()
	if concA1 != soloA1 || concA2 != soloA2 {
		t.Error("racy_pair: concurrent exploration diverges from its solo run")
	}
	if concB1 != soloB1 || concB2 != soloB2 {
		t.Error("bank: concurrent exploration diverges from its solo run")
	}
}
