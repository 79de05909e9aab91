package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/lexer"
	"repro/internal/parser"
)

// table1-full: the six Table-1 models at Full scale, each op a whole
// `sharc run`. Execution dominates (tens to hundreds of ms of Run per row
// against a few ms of setup, analysis and compile), so the check,
// dispatch and refcount paths show here. Each row also gets an unchecked
// ("Orig") op, for the paper's Time % and as the known answer of the rows
// without one.

type t1row struct {
	name      string
	src       string
	tokens    int
	expect    int64 // known exit value, when hasExpect
	hasExpect bool
}

type table1 struct{ rows []t1row }

func setupTable1(rc runConfig) (instance, error) {
	scale := bench.Full
	if rc.short {
		scale = bench.Quick
	}
	t := &table1{}
	for _, b := range bench.Benchmarks {
		row := t1row{name: b.Name + ".shc", src: b.Source(scale)}
		if b.Expect != nil {
			row.expect, row.hasExpect = b.Expect(scale), true
		}
		// The generated inputs must pass static checking before anything
		// is measured on them.
		a, err := core.Analyze(parser.Source{Name: row.name, Text: row.src})
		if err != nil {
			return nil, err
		}
		if err := a.Err(); err != nil {
			return nil, err
		}
		row.tokens = len(lexer.New(row.name, row.src).All())
		t.rows = append(t.rows, row)
	}
	return t, nil
}

func (t *table1) close() {}

// checkTable1 judges a row's checked and unchecked op against the known
// answer: pfscan's exit is known outright; for the other rows the
// unchecked build's exit is the answer. A checked run of an annotated
// model reports nothing.
func checkTable1(row t1row, checked, orig runResult) (errChecked, errOrig error) {
	if row.hasExpect {
		if checked.exit != row.expect {
			errChecked = wrong("%s: checked exit %d, want %d", row.name, checked.exit, row.expect)
		}
		if orig.exit != row.expect {
			errOrig = wrong("%s: unchecked exit %d, want %d", row.name, orig.exit, row.expect)
		}
	} else if orig.exit != checked.exit {
		errChecked = wrong("%s: checked exit %d, unchecked exit %d", row.name, checked.exit, orig.exit)
	}
	if errChecked == nil && checked.reports != 0 {
		errChecked = wrong("%s: %d reports on an annotated model", row.name, checked.reports)
	}
	return errChecked, errOrig
}

// op runs the row checked, then unchecked. Each starts on a collected
// heap, off the clock, as a `sharc run` process would.
func (t *table1) op(tr *tracer, row t1row) (checked, orig runResult, dc, do time.Duration, errC, errO error) {
	runtime.GC()
	start := time.Now()
	checked, errC = sharcRun(tr, "", row.name, row.src, compile.DefaultOptions())
	dc = time.Since(start)
	runtime.GC()
	start = time.Now()
	orig, errO = sharcRun(tr, "orig:", row.name, row.src, compile.Options{})
	do = time.Since(start)
	if errC == nil && errO == nil {
		errC, errO = checkTable1(row, checked, orig)
	}
	return
}

func (t *table1) run(rc runConfig) (*outcome, error) {
	out := newOutcome()
	log := newOpLog()
	out.ops = log
	rng := rand.New(rand.NewSource(rc.seed))
	for _, row := range t.rows { // warm-up, off the clock
		t.op(nil, row)
	}

	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	// Traced runs alternate traced and untraced rounds: per-layer numbers
	// come from the traced rounds, and the gap to the untraced ones is the
	// tracing overhead.
	plain := make(map[string][]float64)
	traced := make(map[string][]float64)
	runC := make(map[string][]float64)
	runO := make(map[string][]float64)
	var lay struct {
		ops, tokens                     int
		newBytes, runBytes              uint64
		acc, dyn, lock, bar, coll, shad int64
		heap                            int64
		instrs                          int
		passDone                        bool
	}

	h0 := readHeap()
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < rc.budget; round++ {
		var rtr *tracer
		if rc.trace && round%2 == 0 {
			rtr = tr
		}
		for _, i := range rng.Perm(len(t.rows)) {
			// After the first round, which gives every row an op, stop at
			// the budget rather than at the end of a round of seconds.
			if round > 0 && time.Since(start) >= rc.budget {
				break
			}
			rc.host.tick() // counts against the budget, not in any op
			row := t.rows[i]
			c, o, dc, do, errC, errO := t.op(rtr, row)
			out.note(errC)
			out.note(errO)
			log.add(row.name, dc, errC == nil)
			log.add("", do, errO == nil)
			if !rc.trace {
				continue
			}
			if rtr == nil {
				plain[row.name] = append(plain[row.name], ms(dc))
				continue
			}
			traced[row.name] = append(traced[row.name], ms(dc))
			runC[row.name] = append(runC[row.name], ms(c.runTime))
			runO[row.name] = append(runO[row.name], ms(o.runTime))
			lay.ops++
			lay.tokens += row.tokens
			lay.newBytes += c.newBytes
			lay.runBytes += c.runBytes
			st := c.stats
			lay.acc += st.TotalAccesses
			lay.dyn += st.DynamicAccesses
			lay.lock += st.LockChecks
			lay.bar += st.Barriers
			lay.coll += st.Collections
			lay.shad += int64(st.ShadowPages)
			lay.heap += int64(st.HeapPages)
			if !lay.passDone {
				lay.instrs += c.instrs
			}
		}
		if rtr != nil {
			lay.passDone = true
		}
	}
	heap := readHeap().since(h0)

	m := out.metrics
	m["run_geomean_ms"] = geomeanOfMedians(log.byProg)
	m["req_per_s"] = log.throughput()
	m["alloc_mb_per_op"] = mb(heap.allocBytes) / float64(out.attempted)
	m["gc.cycles_per_op"] = float64(heap.gcCycles) / float64(out.attempted)
	if !rc.trace {
		return out, nil
	}
	m["trace.overhead_pct"] = 100 * (ratioOfMedians(traced, plain) - 1)
	n := float64(lay.ops)
	m["interp.setup_ms"] = tr.mean("interp.New")
	m["interp.setup_mb"] = mb(lay.newBytes) / n
	m["interp.exec_ms"] = tr.mean("Runtime.Run")
	m["interp.exec_orig_ms"] = tr.mean("orig:Runtime.Run")
	m["interp.check_overhead_pct"] = 100 * (ratioOfMedians(runC, runO) - 1)
	m["interp.exec_mb"] = mb(lay.runBytes) / n
	m["interp.teardown_ms"] = tr.mean("teardown")
	m["interp.accesses"] = float64(lay.acc) / n
	m["interp.dynamic_checks"] = float64(lay.dyn) / n
	m["interp.lock_checks"] = float64(lay.lock) / n
	m["refcount.barriers"] = float64(lay.bar) / n
	m["refcount.collections"] = float64(lay.coll) / n
	m["shadow.pages"] = float64(lay.shad) / n
	m["interp.heap_pages"] = float64(lay.heap) / n
	m["lexer.tokens"] = float64(lay.tokens) / n
	frontendMetrics(m, tr)
	m["compile.build_ms"] = tr.mean("compile.Compile")
	// The default build runs no elision pass, so the compile.* site counts
	// are vet-corpus's.
	m["ir.flat_instrs"] = float64(lay.instrs)
	return out, tr.write(spanDir(rc), spanFile("table1-full", rc))
}

// ratioOfMedians is the geomean over programs of median(a)/median(b).
func ratioOfMedians(a, b map[string][]float64) float64 {
	var rs []float64
	for name, xs := range a {
		if ys := b[name]; len(xs) > 0 && len(ys) > 0 {
			rs = append(rs, median(xs)/median(ys))
		}
	}
	if len(rs) == 0 {
		return 1
	}
	return geomean(rs)
}

// frontendMetrics reads the front-end spans of checked ops.
func frontendMetrics(m map[string]float64, tr *tracer) {
	m["parser.parse_ms"] = tr.mean("parser.ParseProgram")
	m["types.world_ms"] = tr.mean("types.BuildWorld")
	m["qualinfer.infer_ms"] = tr.mean("qualinfer.Infer")
	m["check.check_ms"] = tr.mean("check.Check")
}
