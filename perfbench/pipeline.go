package main

import (
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/qualinfer"
	"repro/internal/types"
)

// frontend is what core.Analyze does, one span per layer call.
func frontend(tr *tracer, parent int, prefix, name, src string) (*types.World, *qualinfer.Result, error) {
	id := tr.begin(prefix+"parser.ParseProgram", parent)
	prog, err := parser.ParseProgram(parser.Source{Name: name, Text: src})
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = tr.begin(prefix+"types.BuildWorld", parent)
	w := types.BuildWorld(prog)
	tr.end(id)
	id = tr.begin(prefix+"qualinfer.Infer", parent)
	inf := qualinfer.Infer(w)
	tr.end(id)
	id = tr.begin(prefix+"check.Check", parent)
	res := check.Check(w, inf)
	tr.end(id)
	if !res.OK() {
		return nil, nil, fmt.Errorf("%s: static checking failed: %v", name, res.Errors[0])
	}
	return w, inf, nil
}

// compileProgram checks src and builds it with the default
// instrumentation, as `sharc run` and `sharc explore` do.
func compileProgram(name, src string) (*ir.Program, error) {
	a, err := core.Analyze(parser.Source{Name: name, Text: src})
	if err != nil {
		return nil, err
	}
	prog, err := a.Build(compile.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return prog, nil
}

// runResult is what one whole `sharc run` produced.
type runResult struct {
	exit    int64
	reports int
	stats   interp.Stats
	instrs  int
	// Heap bytes allocated by interp.New and by Runtime.Run (traced only).
	newBytes, runBytes uint64
	// runTime is the duration of Runtime.Run (traced only).
	runTime time.Duration
}

// sharcRun is one whole `sharc run`: check, build with opts, interp.New,
// a free-running Run, then collecting reports and stats. Spans are named
// after the layer call, with prefix distinguishing unchecked ops.
func sharcRun(tr *tracer, prefix, name, src string, opts compile.Options) (runResult, error) {
	var r runResult
	root := tr.begin(prefix+"op", -1)
	defer tr.end(root)
	w, inf, err := frontend(tr, root, prefix, name, src)
	if err != nil {
		return r, err
	}
	id := tr.begin(prefix+"compile.Compile", root)
	prog, err := compile.Compile(w, inf, opts)
	tr.end(id)
	if err != nil {
		return r, err
	}
	r.instrs = flatInstrs(prog)

	var h0, h1, h2 heapCounters
	if tr != nil {
		h0 = readHeap()
	}
	id = tr.begin(prefix+"interp.New", root)
	rt := interp.New(prog, interp.DefaultConfig())
	tr.end(id)
	if tr != nil {
		h1 = readHeap()
	}
	id = tr.begin(prefix+"Runtime.Run", root)
	exit, err := rt.Run()
	r.runTime = tr.end(id)
	if tr != nil {
		h2 = readHeap()
		r.newBytes = h1.since(h0).allocBytes
		r.runBytes = h2.since(h1).allocBytes
	}
	id = tr.begin(prefix+"teardown", root)
	reports := rt.Reports()
	r.stats = rt.Stats()
	tr.end(id)
	r.exit = exit
	r.reports = len(reports)
	return r, err
}

// flatInstrs counts the register-VM instructions of a compiled program.
func flatInstrs(p *ir.Program) int {
	if p.Flat == nil {
		return 0
	}
	n := 0
	for _, f := range p.Flat.Funcs {
		n += len(f.Code)
	}
	return n
}

// checkSites is every dynamic and locked check site the program would
// have without static avoidance.
func checkSites(e ir.ElisionStats) int { return e.TotalDynamic + e.TotalLocked + e.Discharged() }
