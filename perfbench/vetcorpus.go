package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/absint"
	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/ir"
	"repro/internal/lexer"
	"repro/internal/pointsto"
	"repro/internal/vet"
)

// vet-corpus: 24 programs through Analyze, vet.Analyze and a Build with
// elision and discharge, never executed, so the front end, vet/absint and
// compile layers do all the work. The stripped variants of the six models
// make qualinfer infer what the annotated models spell out.

// corpusFiles are the repository programs in the corpus, besides the
// generated models.
var corpusFiles = []string{
	"internal/interp/testdata/bank.shc",
	"internal/interp/testdata/barrier.shc",
	"internal/interp/testdata/hashtable.shc",
	"internal/interp/testdata/linkedlist.shc",
	"internal/interp/testdata/matmul.shc",
	"internal/interp/testdata/racy_handoff.shc",
	"internal/interp/testdata/racy_pair.shc",
	"internal/interp/testdata/racy_reader.shc",
	"internal/interp/testdata/readers.shc",
	"internal/interp/testdata/ringbuffer.shc",
	"internal/interp/testdata/sort.shc",
	"examples/profile/hotsites.shc",
}

type vprog struct {
	name   string
	src    string
	tokens int
	// racy programs have a race a static analysis must find (at least one
	// must finding); every other program has none.
	racy bool
}

type vetCorpus struct{ progs []vprog }

func setupVetCorpus(rc runConfig) (instance, error) {
	scale := bench.Full
	if rc.short {
		scale = bench.Quick
	}
	c := &vetCorpus{}
	add := func(name, src string) {
		c.progs = append(c.progs, vprog{
			name:   name,
			src:    src,
			tokens: len(lexer.New(name, src).All()),
			racy:   strings.HasPrefix(name, "racy_"),
		})
	}
	for _, b := range bench.Benchmarks {
		src := b.Source(scale)
		stripped, err := bench.StripSource(src)
		if err != nil {
			return nil, fmt.Errorf("strip %s: %w", b.Name, err)
		}
		add(b.Name+".shc", src)
		add(b.Name+"-stripped.shc", stripped)
	}
	for _, f := range corpusFiles {
		data, err := os.ReadFile(filepath.Join(rc.root, f))
		if err != nil {
			return nil, err
		}
		add(filepath.Base(f), string(data))
	}
	return c, nil
}

func (c *vetCorpus) close() {}

// vetResult is what one Analyze + vet + Build produced.
type vetResult struct {
	must, may int
	elision   ir.ElisionStats
	instrs    int
}

// checkVet judges a vet verdict against the known answer.
func checkVet(p vprog, r vetResult) error {
	if p.racy && r.must == 0 {
		return wrong("%s: no must finding on a racy program", p.name)
	}
	if !p.racy && r.must != 0 {
		return wrong("%s: %d must findings on a race-free program", p.name, r.must)
	}
	return nil
}

// vetOp is one op: the front end, vet.Analyze, then compile.Compile with
// elision and vet's discharge set.
func vetOp(tr *tracer, name, src string) (vetResult, error) {
	var r vetResult
	root := tr.begin("op", -1)
	defer tr.end(root)
	w, inf, err := frontend(tr, root, "", name, src)
	if err != nil {
		return r, err
	}
	id := tr.begin("vet.Analyze", root)
	rep := vet.Analyze(w, inf)
	tr.end(id)
	for _, f := range rep.Findings {
		if f.Severity == "must" {
			r.must++
		} else {
			r.may++
		}
	}
	opts := compile.DefaultOptions()
	opts.Elide = true
	opts.Discharge = rep.Discharge()
	id = tr.begin("compile.Compile", root)
	prog, err := compile.Compile(w, inf, opts)
	tr.end(id)
	if err != nil {
		return r, err
	}
	r.elision = prog.Elision
	r.instrs = flatInstrs(prog)
	return r, nil
}

// vetSplit times, outside any op, the calls that split vet's time: the
// points-to pass alone and vet with every absint tier off.
func vetSplit(tr *tracer, p vprog) error {
	root := tr.begin("split", -1)
	defer tr.end(root)
	w, inf, err := frontend(nil, -1, "", p.name, p.src)
	if err != nil {
		return err
	}
	id := tr.begin("pointsto.Analyze", root)
	pointsto.Analyze(w, inf)
	tr.end(id)
	id = tr.begin("vet.AnalyzeWith(off)", root)
	vet.AnalyzeWith(w, inf, absint.Options{})
	tr.end(id)
	return nil
}

func (c *vetCorpus) run(rc runConfig) (*outcome, error) {
	out := newOutcome()
	log := newOpLog()
	out.ops = log
	rng := rand.New(rand.NewSource(rc.seed))
	for _, p := range c.progs { // warm-up, off the clock
		vetOp(nil, p.name, p.src)
	}
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	plain := make(map[string][]float64)
	traced := make(map[string][]float64)
	var lay struct {
		ops, tokens                  int
		must, may, absint            int
		sites, elided, disch, instrs int
		passDone                     bool
	}
	h0 := readHeap()
	var loop time.Duration // time inside ops, without the traced split calls
	for round := 0; round == 0 || loop < rc.budget; round++ {
		var rtr *tracer
		if rc.trace && round%2 == 0 {
			rtr = tr
		}
		for _, i := range rng.Perm(len(c.progs)) {
			p := c.progs[i]
			rc.host.tick()
			t0 := time.Now()
			r, err := vetOp(rtr, p.name, p.src)
			d := time.Since(t0)
			loop += d
			if err == nil {
				err = checkVet(p, r)
			}
			out.note(err)
			log.add(p.name, d, err == nil)
			if !rc.trace {
				continue
			}
			if rtr == nil {
				plain[p.name] = append(plain[p.name], ms(d))
				continue
			}
			traced[p.name] = append(traced[p.name], ms(d))
			if err := vetSplit(rtr, p); err != nil {
				return nil, err
			}
			lay.ops++
			lay.tokens += p.tokens
			if !lay.passDone {
				lay.must += r.must
				lay.may += r.may
				lay.absint += r.elision.DischargedAbsint
				lay.sites += checkSites(r.elision)
				lay.elided += r.elision.Elided()
				lay.disch += r.elision.Discharged()
				lay.instrs += r.instrs
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
	m["lexer.tokens"] = float64(lay.tokens) / float64(lay.ops)
	frontendMetrics(m, tr)
	m["pointsto.analyze_ms"] = tr.mean("pointsto.Analyze")
	m["vet.lockset_ms"] = tr.mean("vet.AnalyzeWith(off)") - tr.mean("pointsto.Analyze")
	m["vet.absint_ms"] = tr.mean("vet.Analyze") - tr.mean("vet.AnalyzeWith(off)")
	m["vet_geomean_ms"] = geomeanOfMedians(plain)
	m["vet.must"] = float64(lay.must)
	m["vet.may"] = float64(lay.may)
	m["vet.discharged_absint"] = float64(lay.absint)
	m["compile.build_ms"] = tr.mean("compile.Compile")
	m["compile.check_sites"] = float64(lay.sites)
	m["compile.elided"] = float64(lay.elided)
	m["compile.discharged"] = float64(lay.disch)
	m["ir.flat_instrs"] = float64(lay.instrs)
	return out, tr.write(spanDir(rc), spanFile("vet-corpus", rc))
}

// avoidedChecksPct is the share of dynamic and locked check sites that
// elision and vet's discharge avoid statically, over the six annotated
// Table-1 models at Full scale. It is deterministic.
func avoidedChecksPct() (float64, error) {
	avoided, sites := 0, 0
	for _, b := range bench.Benchmarks {
		r, err := vetOp(nil, b.Name+".shc", b.Source(bench.Full))
		if err != nil {
			return 0, err
		}
		avoided += r.elision.Elided() + r.elision.Discharged()
		sites += checkSites(r.elision)
	}
	return 100 * float64(avoided) / float64(sites), nil
}
