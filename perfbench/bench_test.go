package main

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/interp"
)

// The tests run from perfbench/, one level below the repository root.
const testRoot = ".."

func shortConfig(trace bool) runConfig {
	return runConfig{root: testRoot, seed: 7, budget: 300 * time.Millisecond, trace: trace, short: true}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(testRoot + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", c.kind, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

// TestShortWorkloads runs a short mode of every workload in both modes
// and checks that each metric of the mode is printed with its unit, and
// that every end-to-end metric was measured as a positive number.
func TestShortWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := measure(w.name, shortConfig(trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			// The fftw livelock is cut by the deadline without failing an
			// op; nothing may fail.
			if res.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed", w.name, trace, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, d.name, m, d.unit)
					continue
				}
				if math.IsNaN(m.Value) || (!trace && m.Value <= 0) {
					t.Errorf("%s trace=%v: metric %s = %v", w.name, trace, d.name, m.Value)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%v: %v", w.name, trace, err)
			}
		}
	}
}

// TestCombineParts checks how an end-to-end run joins its processes:
// op counts add up, each metric is the median over the parts, and one
// incorrect part makes the run incorrect.
func TestCombineParts(t *testing.T) {
	var rs []*result
	for i, v := range []float64{3, 1, 2} {
		r := &result{Correct: true, Attempted: 10, Failed: i, Metrics: make(map[string]metricValue)}
		for _, d := range endToEnd {
			r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
		rs = append(rs, r)
	}
	c := combineParts(rs)
	if !c.Correct || c.Attempted != 30 || c.Failed != 3 {
		t.Errorf("combined correct=%v attempted=%d failed=%d", c.Correct, c.Attempted, c.Failed)
	}
	for _, d := range endToEnd {
		if got := c.Metrics[d.name]; got != (metricValue{Value: 2, Unit: d.unit}) {
			t.Errorf("%s = %+v, want the median 2", d.name, got)
		}
	}
	rs[1].Correct = false
	if combineParts(rs).Correct {
		t.Error("a run with an incorrect part is correct")
	}
}

// TestHostRescale checks that the end-to-end times, and only they, move
// with the host reference: a host twice as slow as nominal halves them.
func TestHostRescale(t *testing.T) {
	m := map[string]float64{"setup_s": 1, "run_geomean_ms": 10, "req_per_s": 100, "alloc_mb_per_op": 7}
	h := &hostClock{ms: []float64{2 * refNominalMs, 2 * refNominalMs, 9 * refNominalMs}}
	h.rescale(m)
	want := map[string]float64{"setup_s": 0.5, "run_geomean_ms": 5, "req_per_s": 200, "alloc_mb_per_op": 7, "host.ref_ms": 2 * refNominalMs}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	var off *hostClock
	off.sample() // a nil clock samples nothing
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := measure("no-such-workload", shortConfig(false)); err == nil {
		t.Fatal("unknown workload accepted")
	}
	rc := shortConfig(false)
	rc.root = t.TempDir()
	if _, err := measure("vet-corpus", rc); err == nil {
		t.Fatal("a directory without the repository accepted as root")
	}
}

func isMismatch(err error) bool {
	var m *mismatch
	return errors.As(err, &m)
}

// Each correctness check must accept the real output under the known
// answer and reject it under a deliberately wrong one.

func TestCheckTable1RejectsWrongAnswers(t *testing.T) {
	inst, err := setupTable1(shortConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range inst.(*table1).rows {
		c, o, _, _, errC, errO := inst.(*table1).op(nil, row)
		if errC != nil || errO != nil {
			t.Fatalf("%s: %v / %v", row.name, errC, errO)
		}
		bad := row
		if row.hasExpect {
			bad.expect++
			if eC, eO := checkTable1(bad, c, o); !isMismatch(eC) || !isMismatch(eO) {
				t.Errorf("%s: wrong expected exit accepted: %v / %v", row.name, eC, eO)
			}
		} else {
			o2 := o
			o2.exit++
			if eC, _ := checkTable1(row, c, o2); !isMismatch(eC) {
				t.Errorf("%s: differing unchecked exit accepted", row.name)
			}
		}
		c2 := c
		c2.reports = 1
		if eC, _ := checkTable1(row, c2, o); !isMismatch(eC) {
			t.Errorf("%s: a report on an annotated model accepted", row.name)
		}
	}
}

func TestCheckServeRejectsWrongAnswers(t *testing.T) {
	s, err := startServer(true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	replies := make(map[string][]byte)
	for i, p := range servePrograms {
		r := runRequest(i, p.name, 3, false)
		status, body, err := s.post("/run", r.body)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkServe(p, status, body); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		replies[p.name] = body
	}
	spin, racy, locked := servePrograms[0], servePrograms[1], servePrograms[2]
	wrongs := []struct {
		what  string
		p     serveProg
		reply string
	}{
		{"spin printing 2001", serveProg{spin.name, spin.src, serveWant{stdout: "2001", noReports: true}}, "spin.shc"},
		{"locked printing 61", serveProg{locked.name, locked.src, serveWant{stdout: "61", noReports: true}}, "locked.shc"},
		{"racy without a read conflict", racy, "locked.shc"},
		{"reports where none are known", serveProg{spin.name, spin.src, serveWant{noReports: true}}, "racy.shc"},
	}
	for _, w := range wrongs {
		if err := checkServe(w.p, http.StatusOK, replies[w.reply]); !isMismatch(err) {
			t.Errorf("%s accepted: %v", w.what, err)
		}
	}
	if err := checkServe(spin, http.StatusServiceUnavailable, []byte(`{"error":"busy"}`)); err == nil {
		t.Error("a refused request accepted")
	}

	// The locked program as first written read the balance through a,
	// which the SCAST had nulled: every run failed, and the check says so.
	faulty := locked
	faulty.src = strings.Replace(locked.src, "mutexLock(ad->m);\n\tprintInt(ad->bal);\n\tmutexUnlock(ad->m);", "printInt(a->bal);", 1)
	if faulty.src == locked.src {
		t.Fatal("could not build the faulty locked program")
	}
	body, _ := json.Marshal(map[string]any{"source": faulty.src, "name": "faulty.shc", "seed": 3})
	status, reply, err := s.post("/run", body)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkServe(faulty, status, reply); !isMismatch(err) {
		t.Errorf("the faulty locked program passed: %v", err)
	}
}

func TestCheckExploreRejectsWrongAnswers(t *testing.T) {
	inst, err := setupExplore(shortConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	e := inst.(*explore)
	judged := 0
	for _, p := range e.progs {
		if p.name == "fftw.shc" {
			continue // livelocks; covered below
		}
		r := e.exploreOp(nil, p, 11, p.schedules)
		if r.deadline { // a slow build, such as one with -race
			t.Logf("%s: deadline hit, not judged", p.name)
			continue
		}
		judged++
		if err := checkExplore(p, r); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		flipped := p
		flipped.racy = !p.racy
		if err := checkExplore(flipped, r); !isMismatch(err) {
			t.Errorf("%s: wrong racy=%v accepted: %v", p.name, flipped.racy, err)
		}
	}
	if judged < 3 {
		t.Errorf("only %d explorations finished before the deadline", judged)
	}
	hit := exploreResult{sum: &interp.ExploreSummary{}, deadline: true}
	for _, p := range e.progs {
		err := checkExplore(p, hit)
		if p.livelocks {
			if err != nil {
				t.Errorf("%s: the known livelock's deadline hit failed: %v", p.name, err)
			}
			continue
		}
		if err == nil || isMismatch(err) {
			t.Errorf("%s: a deadline hit must fail without being a wrong answer: %v", p.name, err)
		}
	}
	// The schedules a cut exploration ran are still judged.
	found := exploreResult{sum: &interp.ExploreSummary{Findings: make([]interp.Finding, 1)}, deadline: true}
	for _, p := range e.progs {
		if p.livelocks {
			if err := checkExplore(p, found); !isMismatch(err) {
				t.Errorf("%s: a finding in a cut exploration was accepted: %v", p.name, err)
			}
		}
	}
}

func TestExploreDeadlineCutsFftwLivelock(t *testing.T) {
	inst, err := setupExplore(shortConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	e := inst.(*explore)
	for _, p := range e.progs {
		if p.name != "fftw.shc" {
			continue
		}
		// Seed 1 with two schedules is the reported livelock.
		start := time.Now()
		r := e.exploreOp(nil, p, 1, 2)
		if d := time.Since(start); d > exploreDeadline+5*time.Second {
			t.Errorf("exploration took %v past a %v deadline", d, exploreDeadline)
		}
		if !r.deadline {
			t.Logf("the reported livelock finished in %v", time.Since(start))
		}
		if err := checkExplore(p, r); err != nil {
			t.Errorf("the known livelock's deadline hit must not fail: %v", err)
		}
	}
}

func TestCheckVetRejectsWrongAnswers(t *testing.T) {
	inst, err := setupVetCorpus(shortConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	racy := 0
	for _, p := range inst.(*vetCorpus).progs {
		r, err := vetOp(nil, p.name, p.src)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if err := checkVet(p, r); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		flipped := p
		flipped.racy = !p.racy
		if err := checkVet(flipped, r); !isMismatch(err) {
			t.Errorf("%s: wrong racy=%v accepted", p.name, flipped.racy)
		}
		if p.racy {
			racy++
		}
	}
	if racy != 3 {
		t.Errorf("%d racy programs in the corpus, want 3", racy)
	}
}

func TestAvoidedChecksPctIsDeterministic(t *testing.T) {
	a, err := avoidedChecksPct()
	if err != nil {
		t.Fatal(err)
	}
	b, err := avoidedChecksPct()
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a <= 0 || a > 100 {
		t.Fatalf("avoided_checks_pct %v then %v", a, b)
	}
}

func TestSharcRunCountsChecks(t *testing.T) {
	src := bench.PfscanSource(bench.Quick)
	tr := newTracer()
	r, err := sharcRun(tr, "", "pfscan.shc", src, compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.exit != bench.PfscanExpect(bench.Quick) || r.stats.TotalAccesses == 0 || r.instrs == 0 {
		t.Fatalf("pfscan: exit %d, %d accesses, %d instrs", r.exit, r.stats.TotalAccesses, r.instrs)
	}
	for _, name := range []string{"op", "parser.ParseProgram", "types.BuildWorld", "qualinfer.Infer", "check.Check", "compile.Compile", "interp.New", "Runtime.Run", "teardown"} {
		if tr.count[name] != 1 {
			t.Errorf("span %s recorded %d times, want 1", name, tr.count[name])
		}
	}
	for _, s := range tr.spans[1:] {
		if s.Parent != 0 || s.End < s.Start {
			t.Errorf("span %+v: want a closed child of the op", s)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	if got := quantile([]float64{1, 2, math.Inf(1)}, 0.99); !math.IsInf(got, 1) {
		t.Errorf("a failed request must sit beyond p99, got %v", got)
	}
	if got := geomean([]float64{1, 4}); got != 2 {
		t.Errorf("geomean = %v", got)
	}
}
