// Command perfbench is sharc's benchmark: four workloads that each put
// most of their work on a different layer, measured end to end with
// tracing off and layer by layer in a separate traced run.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads:
//
//	table1-full  whole `sharc run`s of the six Table-1 models at Full scale
//	serve-mix    an in-process `sharc serve` under a closed loop (and, traced,
//	             an open loop)
//	explore-mix  interp.Explore over the racy programs and Quick models
//	vet-corpus   Analyze + vet + Build over 24 programs, no execution
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones (endToEnd below), each the median over the
// workload's parts, child processes that measure a share of the budget,
// with times rescaled to a nominal host by a reference each process times
// next to its measurement (hostref.go);
// with --trace 1, one process measures the per-layer ones
// (perLayer), which come from spans the benchmark wraps around each call
// into a layer and, for serve, from the server's /metrics. The line before
// it carries the run's provenance; standard error has each program's op
// count and median op time. Every op is checked against a known answer:
// failed counts wrong answers, errors and timeouts, and correct is false
// only for a wrong answer. The one exception is the known fftw livelock in
// explore-mix (see livelockModel): its deadline hits are not failed ops,
// and show in req_per_s, explore.deadline_hits and failed_frac.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	root   string        // repository root: inputs are read relative to it
	seed   int64         // workload seed; the programs only see generated inputs
	budget time.Duration // measured time
	trace  bool          // per-layer run (spans on) instead of end-to-end
	short  bool          // small inputs, for the benchmark's own tests
	// host times the reference; a workload that measures in one long
	// process samples it between rounds as well.
	host *hostClock
}

// instance is a set-up workload, ready to measure.
type instance interface {
	run(rc runConfig) (*outcome, error)
	close()
}

// workload builds an instance; the time it takes is setup_s.
type workload struct {
	name  string
	setup func(rc runConfig) (instance, error)
	// parts is how many processes an end-to-end run is split into. They
	// run one after another, each sets the workload up and measures an
	// equal share of the budget, and every metric is the median over the
	// parts. One process's figures carry an offset of their own: on a
	// 2-vCPU host, the 1 s windows of three 10 s serve-mix runs sat at
	// 297-365, 294-358 and 233-287 req/s, and set-up times of single
	// processes spread far wider than medians over five.
	parts int
}

var workloads = []workload{
	{"table1-full", setupTable1, 5},
	{"serve-mix", setupServe, 5},
	// One process: its req_per_s counts the fftw deadline hits, a draw
	// per round of about 1.5 s, and needs every round of the budget.
	{"explore-mix", setupExplore, 1},
	{"vet-corpus", setupVetCorpus, 5},
}

// setupReps is how many times a process sets its workload up; setup_s is
// the median. Every set-up but the last is torn down again.
const setupReps = 25

// outcome is one measured run's result before it is printed.
type outcome struct {
	attempted int
	failed    int // mismatched + errored + timed out
	// mismatched counts ops whose output contradicted the known answer;
	// any makes the run incorrect. Deadline hits and errors are failures
	// but not wrong answers.
	mismatched int
	// livelocks counts correct ops cut by their deadline on the known
	// fftw livelock; they are not failed, but failed_frac counts them.
	livelocks int
	metrics   map[string]float64
	ops       *opLog // per-program op times, summarised on standard error
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

// note records one op's verdict: err is nil for a correct op.
func (o *outcome) note(err error) {
	o.attempted++
	if err == nil {
		return
	}
	o.failed++
	var m *mismatch
	if errors.As(err, &m) {
		o.mismatched++
	}
	if o.failed <= 5 {
		fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
	}
}

// mismatch is an op whose output contradicted its known answer.
type mismatch struct{ msg string }

func (m *mismatch) Error() string { return "wrong answer: " + m.msg }

func wrong(format string, args ...any) error {
	return &mismatch{msg: fmt.Sprintf(format, args...)}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	root := flag.String("root", ".", "repository root")
	part := flag.Int("part", -1, "run one part of an end-to-end run (set by the benchmark itself)")
	flag.Parse()

	rc := runConfig{
		root:   *root,
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		trace:  *trace == 1,
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	var res *result
	var err error
	if rc.trace || *part >= 0 {
		res, err = measure(*name, rc)
	} else {
		res, err = measureParts(*name, rc)
	}
	if err != nil {
		fatal(err)
	}
	prov, err := json.Marshal(provenance(rc, *name))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("provenance: %s\n", prov)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// measureParts runs the end-to-end measurement as the workload's parts,
// child processes of this program run one after another, each with its
// own seed derived from the run's, and combines their results.
func measureParts(name string, rc runConfig) (*result, error) {
	w, err := validate(name, rc)
	if err != nil {
		return nil, err
	}
	if w.parts == 1 {
		return measure(name, rc)
	}
	parts := w.parts
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// Bounds the whole run, below the three minutes one run may take.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	// A part dies with this process, even if it is killed: the kernel
	// signals the part when the thread that started it exits, so that
	// thread stays put.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var rs []*result
	for i := 0; i < parts; i++ {
		cmd := exec.CommandContext(ctx, exe,
			"--root", rc.root, "--workload", name,
			"--seed", strconv.FormatInt(rc.seed*int64(parts)+int64(i), 10),
			"--seconds", strconv.FormatFloat(rc.budget.Seconds()/float64(parts), 'g', -1, 64),
			"--trace", "0", "--part", strconv.Itoa(i))
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		stdout, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		rs = append(rs, &r)
	}
	return combineParts(rs), nil
}

// combineParts sums the parts' op counts and takes each end-to-end
// metric's median over the parts. The run is correct if every part is.
func combineParts(rs []*result) *result {
	c := &result{Correct: true, Metrics: make(map[string]metricValue, len(endToEnd))}
	for _, r := range rs {
		c.Correct = c.Correct && r.Correct
		c.Attempted += r.Attempted
		c.Failed += r.Failed
	}
	for _, d := range endToEnd {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, r.Metrics[d.name].Value)
		}
		c.Metrics[d.name] = metricValue{Value: median(xs), Unit: d.unit}
	}
	return c
}

// validate returns the named workload, or rejects an unknown workload or
// a root without the sources.
func validate(name string, rc runConfig) (workload, error) {
	w, err := findWorkload(name)
	if err != nil {
		return w, err
	}
	if _, err := os.Stat(filepath.Join(rc.root, "internal", "interp", "testdata")); err != nil {
		return w, fmt.Errorf("--root %q is not the repository root: %w", rc.root, err)
	}
	return w, nil
}

// measure sets the workload up setupReps times, runs it once between
// timings of the host reference and returns the printed result with
// exactly the metrics of the run's mode, its times rescaled to the
// nominal host.
func measure(name string, rc runConfig) (*result, error) {
	w, err := validate(name, rc)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var inst instance
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		inst, err = w.setup(rc)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		if i < setupReps-1 {
			inst.close()
		}
	}
	rc.host = &hostClock{}
	for i := 0; i < refSamples; i++ {
		rc.host.sample()
	}
	runtime.GC()
	out, err := inst.run(rc)
	inst.close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for i := 0; i < refSamples; i++ {
		rc.host.sample()
	}
	if out.ops != nil {
		out.ops.summary(os.Stderr)
	}
	out.metrics["setup_s"] = median(setups)
	rc.host.rescale(out.metrics)
	out.metrics["peak_rss_mb"] = peakRSSMB()
	if out.attempted > 0 {
		out.metrics["failed_frac"] = float64(out.failed+out.livelocks) / float64(out.attempted)
	}
	pct, err := avoidedChecksPct()
	if err != nil {
		return nil, err
	}
	out.metrics["avoided_checks_pct"] = pct
	return toResult(out, rc.trace)
}

// toResult keeps exactly the metrics of the mode. Every end-to-end metric
// must have been measured; a per-layer metric the workload does not
// exercise reads 0.
func toResult(out *outcome, trace bool) (*result, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := &result{
		Correct:   out.mismatched == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// metricDef names one metric and its unit; BENCHMARK.json lists the same.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of sharc sees, measured with tracing off.
// Each is measured on every workload, with the workload's own op: a whole
// `sharc run`, one HTTP request, one exploration, or one Analyze + vet +
// Build. Metrics that exist on one workload only, such as the open loop's
// latencies or schedules per second, are per-layer.
// Their times are rescaled to the nominal host (see hostClock).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_geomean_ms", "ms"},    // geomean over the programs of the median op time
	{"req_per_s", "1/s"},        // correct ops per second of the closed loop
	{"alloc_mb_per_op", "MB"},   // Go heap bytes allocated per op
	{"avoided_checks_pct", "%"}, // statically avoided check sites on the six models
}

// perLayer are the traced run's metrics. Times are per op unless named
// otherwise; counts are per op, or per pass over the workload's distinct
// programs for the static (vet and compile) counts.
var perLayer = []metricDef{
	{"trace.overhead_pct", "%"},
	{"host.ref_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"failed_frac", "ratio"},
	{"lat_p50_ms", "ms"},
	{"lat_p99_ms", "ms"},
	{"interp.setup_ms", "ms"},
	{"interp.setup_mb", "MB"},
	{"gc.cycles_per_op", "count"},
	{"interp.exec_ms", "ms"},
	{"interp.exec_orig_ms", "ms"},
	{"interp.check_overhead_pct", "%"},
	{"interp.exec_mb", "MB"},
	{"interp.teardown_ms", "ms"},
	{"interp.accesses", "count"},
	{"interp.dynamic_checks", "count"},
	{"interp.lock_checks", "count"},
	{"refcount.barriers", "count"},
	{"refcount.collections", "count"},
	{"shadow.pages", "count"},
	{"interp.heap_pages", "count"},
	{"parser.parse_ms", "ms"},
	{"lexer.tokens", "count"},
	{"types.world_ms", "ms"},
	{"qualinfer.infer_ms", "ms"},
	{"check.check_ms", "ms"},
	{"pointsto.analyze_ms", "ms"},
	{"vet.lockset_ms", "ms"},
	{"vet.absint_ms", "ms"},
	{"vet_geomean_ms", "ms"},
	{"vet.must", "count"},
	{"vet.may", "count"},
	{"vet.discharged_absint", "count"},
	{"compile.build_ms", "ms"},
	{"compile.check_sites", "count"},
	{"compile.elided", "count"},
	{"compile.discharged", "count"},
	{"ir.flat_instrs", "count"},
	{"schedules_per_s", "1/s"},
	{"first_finding_ms", "ms"},
	{"sched.decisions", "count"},
	{"sched.decisions_per_s", "1/s"},
	{"explore.duplicates", "count"},
	{"portfolio.skipped", "count"},
	{"portfolio.skip_ratio", "ratio"},
	{"explore.deadline_hits", "count"},
	{"serve.admission_wait_ms", "ms"},
	{"serve.resolve_ms", "ms"},
	{"serve.schedule_ms", "ms"},
	{"serve.execute_ms", "ms"},
	{"serve.telemetry_merge_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.refused", "count"},
	{"serve.timeouts", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"obsrv.overhead_pct", "%"},
}

// opLog collects the end-to-end view of a workload's correct ops. Failed
// ops are counted by the outcome and left out of the timings: a failed
// exploration lasts until its deadline, and whether a seed trips the
// known fftw livelock would otherwise decide a program's median.
type opLog struct {
	byProg map[string][]float64 // op latencies (ms) per program
	ok     int
	okTime time.Duration // time spent in correct ops
}

func newOpLog() *opLog { return &opLog{byProg: make(map[string][]float64)} }

// summary writes each program's op count and median op time.
func (l *opLog) summary(w io.Writer) {
	names := make([]string, 0, len(l.byProg))
	for n := range l.byProg {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-24s ops %5d  median %9.3f ms\n", n, len(l.byProg[n]), median(l.byProg[n]))
	}
}

// add records a correct op; prog "" counts it without a latency sample.
func (l *opLog) add(prog string, d time.Duration, ok bool) {
	if !ok {
		return
	}
	l.ok++
	l.okTime += d
	if prog != "" {
		l.byProg[prog] = append(l.byProg[prog], ms(d))
	}
}

// throughput is req_per_s for a workload whose ops run one at a time:
// correct ops per second spent on them.
func (l *opLog) throughput() float64 { return float64(l.ok) / l.okTime.Seconds() }

// geomeanOfMedians is run_geomean_ms: each program's median op time,
// combined by geometric mean so every program weighs the same.
func geomeanOfMedians(byProg map[string][]float64) float64 {
	names := make([]string, 0, len(byProg))
	for n := range byProg {
		names = append(names, n)
	}
	sort.Strings(names)
	var meds []float64
	for _, n := range names {
		meds = append(meds, median(byProg[n]))
	}
	return geomean(meds)
}
