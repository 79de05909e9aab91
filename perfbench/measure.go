package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics; +Inf entries
// (failed requests) sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// finite maps +Inf (a failed request in a latency percentile) to the
// largest float, which JSON can carry.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	return x
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// heapCounters reads the process's cumulative heap allocation and GC
// cycle counts.
type heapCounters struct{ allocBytes, gcCycles uint64 }

var heapSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

var (
	heapMu sync.Mutex
	// notWorkload is what the host reference allocated and collected.
	notWorkload heapCounters
)

// readHeap reads the counters, less the host reference's share.
func readHeap() heapCounters {
	heapMu.Lock()
	defer heapMu.Unlock()
	metrics.Read(heapSamples)
	return heapCounters{heapSamples[0].Value.Uint64(), heapSamples[1].Value.Uint64()}.since(notWorkload)
}

func excludeHeap(h heapCounters) {
	heapMu.Lock()
	defer heapMu.Unlock()
	notWorkload.allocBytes += h.allocBytes
	notWorkload.gcCycles += h.gcCycles
}

func (h heapCounters) since(start heapCounters) heapCounters {
	return heapCounters{h.allocBytes - start.allocBytes, h.gcCycles - start.gcCycles}
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// span is one timed call into a layer's public function.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans a run keeps in memory.
const maxSpans = 1 << 18

// tracer records spans around layer calls. A nil *tracer is off: every
// method is a no-op, so untraced runs execute the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// total and count aggregate the kept spans by name.
	total map[string]time.Duration
	count map[string]int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), total: make(map[string]time.Duration), count: make(map[string]int)}
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return -1 // not kept, and left out of the aggregates
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = now
	d := time.Duration(s.End - s.Start)
	t.total[s.Name] += d
	t.count[s.Name]++
	return d
}

// mean is the mean duration (ms) of the named spans.
func (t *tracer) mean(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count[name] == 0 {
		return 0
	}
	return ms(t.total[name]) / float64(t.count[name])
}

// write saves the kept spans as JSON lines under dir.
func (t *tracer) write(dir, file string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// provenance identifies what produced a result.
func provenance(rc runConfig, name string) map[string]any {
	processes := 1
	if w, err := findWorkload(name); err == nil && !rc.trace {
		processes = w.parts
	}
	return map[string]any{
		"workload":   name,
		"seed":       rc.seed,
		"seconds":    rc.budget.Seconds(),
		"trace":      rc.trace,
		"processes":  processes,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"godebug":    os.Getenv("GODEBUG"),
		"commit":     commit(),
	}
}

// commit is the VCS revision the binary was built from, or "unknown" for
// a build outside version control.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return "unknown"
	}
	return rev + dirty
}

// spanDir is where traced runs leave their spans.
func spanDir(rc runConfig) string { return filepath.Join(rc.root, ".bench_build", "spans") }

func spanFile(workload string, rc runConfig) string {
	return fmt.Sprintf("%s-seed%d.jsonl", workload, rc.seed)
}
