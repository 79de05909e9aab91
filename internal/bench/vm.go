package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/compile"
	"repro/internal/interp"
	"repro/internal/ir"
)

// VMRow measures one Table-1 benchmark on both execution engines under the
// full checked configuration: the recursive tree walker against the
// register VM over the flat instruction form. The engines are behaviorally
// identical (same reports, same exit value — Match pins it per row), so
// the column of interest is pure dispatch speed.
type VMRow struct {
	Name string `json:"name"`

	TimeTree time.Duration `json:"time_tree_ns"`
	TimeVM   time.Duration `json:"time_vm_ns"`
	// Speedup is tree time over VM time (>1 means the VM is faster).
	Speedup float64 `json:"speedup"`

	// Match is the correctness cross-check: the VM run reproduced the tree
	// run's exit value and violation reports.
	Match bool  `json:"match"`
	Exit  int64 `json:"exit"`

	// StaticDischarge records whether the vet discharge pass was part of
	// the measured configuration.
	StaticDischarge bool `json:"static_discharge"`
}

// runEngineOnce executes prog on the chosen engine.
func runEngineOnce(prog *ir.Program, engine interp.Engine) (*interp.Runtime, int64, time.Duration, error) {
	cfg := interp.DefaultConfig()
	cfg.Engine = engine
	rt := interp.New(prog, cfg)
	start := time.Now()
	ret, err := rt.Run()
	return rt, ret, time.Since(start), err
}

// RunVM measures one benchmark on both engines.
func RunVM(b *Benchmark, s Scale, reps int) (VMRow, error) {
	src := b.Source(s)
	row := VMRow{Name: b.Name}

	prog, err := build(src, compile.DefaultOptions())
	if err != nil {
		return row, fmt.Errorf("%s (checked build): %w", b.Name, err)
	}

	// Correctness cross-check before timing.
	rtT, retT, _, err := runEngineOnce(prog, interp.EngineTree)
	if err != nil {
		return row, fmt.Errorf("%s (tree): %w", b.Name, err)
	}
	rtV, retV, _, err := runEngineOnce(prog, interp.EngineVM)
	if err != nil {
		return row, fmt.Errorf("%s (vm): %w", b.Name, err)
	}
	row.Exit = retV
	row.Match = retT == retV && reportsEqual(rtT.Reports(), rtV.Reports())

	// Interleave the two engines' repetitions so host drift hits both.
	for rep := 0; rep < reps; rep++ {
		_, _, dT, err := runEngineOnce(prog, interp.EngineTree)
		if err != nil {
			return row, fmt.Errorf("%s (tree): %w", b.Name, err)
		}
		_, _, dV, err := runEngineOnce(prog, interp.EngineVM)
		if err != nil {
			return row, fmt.Errorf("%s (vm): %w", b.Name, err)
		}
		if rep == 0 || dT < row.TimeTree {
			row.TimeTree = dT
		}
		if rep == 0 || dV < row.TimeVM {
			row.TimeVM = dV
		}
	}
	if row.TimeVM > 0 {
		row.Speedup = float64(row.TimeTree) / float64(row.TimeVM)
	}
	return row, nil
}

// VMTable measures every Table-1 benchmark on both engines.
func VMTable(s Scale, reps int) ([]VMRow, error) {
	var rows []VMRow
	for i := range Benchmarks {
		r, err := RunVM(&Benchmarks[i], s, reps)
		if err != nil {
			return rows, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// GeomeanSpeedup is the geometric mean of the per-row tree/VM speedups.
func GeomeanSpeedup(rows []VMRow) float64 {
	if len(rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rows {
		if r.Speedup <= 0 {
			return 0
		}
		sum += math.Log(r.Speedup)
	}
	return math.Exp(sum / float64(len(rows)))
}

// FormatVM renders the engine comparison with the geomean line.
func FormatVM(rows []VMRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %11s %11s %9s %6s\n",
		"Name", "Tree", "VM", "Speedup", "Match")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %11s %11s %8.2fx %6v\n",
			r.Name, r.TimeTree.Round(time.Millisecond), r.TimeVM.Round(time.Millisecond),
			r.Speedup, r.Match)
	}
	fmt.Fprintf(&sb, "geomean speedup: %.2fx\n", GeomeanSpeedup(rows))
	return sb.String()
}

// vmReport is the BENCH_vm.json shape: the rows plus the aggregate and
// the recording host.
type vmReport struct {
	Rows           []VMRow `json:"rows"`
	GeomeanSpeedup float64 `json:"geomean_speedup"`
	NumCPU         int     `json:"num_cpu"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	GoVersion      string  `json:"go_version"`
}

// VMJSON renders rows machine-readably for BENCH_vm.json.
func VMJSON(rows []VMRow) ([]byte, error) {
	return json.MarshalIndent(vmReport{
		Rows:           rows,
		GeomeanSpeedup: GeomeanSpeedup(rows),
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
	}, "", "  ")
}
