package bench

// The portfolio-exploration scaling benchmark behind BENCH_portfolio.json:
// for each racy program, explore the same schedule budget at several worker
// counts and record throughput, time to the first finding, the duplicate
// skip rate, and whether the finding set stayed identical to the
// single-worker run (the determinism contract says it must).

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/compile"
	"repro/internal/interp"
)

// PortfolioWorkerCounts is the worker-count sweep each program is measured
// at.
var PortfolioWorkerCounts = []int{1, 2, 4, 8}

// PortfolioRow is one (program, worker count) measurement.
type PortfolioRow struct {
	Name    string `json:"name"`
	Workers int    `json:"workers"`

	Schedules int `json:"schedules"`
	// Duplicates is the static count of schedules whose strategy identity
	// repeats an earlier one; Skipped is how many schedules were not
	// executed, which equals Duplicates because every duplicate's row is
	// copied from its primary at merge time.
	Duplicates int     `json:"duplicates"`
	Skipped    int     `json:"skipped"`
	SkipRate   float64 `json:"skip_rate"` // skipped / schedules

	Millis          float64 `json:"ms"` // best-of-reps wall time
	SchedulesPerSec float64 `json:"schedules_per_sec"`
	// Speedup is against the workers=1 row of the same program; Efficiency
	// divides it by the ideal speedup min(workers, NumCPU).
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`

	Findings       int     `json:"findings"`
	FindingsMatch  bool    `json:"findings_match"`   // identical set to workers=1
	FirstFindingMs float64 `json:"first_finding_ms"` // -1 if no finding
}

// PortfolioReport is the BENCH_portfolio.json document.
type PortfolioReport struct {
	// NumCPU and GOMAXPROCS describe the measurement host: with a single
	// usable CPU the ideal speedup is 1 at every worker count, and the
	// efficiency column reads against that, not against K.
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Schedules  int            `json:"schedules"`
	Rows       []PortfolioRow `json:"rows"`
}

// findingSet canonicalizes a summary's findings for set comparison.
func findingSet(sum *interp.ExploreSummary) string {
	keys := make([]string, 0, len(sum.Findings))
	for _, f := range sum.Findings {
		keys = append(keys, fmt.Sprintf("%s|%s|%d", f.KindName, f.Site, f.Schedule))
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// RunPortfolio measures one racy benchmark across the worker-count sweep.
func RunPortfolio(b *RacyBenchmark, schedules, reps int) ([]PortfolioRow, error) {
	prog, err := build(b.Source(), compile.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("%s (build): %w", b.Name, err)
	}
	ideal := func(workers int) float64 {
		if n := runtime.NumCPU(); workers > n {
			workers = n
		}
		return float64(workers)
	}
	var rows []PortfolioRow
	var baseMs float64
	var baseSet string
	for _, workers := range PortfolioWorkerCounts {
		var sum *interp.ExploreSummary
		d, err := best(reps, func() (time.Duration, error) {
			start := time.Now()
			sum = interp.Explore(prog, interp.DefaultConfig(), interp.ExploreOptions{
				Schedules: schedules, Strategy: "mix", Seed: 1,
				Workers: workers,
			})
			return time.Since(start), nil
		})
		if err != nil {
			return rows, fmt.Errorf("%s (explore, %d workers): %w", b.Name, workers, err)
		}
		row := PortfolioRow{
			Name:       b.Name,
			Workers:    workers,
			Schedules:  sum.Schedules,
			Duplicates: sum.Duplicates,
			Skipped:    sum.SkippedExecutions,
			Millis:     float64(d.Microseconds()) / 1e3,
			Findings:   len(sum.Findings),
		}
		if row.Schedules > 0 {
			row.SkipRate = float64(row.Skipped) / float64(row.Schedules)
		}
		if d > 0 {
			row.SchedulesPerSec = float64(schedules) / d.Seconds()
		}
		row.FirstFindingMs = -1
		if len(sum.Findings) > 0 {
			row.FirstFindingMs = float64(sum.FirstFinding.Microseconds()) / 1e3
		}
		set := findingSet(sum)
		if workers == PortfolioWorkerCounts[0] {
			baseMs, baseSet = row.Millis, set
		}
		row.FindingsMatch = set == baseSet
		if row.Millis > 0 {
			row.Speedup = baseMs / row.Millis
			row.Efficiency = row.Speedup / ideal(workers)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PortfolioTable measures every racy benchmark.
func PortfolioTable(schedules, reps int) (PortfolioReport, error) {
	rep := PortfolioReport{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Schedules:  schedules,
	}
	for i := range RacyBenchmarks {
		rows, err := RunPortfolio(&RacyBenchmarks[i], schedules, reps)
		if err != nil {
			return rep, err
		}
		rep.Rows = append(rep.Rows, rows...)
	}
	return rep, nil
}

// FormatPortfolio renders the scaling table.
func FormatPortfolio(rep PortfolioReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "host: %d CPU(s), GOMAXPROCS=%d, %d schedules\n",
		rep.NumCPU, rep.GOMAXPROCS, rep.Schedules)
	fmt.Fprintf(&sb, "%-8s %7s %9s %9s %8s %5s %5s %6s %8s %6s %7s\n",
		"Name", "Workers", "ms", "sched/s", "speedup", "eff", "dup", "skip", "first-ms", "finds", "match")
	for _, r := range rep.Rows {
		first := "-"
		if r.FirstFindingMs >= 0 {
			first = fmt.Sprintf("%.1f", r.FirstFindingMs)
		}
		fmt.Fprintf(&sb, "%-8s %7d %9.1f %9.0f %8.2f %5.2f %5d %6d %8s %6d %7v\n",
			r.Name, r.Workers, r.Millis, r.SchedulesPerSec, r.Speedup, r.Efficiency,
			r.Duplicates, r.Skipped, first, r.Findings, r.FindingsMatch)
	}
	return sb.String()
}

// PortfolioJSON renders the report for BENCH_portfolio.json.
func PortfolioJSON(rep PortfolioReport) ([]byte, error) {
	return json.MarshalIndent(rep, "", "  ")
}
