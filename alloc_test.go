package sharc

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/parser"
)

// runtimeAllocBudget bounds what interp.New plus Run may allocate for one
// Quick Table-1 model. The address space is paged on first store, so a run
// pays for the memory its program touches (under 1.2 MB on every row);
// with eagerly zeroed cell memory every run allocated about 24 MB.
const runtimeAllocBudget = 4 << 20

// TestRuntimeAllocationBudget is the allocation regression gate: each
// Quick Table-1 model, checked and unchecked, must stay within
// runtimeAllocBudget bytes per run. Allocation is deterministic enough to
// gate on where wall time is not; the least of three runs discounts
// whatever other goroutines allocate meanwhile.
func TestRuntimeAllocationBudget(t *testing.T) {
	var rows []string
	over := false
	for _, bm := range bench.Benchmarks {
		a, err := core.Analyze(parser.Source{Name: bm.Name + ".shc", Text: bm.Source(bench.Quick)})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []struct {
			name string
			opts compile.Options
		}{{"orig", compile.Options{}}, {"sharc", compile.DefaultOptions()}} {
			prog, err := a.Build(mode.opts)
			if err != nil {
				t.Fatal(err)
			}
			least := ^uint64(0)
			for i := 0; i < 3; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := interp.New(prog, interp.DefaultConfig()).Run(); err != nil {
					t.Fatalf("%s/%s: %v", bm.Name, mode.name, err)
				}
				runtime.ReadMemStats(&after)
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			rows = append(rows, fmt.Sprintf("%s/%s: %d B/op", bm.Name, mode.name, least))
			over = over || least > runtimeAllocBudget
		}
	}
	if over {
		t.Fatalf("a run allocates more than %d B:\n%s", runtimeAllocBudget, strings.Join(rows, "\n"))
	}
	t.Log(strings.Join(rows, "\n"))
}
