package refcount

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// fakeMem is a flat cell memory with atomic loads/stores for tests.
type fakeMem struct {
	cells []atomic.Int64
}

func newFakeMem(n int) *fakeMem {
	return &fakeMem{cells: make([]atomic.Int64, n)}
}

func (m *fakeMem) LoadCell(addr int64) int64 { return m.cells[addr].Load() }

// store writes a pointer slot through the manager's barrier.
func (m *fakeMem) store(mgr Manager, tid int, slot, val int64) {
	old := m.cells[slot].Load()
	mgr.Barrier(tid, slot, old, val)
	m.cells[slot].Store(val)
}

// identity resolver: objects are 16-cell blocks starting at multiples of 16
// in [16, 4096).
func blockResolve(ptr int64) int64 {
	if ptr < 16 || ptr >= 4096 {
		return 0
	}
	return ptr &^ 15
}

func newLP(t *testing.T, mem *fakeMem) *LP {
	t.Helper()
	lp := NewLP(len(mem.cells), blockResolve)
	lp.SetMemory(mem)
	return lp
}

func TestLPSingleReference(t *testing.T) {
	mem := newFakeMem(4096)
	lp := newLP(t, mem)
	mem.store(lp, 1, 100, 32) // slot 100 -> object at 32
	if got := lp.Count(1, 32); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
}

func TestLPTwoReferences(t *testing.T) {
	mem := newFakeMem(4096)
	lp := newLP(t, mem)
	mem.store(lp, 1, 100, 32)
	mem.store(lp, 1, 101, 32)
	if got := lp.Count(1, 32); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
}

func TestLPOverwriteDecrements(t *testing.T) {
	mem := newFakeMem(4096)
	lp := newLP(t, mem)
	mem.store(lp, 1, 100, 32)
	mem.store(lp, 1, 101, 32)
	if got := lp.Count(1, 32); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	mem.store(lp, 1, 101, 48) // retarget to another object
	if got := lp.Count(1, 32); got != 1 {
		t.Fatalf("count after overwrite = %d, want 1", got)
	}
	if got := lp.Count(1, 48); got != 1 {
		t.Fatalf("count of new target = %d, want 1", got)
	}
}

func TestLPNullOutForScast(t *testing.T) {
	// The scast procedure (Figure 7): null the slot, then check count <= 1.
	mem := newFakeMem(4096)
	lp := newLP(t, mem)
	mem.store(lp, 1, 100, 64)
	mem.store(lp, 1, 100, 0) // null out
	if got := lp.Count(1, 64); got > 1 {
		t.Fatalf("count = %d, want <= 1 after null-out", got)
	}
}

func TestLPSameEpochMultipleUpdates(t *testing.T) {
	// Several updates of one slot within an epoch: only the first logs; the
	// final value is what counts after collection.
	mem := newFakeMem(4096)
	lp := newLP(t, mem)
	mem.store(lp, 1, 100, 32)
	mem.store(lp, 1, 100, 48)
	mem.store(lp, 1, 100, 80)
	if got := lp.Count(1, 80); got != 1 {
		t.Fatalf("count(80) = %d, want 1", got)
	}
	if got := lp.Count(1, 32); got != 0 {
		t.Fatalf("count(32) = %d, want 0", got)
	}
	if got := lp.Count(1, 48); got != 0 {
		t.Fatalf("count(48) = %d, want 0", got)
	}
}

func TestLPInteriorPointers(t *testing.T) {
	// Interior pointers count toward the containing object.
	mem := newFakeMem(4096)
	lp := newLP(t, mem)
	mem.store(lp, 1, 100, 32)
	mem.store(lp, 1, 101, 35) // interior of the block at 32
	if got := lp.Count(1, 32); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
}

func TestLPNonHeapValuesIgnored(t *testing.T) {
	// Storing integers (bogus pointers) must not corrupt counts.
	mem := newFakeMem(4096)
	lp := newLP(t, mem)
	mem.store(lp, 1, 100, 9999) // out of heap range
	mem.store(lp, 1, 101, 5)    // below heap
	if got := lp.Count(1, 32); got != 0 {
		t.Fatalf("count = %d, want 0", got)
	}
}

func TestLPConcurrentMutators(t *testing.T) {
	mem := newFakeMem(4096)
	lp := newLP(t, mem)
	var wg sync.WaitGroup
	// Thread t stores object base 16*(t+1) into slots [t*32, t*32+16).
	for tid := 1; tid <= 4; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			obj := int64(16 * (tid + 1))
			for i := 0; i < 16; i++ {
				slot := int64(1000 + tid*32 + i)
				mem.store(lp, tid, slot, obj)
			}
		}(tid)
	}
	// A fifth thread repeatedly acts as collector while mutators run.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				lp.Collect(5)
			}
		}
	}()
	wg.Wait()
	close(done)
	for tid := 1; tid <= 4; tid++ {
		obj := int64(16 * (tid + 1))
		if got := lp.Count(6, obj); got != 16 {
			t.Errorf("count(%d) = %d, want 16", obj, got)
		}
	}
	if lp.Collections() == 0 {
		t.Error("collector should have run")
	}
}

// TestLPChunksOnFirstBarrier pins the lazy per-generation chunks: slots
// on both sides of a chunk boundary count correctly, a chunk is allocated
// only when one of its slots is barriered, and the collector's test of
// the live generation's dirty bits allocates nothing.
func TestLPChunksOnFirstBarrier(t *testing.T) {
	mem := newFakeMem(3 << chunkShift)
	lp := newLP(t, mem)
	e := int(lp.epoch.Load() & 1)
	mem.store(lp, 1, 1<<chunkShift-1, 32)
	mem.store(lp, 1, 1<<chunkShift, 32)
	if got := lp.Count(1, 32); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	for ci := range lp.chunks[e] {
		if allocated := lp.chunks[e][ci].Load() != nil; allocated != (ci < 2) {
			t.Errorf("generation %d chunk %d allocated = %v", e, ci, allocated)
		}
	}
	for ci := range lp.chunks[1-e] {
		if lp.chunks[1-e][ci].Load() != nil {
			t.Errorf("collecting allocated live-generation chunk %d", ci)
		}
	}
}

func TestNaiveCounts(t *testing.T) {
	mem := newFakeMem(4096)
	n := NewNaive(blockResolve)
	mem.store(n, 1, 100, 32)
	mem.store(n, 1, 101, 32)
	if got := n.Count(1, 32); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	mem.store(n, 1, 100, 0)
	if got := n.Count(1, 32); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
}

// Property: LP and Naive agree on final counts for any single-threaded
// update sequence.
func TestPropertyLPMatchesNaive(t *testing.T) {
	f := func(ops []uint16) bool {
		mem1 := newFakeMem(4096)
		mem2 := newFakeMem(4096)
		lp := NewLP(4096, blockResolve)
		lp.SetMemory(mem1)
		nv := NewNaive(blockResolve)
		objs := map[int64]bool{}
		for _, op := range ops {
			slot := int64(1000 + op%512)
			obj := int64(16 * (1 + (op>>9)%16)) // 16..256
			objs[obj] = true
			mem1.store(lp, 1, slot, obj)
			mem2.store(nv, 1, slot, obj)
		}
		for obj := range objs {
			if lp.Count(1, obj) != nv.Count(1, obj) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBarrierLP(b *testing.B) {
	mem := newFakeMem(4096)
	lp := NewLP(4096, blockResolve)
	lp.SetMemory(mem)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := int64(1000 + i%512)
		mem.store(lp, 1, slot, int64(16*(1+i%16)))
	}
}

func BenchmarkBarrierNaive(b *testing.B) {
	mem := newFakeMem(4096)
	nv := NewNaive(blockResolve)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := int64(1000 + i%512)
		mem.store(nv, 1, slot, int64(16*(1+i%16)))
	}
}
