package interp

import "sync/atomic"

// The runtime's address space is a table of fixed-size cell pages mapped on
// first store, as SharC's shadow is mapped by the kernel on first touch: a
// run pays for the pages its program writes, not for the 31 thread stacks
// and the heap the address space reserves. A page that was never written
// reads as zero, so loads allocate nothing.

const (
	pageShift = 12
	pageCells = 1 << pageShift // 4096 cells = 32 KiB, one Go size class
	pageMask  = pageCells - 1
)

type page [pageCells]int64

// pageTable maps page index -> page (nil until the first store).
type pageTable []atomic.Pointer[page]

func newPageTable(cells int64) pageTable {
	return make(pageTable, (cells+pageMask)>>pageShift)
}

// load reads cell addr; an unmapped page reads as zero.
func (pt pageTable) load(addr int64) int64 {
	p := pt[addr>>pageShift].Load()
	if p == nil {
		return 0
	}
	return atomic.LoadInt64(&p[addr&pageMask])
}

// store writes cell addr, mapping its page on first touch.
func (pt pageTable) store(addr, v int64) {
	p := pt[addr>>pageShift].Load()
	if p == nil {
		p = mapOnce(&pt[addr>>pageShift])
	}
	atomic.StoreInt64(&p[addr&pageMask], v)
}

// mapOnce returns slot's chunk, installing a zeroed one if there is none
// yet and keeping whichever chunk a racing caller installed first.
func mapOnce[T any](slot *atomic.Pointer[T]) *T {
	if p := slot.Load(); p != nil {
		return p
	}
	fresh := new(T)
	if slot.CompareAndSwap(nil, fresh) {
		return fresh
	}
	return slot.Load()
}

// clear zeroes cells [base, base+n). Unmapped pages already read as zero
// and stay unmapped.
func (pt pageTable) clear(base, n int64) {
	for addr, end := base, base+n; addr < end; {
		next := min((addr|pageMask)+1, end)
		if p := pt[addr>>pageShift].Load(); p != nil {
			for a := addr; a < next; a++ {
				atomic.StoreInt64(&p[a&pageMask], 0)
			}
		}
		addr = next
	}
}

// mapped reports whether the page holding addr has been written.
func (pt pageTable) mapped(addr int64) bool {
	return pt[addr>>pageShift].Load() != nil
}

// barrierBits is one page's worth of the "stored through a barrier"
// bitmap: one bit per cell.
type barrierBits [pageCells / 32]atomic.Uint32

// barrierTable is the per-cell barrier bitmap, paged like the cells: a
// chunk is allocated when a cell on its page is first barriered. It is
// kept out of page so a page stays exactly 32 KiB; Go rounds anything
// larger up to a 40 KiB span.
type barrierTable []atomic.Pointer[barrierBits]

func (bt barrierTable) mark(addr int64) {
	w := &mapOnce(&bt[addr>>pageShift])[(addr&pageMask)/32]
	bit := uint32(1) << uint(addr%32)
	for {
		v := w.Load()
		if v&bit != 0 || w.CompareAndSwap(v, v|bit) {
			return
		}
	}
}

func (bt barrierTable) test(addr int64) bool {
	b := bt[addr>>pageShift].Load()
	return b != nil && b[(addr&pageMask)/32].Load()&(uint32(1)<<uint(addr%32)) != 0
}
