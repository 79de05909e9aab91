package interp

// Test-only views of the paged address space for the external edge tests.

// PageCells is the number of cells per memory page.
const PageCells = pageCells

// MemLen returns the end of the address space: the first out-of-bounds cell.
func (rt *Runtime) MemLen() int64 { return rt.memLen }

// HeapBase returns the first heap cell.
func (rt *Runtime) HeapBase() int64 { return rt.heapBase }

// PageMapped reports whether the page holding addr has been written.
func (rt *Runtime) PageMapped(addr int64) bool { return rt.pages.mapped(addr) }
