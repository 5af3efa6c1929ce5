package scan

// Int64Arena is an append-only slab allocator for per-file result rows.
// Kernels that must persist a small slice per scanned file (the match
// kernel's per-pattern counts, for instance) would otherwise allocate one
// exact copy per file — 200k allocations over a 200k-file corpus. Copying
// into an arena instead carves the rows out of fixed-capacity slabs, so
// the allocation count is rows·len/DefaultArenaSize, not rows.
//
// Slices returned by Copy stay valid forever (slabs are never reused or
// grown in place; a full slab is simply abandoned to the GC when its
// rows die). The zero value is ready to use. The arena is NOT safe for
// concurrent use: it belongs on the merge frontier — the engine calls
// Merge on the prototype strictly serially — or inside a single worker's
// private kernel state.
type Int64Arena struct {
	slab []int64
}

// DefaultArenaSize is the per-slab element count: big enough to
// amortise, small enough not to strand memory on tiny runs.
const DefaultArenaSize = 4096

// Copy stores a copy of src in the arena and returns the stored slice,
// capacity-clamped so appends by the caller cannot bleed into the next
// row. A nil or empty src returns nil. A row longer than a slab gets a
// dedicated one.
func (a *Int64Arena) Copy(src []int64) []int64 {
	n := len(src)
	if n == 0 {
		return nil
	}
	if cap(a.slab)-len(a.slab) < n {
		a.slab = make([]int64, 0, max(DefaultArenaSize, n))
	}
	off := len(a.slab)
	// Only the returned row is clamped; the arena's own view keeps the
	// slab's full capacity so the next row lands behind this one.
	a.slab = a.slab[:off+n]
	dst := a.slab[off : off+n : off+n]
	copy(dst, src)
	return dst
}
