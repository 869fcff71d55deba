package core

// arena is a per-Handle bump allocator for byte buffers whose lifetime is
// bounded by one top-level operation: split sibling nodes, new roots, the
// private copies a leaf write group queues behind its lock, and the parallel
// read buffers of a range scan. Handles are single-goroutine, so the arena
// needs no synchronization; it is reset at operation boundaries (rangeInner
// and each leaf write group, a point Put or Delete being a group of one)
// and grows monotonically to the high-water mark of the deepest operation
// seen — after warmup, a steady workload bump-allocates from the retained
// slab and never touches the heap.
//
// Ownership rule: an arena buffer is valid until the handle's next top-level
// operation begins. Anything that outlives the operation — cache entries,
// results returned to callers — must be copied out (cacheInternal and the
// scan result slice already do). Verbs copy their payloads synchronously, so
// posting an arena buffer to the fabric never extends its lifetime.
type arena struct {
	slab []byte
	off  int
	// poison fills released bytes with 0xDB at reset (Config.Poison), so a
	// retained reference into recycled arena memory reads garbage
	// deterministically instead of a stale-but-plausible node image.
	poison bool
	// spill holds slabs abandoned mid-operation by grow; they stay reachable
	// until reset so outstanding buffers remain valid, then drop at once.
	spill [][]byte
}

// poisonByte is the fill pattern of poison mode — an odd, non-zero value that
// fails node liveness and version checks loudly.
const poisonByte = 0xDB

// reset recycles the whole arena; outstanding buffers from the previous
// operation become invalid (and read poison when enabled).
func (a *arena) reset() {
	if a.poison {
		for i := range a.slab[:a.off] {
			a.slab[i] = poisonByte
		}
		for _, s := range a.spill {
			for i := range s {
				s[i] = poisonByte
			}
		}
	}
	a.off = 0
	a.spill = nil
}

// bytes bump-allocates n bytes. The returned slice has full capacity n, so an
// append past its end never silently bleeds into a neighboring allocation.
func (a *arena) bytes(n int) []byte {
	if a.off+n > len(a.slab) {
		a.grow(n)
	}
	b := a.slab[a.off : a.off+n : a.off+n]
	a.off += n
	if a.poison {
		// The region may hold a previous operation's poisoned bytes; callers
		// (node Init, verb reads) overwrite fully, but clear anyway so poison
		// means exactly "read after release", never "read before init".
		clear(b)
	}
	return b
}

// grow replaces the slab with one at least double the current size and large
// enough for n; the old slab parks in spill so buffers handed out earlier in
// this operation stay valid until reset.
func (a *arena) grow(n int) {
	size := 2 * len(a.slab)
	const minSlab = 4096
	if size < minSlab {
		size = minSlab
	}
	if size < n {
		size = n
	}
	if len(a.slab) > 0 {
		a.spill = append(a.spill, a.slab)
	}
	a.slab = make([]byte, size)
	a.off = 0
}
