package slab

// Arena is a bump allocator for transient scratch buffers on engine
// maintenance paths (compaction merges, flush table builds, leaf
// reconciliation). Alloc hands out sub-slices of large backing blocks;
// Reset recycles every block at once. A per-thread arena makes a repeated
// job (one compaction, one flush) allocation-free in steady state while
// bounding memory by the largest job seen.
//
// Contents returned by Alloc are NOT zeroed after the first Reset — callers
// must fully overwrite the buffer. Buffers stay valid until the next Reset;
// an Arena is not safe for concurrent use.
type Arena struct {
	cur []byte
	off int
	old [][]byte // earlier blocks, kept alive until Reset
}

// NewArena returns an arena whose blocks are at least blockBytes large.
func NewArena(blockBytes int) *Arena {
	if blockBytes < 1024 {
		blockBytes = 1024
	}
	return &Arena{cur: make([]byte, blockBytes)}
}

// Alloc returns an n-byte buffer with arbitrary contents (capacity capped
// so appends cannot clobber neighboring allocations).
func (a *Arena) Alloc(n int) []byte {
	if a.off+n > len(a.cur) {
		a.grow(n)
	}
	b := a.cur[a.off : a.off+n : a.off+n]
	a.off += n
	return b
}

func (a *Arena) grow(n int) {
	size := 2 * len(a.cur)
	if size < n {
		size = n
	}
	a.old = append(a.old, a.cur)
	a.cur = make([]byte, size)
	a.off = 0
}

// Reset invalidates all outstanding allocations and makes the arena's
// memory reusable, keeping only the largest block.
func (a *Arena) Reset() {
	for _, b := range a.old {
		if len(b) > len(a.cur) {
			a.cur = b
		}
	}
	a.old = a.old[:0]
	a.off = 0
}
