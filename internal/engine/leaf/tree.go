package leaf

import (
	"bytes"
	"fmt"
	"sort"

	"kvell/internal/costs"
	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/kv"
)

// Tree is the leaf level of a tree engine: the sorted leaf table (the
// internal structure above it is in memory and modelled by Find's charge),
// the residency accounting of the leaf cache, and the page allocator the
// leaves' runs come from.
type Tree struct {
	// Leaves is sorted by FirstKey and never empty; Leaves[0] owns -inf.
	Leaves []*Leaf

	lru     []*Leaf // resident leaves, least recently used first
	cachedB int64   // Σ Bytes of resident leaves
	dirtyB  int64   // Σ Bytes of dirty leaves

	cacheBytes int64 // residency budget
	alloc      *device.Allocator
	bufs       [][]byte // recycled leaf read buffers
}

// NewTree returns a tree of one empty resident leaf, so the table is never
// empty. Leaves take their page runs from alloc.
func NewTree(alloc *device.Allocator, cacheBytes int64) *Tree {
	t := &Tree{cacheBytes: cacheBytes, alloc: alloc}
	l := &Leaf{Ents: []Entry{}, Pages: 1, Page: alloc.Alloc(1), lruIdx: -1}
	t.Leaves = []*Leaf{l}
	t.Touch(l)
	return t
}

// CachedBytes is the serialized size of the resident leaves.
func (t *Tree) CachedBytes() int64 { return t.cachedB }

// DirtyBytes is the serialized size of the leaves awaiting write-back.
func (t *Tree) DirtyBytes() int64 { return t.dirtyB }

// Find returns the index of the leaf owning key. The in-memory descent is
// charged like a B-tree walk of fan-out 16.
func (t *Tree) Find(c env.Ctx, key []byte) int {
	depth := 1
	for n := len(t.Leaves); n > 1; n /= 16 {
		depth++
	}
	c.CPU(env.Time(depth) * costs.BTreeNode)
	return t.search(key)
}

// search is Find without the charge.
func (t *Tree) search(key []byte) int {
	if i := t.upper(key); i > 0 {
		return i - 1
	}
	return 0
}

// upper returns the index of the first leaf whose range starts after key.
func (t *Tree) upper(key []byte) int {
	return sort.Search(len(t.Leaves), func(i int) bool {
		return bytes.Compare(t.Leaves[i].FirstKey, key) > 0
	})
}

// ---- residency ----

// Touch makes resident leaf l the most recently used.
func (t *Tree) Touch(l *Leaf) {
	t.unlink(l)
	l.lruIdx = len(t.lru)
	t.lru = append(t.lru, l)
}

func (t *Tree) unlink(l *Leaf) {
	if l.lruIdx < 0 {
		return
	}
	copy(t.lru[l.lruIdx:], t.lru[l.lruIdx+1:])
	t.lru = t.lru[:len(t.lru)-1]
	for i := l.lruIdx; i < len(t.lru); i++ {
		t.lru[i].lruIdx = i
	}
	l.lruIdx = -1
}

// Install makes l resident with freshly decoded records, then evicts clean
// leaves, oldest first, while the cache is over budget; dirty leaves are the
// write-back threads' job, so the cache can overshoot until they catch up.
func (t *Tree) Install(l *Leaf, ents []Entry, total int) {
	l.Ents = ents
	l.Bytes = total
	t.cachedB += int64(total)
	t.Touch(l)
	for t.cachedB > t.cacheBytes && t.dropOldestClean(l) {
	}
}

// dropOldestClean evicts the least recently used clean leaf other than keep
// and reports whether there was one.
func (t *Tree) dropOldestClean(keep *Leaf) bool {
	for _, v := range t.lru {
		if v != keep && !v.Dirty {
			t.Drop(v)
			return true
		}
	}
	return false
}

// Drop releases a clean resident leaf's memory.
func (t *Tree) Drop(l *Leaf) {
	t.cachedB -= int64(l.Bytes)
	l.Ents = nil
	t.unlink(l)
}

// OldestDirty returns the least recently used dirty leaf, the write-back
// victim, or nil when everything resident is clean.
func (t *Tree) OldestDirty() *Leaf {
	for _, l := range t.lru {
		if l.Dirty {
			return l
		}
	}
	return nil
}

// DirtyLeaves appends every dirty leaf to dst, least recently used first.
func (t *Tree) DirtyLeaves(dst []*Leaf) []*Leaf {
	for _, l := range t.lru {
		if l.Dirty {
			dst = append(dst, l)
		}
	}
	return dst
}

// MarkDirty flags a resident leaf as awaiting write-back.
func (t *Tree) MarkDirty(l *Leaf) {
	if !l.Dirty {
		l.Dirty = true
		t.dirtyB += int64(l.Bytes)
	}
}

// Reconcile serializes dirty leaf l into dst (see Encode) and marks it
// clean: the image now owes the disk a write at l.Page, which the caller
// issues. Every leaf write-back of both engines starts here.
func (t *Tree) Reconcile(l *Leaf, dst []byte) []byte {
	img := Encode(l, dst)
	l.Dirty = false
	t.dirtyB -= int64(l.Bytes)
	return img
}

// resize applies a size change to l, keeping the cache and dirty accounting
// consistent.
func (t *Tree) resize(l *Leaf, delta int) {
	l.Bytes += delta
	if l.Ents != nil {
		t.cachedB += int64(delta)
	}
	if l.Dirty {
		t.dirtyB += int64(delta)
	}
}

// ---- records ----

// Upsert inserts or replaces key's record in resident leaf l and marks l
// dirty. The leaf keeps value as given — the caller must not reuse it — and
// copies key only when it is new to the leaf, so replacing a record costs
// the caller no key allocation.
func (t *Tree) Upsert(l *Leaf, key, value []byte) {
	t.MarkDirty(l)
	i, found := l.Search(key)
	if found {
		t.resize(l, len(value)-len(l.Ents[i].Value))
		l.Ents[i].Value = value
		return
	}
	l.Ents = append(l.Ents, Entry{})
	copy(l.Ents[i+1:], l.Ents[i:])
	l.Ents[i] = Entry{Key: bytes.Clone(key), Value: value}
	t.resize(l, EntryBytes(len(key), len(value)))
}

// Remove deletes key's record from resident leaf l, marking l dirty, and
// reports whether there was one; a miss leaves l untouched.
func (t *Tree) Remove(l *Leaf, key []byte) bool {
	i, found := l.Search(key)
	if !found {
		return false
	}
	t.MarkDirty(l)
	t.resize(l, -EntryBytes(len(key), len(l.Ents[i].Value)))
	l.Ents = append(l.Ents[:i], l.Ents[i+1:]...)
	return true
}

// Fit restores l's shape after a mutation: a leaf whose image outgrew the
// leaf size splits in half (once — a half that is still too big splits on
// its next mutation), and a leaf whose single large record outgrew its page
// run moves to a run that fits.
func (t *Tree) Fit(l *Leaf) {
	if l.Bytes+countHeader > leafBytes && len(l.Ents) > 1 {
		t.split(l)
	}
	if need := RunPages(l.Bytes); need > l.Pages {
		t.alloc.Free(l.Page, l.Pages)
		l.Pages = need
		l.Page = t.alloc.Alloc(need)
	}
}

// split moves the upper half of l (dirty, resident) to a new right sibling
// with a page run of its own. l's bytes were already counted in cachedB and
// dirtyB and the halves together hold the same bytes, so only the
// attribution moves.
func (t *Tree) split(l *Leaf) {
	mid := len(l.Ents) / 2
	right := &Leaf{
		FirstKey: bytes.Clone(l.Ents[mid].Key),
		Ents:     append([]Entry(nil), l.Ents[mid:]...),
		Dirty:    true,
		lruIdx:   -1,
	}
	for _, e := range right.Ents {
		right.Bytes += EntryBytes(len(e.Key), len(e.Value))
	}
	l.Ents = l.Ents[:mid:mid]
	l.Bytes -= right.Bytes
	right.Pages = RunPages(right.Bytes)
	right.Page = t.alloc.Alloc(right.Pages)

	i := t.upper(right.FirstKey)
	t.Leaves = append(t.Leaves, nil)
	copy(t.Leaves[i+1:], t.Leaves[i:])
	t.Leaves[i] = right
	t.Touch(right)
}

// ---- bulk build ----

// Build replaces the tree with ~90%-full leaves holding items (sorted by
// key), written straight to st, none of them resident. An empty items
// leaves the tree as it is. It reports whether the tree was replaced.
func (t *Tree) Build(st device.Store, items []kv.Item) bool {
	if len(items) == 0 {
		return false
	}
	budget := leafBytes * 9 / 10
	var leaves []*Leaf
	var img []byte
	cur := &Leaf{lruIdx: -1}
	flush := func() {
		cur.Pages = RunPages(cur.Bytes)
		cur.Page = t.alloc.Alloc(cur.Pages)
		img = Encode(cur, img)
		if err := st.WritePages(cur.Page, img); err != nil {
			panic(err)
		}
		cur.Ents = nil // not resident
		leaves = append(leaves, cur)
		cur = &Leaf{lruIdx: -1}
	}
	for _, it := range items {
		n := EntryBytes(len(it.Key), len(it.Value))
		if cur.Bytes+n+countHeader > budget && len(cur.Ents) > 0 {
			flush()
		}
		if len(cur.Ents) == 0 {
			cur.FirstKey = bytes.Clone(it.Key)
		}
		cur.Ents = append(cur.Ents, Entry{Key: it.Key, Value: it.Value})
		cur.Bytes += n
	}
	flush()
	leaves[0].FirstKey = nil // leftmost leaf owns -inf
	t.Leaves = leaves
	t.lru = nil
	t.cachedB, t.dirtyB = 0, 0
	return true
}

// ---- read buffers ----

// GetBuf takes a read buffer for a run of pages pages from the recycle pool.
// A pooled buffer that is too small is dropped, so the pool converges on the
// largest leaf size.
func (t *Tree) GetBuf(pages int64) []byte {
	need := int(pages) * device.PageSize
	if n := len(t.bufs); n > 0 {
		b := t.bufs[n-1]
		t.bufs = t.bufs[:n-1]
		if cap(b) >= need {
			return b[:need]
		}
	}
	return make([]byte, need)
}

// PutBuf returns a read buffer once Decode has copied out of it.
func (t *Tree) PutBuf(buf []byte) { t.bufs = append(t.bufs, buf) }

// ---- invariants ----

// Check verifies the accounting invariants the engines rely on: cachedB and
// dirtyB are the sums they claim to be, every resident leaf is on the LRU
// list exactly once (and nothing else is), and the leaf table is sorted with
// the leftmost leaf owning -inf. It is what the tests of this package and of
// both engines assert.
func (t *Tree) Check() error {
	var cached, dirty int64
	resident := 0
	for i, l := range t.Leaves {
		switch {
		case i == 0 && l.FirstKey != nil:
			return fmt.Errorf("leaf 0 has first key %q, want nil (-inf)", l.FirstKey)
		case i > 0 && l.FirstKey == nil:
			return fmt.Errorf("leaf %d has a nil first key", i)
		case i > 1 && bytes.Compare(t.Leaves[i-1].FirstKey, l.FirstKey) >= 0:
			return fmt.Errorf("leaf table out of order at %d", i)
		}
		if l.Dirty {
			dirty += int64(l.Bytes)
		}
		if l.Ents == nil {
			if l.lruIdx != -1 {
				return fmt.Errorf("leaf %d is not resident but on the LRU list", i)
			}
			continue
		}
		cached += int64(l.Bytes)
		resident++
		if l.lruIdx < 0 || l.lruIdx >= len(t.lru) || t.lru[l.lruIdx] != l {
			return fmt.Errorf("leaf %d is resident but not at its LRU position %d", i, l.lruIdx)
		}
		sum := 0
		for _, e := range l.Ents {
			sum += EntryBytes(len(e.Key), len(e.Value))
		}
		if sum != l.Bytes {
			return fmt.Errorf("leaf %d holds %d record bytes, accounts %d", i, sum, l.Bytes)
		}
	}
	if resident != len(t.lru) {
		return fmt.Errorf("%d resident leaves, %d LRU entries", resident, len(t.lru))
	}
	if cached != t.cachedB || dirty != t.dirtyB {
		return fmt.Errorf("cachedB %d (Σ resident %d), dirtyB %d (Σ dirty %d)", t.cachedB, cached, t.dirtyB, dirty)
	}
	return nil
}
