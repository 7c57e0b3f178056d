package btree

// The tree as it was before nodes owned their keys: every key a separately
// allocated []byte, searched with bytes.Compare. FuzzTreeOps drives it and
// Tree with the same operations and requires identical answers, iteration
// order, Len, Depth and MemBytes — the last two are what every simulated
// cost is charged from, so the node layout may not move them.

import (
	"bytes"
	"slices"
)

type refNode struct {
	leaf     bool
	keys     [][]byte
	vals     []uint64   // parallel to keys; leaves only
	children []*refNode // internal nodes only; len(keys)+1
	next     *refNode   // leaf chain for range scans
}

type refTree struct {
	root  *refNode
	size  int
	depth int
}

// newRefNode returns a node with slices preallocated to the fan-out, so inserts
// and splits never regrow them.
func newRefNode(leaf bool) *refNode {
	n := &refNode{leaf: leaf, keys: make([][]byte, 0, maxKeys)}
	if leaf {
		n.vals = make([]uint64, 0, maxKeys)
	} else {
		n.children = make([]*refNode, 0, maxKeys+1)
	}
	return n
}

// newRefTree returns an empty tree.
func newRefTree() *refTree {
	return &refTree{root: newRefNode(true), depth: 1}
}

// Len returns the number of keys.
func (t *refTree) Len() int { return t.size }

// Depth returns the number of levels (>=1); used for lookup cost charging.
func (t *refTree) Depth() int { return t.depth }

// MemBytes estimates the tree's memory footprint in bytes (key bytes plus
// per-item structure overhead), mirroring the paper's ~19B/item accounting.
func (t *refTree) MemBytes() int64 {
	var keyBytes int64
	var walk func(n *refNode)
	walk = func(n *refNode) {
		for _, k := range n.keys {
			keyBytes += int64(len(k))
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	// value (8B) + slice headers amortized (~11B/item at fanout 64)
	return keyBytes + int64(t.size)*19
}

// find returns the first index whose key is >= key. Manual binary search:
// sort.Search costs a closure allocation-prone indirect call per probe, and
// these two searches dominate every index lookup.
func (n *refNode) find(key []byte) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(n.keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex returns which child to descend into for key: the first index
// whose key is > key.
func (n *refNode) childIndex(key []byte) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(key, n.keys[mid]) < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Get returns the value for key and whether it is present.
func (t *refTree) Get(key []byte) (uint64, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[n.childIndex(key)]
	}
	i := n.find(key)
	if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
		return n.vals[i], true
	}
	return 0, false
}

func (n *refNode) full() bool { return len(n.keys) >= maxKeys }

// splitChild splits the full child at index i of internal (or root) node n,
// inserting the separator into n.
func (n *refNode) splitChild(i int) {
	child := n.children[i]
	mid := len(child.keys) / 2
	right := newRefNode(child.leaf)
	var sep []byte
	if child.leaf {
		// B+ leaf split: right gets a copy of keys[mid:], separator is
		// right's first key (it stays in the leaf). child keeps its arrays
		// at full capacity; the copied-out tail is cleared for the GC.
		right.keys = append(right.keys, child.keys[mid:]...)
		right.vals = append(right.vals, child.vals[mid:]...)
		for j := mid; j < len(child.keys); j++ {
			child.keys[j] = nil
		}
		child.keys = child.keys[:mid]
		child.vals = child.vals[:mid]
		right.next = child.next
		child.next = right
		sep = right.keys[0]
	} else {
		// Internal split: middle key moves up.
		sep = child.keys[mid]
		right.keys = append(right.keys, child.keys[mid+1:]...)
		right.children = append(right.children, child.children[mid+1:]...)
		for j := mid; j < len(child.keys); j++ {
			child.keys[j] = nil
		}
		for j := mid + 1; j < len(child.children); j++ {
			child.children[j] = nil
		}
		child.keys = child.keys[:mid]
		child.children = child.children[:mid+1]
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = sep
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

// Put inserts or replaces key with value v. The key bytes are copied.
// It reports whether the key was newly inserted.
func (t *refTree) Put(key []byte, v uint64) bool {
	if t.root.full() {
		old := t.root
		t.root = newRefNode(false)
		t.root.children = append(t.root.children, old)
		t.root.splitChild(0)
		t.depth++
	}
	n := t.root
	for !n.leaf {
		i := n.childIndex(key)
		if n.children[i].full() {
			n.splitChild(i)
			// Re-evaluate which side the key belongs to.
			if bytes.Compare(key, n.keys[i]) >= 0 {
				i++
			}
		}
		n = n.children[i]
	}
	i := n.find(key)
	if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
		n.vals[i] = v
		return false
	}
	kc := append([]byte(nil), key...)
	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = kc
	n.vals = append(n.vals, 0)
	copy(n.vals[i+1:], n.vals[i:])
	n.vals[i] = v
	t.size++
	return true
}

// Delete removes key, reporting whether it was present. Deletion is lazy
// (no rebalancing): KVell's deletes are rare relative to lookups, and
// under-full leaves only cost a little extra space.
func (t *refTree) Delete(key []byte) bool {
	n := t.root
	for !n.leaf {
		n = n.children[n.childIndex(key)]
	}
	i := n.find(key)
	if i >= len(n.keys) || !bytes.Equal(n.keys[i], key) {
		return false
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	t.size--
	return true
}

// firstLeafGE returns the leaf and index of the first key >= start
// (possibly one past the leaf's last key; callers must advance).
func (t *refTree) firstLeafGE(start []byte) (*refNode, int) {
	n := t.root
	for !n.leaf {
		n = n.children[n.childIndex(start)]
	}
	return n, n.find(start)
}

// AscendFrom calls fn for each key >= start in ascending order until fn
// returns false.
func (t *refTree) AscendFrom(start []byte, fn func(key []byte, v uint64) bool) {
	n, i := t.firstLeafGE(start)
	for n != nil {
		for ; i < len(n.keys); i++ {
			if !fn(n.keys[i], n.vals[i]) {
				return
			}
		}
		n = n.next
		i = 0
	}
}

// Range calls fn for each key in [start, end) in ascending order until fn
// returns false. A nil end means no upper bound.
func (t *refTree) Range(start, end []byte, fn func(key []byte, v uint64) bool) {
	t.AscendFrom(start, func(k []byte, v uint64) bool {
		if end != nil && bytes.Compare(k, end) >= 0 {
			return false
		}
		return fn(k, v)
	})
}

// FirstN appends up to n (key, value) pairs with key >= start to keys and
// vals and returns the extended slices, so a caller that gathers from several
// trees reuses one pair of buffers. The buffers grow at most once per call.
func (t *refTree) FirstN(start []byte, n int, keys [][]byte, vals []uint64) ([][]byte, []uint64) {
	keys, vals = slices.Grow(keys, n), slices.Grow(vals, n)
	end := len(keys) + n
	t.AscendFrom(start, func(k []byte, v uint64) bool {
		keys = append(keys, k)
		vals = append(vals, v)
		return len(keys) < end
	})
	return keys, vals
}

// Min returns the smallest key (nil if empty).
func (t *refTree) Min() []byte {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	if len(n.keys) == 0 {
		// Lazy deletion can empty the leftmost leaf; follow the chain.
		for n != nil && len(n.keys) == 0 {
			n = n.next
		}
		if n == nil {
			return nil
		}
	}
	return n.keys[0]
}
