// Package btree implements the lightweight in-memory B+ tree KVell uses to
// track item locations on disk (§5.3 of the paper): byte-string keys map to
// 64-bit disk locations, keys stay sorted for range scans, and the structure
// reports its depth so the simulator can charge per-level lookup cost.
//
// Put copies the key into the tree. A key the tree hands out (AscendFrom,
// Range, FirstN, Min) aliases the tree's own key bytes: it is valid until the
// next Put or Delete, and a caller that keeps it longer copies it.
//
// The tree is not safe for concurrent use; KVell shards one tree per worker
// (shared-nothing) and scans take a brief per-worker lock.
package btree

import (
	"bytes"
	"encoding/binary"
	"slices"
)

// maxKeys is the fan-out of a node; chosen so nodes are a few cache lines,
// giving depth ~4-5 for millions of keys (the paper reports ~19B/item of
// index overhead and predictable lookup times).
const maxKeys = 64

// node owns its keys: they sit back to back in kb, key i at
// kb[ko[i]:ko[i+1]], so a node is a handful of allocations however many keys
// it holds and a search touches one array. All keys of a node start with the
// same p bytes (the first p bytes of key 0), and ab[i] holds the next 8 bytes
// of key i, big-endian and zero-padded: a search compares its key's prefix
// once, then binary-searches ab as integers, and only an equal abbreviation
// compares the rest of the bytes. p only shrinks while the node has keys (an
// insert that breaks it re-abbreviates the node) and a split hands both
// halves the splitting node's p, so their abbreviations stay as they are.
type node struct {
	leaf     bool
	p        int
	kb       []byte
	ko       []uint32 // len(ab)+1 offsets into kb; ko[0] is 0
	ab       []uint64
	vals     []uint64 // parallel to ab; leaves only
	children []*node  // internal nodes only; len(ab)+1
	next     *node    // leaf chain for range scans
}

// Tree is an in-memory B+ tree from byte-string keys to uint64 values.
// The zero value is not usable; call New.
type Tree struct {
	root  *node
	size  int
	depth int
}

// newNode returns a node with its per-key slices preallocated to the fan-out
// and room for kbCap key bytes, so inserts and splits of keys no longer than
// the ones before never regrow them.
func newNode(leaf bool, kbCap int) *node {
	n := &node{
		leaf: leaf,
		kb:   make([]byte, 0, kbCap),
		ko:   make([]uint32, 1, maxKeys+1),
		ab:   make([]uint64, 0, maxKeys),
	}
	if leaf {
		n.vals = make([]uint64, 0, maxKeys)
	} else {
		n.children = make([]*node, 0, maxKeys+1)
	}
	return n
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: newNode(true, 0), depth: 1}
}

// Len returns the number of keys.
func (t *Tree) Len() int { return t.size }

// Depth returns the number of levels (>=1); used for lookup cost charging.
func (t *Tree) Depth() int { return t.depth }

// MemBytes estimates the tree's memory footprint in bytes (key bytes plus
// per-item structure overhead), mirroring the paper's ~19B/item accounting.
// Separator keys count as well, so the figure depends only on which keys
// were put and deleted in which order, not on the node layout.
func (t *Tree) MemBytes() int64 {
	var keyBytes int64
	var walk func(n *node)
	walk = func(n *node) {
		keyBytes += int64(len(n.kb))
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	// value (8B) + slice headers amortized (~11B/item at fanout 64)
	return keyBytes + int64(t.size)*19
}

// key returns key i, capped so that appending to it cannot reach key i+1.
func (n *node) key(i int) []byte {
	return n.kb[n.ko[i]:n.ko[i+1]:n.ko[i+1]]
}

// abbrev returns the abbreviation of a key whose first p bytes are the node
// prefix, given the rest s: its first 8 bytes, big-endian, zero-padded. Two
// different abbreviations order their keys; equal ones do not, since the
// padding makes "a" and "a\x00" alike.
func abbrev(s []byte) uint64 {
	if len(s) >= 8 {
		return binary.BigEndian.Uint64(s)
	}
	var b [8]byte
	copy(b[:], s)
	return binary.BigEndian.Uint64(b[:])
}

// find returns the first index whose key is >= key, and whether that key
// equals key. A key without the node prefix sorts before or after every key
// of the node; otherwise the search runs on the abbreviations and compares
// bytes only where they tie. Manual binary search: sort.Search costs an
// indirect call per probe, and this search is every index lookup.
func (n *node) find(key []byte) (int, bool) {
	cnt, p := len(n.ab), n.p
	if cnt == 0 {
		return 0, false
	}
	if len(key) < p || string(key[:p]) != string(n.kb[:p]) {
		if bytes.Compare(key, n.kb[:p]) < 0 {
			return 0, false
		}
		return cnt, false
	}
	sfx := key[p:]
	a := abbrev(sfx)
	lo, hi := 0, cnt
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		x := n.ab[mid]
		less := x < a
		if x == a {
			c := bytes.Compare(n.kb[int(n.ko[mid])+p:n.ko[mid+1]], sfx)
			if c == 0 {
				return mid, true
			}
			less = c < 0
		}
		if less {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, false
}

// childIndex returns which child to descend into for key: the first index
// whose key is > key.
func (n *node) childIndex(key []byte) int {
	i, eq := n.find(key)
	if eq {
		i++
	}
	return i
}

// Get returns the value for key and whether it is present.
func (t *Tree) Get(key []byte) (uint64, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[n.childIndex(key)]
	}
	if i, ok := n.find(key); ok {
		return n.vals[i], true
	}
	return 0, false
}

func (n *node) full() bool { return full(len(n.ab)) }

// full reports whether a node holding cnt keys must split before a Put
// descends into it. Shape applies the same rule.
func full(cnt int) bool { return cnt >= maxKeys }

// splitAt is the index a full node of cnt keys splits at: a leaf keeps the
// keys before it, and an internal node moves the key at it up. Shape splits
// at the same index.
func splitAt(cnt int) int { return cnt / 2 }

// insertKey copies key into the node as key i, first shortening the node
// prefix (and re-abbreviating every key) if key does not carry it. An empty
// node takes all of key as its prefix.
func (n *node) insertKey(i int, key []byte) {
	if len(n.ab) == 0 {
		n.p = len(key)
	} else if q := commonPrefix(key, n.kb[:n.p]); q < n.p {
		n.p = q
		for j := range n.ab {
			n.ab[j] = abbrev(n.kb[int(n.ko[j])+q : n.ko[j+1]])
		}
	}
	s, l, end := n.ko[i], uint32(len(key)), len(n.kb)
	n.kb = append(n.kb, key...)
	copy(n.kb[s+l:], n.kb[s:end])
	copy(n.kb[s:], key)
	n.ko = append(n.ko, 0)
	for j := len(n.ko) - 1; j > i; j-- {
		n.ko[j] = n.ko[j-1] + l
	}
	n.ab = append(n.ab, 0)
	copy(n.ab[i+1:], n.ab[i:])
	n.ab[i] = abbrev(key[n.p:])
}

// deleteKey removes key i, closing the gap in kb. The prefix stays: every
// remaining key still carries it.
func (n *node) deleteKey(i int) {
	s, e := n.ko[i], n.ko[i+1]
	n.kb = append(n.kb[:s], n.kb[e:]...)
	for j := i + 1; j < len(n.ko); j++ {
		n.ko[j-1] = n.ko[j] - (e - s)
	}
	n.ko = n.ko[:len(n.ko)-1]
	n.ab = append(n.ab[:i], n.ab[i+1:]...)
}

// moveKeysFrom appends src's keys from index i on, with their
// abbreviations: the receiving node has src's prefix.
func (n *node) moveKeysFrom(src *node, i int) {
	base := src.ko[i]
	n.kb = append(n.kb, src.kb[base:]...)
	for _, o := range src.ko[i+1:] {
		n.ko = append(n.ko, o-base)
	}
	n.ab = append(n.ab, src.ab[i:]...)
	src.truncate(i)
}

// truncate keeps the node's first k keys.
func (n *node) truncate(k int) {
	n.kb = n.kb[:n.ko[k]]
	n.ko = n.ko[:k+1]
	n.ab = n.ab[:k]
}

func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// splitChild splits the full child at index i of internal (or root) node n,
// inserting the separator into n.
func (n *node) splitChild(i int) {
	child := n.children[i]
	mid := splitAt(len(child.ab))
	right := newNode(child.leaf, cap(child.kb))
	right.p = child.p
	var sep []byte
	if child.leaf {
		// B+ leaf split: right gets keys[mid:], separator is right's first
		// key (it stays in the leaf). child keeps its arrays at full
		// capacity.
		right.moveKeysFrom(child, mid)
		right.vals = append(right.vals, child.vals[mid:]...)
		child.vals = child.vals[:mid]
		right.next = child.next
		child.next = right
		sep = right.key(0)
	} else {
		// Internal split: middle key moves up. It stays readable in child's
		// truncated kb until n copies it below.
		sep = child.key(mid)
		right.moveKeysFrom(child, mid+1)
		child.truncate(mid)
		right.children = append(right.children, child.children[mid+1:]...)
		clear(child.children[mid+1:])
		child.children = child.children[:mid+1]
	}
	n.insertKey(i, sep)
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

// Put inserts or replaces key with value v. The key bytes are copied.
// It reports whether the key was newly inserted.
func (t *Tree) Put(key []byte, v uint64) bool {
	if t.root.full() {
		old := t.root
		t.root = newNode(false, cap(old.kb))
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
			if bytes.Compare(key, n.key(i)) >= 0 {
				i++
			}
		}
		n = n.children[i]
	}
	i, ok := n.find(key)
	if ok {
		n.vals[i] = v
		return false
	}
	n.insertKey(i, key)
	n.vals = append(n.vals, 0)
	copy(n.vals[i+1:], n.vals[i:])
	n.vals[i] = v
	t.size++
	return true
}

// Delete removes key, reporting whether it was present. Deletion is lazy
// (no rebalancing): KVell's deletes are rare relative to lookups, and
// under-full leaves only cost a little extra space.
func (t *Tree) Delete(key []byte) bool {
	n := t.root
	for !n.leaf {
		n = n.children[n.childIndex(key)]
	}
	i, ok := n.find(key)
	if !ok {
		return false
	}
	n.deleteKey(i)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	t.size--
	return true
}

// firstLeafGE returns the leaf and index of the first key >= start
// (possibly one past the leaf's last key; callers must advance).
func (t *Tree) firstLeafGE(start []byte) (*node, int) {
	n := t.root
	for !n.leaf {
		n = n.children[n.childIndex(start)]
	}
	i, _ := n.find(start)
	return n, i
}

// AscendFrom calls fn for each key >= start in ascending order until fn
// returns false. fn must not modify the tree, and a key it keeps past the
// next Put or Delete must be copied (see the package comment).
func (t *Tree) AscendFrom(start []byte, fn func(key []byte, v uint64) bool) {
	n, i := t.firstLeafGE(start)
	for n != nil {
		for ; i < len(n.ab); i++ {
			if !fn(n.key(i), n.vals[i]) {
				return
			}
		}
		n = n.next
		i = 0
	}
}

// Range calls fn for each key in [start, end) in ascending order until fn
// returns false. A nil end means no upper bound. The keys are AscendFrom's.
func (t *Tree) Range(start, end []byte, fn func(key []byte, v uint64) bool) {
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
// The keys alias the tree's bytes and are valid until its next Put or
// Delete.
func (t *Tree) FirstN(start []byte, n int, keys [][]byte, vals []uint64) ([][]byte, []uint64) {
	keys, vals = slices.Grow(keys, n), slices.Grow(vals, n)
	end := len(keys) + n
	t.AscendFrom(start, func(k []byte, v uint64) bool {
		keys = append(keys, k)
		vals = append(vals, v)
		return len(keys) < end
	})
	return keys, vals
}

// Min returns the smallest key (nil if empty), valid until the next Put or
// Delete.
func (t *Tree) Min() []byte {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	// Lazy deletion can empty the leftmost leaf; follow the chain.
	for n != nil && len(n.ab) == 0 {
		n = n.next
	}
	if n == nil {
		return nil
	}
	return n.key(0)
}
