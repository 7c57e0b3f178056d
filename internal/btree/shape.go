package btree

// Shape tracks the node structure a Tree would have for the same keys, given
// as uint64s: a Tree whose keys are their 8-byte big-endian encodings splits
// the same nodes at the same keys, so Depth and Len agree after every
// operation. It stores no values and answers no lookups. The page cache
// keeps one to price its index lookups by depth while a hash table serves
// them.
//
// The rules it shares with Tree are what keep the two together: the fan-out
// and the split point (full and splitAt), a leaf split's separator being the
// right half's first key while an internal split moves its middle key up,
// the preemptive split of every full node on a Put's way down (the root
// included, and also when the key is already present), and lazy deletion.
// FuzzShapeDepth checks them against Tree.
type Shape struct {
	root  *shapeNode
	size  int
	depth int
}

// shapeNode is a node of a Shape. A leaf is one allocation: its keys are a
// slice over its own array.
type shapeNode struct {
	keys     []uint64
	children []*shapeNode // internal nodes only; len(keys)+1
	buf      [maxKeys]uint64
}

func newShapeNode(leaf bool) *shapeNode {
	n := &shapeNode{}
	n.keys = n.buf[:0]
	if !leaf {
		n.children = make([]*shapeNode, 0, maxKeys+1)
	}
	return n
}

// NewShape returns an empty shape.
func NewShape() *Shape {
	return &Shape{root: newShapeNode(true), depth: 1}
}

// Len returns the number of keys.
func (s *Shape) Len() int { return s.size }

// Depth returns the number of levels (>=1), the same as a Tree's.
func (s *Shape) Depth() int { return s.depth }

func (n *shapeNode) leaf() bool { return n.children == nil }

// find returns the first index whose key is >= k, and whether that key
// equals k.
func (n *shapeNode) find(k uint64) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.keys) && n.keys[lo] == k
}

// childIndex returns which child to descend into for k: the first index
// whose key is > k.
func (n *shapeNode) childIndex(k uint64) int {
	i, eq := n.find(k)
	if eq {
		i++
	}
	return i
}

// insertKey puts k at index i; the node has room (it is not full).
func (n *shapeNode) insertKey(i int, k uint64) {
	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = k
}

// splitChild splits the full child at index i of n, as node.splitChild does.
func (n *shapeNode) splitChild(i int) {
	child := n.children[i]
	mid := splitAt(len(child.keys))
	right := newShapeNode(child.leaf())
	var sep uint64
	if child.leaf() {
		right.keys = append(right.keys, child.keys[mid:]...)
		sep = right.keys[0]
	} else {
		sep = child.keys[mid]
		right.keys = append(right.keys, child.keys[mid+1:]...)
		right.children = append(right.children, child.children[mid+1:]...)
		clear(child.children[mid+1:])
		child.children = child.children[:mid+1]
	}
	child.keys = child.keys[:mid]
	n.insertKey(i, sep)
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

// Put inserts k, reporting whether it was newly inserted. Like Tree.Put it
// splits every full node on the way down, even when k is already present.
func (s *Shape) Put(k uint64) bool {
	if full(len(s.root.keys)) {
		old := s.root
		s.root = newShapeNode(false)
		s.root.children = append(s.root.children, old)
		s.root.splitChild(0)
		s.depth++
	}
	n := s.root
	for !n.leaf() {
		i := n.childIndex(k)
		if full(len(n.children[i].keys)) {
			n.splitChild(i)
			if k >= n.keys[i] {
				i++
			}
		}
		n = n.children[i]
	}
	i, ok := n.find(k)
	if ok {
		return false
	}
	n.insertKey(i, k)
	s.size++
	return true
}

// Delete removes k, reporting whether it was present. Deletion is lazy, as
// in Tree: no node merges or shrinks.
func (s *Shape) Delete(k uint64) bool {
	n := s.root
	for !n.leaf() {
		n = n.children[n.childIndex(k)]
	}
	i, ok := n.find(k)
	if !ok {
		return false
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	s.size--
	return true
}
