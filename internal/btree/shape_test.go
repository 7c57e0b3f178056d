package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// shapePair applies every operation to a Tree of 8-byte big-endian keys and
// to a Shape, and fails as soon as their answers, Depth or Len differ.
type shapePair struct {
	t  *testing.T
	tr *Tree
	s  *Shape
	kb [8]byte
}

func newShapePair(t *testing.T) *shapePair {
	return &shapePair{t: t, tr: New(), s: NewShape()}
}

func (p *shapePair) put(k uint64) {
	p.t.Helper()
	binary.BigEndian.PutUint64(p.kb[:], k)
	if got, want := p.s.Put(k), p.tr.Put(p.kb[:], k); got != want {
		p.t.Fatalf("Shape.Put(%d) = %v, Tree %v", k, got, want)
	}
	p.same()
}

func (p *shapePair) delete(k uint64) {
	p.t.Helper()
	binary.BigEndian.PutUint64(p.kb[:], k)
	if got, want := p.s.Delete(k), p.tr.Delete(p.kb[:]); got != want {
		p.t.Fatalf("Shape.Delete(%d) = %v, Tree %v", k, got, want)
	}
	p.same()
}

func (p *shapePair) same() {
	p.t.Helper()
	if p.s.Depth() != p.tr.Depth() || p.s.Len() != p.tr.Len() {
		p.t.Fatalf("Shape Depth/Len = %d/%d, Tree %d/%d", p.s.Depth(), p.s.Len(), p.tr.Depth(), p.tr.Len())
	}
}

// sameNodes walks both structures and fails at the first node whose kind,
// keys or number of children differ.
func (p *shapePair) sameNodes() {
	p.t.Helper()
	if d := nodeDiff(p.tr.root, p.s.root, "root"); d != "" {
		p.t.Fatal(d)
	}
}

func nodeDiff(n *node, m *shapeNode, path string) string {
	if n.leaf != m.leaf() || len(n.ab) != len(m.keys) || len(n.children) != len(m.children) {
		return fmt.Sprintf("%s: Tree node leaf/keys/children %v/%d/%d, Shape %v/%d/%d",
			path, n.leaf, len(n.ab), len(n.children), m.leaf(), len(m.keys), len(m.children))
	}
	for i, k := range m.keys {
		if tk := binary.BigEndian.Uint64(n.key(i)); tk != k {
			return fmt.Sprintf("%s: key %d is %d in Tree, %d in Shape", path, i, tk, k)
		}
	}
	for i := range m.children {
		if d := nodeDiff(n.children[i], m.children[i], fmt.Sprintf("%s/%d", path, i)); d != "" {
			return d
		}
	}
	return ""
}

// TestShapeDepthMatchesTree drives a Tree and a Shape with the same keys and
// requires the same Depth and Len after every operation and the same nodes at
// the end of each case.
func TestShapeDepthMatchesTree(t *testing.T) {
	t.Run("ascending", func(t *testing.T) {
		p := newShapePair(t)
		for k := uint64(0); k < 300_000; k++ {
			p.put(k)
		}
		if p.s.Depth() < 4 {
			t.Fatalf("Depth = %d after 300K ascending keys, want >= 4", p.s.Depth())
		}
		p.sameNodes()
	})

	// A page cache of 2,048 pages over a universe three times its size, the
	// ratio of the end-to-end workloads: every miss evicts a random resident
	// page and inserts the missing one, and a hit puts a present page again.
	t.Run("churn", func(t *testing.T) {
		const cache, universe = 2048, 3 * 2048
		r := rand.New(rand.NewSource(1))
		p := newShapePair(t)
		var live []uint64
		in := make(map[uint64]bool)
		for len(live) < cache {
			if k := uint64(r.Intn(universe)); !in[k] {
				in[k] = true
				live = append(live, k)
				p.put(k)
			}
		}
		for i := 0; i < 200_000; i++ {
			k := uint64(r.Intn(universe))
			if in[k] {
				p.put(k)
				continue
			}
			j := r.Intn(cache)
			delete(in, live[j])
			p.delete(live[j])
			in[k] = true
			live[j] = k
			p.put(k)
		}
		p.sameNodes()
	})

	// A Put of a key already present still splits the full nodes on its
	// path: here the root, which deepens both structures by one level.
	t.Run("re-put-full-path", func(t *testing.T) {
		p := newShapePair(t)
		k := uint64(0)
		for !(p.tr.Depth() == 2 && p.tr.root.full()) {
			p.put(k)
			k++
		}
		p.sameNodes()
		p.put(0)
		if p.s.Depth() != 3 || p.s.Len() != int(k) {
			t.Fatalf("re-Put of a present key: Depth/Len = %d/%d, want 3/%d", p.s.Depth(), p.s.Len(), k)
		}
		p.sameNodes()
	})
}

// key64 decodes a key: one byte, two bytes or eight, so keys collide often
// and the extremes of the uint64 range turn up too.
func (r *opReader) key64() uint64 {
	var k uint64
	for n := [3]int{1, 2, 8}[r.byte()%3]; n > 0; n-- {
		k = k<<8 | uint64(r.byte())
	}
	return k
}

// FuzzShapeDepth runs a decoded sequence of Put, Delete and ascending or
// descending bulk Puts on a Tree of 8-byte big-endian keys and on a Shape,
// and requires the same answers, Depth and Len after every operation and the
// same nodes at the end.
func FuzzShapeDepth(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 24, 0, 0, 0, 0}) // keys 0..63 fill the root leaf, then a re-Put of 0 splits it
	f.Add([]byte{0, 0, 7, 0, 0, 9, 1, 0, 7, 0, 2, 1, 200, 0, 2, 0, 1, 1, 1, 1})
	f.Add([]byte{2, 1, 0, 0, 255, 0, 3, 2, 255, 255, 255, 255, 255, 255, 255, 255, 255, 0})
	f.Add(bytes.Repeat([]byte{2, 1, 0, 0, 255, 0, 1, 0, 3}, 12))
	f.Add(append(bytes.Repeat([]byte{3, 1, 100, 0, 255, 1}, 8), bytes.Repeat([]byte{1, 1, 7, 9}, 30)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &opReader{data: data}
		p := newShapePair(t)
		for ops := 0; ops < 64 && !r.done(); ops++ {
			switch op := r.byte() % 4; op {
			case 0:
				p.put(r.key64())
			case 1:
				p.delete(r.key64())
			case 2, 3: // bulk put, ascending or descending, wrapping at the ends
				k, m, step := r.key64(), 16+2*int(r.byte()), 1+uint64(r.byte()%8)
				if op == 3 {
					step = -step
				}
				for j := 0; j < m; j++ {
					p.put(k)
					k += step
				}
			}
		}
		p.sameNodes()
	})
}
