package btree

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// opReader decodes a fuzz input into tree operations; past the end it reads
// zeros, so every input is a complete program.
type opReader struct {
	data []byte
	off  int
}

func (r *opReader) byte() byte {
	if r.off >= len(r.data) {
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

func (r *opReader) done() bool { return r.off >= len(r.data) }

// keyAlphabet is small so keys collide, are prefixes of one another and end
// in zero bytes, the cases zero-padded abbreviations cannot tell apart.
var keyAlphabet = [4]byte{0x00, 0x01, 'a', 0xff}

// key decodes a key of 0–19 bytes over keyAlphabet.
func (r *opReader) key() []byte {
	k := make([]byte, r.byte()%20)
	for i := range k {
		k[i] = keyAlphabet[r.byte()%4]
	}
	return k
}

// bulkKeys returns m keys sharing a prefix of 0–11 bytes, followed by a
// scattered big-endian counter and 0–2 zero bytes: enough keys to split
// leaves and grow the tree, with long shared prefixes and ties under padding.
func (r *opReader) bulkKeys(seq *uint32) [][]byte {
	pre := bytes.Repeat([]byte{'k'}, int(r.byte()%12))
	m := 16 + int(r.byte())%112
	ks := make([][]byte, m)
	for j := range ks {
		*seq++
		k := binary.BigEndian.AppendUint32(append([]byte(nil), pre...), *seq*2654435761)
		ks[j] = append(k, make([]byte, j%3)...)
	}
	return ks
}

// checker compares every observable of the two trees — Len, Depth,
// MemBytes, Min and the full iteration order with values — in buffers it
// reuses from one operation to the next.
type checker struct {
	ks, rks [][]byte
	vs, rvs []uint64
}

func (c *checker) same(t *testing.T, tr *Tree, ref *refTree) {
	t.Helper()
	if tr.Len() != ref.Len() || tr.Depth() != ref.Depth() || tr.MemBytes() != ref.MemBytes() {
		t.Fatalf("Len/Depth/MemBytes = %d/%d/%d, reference %d/%d/%d",
			tr.Len(), tr.Depth(), tr.MemBytes(), ref.Len(), ref.Depth(), ref.MemBytes())
	}
	if !bytes.Equal(tr.Min(), ref.Min()) {
		t.Fatalf("Min = %q, reference %q", tr.Min(), ref.Min())
	}
	c.ks, c.vs = tr.FirstN(nil, tr.Len()+1, c.ks[:0], c.vs[:0])
	c.rks, c.rvs = ref.FirstN(nil, ref.Len()+1, c.rks[:0], c.rvs[:0])
	if len(c.ks) != len(c.rks) {
		t.Fatalf("iteration gave %d keys, reference %d", len(c.ks), len(c.rks))
	}
	for i := range c.ks {
		if !bytes.Equal(c.ks[i], c.rks[i]) || c.vs[i] != c.rvs[i] {
			t.Fatalf("iteration step %d: %q=%d, reference %q=%d", i, c.ks[i], c.vs[i], c.rks[i], c.rvs[i])
		}
	}
}

// FuzzTreeOps runs a decoded sequence of Put/Delete/Get/FirstN/Range and bulk
// operations on Tree and on the reference tree and requires the same answer
// to every call and the same trees after every operation.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 2, 3, 0, 1, 0, 0, 0, 1, 2, 0})
	f.Add([]byte{0, 3, 2, 2, 2, 7, 0, 4, 2, 2, 2, 2, 9, 0, 2, 2, 2})
	f.Add([]byte{5, 4, 200, 5, 4, 150, 5, 0, 100, 6, 0, 50, 3, 0, 40, 4, 3, 1, 1, 1, 0})
	f.Add(bytes.Repeat([]byte{5, 11, 127}, 40))
	f.Add(append(bytes.Repeat([]byte{5, 9, 111}, 30), bytes.Repeat([]byte{6, 0, 90, 2, 5, 1, 1, 1, 1, 1}, 10)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &opReader{data: data}
		tr, ref := New(), newRefTree()
		var seq uint32
		var c checker
		for ops := 0; ops < 64 && !r.done(); ops++ {
			switch r.byte() % 7 {
			case 0: // put
				k, v := r.key(), uint64(r.byte())
				if got, want := tr.Put(k, v), ref.Put(k, v); got != want {
					t.Fatalf("Put(%q) = %v, reference %v", k, got, want)
				}
			case 1: // delete
				k := r.key()
				if got, want := tr.Delete(k), ref.Delete(k); got != want {
					t.Fatalf("Delete(%q) = %v, reference %v", k, got, want)
				}
			case 2: // get
				k := r.key()
				v, ok := tr.Get(k)
				rv, rok := ref.Get(k)
				if v != rv || ok != rok {
					t.Fatalf("Get(%q) = %d,%v, reference %d,%v", k, v, ok, rv, rok)
				}
			case 3: // first n
				k, n := r.key(), int(r.byte()%80)
				ks, vs := tr.FirstN(k, n, nil, nil)
				rks, rvs := ref.FirstN(k, n, nil, nil)
				if len(ks) != len(rks) {
					t.Fatalf("FirstN(%q, %d) gave %d keys, reference %d", k, n, len(ks), len(rks))
				}
				for i := range ks {
					if !bytes.Equal(ks[i], rks[i]) || vs[i] != rvs[i] {
						t.Fatalf("FirstN(%q, %d)[%d] = %q, reference %q", k, n, i, ks[i], rks[i])
					}
				}
			case 4: // range
				lo, hi := r.key(), r.key()
				var got, want [][]byte
				tr.Range(lo, hi, func(k []byte, _ uint64) bool { got = append(got, bytes.Clone(k)); return true })
				ref.Range(lo, hi, func(k []byte, _ uint64) bool { want = append(want, k); return true })
				if len(got) != len(want) {
					t.Fatalf("Range(%q, %q) gave %d keys, reference %d", lo, hi, len(got), len(want))
				}
				for i := range got {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("Range(%q, %q)[%d] = %q, reference %q", lo, hi, i, got[i], want[i])
					}
				}
			case 5: // bulk put
				for i, k := range r.bulkKeys(&seq) {
					tr.Put(k, uint64(i))
					ref.Put(k, uint64(i))
				}
			case 6: // bulk delete: the first m keys >= a key, emptying leaves
				k, m := r.key(), int(r.byte())
				var del [][]byte
				ref.AscendFrom(k, func(k []byte, _ uint64) bool { del = append(del, k); return len(del) < m })
				for _, k := range del {
					if !tr.Delete(k) || !ref.Delete(k) {
						t.Fatalf("bulk Delete(%q) missed", k)
					}
				}
			}
			c.same(t, tr, ref)
		}
	})
}
