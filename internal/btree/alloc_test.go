package btree

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"kvell/internal/kv"
)

// fillBenchKey formats key-%08d into buf without allocating (matches the
// key helper in btree_test.go for i < 1e8).
func fillBenchKey(buf []byte, i int) {
	copy(buf, "key-")
	for j := len(buf) - 1; j >= 4; j-- {
		buf[j] = byte('0' + i%10)
		i /= 10
	}
}

// BenchmarkBTreeLookup measures one index lookup against a 1M-key tree with
// a reused key buffer — the shape of every per-operation index probe.
func BenchmarkBTreeLookup(b *testing.B) {
	tr := New()
	kb := make([]byte, 12)
	for i := 0; i < 1_000_000; i++ {
		fillBenchKey(kb, i)
		tr.Put(kb, uint64(i))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fillBenchKey(kb, i%1_000_000)
		if _, ok := tr.Get(kb); !ok {
			b.Fatal("missing key")
		}
	}
}

// TestAllocBudgetBTreeGet pins lookups at zero allocations per probe.
func TestAllocBudgetBTreeGet(t *testing.T) {
	tr := New()
	kb := make([]byte, 12)
	for i := 0; i < 100_000; i++ {
		fillBenchKey(kb, i)
		tr.Put(kb, uint64(i))
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		fillBenchKey(kb, i%100_000)
		i += 7919
		tr.Get(kb)
	}); n != 0 {
		t.Errorf("Tree.Get allocates %v per lookup, want 0", n)
	}
}

// TestFirstNAllocs pins a scan gather at zero allocations once the caller's
// buffers have grown: FirstN fills them and allocates nothing of its own.
func TestFirstNAllocs(t *testing.T) {
	tr := New()
	kb := make([]byte, 12)
	for i := 0; i < 100_000; i++ {
		fillBenchKey(kb, i)
		tr.Put(kb, uint64(i))
	}
	var keys [][]byte
	var vals []uint64
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		fillBenchKey(kb, i%99_000)
		i += 7919
		keys, vals = tr.FirstN(kb, 100, keys[:0], vals[:0])
	}); n != 0 || len(keys) != 100 {
		t.Errorf("Tree.FirstN allocates %v per 100-key gather (%d keys), want 0", n, len(keys))
	}
}

// TestAllocBudgetBTreePut pins a new key into a non-full leaf at zero
// allocations: the node copies it into its own key bytes. Each run deletes a
// key and puts it back, for both key shapes the store indexes.
func TestAllocBudgetBTreePut(t *testing.T) {
	for _, shape := range []struct {
		name   string
		keyLen int
		fill   func(buf []byte, i int)
	}{
		{"kv", kv.KeyLen, func(buf []byte, i int) { kv.FillKey(buf, int64(i)) }},
		{"page", 8, func(buf []byte, i int) { binary.BigEndian.PutUint64(buf, uint64(i)) }},
	} {
		t.Run(shape.name, func(t *testing.T) {
			tr := New()
			kb := make([]byte, shape.keyLen)
			for i := 0; i < 10_000; i++ {
				shape.fill(kb, i*3)
				tr.Put(kb, uint64(i))
			}
			i := 0
			if n := testing.AllocsPerRun(1000, func() {
				shape.fill(kb, (i%10_000)*3)
				i += 7919
				tr.Delete(kb)
				if !tr.Put(kb, 1) {
					t.Fatal("re-put key reported as replace")
				}
			}); n != 0 {
				t.Errorf("Tree.Put of a new key allocates %v, want 0", n)
			}
		})
	}
}

// BenchmarkTreeGetYCSBKeys measures a lookup in a tree the size of one
// worker's index in the end-to-end benchmark: 25K kv.Key keys (every fourth
// record of 100K), inserted in shuffled order.
func BenchmarkTreeGetYCSBKeys(b *testing.B) {
	const n = 25_000
	tr := New()
	kb := make([]byte, kv.KeyLen)
	for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
		kv.FillKey(kb, int64(i)*4)
		tr.Put(kb, uint64(i))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kv.FillKey(kb, int64(i*7919%n)*4)
		if _, ok := tr.Get(kb); !ok {
			b.Fatal("missing key")
		}
	}
}

// BenchmarkTreePageChurn measures the page cache's index traffic on a miss:
// Delete the evicted page and Put the new one, 8-byte big-endian page
// numbers, on a tree holding 8K pages drawn from a 16 GB file's 4M pages.
func BenchmarkTreePageChurn(b *testing.B) {
	const n, pages = 8192, 1 << 22
	r := rand.New(rand.NewSource(1))
	tr := New()
	live := make([]uint64, n)
	var kb [8]byte
	for i := range live {
		live[i] = uint64(r.Intn(pages))
		binary.BigEndian.PutUint64(kb[:], live[i])
		tr.Put(kb[:], live[i])
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j := i % n
		binary.BigEndian.PutUint64(kb[:], live[j])
		tr.Delete(kb[:])
		live[j] = uint64(r.Intn(pages))
		binary.BigEndian.PutUint64(kb[:], live[j])
		tr.Put(kb[:], live[j])
	}
}
