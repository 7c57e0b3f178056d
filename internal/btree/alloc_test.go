package btree

import "testing"

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
