package pagecache

import (
	"math/rand"
	"testing"
)

func BenchmarkCacheHit(b *testing.B) {
	c := New(10_000, IndexBTree)
	for i := int64(0); i < 10_000; i++ {
		c.Insert(i, nil)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c.Get(int64(i%10_000)) != nil {
			b.Fatal("unexpected data")
		}
		_ = c.Hits()
	}
}

// BenchmarkCacheInsertEvict inserts ascending page numbers, each evicting
// the LRU page: the index only ever grows at its right edge.
func BenchmarkCacheInsertEvict(b *testing.B) {
	c := New(4096, IndexBTree)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Insert(int64(i), nil)
	}
}

// BenchmarkCacheInsertEvictRandom inserts uncached pages drawn from a
// universe three times the capacity, each evicting the LRU page, as the
// end-to-end workloads' cache fills do: the index churns in place.
func BenchmarkCacheInsertEvictRandom(b *testing.B) {
	const capacity = 4096
	r := rand.New(rand.NewSource(1))
	pages := make([]int64, 1<<16)
	for i := range pages {
		pages[i] = r.Int63n(3 * capacity)
	}
	c := New(capacity, IndexBTree)
	j := 0
	fill := func() {
		for c.Contains(pages[j]) {
			j = (j + 1) % len(pages)
		}
		c.Insert(pages[j], nil)
	}
	for i := 0; i < len(pages); i++ {
		fill()
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fill()
	}
}

// BenchmarkPagecacheHit is the engine-visible hit path: lookup, LRU
// promotion, data return.
func BenchmarkPagecacheHit(b *testing.B) {
	c := New(10_000, IndexBTree)
	data := PageBuf()
	for i := int64(0); i < 10_000; i++ {
		c.Insert(i, data)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c.Get(int64(i%10_000)) == nil {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkPagecacheMiss is the probe-and-fail path every uncached read
// takes before issuing I/O.
func BenchmarkPagecacheMiss(b *testing.B) {
	c := New(10_000, IndexBTree)
	for i := int64(0); i < 10_000; i++ {
		c.Insert(i, nil)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c.Get(10_000+int64(i%10_000)) != nil {
			b.Fatal("unexpected hit")
		}
	}
}
