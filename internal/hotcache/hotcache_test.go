package hotcache

import (
	"bytes"
	"testing"

	"kvell/internal/env"
	"kvell/internal/kv"
)

func testCache(capRecords int) *Cache {
	return New(Config{
		CapBytes:     int64(capRecords) * 1024,
		SlotBytes:    1024,
		HalfLife:     100 * env.Millisecond,
		PromoteAfter: 2,
		Seed:         7,
	})
}

// warm drives key i through enough misses + an Admit to make it resident.
func warm(t *testing.T, h *Cache, i int64, now env.Time) {
	t.Helper()
	key, val := kv.Key(i), kv.Value(i, 1, 200)
	for !h.Contains(key) {
		if _, ok := h.Get(key, now, nil); ok {
			t.Fatalf("key %d hit before admission", i)
		}
		h.Admit(key, val, now)
	}
}

func TestAdmitAfterThreshold(t *testing.T) {
	h := testCache(8)
	key, val := kv.Key(1), kv.Value(1, 1, 200)
	now := env.Time(0)

	// First cold read: ghost count 1 < PromoteAfter, Admit must refuse.
	if _, ok := h.Get(key, now, nil); ok {
		t.Fatal("hit on empty cache")
	}
	if p, _ := h.Admit(key, val, now); p {
		t.Fatal("admitted after a single access")
	}
	// Second cold read crosses the threshold.
	if _, ok := h.Get(key, now, nil); ok {
		t.Fatal("hit before admission")
	}
	if p, _ := h.Admit(key, val, now); !p {
		t.Fatal("not admitted after reaching PromoteAfter")
	}
	got, ok := h.Get(key, now, nil)
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("resident value wrong: ok=%v", ok)
	}
	if h.Hits() != 1 || h.Misses() != 2 || h.Promotions() != 1 {
		t.Fatalf("counters hits=%d misses=%d promotions=%d", h.Hits(), h.Misses(), h.Promotions())
	}
}

func TestGetCopiesIntoScratch(t *testing.T) {
	h := testCache(4)
	warm(t, h, 1, 0)
	scratch := make([]byte, 0, 1024)
	got, ok := h.Get(kv.Key(1), 0, &scratch)
	if !ok {
		t.Fatal("miss on resident key")
	}
	if cap(scratch) != 1024 || &got[0] != &scratch[:1][0] {
		t.Fatal("value not copied into caller scratch")
	}
	// Mutating the returned slice must not corrupt the cached copy.
	got[0] ^= 0xFF
	again, _ := h.Get(kv.Key(1), 0, nil)
	if !bytes.Equal(again, kv.Value(1, 1, 200)) {
		t.Fatal("cache storage aliased caller buffer")
	}
}

func TestWriteThroughAndInvalidate(t *testing.T) {
	h := testCache(4)
	warm(t, h, 1, 0)
	v2 := kv.Value(1, 2, 200)
	if !h.Update(kv.Key(1), v2, 0) {
		t.Fatal("update missed resident key")
	}
	got, ok := h.Get(kv.Key(1), 0, nil)
	if !ok || !bytes.Equal(got, v2) {
		t.Fatal("write-through lost")
	}
	// Updates to non-resident keys must not admit.
	if h.Update(kv.Key(2), v2, 0) {
		t.Fatal("update claimed a non-resident key")
	}
	if h.Contains(kv.Key(2)) {
		t.Fatal("write admitted a record")
	}
	if !h.Invalidate(kv.Key(1)) {
		t.Fatal("invalidate missed resident key")
	}
	if _, ok := h.Get(kv.Key(1), 0, nil); ok {
		t.Fatal("read after invalidate hit")
	}
	if h.Invalidations() != 1 {
		t.Fatalf("invalidations = %d", h.Invalidations())
	}
}

func TestOversizeValueNeverCached(t *testing.T) {
	h := testCache(4)
	big := make([]byte, 2048)
	key := kv.Key(1)
	h.Get(key, 0, nil)
	h.Get(key, 0, nil)
	if p, _ := h.Admit(key, big, 0); p {
		t.Fatal("admitted an oversize record")
	}
	// A resident record that grows past the slot must be evicted, not
	// truncated.
	warm(t, h, 2, 0)
	if !h.Update(kv.Key(2), big, 0) {
		t.Fatal("oversize update missed resident key")
	}
	if h.Contains(kv.Key(2)) {
		t.Fatal("oversize value left resident")
	}
}

func TestEvictionDemotesColdest(t *testing.T) {
	h := testCache(4)
	now := env.Time(0)
	for i := int64(1); i <= 4; i++ {
		warm(t, h, i, now)
	}
	if h.Len() != 4 {
		t.Fatalf("len = %d", h.Len())
	}
	// Heat keys 2..4 so key 1 sinks to the cold end.
	for n := 0; n < 8; n++ {
		for i := int64(2); i <= 4; i++ {
			h.Get(kv.Key(i), now, nil)
		}
	}
	warm(t, h, 5, now)
	if h.Demotions() == 0 {
		t.Fatal("full arena admitted without a demotion")
	}
	if h.Contains(kv.Key(1)) && h.Len() > 4 {
		t.Fatal("size grew past capacity")
	}
	for i := int64(2); i <= 4; i++ {
		if !h.Contains(kv.Key(i)) {
			t.Fatalf("hot key %d was demoted", i)
		}
	}
}

func TestDecayHalvesCounts(t *testing.T) {
	h := testCache(4)
	key := kv.Key(1)
	// Build ghost evidence, then let it decay far past the horizon: the
	// admission threshold must be un-met again.
	h.Get(key, 0, nil)
	h.Get(key, 0, nil)
	later := 64 * 100 * env.Millisecond
	if p, _ := h.Admit(key, kv.Value(1, 1, 200), later); p {
		t.Fatal("stale ghost evidence admitted a record")
	}
}

func TestDeterministicCounters(t *testing.T) {
	run := func() [5]int64 {
		h := testCache(8)
		now := env.Time(0)
		for n := int64(0); n < 2_000; n++ {
			i := (n * n) % 23
			key := kv.Key(i)
			if _, ok := h.Get(key, now, nil); !ok {
				h.Admit(key, kv.Value(i, 1, 200), now)
			}
			if n%7 == 0 {
				h.Update(key, kv.Value(i, 2, 200), now)
			}
			if n%97 == 0 {
				h.Invalidate(key)
			}
			now += 50 * env.Microsecond
		}
		return [5]int64{h.Hits(), h.Misses(), h.Promotions(), h.Demotions(), h.Invalidations()}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same access sequence, different counters: %v vs %v", a, b)
	}
	if a[0] == 0 || a[2] == 0 {
		t.Fatalf("exercise produced no hits/promotions: %v", a)
	}
}

// TestAllocBudgetHotCacheHit pins the zero-allocation budget of the hit path
// (and the miss/ghost path), the tiering acceptance criterion.
func TestAllocBudgetHotCacheHit(t *testing.T) {
	h := testCache(8)
	warm(t, h, 1, 0)
	key := kv.Key(1)
	scratch := make([]byte, 0, 1024)
	now := env.Time(0)
	if n := testing.AllocsPerRun(1000, func() {
		now += env.Microsecond
		if _, ok := h.Get(key, now, &scratch); !ok {
			t.Fatal("miss on resident key")
		}
	}); n != 0 {
		t.Fatalf("hot-cache hit allocates %.1f/op; budget is zero", n)
	}
	missKey := kv.Key(999)
	if n := testing.AllocsPerRun(1000, func() {
		now += env.Microsecond
		if _, ok := h.Get(missKey, now, &scratch); ok {
			t.Fatal("hit on absent key")
		}
	}); n != 0 {
		t.Fatalf("hot-cache miss allocates %.1f/op; budget is zero", n)
	}
}

func TestAllocBudgetHotCacheWrite(t *testing.T) {
	h := testCache(8)
	warm(t, h, 1, 0)
	key, val := kv.Key(1), kv.Value(1, 3, 200)
	now := env.Time(0)
	if n := testing.AllocsPerRun(1000, func() {
		now += env.Microsecond
		h.Update(key, val, now)
	}); n != 0 {
		t.Fatalf("hot-cache write-through allocates %.1f/op; budget is zero", n)
	}
}

func BenchmarkHotCacheHit(b *testing.B) {
	h := New(Config{CapBytes: 64 << 10, SlotBytes: 1024, HalfLife: 100 * env.Millisecond, PromoteAfter: 1})
	keys := make([][]byte, 16)
	for i := range keys {
		keys[i] = kv.Key(int64(i))
		h.Get(keys[i], 0, nil)
		h.Admit(keys[i], kv.Value(int64(i), 1, 990), 0)
	}
	scratch := make([]byte, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := h.Get(keys[i&15], env.Time(i), &scratch); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkHotCachePromote(b *testing.B) {
	h := New(Config{CapBytes: 16 << 10, SlotBytes: 1024, HalfLife: 100 * env.Millisecond, PromoteAfter: 1})
	keys := make([][]byte, 64)
	vals := make([][]byte, 64)
	for i := range keys {
		keys[i] = kv.Key(int64(i))
		vals[i] = kv.Value(int64(i), 1, 990)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// 64 keys cycling through a 16-slot arena: every admission demotes.
		k := i & 63
		h.Get(keys[k], env.Time(i), nil)
		h.Admit(keys[k], vals[k], env.Time(i))
	}
}

// Update and Invalidate stamp the key on the write clock whether it is
// resident or not; a clock read taken before the write sees it, one taken
// after does not, and reads, admissions and other keys' slots move nothing.
func TestWrittenSince(t *testing.T) {
	h := testCache(8)
	a, b := kv.Key(1), kv.Key(2)
	if h.ghostIdx(kv.Hash64(a)) == h.ghostIdx(kv.Hash64(b)) {
		t.Fatal("test keys share a ghost slot")
	}
	t0 := h.Clock()
	h.Get(a, 0, nil)
	h.Admit(a, kv.Value(1, 1, 200), 0)
	if h.Clock() != t0 || h.WrittenSince(a, t0) {
		t.Fatal("a read or an admission ticked the write clock")
	}
	h.Update(a, kv.Value(1, 2, 200), 0) // a is not resident
	if !h.WrittenSince(a, t0) || h.WrittenSince(b, t0) {
		t.Fatalf("after an update of a: WrittenSince(a)=%v, (b)=%v; want true, false",
			h.WrittenSince(a, t0), h.WrittenSince(b, t0))
	}
	t1 := h.Clock()
	if h.WrittenSince(a, t1) {
		t.Fatal("a clock read after the update sees it")
	}
	warm(t, h, 2, 0)
	t2 := h.Clock()
	h.Invalidate(b) // b is resident
	h.Invalidate(b) // and now it is not
	if !h.WrittenSince(b, t2) || h.WrittenSince(a, t2) || h.Clock() != t2+2 {
		t.Fatal("Invalidate did not stamp its key alone")
	}
}
