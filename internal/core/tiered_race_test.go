package core

import (
	"bytes"
	"testing"

	"kvell/internal/env"
	"kvell/internal/kv"
)

// TestHotCacheStaleAdmitRace drives a cold Get whose page read is in flight
// when an Update of the same key runs on the same worker, then checks that
// the next Get returns the update. No code guards this interleaving: the
// update's write-through is a no-op for a key that is not resident, and the
// racing Get's completion may admit the pre-update value. The test passes
// because, at the default promotion threshold, that completion does not
// promote key 1 (the final Get misses the hot tier: hits=0). What it pins is
// that a racing read which does not promote leaves no stale copy. With
// TieredPromoteAfter = 1 the completion promotes the old value and the test
// reads it back: ROADMAP item 1(b), open.
func TestHotCacheStaleAdmitRace(t *testing.T) {
	cfg := func(c *Config) {
		c.Workers = 1
		c.PageCachePages = 1 // evict aggressively so reads go async
		c.TieredHotBytes = 64 << 10
		c.TieredSeed = 7
	}
	st, _ := simHarness(t, cfg, func(c env.Ctx, st *Store) {
		k := kv.Key(1)
		st.Put(c, k, kv.Value(1, 1, 500))
		// Fill other pages so key 1's page leaves the tiny page cache.
		for i := int64(100); i < 200; i++ {
			st.Put(c, kv.Key(i), kv.Value(i, 1, 500))
		}
		// First cold read: ghost count 1 (TieredPromoteAfter defaults to 2).
		if v, ok := st.Get(c, k); !ok || !bytes.Equal(v, kv.Value(1, 1, 500)) {
			t.Fatalf("setup read failed ok=%v", ok)
		}
		// Evict key 1's page again.
		for i := int64(100); i < 200; i++ {
			st.Get(c, kv.Key(i))
		}
		// Concurrently: a Get (async to disk) and an Update. The Get's
		// completion offers the old value to the hot tier, which does not
		// promote it.
		v2 := kv.Value(1, 2, 500)
		burst(c, st, []*kv.Request{
			{Op: kv.OpGet, Key: k},
			{Op: kv.OpUpdate, Key: k, Value: v2},
		})
		got, ok := st.Get(c, k)
		if !ok {
			t.Fatalf("key lost")
		}
		if !bytes.Equal(got, v2) {
			t.Fatalf("STALE READ after acked update: got version-1 value (hot cache poisoned)")
		}
	})
	s := st.Stats()
	t.Logf("stats: hits=%d misses=%d promos=%d", s.HotHits, s.HotMisses, s.HotPromotions)
}
