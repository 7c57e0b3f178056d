package core

import (
	"bytes"
	"testing"

	"kvell/internal/env"
	"kvell/internal/kv"
)

// TestHotCacheStaleAdmitRace drives a cold Get whose page read is in flight
// when an Update of the same key runs on the same worker, then checks that
// the next Get returns the update. The key is not resident, so the update's
// write-through caches nothing, and the racing Get's completion reads the
// pre-update value. Its own miss brings the key to the promotion threshold,
// so only the update's stamp on the hot tier's write clock keeps it from
// admitting that value: for an in-place update (the patch joins the Get's
// read) and for a class-changing one (the value moves, and the Get reads
// the old slot) alike.
func TestHotCacheStaleAdmitRace(t *testing.T) {
	for _, tc := range []struct {
		name          string
		promoteAfter  int
		oldLen, toLen int
	}{
		{"default-threshold/in-place", 0, 500, 500},
		{"promote-on-first-read/in-place", 1, 500, 500},
		{"promote-on-first-read/class-change", 1, 40, 5000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := func(c *Config) {
				c.Workers = 1
				c.PageCachePages = 1 // evict aggressively so reads go async
				c.TieredHotBytes = 64 << 10
				c.TieredPromoteAfter = tc.promoteAfter
				c.TieredSeed = 7
			}
			st, _ := simHarness(t, cfg, func(c env.Ctx, st *Store) {
				k, v1 := kv.Key(1), kv.Value(1, 1, tc.oldLen)
				st.Put(c, k, v1)
				// Fill other pages of key 1's size class, so its page is
				// neither the class's append tail nor in the tiny page cache.
				evict := func() {
					for i := int64(100); i < 300; i++ {
						st.Put(c, kv.Key(i), kv.Value(i, 1, tc.oldLen))
					}
				}
				evict()
				// Cold reads up to one short of the threshold: the racing
				// Get's own miss then reaches it.
				for n := 1; n < st.cfg.TieredPromoteAfter; n++ {
					if v, ok := st.Get(c, k); !ok || !bytes.Equal(v, v1) {
						t.Fatalf("setup read failed ok=%v", ok)
					}
					evict()
				}
				// Concurrently: a Get (async to disk) and an Update.
				v2 := kv.Value(1, 2, tc.toLen)
				burst(c, st, []*kv.Request{
					{Op: kv.OpGet, Key: k},
					{Op: kv.OpUpdate, Key: k, Value: v2},
				})
				got, ok := st.Get(c, k)
				if !ok {
					t.Fatalf("key lost")
				}
				if !bytes.Equal(got, v2) {
					t.Fatalf("STALE READ after acked update: got the %d B version-1 value (hot cache poisoned)", len(got))
				}
			})
			s := st.Stats()
			t.Logf("stats: hits=%d misses=%d promos=%d", s.HotHits, s.HotMisses, s.HotPromotions)
		})
	}
}
