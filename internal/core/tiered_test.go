package core

import (
	"bytes"
	"testing"

	"kvell/internal/env"
	"kvell/internal/kv"
)

func tieredCfg(c *Config) {
	c.TieredHotBytes = 64 << 10 // 16 slots/worker at the default 1KB slot
	c.TieredSeed = 99
}

// TestTieredReadYourWrites drives keys through the full promotion
// lifecycle — cold read, promotion, hot hit, write-through, delete — and
// checks that every read observes the latest write throughout.
func TestTieredReadYourWrites(t *testing.T) {
	st, _ := simHarness(t, tieredCfg, func(c env.Ctx, st *Store) {
		for i := int64(0); i < 40; i++ {
			st.Put(c, kv.Key(i), kv.Value(i, 1, 500))
		}
		// Two cold reads promote (PromoteAfter defaults to 2); later reads
		// must hit the hot tier and still see every subsequent version.
		for v := uint64(1); v <= 5; v++ {
			for i := int64(0); i < 40; i++ {
				got, ok := st.Get(c, kv.Key(i))
				if !ok || !bytes.Equal(got, kv.Value(i, v, 500)) {
					t.Fatalf("key %d version %d: ok=%v stale read", i, v, ok)
				}
			}
			for i := int64(0); i < 40; i++ {
				st.Put(c, kv.Key(i), kv.Value(i, v+1, 500))
			}
		}
		for i := int64(0); i < 40; i++ {
			if !st.Delete(c, kv.Key(i)) {
				t.Fatalf("delete %d failed", i)
			}
			if _, ok := st.Get(c, kv.Key(i)); ok {
				t.Fatalf("key %d readable after delete", i)
			}
		}
	})
	s := st.Stats()
	if s.HotPromotions == 0 || s.HotHits == 0 {
		t.Fatalf("hot tier never engaged: %+v", s)
	}
	if s.HotMisses == 0 {
		t.Fatalf("expected cold misses before promotion: %+v", s)
	}
}

// TestTieredWithAbsorb runs tiering above the write-absorption front end:
// buffered writes must stay invisible to the hot tier's consumers (the
// absorb buffer serves them) and the flush's write-through must land.
func TestTieredWithAbsorb(t *testing.T) {
	cfg := func(c *Config) {
		tieredCfg(c)
		c.AbsorbInterval = 100 * env.Microsecond
	}
	st, _ := simHarness(t, cfg, func(c env.Ctx, st *Store) {
		for i := int64(0); i < 32; i++ {
			st.Put(c, kv.Key(i), kv.Value(i, 1, 500))
		}
		// Promote everything.
		for pass := 0; pass < 3; pass++ {
			for i := int64(0); i < 32; i++ {
				st.Get(c, kv.Key(i))
			}
		}
		// Concurrent same-key writes + reads through the absorb buffer.
		for round := uint64(2); round < 6; round++ {
			reqs := make([]*kv.Request, 0, 48)
			for i := int64(0); i < 16; i++ {
				reqs = append(reqs, &kv.Request{Op: kv.OpUpdate, Key: kv.Key(i), Value: kv.Value(i, round, 500)})
			}
			for i := int64(0); i < 32; i++ {
				reqs = append(reqs, &kv.Request{Op: kv.OpGet, Key: kv.Key(i)})
			}
			burst(c, st, reqs)
			for i := int64(0); i < 16; i++ {
				got, ok := st.Get(c, kv.Key(i))
				if !ok || !bytes.Equal(got, kv.Value(i, round, 500)) {
					t.Fatalf("round %d key %d: stale read after absorb flush", round, i)
				}
			}
		}
	})
	s := st.Stats()
	if s.HotHits == 0 {
		t.Fatalf("hot tier never hit under absorb: %+v", s)
	}
	if s.Absorbed == 0 && s.AbsorbFlushes == 0 {
		t.Fatalf("absorb front end never engaged: %+v", s)
	}
}

func TestTieredRejectsSharedEverything(t *testing.T) {
	cfg := DefaultConfig(nil)
	cfg.SharedEverything = true
	cfg.TieredHotBytes = 1 << 20
	if err := cfg.validate(); err == nil {
		t.Fatal("validate accepted SharedEverything + tiering")
	}
}

func TestTieredDefaults(t *testing.T) {
	simHarness(t, func(c *Config) { c.TieredHotBytes = 1 << 20 }, func(c env.Ctx, st *Store) {
		cfg := st.cfg
		if cfg.TieredPromoteAfter != 2 {
			t.Fatalf("tiering defaults not applied: %+v", cfg)
		}
	})
}
