package core

import (
	"bytes"
	"testing"

	"kvell/internal/device"
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

// TestTieredMVCCCoherence pins the tier/table invariant: a key in the MVCC
// version table is never in the hot tier, and a read admits nothing written
// while it was in flight. A transaction deletes, or overwrites, a key that
// is resident in the hot tier, or being read from the device by a plain Get
// that is
//   - racing-get: issued right behind the prewrite (it joins the
//     prewrite's read and completes with the key in the table);
//   - get-past-gc: issued before the prewrite, its read completing only
//     after the commit and GC (a plain Delete between the two lets the
//     prewrite take a fresh slot instead of joining the Get's read);
//   - get-under-intent: issued while the intent is pending, its read of the
//     old version completing only after the commit and the GC that drops
//     the key from the table.
//
// Once the transaction has committed and GC has dropped the key from the
// table, a plain Get must return the transaction's outcome, not a value the
// tier held or took in before the commit.
func TestTieredMVCCCoherence(t *testing.T) {
	for _, del := range []bool{true, false} {
		for _, mode := range []string{"resident", "racing-get", "get-past-gc", "get-under-intent"} {
			name := map[bool]string{true: "delete", false: "overwrite"}[del] + "/" + mode
			t.Run(name, func(t *testing.T) {
				gate := &gateDisk{}
				cfg := func(c *Config) {
					tieredCfg(c)
					c.TieredPromoteAfter = 1
					c.MVCC = true
					c.Workers = 1
					c.PageCachePages = 2
					gate.Disk = c.Disks[0]
					c.Disks = []device.Disk{gate}
				}
				simHarness(t, cfg, func(c env.Ctx, st *Store) {
					k, old, val := kv.Key(7), kv.Value(7, 1, 300), kv.Value(7, 2, 300)
					if del {
						val = nil
					}
					// A read of k while it is absent leaves a miss on its
					// ghost counter and admits nothing, so any later read of
					// k promotes at completion — a Get of a table key skips
					// the tier and leaves no miss of its own.
					if _, ok := st.Get(c, k); ok {
						t.Fatal("k found before its put")
					}
					st.Put(c, k, old)
					// Push k's page out of the page cache, so a Get of k
					// reads it from the device.
					pushOut := func() {
						for i := int64(100); i < 150; i++ {
							st.Put(c, kv.Key(i), kv.Value(i, 1, 300))
						}
					}
					resident := mode == "resident"
					if resident {
						st.Get(c, k)
					} else {
						pushOut()
					}
					if got := st.workerFor(k).hot.Contains(k); got != resident {
						t.Fatalf("k resident in the hot tier = %v, want %v", got, resident)
					}
					w := st.workerFor(k)
					v, _ := st.LookupLoc(k)
					l := location(v)
					gate.page = w.slabs[l.class()].SlotPage(l.slot())

					// early are requests whose reads of k's old page the gate
					// holds until the transaction has been collected.
					var early []kv.Result
					done := env.NewLatch(st.env)
					submitEarly := func(reqs ...*kv.Request) {
						done.Add(c, len(reqs))
						for _, r := range reqs {
							i := len(early)
							early = append(early, kv.Result{})
							r.Done = func(res kv.Result) { early[i] = res; done.Done(nil) }
							st.Submit(c, r)
						}
					}
					if mode == "get-past-gc" {
						// The Delete's tombstone joins the Get's held read, and
						// the transaction below needs no read of that page.
						gate.shut = true
						submitEarly(&kv.Request{Op: kv.OpGet, Key: k}, &kv.Request{Op: kv.OpDelete, Key: k})
					}
					start := st.NextTS(c)
					prewrite := &kv.Request{Op: kv.OpTxnPrewrite, Key: k, Value: val, TS: start, Aux: k, Del: del}
					if mode == "racing-get" {
						// The Get behind the prewrite joins the prewrite's
						// device read and completes after the key has entered
						// the table.
						res := burst(c, st, []*kv.Request{prewrite, {Op: kv.OpGet, Key: k}})
						if !res[1].Found || !bytes.Equal(res[1].Value, old) {
							t.Fatalf("Get under the pending intent: found=%v, want the committed value", res[1].Found)
						}
						if res[0].Txn != kv.TxnOK {
							t.Fatalf("prewrite: txn status %d", res[0].Txn)
						}
					} else if res := st.Do(c, prewrite); res.Txn != kv.TxnOK {
						t.Fatalf("prewrite: txn status %d", res.Txn)
					}
					if mode == "get-under-intent" {
						pushOut() // the prewrite read k's old page back in
						gate.shut = true
						submitEarly(&kv.Request{Op: kv.OpGet, Key: k})
					}
					for {
						res := st.Do(c, &kv.Request{Op: kv.OpTxnCommit, Key: k, TS: start, TS2: st.NextTS(c)})
						if res.Txn == kv.TxnOK {
							break
						}
						if res.Txn != kv.TxnRetry {
							t.Fatalf("commit: txn status %d", res.Txn)
						}
					}
					if len(early) == 0 {
						st.GC(c, st.SnapshotTS())
					} else {
						// The collection frees k's old slot, whose tombstone
						// joins the held read: it cannot finish before the
						// gate opens, but drops k from the table at once.
						submitEarly(&kv.Request{Op: kv.OpTxnGC, TS: st.SnapshotTS()})
						for i := 0; st.Stats().MVCCKeys != 0; i++ {
							if i == 1000 {
								t.Fatal("GC never dropped k from the version table")
							}
							c.Sleep(env.Microsecond)
						}
						gate.open()
						done.Wait(c)
						if !early[0].Found || !bytes.Equal(early[0].Value, old) {
							t.Fatalf("Get issued before the commit: found=%v, want the old value", early[0].Found)
						}
					}
					if n := st.Stats().MVCCKeys; n != 0 {
						t.Fatalf("MVCCKeys = %d after GC, want 0", n)
					}
					got, ok := st.Get(c, k)
					if ok != !del || !bytes.Equal(got, val) {
						t.Fatalf("Get after the commit: found=%v (%d B), want the transaction's outcome", ok, len(got))
					}
				})
			})
		}
	}
}

// gateDisk holds back the reads of one page submitted while it is shut,
// until open.
type gateDisk struct {
	device.Disk
	page int64
	shut bool
	held []*device.Request
}

func (d *gateDisk) Submit(r *device.Request) {
	if d.shut && r.Op == device.Read && r.Page == d.page {
		d.held = append(d.held, r)
		return
	}
	d.Disk.Submit(r)
}

func (d *gateDisk) open() {
	d.shut = false
	for _, r := range d.held {
		d.Disk.Submit(r)
	}
	d.held = nil
}

func TestTieredDefaults(t *testing.T) {
	simHarness(t, func(c *Config) { c.TieredHotBytes = 1 << 20 }, func(c env.Ctx, st *Store) {
		cfg := st.cfg
		if cfg.TieredPromoteAfter != 2 {
			t.Fatalf("tiering defaults not applied: %+v", cfg)
		}
	})
}
