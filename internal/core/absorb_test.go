package core

import (
	"bytes"
	"testing"

	"kvell/internal/env"
	"kvell/internal/kv"
)

// absorbCfg enables the write-absorption front end for a test store.
func absorbCfg(cfg *Config) {
	cfg.AbsorbInterval = 50 * env.Microsecond
}

// burst submits reqs without waiting, then blocks until every one has
// completed — so same-key requests are concurrently outstanding and can
// coalesce in the absorb buffer.
func burst(c env.Ctx, st *Store, reqs []*kv.Request) []kv.Result {
	results := make([]kv.Result, len(reqs))
	all := env.NewLatch(st.env)
	all.Add(c, len(reqs))
	for i, r := range reqs {
		r.Done = func(res kv.Result) {
			results[i] = res
			all.Done(nil)
		}
		st.Submit(c, r)
	}
	all.Wait(c)
	return results
}

func TestAbsorbCoalescesSameKey(t *testing.T) {
	const n = 64
	st, _ := simHarness(t, absorbCfg, func(c env.Ctx, st *Store) {
		st.Put(c, kv.Key(1), kv.Value(1, 0, 200)) // key exists before the burst
		reqs := make([]*kv.Request, n)
		for i := range reqs {
			reqs[i] = &kv.Request{Op: kv.OpUpdate, Key: kv.Key(1), Value: kv.Value(1, uint64(i+1), 200)}
		}
		for _, res := range burst(c, st, reqs) {
			if !res.Found {
				t.Fatal("absorbed update not acked Found")
			}
		}
		got, ok := st.Get(c, kv.Key(1))
		if !ok || !bytes.Equal(got, kv.Value(1, n, 200)) {
			t.Fatalf("last version lost (ok=%v)", ok)
		}
	})
	s := st.Stats()
	if s.Absorbed == 0 {
		t.Fatalf("burst of %d same-key puts absorbed nothing", n)
	}
	if s.AbsorbWrites >= n {
		t.Fatalf("no write reduction: %d surviving writes for %d puts", s.AbsorbWrites, n)
	}
}

func TestAbsorbPutThenDelete(t *testing.T) {
	st, _ := simHarness(t, absorbCfg, func(c env.Ctx, st *Store) {
		key := kv.Key(2)
		st.Put(c, key, kv.Value(2, 1, 100))
		res := burst(c, st, []*kv.Request{
			// Primers: the first write the worker pops goes to the idle
			// device directly, and so does the first of the next batch; the
			// writes behind them land in the absorb buffer.
			{Op: kv.OpUpdate, Key: key, Value: kv.Value(2, 8, 100)},
			{Op: kv.OpUpdate, Key: key, Value: kv.Value(2, 9, 100)},
			{Op: kv.OpUpdate, Key: key, Value: kv.Value(2, 2, 100)},
			{Op: kv.OpDelete, Key: key},
		})
		if !res[2].Found || !res[3].Found {
			t.Fatalf("acks: update Found=%v delete Found=%v", res[2].Found, res[3].Found)
		}
		if _, ok := st.Get(c, key); ok {
			t.Fatal("deleted key still readable")
		}
	})
	if st.Stats().Absorbed == 0 {
		t.Fatal("delete did not absorb the buffered put")
	}
}

func TestAbsorbDeleteThenPut(t *testing.T) {
	simHarness(t, absorbCfg, func(c env.Ctx, st *Store) {
		key := kv.Key(3)
		st.Put(c, key, kv.Value(3, 1, 100))
		res := burst(c, st, []*kv.Request{
			{Op: kv.OpDelete, Key: key},
			{Op: kv.OpUpdate, Key: key, Value: kv.Value(3, 2, 100)},
		})
		if !res[0].Found || !res[1].Found {
			t.Fatalf("acks: delete Found=%v update Found=%v", res[0].Found, res[1].Found)
		}
		got, ok := st.Get(c, key)
		if !ok || !bytes.Equal(got, kv.Value(3, 2, 100)) {
			t.Fatalf("put after buffered delete lost (ok=%v)", ok)
		}
	})
}

func TestAbsorbDeleteMissingKey(t *testing.T) {
	simHarness(t, absorbCfg, func(c env.Ctx, st *Store) {
		if st.Delete(c, kv.Key(99)) {
			t.Fatal("delete of missing key reported Found")
		}
	})
}

// TestAbsorbGetSeesBuffered drives a get behind a buffered write in one
// batch: the get must observe the in-memory version, not the stale slab.
func TestAbsorbGetSeesBuffered(t *testing.T) {
	simHarness(t, absorbCfg, func(c env.Ctx, st *Store) {
		key := kv.Key(4)
		st.Put(c, key, kv.Value(4, 1, 100))
		res := burst(c, st, []*kv.Request{
			{Op: kv.OpUpdate, Key: key, Value: kv.Value(4, 8, 100)}, // primer
			{Op: kv.OpUpdate, Key: key, Value: kv.Value(4, 9, 100)}, // primer
			{Op: kv.OpUpdate, Key: key, Value: kv.Value(4, 2, 100)},
			{Op: kv.OpGet, Key: key},
			{Op: kv.OpDelete, Key: key},
			{Op: kv.OpGet, Key: key},
		})
		if !res[3].Found || !bytes.Equal(res[3].Value, kv.Value(4, 2, 100)) {
			t.Fatalf("get did not see buffered write (found=%v)", res[3].Found)
		}
		if res[5].Found {
			t.Fatal("get saw key past a buffered delete")
		}
	})
}

func TestAbsorbRMW(t *testing.T) {
	simHarness(t, absorbCfg, func(c env.Ctx, st *Store) {
		key := kv.Key(5)
		st.Put(c, key, kv.Value(5, 1, 100))
		res := burst(c, st, []*kv.Request{
			{Op: kv.OpUpdate, Key: key, Value: kv.Value(5, 8, 100)}, // primer
			{Op: kv.OpUpdate, Key: key, Value: kv.Value(5, 9, 100)}, // primer
			{Op: kv.OpUpdate, Key: key, Value: kv.Value(5, 2, 100)},
			{Op: kv.OpRMW, Key: key, Value: kv.Value(5, 3, 100)},
		})
		if !res[2].Found || !res[3].Found {
			t.Fatalf("acks: update Found=%v rmw Found=%v", res[2].Found, res[3].Found)
		}
		got, ok := st.Get(c, key)
		if !ok || !bytes.Equal(got, kv.Value(5, 3, 100)) {
			t.Fatalf("RMW result lost (ok=%v)", ok)
		}
	})
}

func TestAbsorbDisabledByDefault(t *testing.T) {
	st, _ := simHarness(t, nil, func(c env.Ctx, st *Store) {
		st.Put(c, kv.Key(6), kv.Value(6, 1, 100))
	})
	s := st.Stats()
	if s.Absorbed != 0 || s.AbsorbFlushes != 0 {
		t.Fatal("absorb counters moved with the front end disabled")
	}
}

// drainEntry recycles e the way flushAbsorb does, without device I/O —
// enough to exercise the merge hot path in isolation.
func drainEntry(ab *absorber, e *absorbEntry) {
	delete(ab.index, e.hash)
	for i := range e.reqs {
		e.reqs[i] = nil
	}
	e.reqs = e.reqs[:0]
	e.heldAt = e.heldAt[:0]
	ab.entries = ab.entries[:0]
	ab.held = 0
	ab.release(e)
}

func TestAllocBudgetAbsorbMerge(t *testing.T) {
	ab := newAbsorber()
	reqs := make([]*kv.Request, 8)
	for i := range reqs {
		reqs[i] = &kv.Request{Op: kv.OpUpdate, Key: kv.Key(1), Value: kv.Value(1, uint64(i), 64)}
	}
	run := func() {
		for _, r := range reqs {
			if !ab.add(nil, r, 0) {
				t.Fatal("add refused")
			}
		}
		drainEntry(ab, ab.entries[0])
	}
	run() // warm the entry pool and slice capacities
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("absorb merge path allocates %.1f/op, want 0", n)
	}
}

func BenchmarkAbsorbMerge(b *testing.B) {
	ab := newAbsorber()
	reqs := make([]*kv.Request, 8)
	for i := range reqs {
		reqs[i] = &kv.Request{Op: kv.OpUpdate, Key: kv.Key(1), Value: kv.Value(1, uint64(i), 64)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ab.add(nil, reqs[i%8], 0)
		if i%8 == 7 {
			drainEntry(ab, ab.entries[0])
		}
	}
}
