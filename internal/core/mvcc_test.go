package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"kvell/internal/aio"
	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/sim"
)

func mvccCfg(c *Config) { c.MVCC = true }

// txnPut writes (key, value) through a single-key transaction (prewrite with
// the key as its own primary, then commit), returning the commit timestamp.
func txnPut(t *testing.T, c env.Ctx, st *Store, key, value []byte) uint64 {
	t.Helper()
	return txnWrite(t, c, st, key, value, false)
}

// txnDelete removes key through a single-key transaction.
func txnDelete(t *testing.T, c env.Ctx, st *Store, key []byte) uint64 {
	t.Helper()
	return txnWrite(t, c, st, key, nil, true)
}

func txnWrite(t *testing.T, c env.Ctx, st *Store, key, value []byte, del bool) uint64 {
	t.Helper()
	start := st.NextTS(c)
	res := st.Do(c, &kv.Request{Op: kv.OpTxnPrewrite, Key: key, Value: value, TS: start, Aux: key, Del: del})
	if res.Txn != kv.TxnOK {
		t.Fatalf("prewrite(%q): txn status %d", key, res.Txn)
	}
	for {
		cts := st.NextTS(c)
		res = st.Do(c, &kv.Request{Op: kv.OpTxnCommit, Key: key, TS: start, TS2: cts})
		switch res.Txn {
		case kv.TxnOK:
			return res.TxnTS
		case kv.TxnRetry:
			continue // cts at or below a reader's watermark: refetch
		default:
			t.Fatalf("commit(%q): txn status %d", key, res.Txn)
		}
	}
}

func TestMVCCBulkLoadWrapsEnvelopes(t *testing.T) {
	s := sim.New(1)
	e := sim.NewEnv(s, 8)
	disk := device.NewSimDisk(s, device.Optane(), nil)
	cfg := DefaultConfig(disk)
	cfg.MVCC = true
	st, err := Open(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]kv.Item, 500)
	for i := range items {
		items[i] = kv.Item{Key: kv.Key(int64(i)), Value: kv.Value(int64(i), 0, 700)}
	}
	if err := st.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	st.Start()
	e.Go("client", func(c env.Ctx) {
		for i := int64(0); i < 500; i += 7 {
			v, ok := st.Get(c, kv.Key(i))
			if !ok || !bytes.Equal(v, kv.Value(i, 0, 700)) {
				t.Errorf("Get(%d) after bulk load: ok=%v", i, ok)
				return
			}
		}
		// Loaded versions committed at ts 1: visible at every snapshot >= 1.
		if v, ok := st.GetAt(c, kv.Key(3), st.SnapshotTS()); !ok || !bytes.Equal(v, kv.Value(3, 0, 700)) {
			t.Error("GetAt after bulk load failed")
		}
		st.Stop(c)
	})
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	s.Close()
}

func TestMVCCSnapshotIsolation(t *testing.T) {
	simHarness(t, mvccCfg, func(c env.Ctx, st *Store) {
		k := kv.Key(1)
		v1, v2 := kv.Value(1, 1, 400), kv.Value(1, 2, 400)
		cts1 := txnPut(t, c, st, k, v1)
		ts1 := st.SnapshotTS()
		cts2 := txnPut(t, c, st, k, v2)
		if cts2 <= cts1 || ts1 < cts1 || ts1 >= cts2 {
			t.Fatalf("timestamps out of order: cts1=%d ts1=%d cts2=%d", cts1, ts1, cts2)
		}
		// Old snapshot sees v1, fresh snapshot sees v2.
		if got, ok := st.GetAt(c, k, ts1); !ok || !bytes.Equal(got, v1) {
			t.Fatalf("GetAt(ts1): ok=%v wrong value", ok)
		}
		if got, ok := st.GetAt(c, k, st.SnapshotTS()); !ok || !bytes.Equal(got, v2) {
			t.Fatalf("GetAt(now): ok=%v wrong value", ok)
		}
		// Before the first commit: absent.
		if _, ok := st.GetAt(c, k, cts1-1); ok {
			t.Fatal("GetAt before first commit found a version")
		}
		// A transactional delete is invisible to older snapshots.
		ts2 := st.SnapshotTS()
		txnDelete(t, c, st, k)
		if got, ok := st.GetAt(c, k, ts2); !ok || !bytes.Equal(got, v2) {
			t.Fatal("snapshot read did not survive a later delete")
		}
		if _, ok := st.GetAt(c, k, st.SnapshotTS()); ok {
			t.Fatal("delete not visible at fresh snapshot")
		}
		if _, ok := st.Get(c, k); ok {
			t.Fatal("plain Get sees deleted key")
		}
	})
}

// Keys a scan cannot show — a retained delete, a bare intent, a version newer
// than the snapshot — must not count against its length: the candidates are
// filtered first and cut to count after, across as many index passes as that
// takes, and the result stays a gap-free prefix of the visible keys.
func TestMVCCScanSkipsInvisibleKeysWithoutShortening(t *testing.T) {
	simHarness(t, mvccCfg, func(c env.Ctx, st *Store) {
		val := func(k int64) []byte { return kv.Value(k, 1, 200) }
		for k := int64(0); k < 40; k++ {
			txnPut(t, c, st, kv.Key(k), val(k))
		}
		before := st.SnapshotTS()
		// Keys 2..9 deleted (their tombstones are retained in the version
		// table), key 50 first written after the old snapshot, key 45 a bare
		// intent with nothing committed beneath it.
		for k := int64(2); k < 10; k++ {
			txnDelete(t, c, st, kv.Key(k))
		}
		txnPut(t, c, st, kv.Key(50), val(50))
		start := st.NextTS(c)
		if res := st.Do(c, &kv.Request{Op: kv.OpTxnPrewrite, Key: kv.Key(45), Value: val(45), TS: start, Aux: kv.Key(45)}); res.Txn != kv.TxnOK {
			t.Fatalf("prewrite: txn status %d", res.Txn)
		}
		now := st.SnapshotTS()

		check := func(what string, got []kv.Item, want []int64) {
			t.Helper()
			if len(got) != len(want) {
				t.Errorf("%s returned %d items, want %d", what, len(got), len(want))
				return
			}
			for i, it := range got {
				if !bytes.Equal(it.Key, kv.Key(want[i])) || !bytes.Equal(it.Value, val(want[i])) {
					t.Errorf("%s[%d] = key %q, want key %d with its value", what, i, it.Key, want[i])
				}
			}
		}
		check("ScanN(0, 6)", st.ScanN(c, kv.Key(0), 6), []int64{0, 1, 10, 11, 12, 13})
		check("ScanAtN(0, 6, now)", st.ScanAtN(c, kv.Key(0), 6, now), []int64{0, 1, 10, 11, 12, 13})
		check("ScanAtN(0, 3, now)", st.ScanAtN(c, kv.Key(0), 3, now), []int64{0, 1, 10})
		// The old snapshot still sees the deleted keys.
		check("ScanAtN(8, 5, before)", st.ScanAtN(c, kv.Key(8), 5, before), []int64{8, 9, 10, 11, 12})
		// Running off the end of the key space: the intent on 45 never shows,
		// key 50 only from its commit on.
		check("ScanN(36, 10)", st.ScanN(c, kv.Key(36), 10), []int64{36, 37, 38, 39, 50})
		check("ScanAtN(36, 10, now)", st.ScanAtN(c, kv.Key(36), 10, now), []int64{36, 37, 38, 39, 50})
		check("ScanAtN(36, 10, before)", st.ScanAtN(c, kv.Key(36), 10, before), []int64{36, 37, 38, 39})
		st.Do(c, &kv.Request{Op: kv.OpTxnRollback, Key: kv.Key(45), TS: start})
	})
}

func TestMVCCSnapshotWalkAfterGCSettled(t *testing.T) {
	// After GC settles a key to one version (no table entry), snapshot reads
	// must still work through the cold on-disk path.
	simHarness(t, mvccCfg, func(c env.Ctx, st *Store) {
		k := kv.Key(2)
		v := kv.Value(2, 1, 300)
		cts := txnPut(t, c, st, k, v)
		ts := st.SnapshotTS()
		if n := st.GC(c, ts); n != 0 {
			t.Fatalf("GC freed %d slots from a single-version key", n)
		}
		if st.Stats().MVCCKeys != 0 {
			t.Fatal("key still tracked after settling GC")
		}
		if got, ok := st.GetAt(c, k, ts); !ok || !bytes.Equal(got, v) {
			t.Fatal("cold snapshot read failed after GC")
		}
		if _, ok := st.GetAt(c, k, cts-1); ok {
			t.Fatal("cold snapshot read found version before its commit")
		}
	})
}

func TestMVCCTxnLockingAndResolution(t *testing.T) {
	simHarness(t, mvccCfg, func(c env.Ctx, st *Store) {
		ka, kb := kv.Key(10), kv.Key(11)
		va, vb := kv.Value(10, 1, 200), kv.Value(11, 1, 200)
		txnPut(t, c, st, ka, kv.Value(10, 0, 200))

		// Prewrite both keys (ka primary) but do not commit yet.
		start := st.NextTS(c)
		if res := st.Do(c, &kv.Request{Op: kv.OpTxnPrewrite, Key: ka, Value: va, TS: start, Aux: ka}); res.Txn != kv.TxnOK {
			t.Fatalf("prewrite primary: %d", res.Txn)
		}
		if res := st.Do(c, &kv.Request{Op: kv.OpTxnPrewrite, Key: kb, Value: vb, TS: start, Aux: ka}); res.Txn != kv.TxnOK {
			t.Fatalf("prewrite secondary: %d", res.Txn)
		}
		// Duplicate prewrite is idempotent.
		if res := st.Do(c, &kv.Request{Op: kv.OpTxnPrewrite, Key: kb, Value: vb, TS: start, Aux: ka}); res.Txn != kv.TxnOK {
			t.Fatalf("duplicate prewrite: %d", res.Txn)
		}
		if st.PendingLocks() != 2 {
			t.Fatalf("PendingLocks = %d, want 2", st.PendingLocks())
		}

		// A snapshot reader hits the lock, resolves it as pending (recording
		// its read watermark), and then reads past it.
		rts := st.NextTS(c)
		res := st.Do(c, &kv.Request{Op: kv.OpTxnGet, Key: kb, TS: rts})
		if res.Txn != kv.TxnLocked || res.TxnTS != start || !bytes.Equal(res.Value, ka) {
			t.Fatalf("locked read: txn=%d ts=%d primary=%q", res.Txn, res.TxnTS, res.Value)
		}
		if res := st.ResolveLock(c, ka, start, rts); res.Txn != kv.TxnPending {
			t.Fatalf("resolve: %d", res.Txn)
		}
		if res := st.Do(c, &kv.Request{Op: kv.OpTxnGet, Key: kb, TS: rts, TS2: start}); res.Txn != kv.TxnOK || res.Found {
			t.Fatalf("read past lock: txn=%d found=%v (kb has no committed version)", res.Txn, res.Found)
		}
		// GetAt performs the whole dance internally.
		if got, ok := st.GetAt(c, ka, rts); !ok || !bytes.Equal(got, kv.Value(10, 0, 200)) {
			t.Fatal("GetAt under pending lock did not serve the old version")
		}

		// Committing at or below the recorded watermark must be refused.
		if res := st.Do(c, &kv.Request{Op: kv.OpTxnCommit, Key: ka, TS: start, TS2: rts}); res.Txn != kv.TxnRetry {
			t.Fatalf("low commit: %d, want TxnRetry", res.Txn)
		}
		// A fresh commit timestamp lands.
		cts := st.NextTS(c)
		if res := st.Do(c, &kv.Request{Op: kv.OpTxnCommit, Key: ka, TS: start, TS2: cts}); res.Txn != kv.TxnOK {
			t.Fatalf("commit primary: %d", res.Txn)
		}
		// Resolve now reports committed; secondaries roll forward.
		rs := st.ResolveLock(c, ka, start, 0)
		if rs.Txn != kv.TxnCommitted || rs.TxnTS != cts {
			t.Fatalf("resolve after commit: %d at %d", rs.Txn, rs.TxnTS)
		}
		if res := st.Do(c, &kv.Request{Op: kv.OpTxnCommit, Key: kb, TS: start, TS2: rs.TxnTS}); res.Txn != kv.TxnOK {
			t.Fatalf("roll-forward secondary: %d", res.Txn)
		}
		if st.PendingLocks() != 0 {
			t.Fatal("locks remain after commit")
		}
		// The old reader's snapshot still excludes the new versions.
		if got, ok := st.GetAt(c, ka, rts); !ok || !bytes.Equal(got, kv.Value(10, 0, 200)) {
			t.Fatal("reader's snapshot moved after commit above its watermark")
		}
		if got, ok := st.GetAt(c, kb, st.SnapshotTS()); !ok || !bytes.Equal(got, vb) {
			t.Fatal("committed secondary not visible at fresh snapshot")
		}
	})
}

func TestMVCCWriteConflictAndRollback(t *testing.T) {
	simHarness(t, mvccCfg, func(c env.Ctx, st *Store) {
		k := kv.Key(20)
		start := st.NextTS(c) // old snapshot
		txnPut(t, c, st, k, kv.Value(20, 1, 200))
		// First-committer-wins: a prewrite whose snapshot predates the
		// commit above must be refused.
		res := st.Do(c, &kv.Request{Op: kv.OpTxnPrewrite, Key: k, Value: kv.Value(20, 2, 200), TS: start, Aux: k})
		if res.Txn != kv.TxnWriteConflict {
			t.Fatalf("stale prewrite: %d, want TxnWriteConflict", res.Txn)
		}

		// Prewrite then roll back: the intent disappears and the committed
		// version remains.
		s2 := st.NextTS(c)
		if res := st.Do(c, &kv.Request{Op: kv.OpTxnPrewrite, Key: k, Value: kv.Value(20, 3, 200), TS: s2, Aux: k}); res.Txn != kv.TxnOK {
			t.Fatalf("prewrite: %d", res.Txn)
		}
		// A second writer sees the lock.
		s3 := st.NextTS(c)
		if res := st.Do(c, &kv.Request{Op: kv.OpTxnPrewrite, Key: k, Value: kv.Value(20, 4, 200), TS: s3, Aux: k}); res.Txn != kv.TxnLocked {
			t.Fatalf("conflicting prewrite: %d, want TxnLocked", res.Txn)
		}
		if res := st.Do(c, &kv.Request{Op: kv.OpTxnRollback, Key: k, TS: s2}); res.Txn != kv.TxnOK {
			t.Fatalf("rollback: %d", res.Txn)
		}
		if st.PendingLocks() != 0 {
			t.Fatal("lock survives rollback")
		}
		if v, ok := st.Get(c, k); !ok || !bytes.Equal(v, kv.Value(20, 1, 200)) {
			t.Fatal("committed version damaged by rollback")
		}
		// Rollback of a committed transaction must refuse.
		cts := txnPut(t, c, st, k, kv.Value(20, 5, 200))
		last := lastStartTS(t, st, k)
		if res := st.Do(c, &kv.Request{Op: kv.OpTxnRollback, Key: k, TS: last}); res.Txn != kv.TxnCommitted || res.TxnTS != cts {
			t.Fatalf("rollback of committed txn: %d at %d, want TxnCommitted at %d", res.Txn, res.TxnTS, cts)
		}
	})
}

// lastStartTS reads the newest version's start timestamp through the version
// table (or the indexed envelope when the key is settled).
func lastStartTS(t *testing.T, st *Store, key []byte) uint64 {
	t.Helper()
	w := st.workerFor(key)
	if ks := w.mv.Get(key); ks != nil && len(ks.Versions) > 0 {
		return ks.Versions[0].StartTS
	}
	t.Fatal("no tracked version")
	return 0
}

func TestMVCCPlainWriteChainsBeneathIntent(t *testing.T) {
	// A plain autocommit on a locked key must not disturb the intent: it
	// becomes the newest committed version beneath it, and the transaction
	// still commits above it.
	simHarness(t, mvccCfg, func(c env.Ctx, st *Store) {
		k := kv.Key(30)
		txnPut(t, c, st, k, kv.Value(30, 1, 200))
		start := st.NextTS(c)
		if res := st.Do(c, &kv.Request{Op: kv.OpTxnPrewrite, Key: k, Value: kv.Value(30, 2, 200), TS: start, Aux: k}); res.Txn != kv.TxnOK {
			t.Fatalf("prewrite: %d", res.Txn)
		}
		st.Put(c, k, kv.Value(30, 7, 200)) // plain write under the lock
		if v, ok := st.Get(c, k); !ok || !bytes.Equal(v, kv.Value(30, 7, 200)) {
			t.Fatal("plain write under lock not readable")
		}
		if st.PendingLocks() != 1 {
			t.Fatal("plain write disturbed the lock")
		}
		for {
			cts := st.NextTS(c)
			res := st.Do(c, &kv.Request{Op: kv.OpTxnCommit, Key: k, TS: start, TS2: cts})
			if res.Txn == kv.TxnRetry {
				continue
			}
			if res.Txn != kv.TxnOK {
				t.Fatalf("commit over plain write: %d", res.Txn)
			}
			break
		}
		if v, ok := st.Get(c, k); !ok || !bytes.Equal(v, kv.Value(30, 2, 200)) {
			t.Fatal("transaction's version not newest after commit")
		}
	})
}

func TestMVCCGCTrimsVersions(t *testing.T) {
	st, _ := simHarness(t, mvccCfg, func(c env.Ctx, st *Store) {
		k := kv.Key(40)
		for v := uint64(1); v <= 4; v++ {
			txnPut(t, c, st, k, kv.Value(40, v, 300))
		}
		if st.Stats().MVCCKeys != 1 {
			t.Fatal("multi-version key not tracked")
		}
		wm := st.SnapshotTS()
		if n := st.GC(c, wm); n != 3 {
			t.Fatalf("GC freed %d slots, want 3", n)
		}
		if st.Stats().MVCCKeys != 0 {
			t.Fatal("settled key still tracked after GC")
		}
		if v, ok := st.Get(c, k); !ok || !bytes.Equal(v, kv.Value(40, 4, 300)) {
			t.Fatal("newest version damaged by GC")
		}
		// A settled transactional delete is purged entirely.
		txnDelete(t, c, st, k)
		if n := st.GC(c, st.SnapshotTS()); n < 1 {
			t.Fatal("GC did not purge the settled delete")
		}
		if _, ok := st.Get(c, k); ok {
			t.Fatal("deleted key readable after GC purge")
		}
	})
	if err := st.CheckMVCC(); err != nil {
		t.Fatal(err)
	}
	if err := st.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestMVCCRecoveryRebuildsVersionsAndLocks(t *testing.T) {
	ka, kb, kc := kv.Key(50), kv.Key(51), kv.Key(52)
	var ctsA2 uint64
	var startPending uint64
	var tsMid uint64
	_, ms := simHarness(t, mvccCfg, func(c env.Ctx, st *Store) {
		txnPut(t, c, st, ka, kv.Value(50, 1, 300))
		tsMid = st.SnapshotTS()
		ctsA2 = txnPut(t, c, st, ka, kv.Value(50, 2, 300))
		txnPut(t, c, st, kc, kv.Value(52, 1, 300))
		// Leave a pending intent on kb (primary kb): crash before commit.
		startPending = st.NextTS(c)
		if res := st.Do(c, &kv.Request{Op: kv.OpTxnPrewrite, Key: kb, Value: kv.Value(51, 1, 300), TS: startPending, Aux: kb}); res.Txn != kv.TxnOK {
			t.Fatalf("prewrite: %d", res.Txn)
		}
	})

	// Open a brand-new store over the same bytes and recover.
	s2 := sim.New(2)
	e2 := sim.NewEnv(s2, 8)
	disk2 := device.NewSimDisk(s2, device.Optane(), ms)
	cfg := DefaultConfig(disk2)
	cfg.MVCC = true
	st2, err := Open(e2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2.Go("recover-client", func(c env.Ctx) {
		if err := st2.Recover(c); err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		st2.Start()
		if got := st2.PendingLocks(); got != 1 {
			t.Errorf("PendingLocks after recovery = %d, want 1", got)
		}
		// The oracle floor must exceed every recovered timestamp.
		if ts := st2.NextTS(c); ts <= ctsA2 || ts <= startPending {
			t.Errorf("post-recovery ts %d not above recovered %d/%d", ts, ctsA2, startPending)
		}
		// Settle the crash-pending intent: the primary never committed, so
		// it rolls back.
		if n := st2.ResolveIntents(c); n != 1 {
			t.Errorf("ResolveIntents settled %d intents, want 1", n)
		}
		if st2.PendingLocks() != 0 {
			t.Error("intent survives settlement")
		}
		if _, ok := st2.Get(c, kb); ok {
			t.Error("rolled-back intent left data behind")
		}
		// Committed versions survive with their history.
		if v, ok := st2.Get(c, ka); !ok || !bytes.Equal(v, kv.Value(50, 2, 300)) {
			t.Error("newest committed version lost")
		}
		if v, ok := st2.GetAt(c, ka, tsMid); !ok || !bytes.Equal(v, kv.Value(50, 1, 300)) {
			t.Error("older version lost by recovery")
		}
		if v, ok := st2.Get(c, kc); !ok || !bytes.Equal(v, kv.Value(52, 1, 300)) {
			t.Error("single-version key lost")
		}
		st2.Stop(c)
	})
	if err := s2.Run(-1); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if err := st2.CheckMVCC(); err != nil {
		t.Fatal(err)
	}
	if err := st2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestMVCCVersionChainStress churns put/delete/put cycles — transactional and
// plain — over a small key set across GC checkpoints, then audits that no
// slot is reachable from two live version chains (the satellite guard for the
// previous-version links through the freelist/slab layer).
func TestMVCCVersionChainStress(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	model := map[string][]byte{}
	st, ms := simHarness(t, func(c *Config) { c.MVCC = true; c.Workers = 2 }, func(c env.Ctx, st *Store) {
		keys := make([][]byte, 6)
		for i := range keys {
			keys[i] = kv.Key(int64(60 + i))
		}
		var ver uint64
		for round := 0; round < 12; round++ {
			for op := 0; op < 30; op++ {
				k := keys[r.Intn(len(keys))]
				ver++
				switch r.Intn(5) {
				case 0: // transactional delete
					if _, ok := model[string(k)]; ok {
						txnDelete(t, c, st, k)
						delete(model, string(k))
					}
				case 1: // plain delete
					if _, ok := model[string(k)]; ok {
						st.Delete(c, k)
						delete(model, string(k))
					}
				case 2: // plain put
					v := kv.Value(int64(op), ver, 100+r.Intn(400))
					st.Put(c, k, v)
					model[string(k)] = v
				default: // transactional put
					v := kv.Value(int64(op), ver, 100+r.Intn(400))
					txnPut(t, c, st, k, v)
					model[string(k)] = v
				}
			}
			// Checkpoint: trim everything settled at the current snapshot.
			st.GC(c, st.SnapshotTS())
		}
		for ks, want := range model {
			v, ok := st.Get(c, []byte(ks))
			if !ok || !bytes.Equal(v, want) {
				t.Fatalf("key %q diverged from model (ok=%v)", ks, ok)
			}
		}
	})
	if err := st.CheckMVCC(); err != nil {
		t.Fatal(err)
	}
	if err := st.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Recover from the same bytes: the chains must rebuild consistently.
	s2 := sim.New(3)
	e2 := sim.NewEnv(s2, 8)
	disk2 := device.NewSimDisk(s2, device.Optane(), ms)
	cfg := DefaultConfig(disk2)
	cfg.MVCC = true
	cfg.Workers = 2
	st2, err := Open(e2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2.Go("recover-client", func(c env.Ctx) {
		if err := st2.Recover(c); err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		st2.Start()
		st2.ResolveIntents(c)
		for ks, want := range model {
			v, ok := st2.Get(c, []byte(ks))
			if !ok || !bytes.Equal(v, want) {
				t.Errorf("key %q diverged after recovery (ok=%v)", ks, ok)
				return
			}
		}
		st2.Stop(c)
	})
	if err := s2.Run(-1); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if err := st2.CheckMVCC(); err != nil {
		t.Fatal(err)
	}
}

// TestMVCCAbsorbRMWOnDeletedKey: with the absorb front end on, an RMW that
// misses the buffer must read the key's newest committed version like the
// direct path does. A key whose newest committed version is a delete (the
// index names the delete envelope's slot, which is live) or that holds only
// a pending intent is absent: the RMW answers not-found and writes nothing.
func TestMVCCAbsorbRMWOnDeletedKey(t *testing.T) {
	st, _ := simHarness(t, func(c *Config) {
		c.MVCC = true
		c.AbsorbInterval = 20 * env.Microsecond
	}, func(c env.Ctx, st *Store) {
		deleted, locked := kv.Key(5), kv.Key(6)
		st.Put(c, deleted, kv.Value(5, 1, 300))
		txnDelete(t, c, st, deleted)
		start := st.NextTS(c)
		if res := st.Do(c, &kv.Request{Op: kv.OpTxnPrewrite, Key: locked, Value: kv.Value(6, 1, 300), TS: start, Aux: locked}); res.Txn != kv.TxnOK {
			t.Fatalf("prewrite: txn status %d", res.Txn)
		}
		// Keep each key's worker busy with writes to other keys of its shard,
		// so the RMW is offered to the absorb buffer rather than run directly.
		var reqs []*kv.Request
		for _, key := range [][]byte{deleted, locked} {
			for i, n := int64(100), 0; n < 4; i++ {
				if st.workerFor(kv.Key(i)) == st.workerFor(key) {
					reqs = append(reqs, &kv.Request{Op: kv.OpUpdate, Key: kv.Key(i), Value: kv.Value(i, 1, 300)})
					n++
				}
			}
		}
		reqs = append(reqs,
			&kv.Request{Op: kv.OpRMW, Key: deleted, Value: kv.Value(5, 2, 300)},
			&kv.Request{Op: kv.OpRMW, Key: locked, Value: kv.Value(6, 2, 300)})
		res := burst(c, st, reqs)
		for i, key := range [][]byte{deleted, locked} {
			if res[len(res)-2+i].Found {
				t.Errorf("RMW(%q) reported Found on a key with no committed value", key)
			}
			if _, ok := st.Get(c, key); ok {
				t.Errorf("Get(%q) finds a value after the RMW: it wrote one", key)
			}
		}
		st.Do(c, &kv.Request{Op: kv.OpTxnRollback, Key: locked, TS: start})
	})
	if st.Stats().AbsorbFlushes == 0 {
		t.Fatal("absorb front end never engaged")
	}
	if err := st.CheckMVCC(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocBudgetMVCCRead pins the single-version MVCC read path (version
// table miss, warm page cache) at zero allocations per operation — the
// tentpole's "single-version reads stay on the 0-alloc path" requirement.
func TestAllocBudgetMVCCRead(t *testing.T) {
	e := env.NewReal()
	disk := device.NewRealDisk(device.NewMemStore(), 1, false)
	cfg := DefaultConfig(disk)
	cfg.MVCC = true
	st, err := Open(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.Start()
	errCh := make(chan error, 1)
	e.Go("client", func(c env.Ctx) {
		defer close(errCh)
		key := kv.Key(3)
		st.Put(c, key, kv.Value(3, 1, 100))
		w := st.workerFor(key)
		r := &kv.Request{Op: kv.OpGet, Key: key, Done: func(kv.Result) {}}
		var out []*aio.IO
		run := func() {
			w.start(c, r, &out)
			if len(out) != 0 {
				errCh <- fmt.Errorf("read path issued I/O (page cache miss)")
			}
		}
		run() // warm: grows r.ValueBuf, faults the page into the cache
		if n := testing.AllocsPerRun(200, run); n != 0 {
			errCh <- fmt.Errorf("single-version MVCC read allocates %.1f/op, want 0", n)
			return
		}
		st.Stop(c)
	})
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	e.Wait()
	disk.Close()
}

// peakDisk is a SimDisk that records its largest in-flight count.
type peakDisk struct {
	*device.SimDisk
	peak int
}

func (d *peakDisk) Submit(r *device.Request) {
	d.SimDisk.Submit(r)
	d.peak = max(d.peak, d.Inflight())
}

// TestMVCCGCPacesDevice collects 20,480 stale versions. The disk's in-flight
// count must stay within twice the bound Config documents, BatchSize ×
// workers per disk: a collection that emits every free in one batch puts
// tens of thousands of requests on the device at once.
func TestMVCCGCPacesDevice(t *testing.T) {
	const keys, stale = 2048, 10
	s := sim.New(1)
	e := sim.NewEnv(s, 8)
	disk := &peakDisk{SimDisk: device.NewSimDisk(s, device.Optane(), device.NewMemStore())}
	cfg := DefaultConfig(disk)
	cfg.Workers = 2
	cfg.MVCC = true
	st, err := Open(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.Start()
	e.Go("client", func(c env.Ctx) {
		defer st.Stop(c)
		for i := int64(0); i < keys; i++ {
			txnPut(t, c, st, kv.Key(i), kv.Value(i, 0, 40)) // the key enters the version table
			for v := uint64(1); v <= stale; v++ {
				st.Put(c, kv.Key(i), kv.Value(i, v, 40))
			}
		}
		disk.peak = 0
		if n := st.GC(c, st.SnapshotTS()); n != keys*stale {
			t.Errorf("GC freed %d slots, want %d", n, keys*stale)
		}
		t.Logf("peak of %d requests in flight during GC", disk.peak)
		if bound := 2 * cfg.BatchSize * cfg.Workers; disk.peak > bound {
			t.Errorf("%d requests in flight on the disk during GC, bound %d", disk.peak, bound)
		}
		for i := int64(0); i < keys; i++ {
			if v, ok := st.Get(c, kv.Key(i)); !ok || !bytes.Equal(v, kv.Value(i, stale, 40)) {
				t.Fatalf("key %d lost its newest version to GC", i)
			}
		}
	})
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Stats().MVCCKeys != 0 {
		t.Errorf("%d keys still tracked after GC", st.Stats().MVCCKeys)
	}
	if err := st.CheckMVCC(); err != nil {
		t.Fatal(err)
	}
	if err := st.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
