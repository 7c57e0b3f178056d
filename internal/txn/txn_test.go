package txn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"kvell/internal/core"
	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/sim"
)

// harness runs fn against a fresh MVCC store inside the simulator.
func harness(t *testing.T, seed int64, fn func(c env.Ctx, st *core.Store, cl *LocalClient)) {
	t.Helper()
	s := sim.New(seed)
	e := sim.NewEnv(s, 8)
	disk := device.NewSimDisk(s, device.Optane(), device.NewMemStore())
	cfg := core.DefaultConfig(disk)
	cfg.MVCC = true
	st, err := core.Open(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.Start()
	e.Go("client", func(c env.Ctx) {
		fn(c, st, &LocalClient{St: st})
		st.Stop(c)
	})
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := st.CheckMVCC(); err != nil {
		t.Fatal(err)
	}
}

func bal(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func TestTxnReadYourWrites(t *testing.T) {
	harness(t, 1, func(c env.Ctx, st *core.Store, cl *LocalClient) {
		tx := Begin(c, cl, 7)
		k := kv.Key(1)
		if _, ok, err := tx.Get(c, k); err != nil || ok {
			t.Fatalf("read of absent key: ok=%v err=%v", ok, err)
		}
		tx.Put(k, []byte("own"))
		if v, ok, _ := tx.Get(c, k); !ok || !bytes.Equal(v, []byte("own")) {
			t.Fatal("own write not visible")
		}
		tx.Delete(k)
		if _, ok, _ := tx.Get(c, k); ok {
			t.Fatal("own delete not visible")
		}
		tx.Put(k, []byte("final"))
		cts, err := tx.Commit(c)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok, _ := GetAt(c, cl, k, cts, 1); !ok || !bytes.Equal(v, []byte("final")) {
			t.Fatal("committed value not visible at its own timestamp")
		}
	})
}

func TestTxnMultiKeyAtomicity(t *testing.T) {
	harness(t, 2, func(c env.Ctx, st *core.Store, cl *LocalClient) {
		a, b := kv.Key(1), kv.Key(2)
		tx := Begin(c, cl, 3)
		tx.Put(a, bal(100))
		tx.Put(b, bal(100))
		if _, err := tx.Commit(c); err != nil {
			t.Fatal(err)
		}
		pre := st.SnapshotTS()
		// Transfer 30 from a to b.
		m := &Manager{Cl: cl}
		cts, err := m.Run(c, 11, func(c env.Ctx, tx *Txn) error {
			av, _, err := tx.Get(c, a)
			if err != nil {
				return err
			}
			bv, _, err := tx.Get(c, b)
			if err != nil {
				return err
			}
			tx.Put(a, bal(binary.LittleEndian.Uint64(av)-30))
			tx.Put(b, bal(binary.LittleEndian.Uint64(bv)+30))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// The old snapshot sees the pre-transfer state on both keys; a new
		// one sees the post-transfer state on both. No mix exists at any ts.
		for _, ts := range []uint64{pre, cts, st.SnapshotTS()} {
			av, _, _ := GetAt(c, cl, a, ts, 5)
			bv, _, _ := GetAt(c, cl, b, ts, 5)
			sum := binary.LittleEndian.Uint64(av) + binary.LittleEndian.Uint64(bv)
			if sum != 200 {
				t.Fatalf("ts %d: sum %d, want 200", ts, sum)
			}
			if ts >= cts && binary.LittleEndian.Uint64(av) != 70 {
				t.Fatalf("ts %d: a=%d, want 70", ts, binary.LittleEndian.Uint64(av))
			}
			if ts < cts && binary.LittleEndian.Uint64(av) != 100 {
				t.Fatalf("ts %d: a=%d, want 100", ts, binary.LittleEndian.Uint64(av))
			}
		}
	})
}

func TestTxnWriteConflictLoserRetries(t *testing.T) {
	harness(t, 3, func(c env.Ctx, st *core.Store, cl *LocalClient) {
		k := kv.Key(9)
		tx := Begin(c, cl, 1)
		tx.Put(k, bal(0))
		if _, err := tx.Commit(c); err != nil {
			t.Fatal(err)
		}
		// Two overlapping increments: the second's snapshot predates the
		// first's commit, so its bare Commit must fail with ErrConflict...
		t1 := Begin(c, cl, 2)
		t2 := Begin(c, cl, 3)
		v1, _, _ := t1.Get(c, k)
		v2, _, _ := t2.Get(c, k)
		t1.Put(k, bal(binary.LittleEndian.Uint64(v1)+1))
		t2.Put(k, bal(binary.LittleEndian.Uint64(v2)+1))
		if _, err := t1.Commit(c); err != nil {
			t.Fatal(err)
		}
		if _, err := t2.Commit(c); !errors.Is(err, ErrConflict) {
			t.Fatalf("stale commit: %v, want ErrConflict", err)
		}
		// ...while the manager retries it to success.
		m := &Manager{Cl: cl}
		if _, err := m.Run(c, 4, func(c env.Ctx, tx *Txn) error {
			v, _, err := tx.Get(c, k)
			if err != nil {
				return err
			}
			tx.Put(k, bal(binary.LittleEndian.Uint64(v)+1))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		v, _, _ := GetAt(c, cl, k, st.SnapshotTS(), 5)
		if got := binary.LittleEndian.Uint64(v); got != 2 {
			t.Fatalf("final value %d, want 2 (one lost update)", got)
		}
	})
}

// recordingClient is a LocalClient that logs the keys it prewrites and
// commits.
type recordingClient struct {
	LocalClient
	prewrites, commits []string
}

func (r *recordingClient) Prewrite(c env.Ctx, key, value, primary []byte, startTS uint64, del bool) kv.Result {
	r.prewrites = append(r.prewrites, string(key))
	return r.LocalClient.Prewrite(c, key, value, primary, startTS, del)
}

func (r *recordingClient) Commit(c env.Ctx, key []byte, startTS, commitTS uint64) kv.Result {
	r.commits = append(r.commits, string(key))
	return r.LocalClient.Commit(c, key, startTS, commitTS)
}

// TestManagerReusedTxnCarriesNothing runs a body whose first attempt buffers
// k1 and k2 and loses a write-write conflict on k1, and whose second attempt
// writes only k3. Run reuses one Txn for both, and nothing of the first
// attempt may leak into the second: its Get of k1 reads the store, and only
// k3 is prewritten and committed.
func TestManagerReusedTxnCarriesNothing(t *testing.T) {
	harness(t, 5, func(c env.Ctx, st *core.Store, lc *LocalClient) {
		k1, k2, k3 := kv.Key(1), kv.Key(2), kv.Key(3)
		st.Put(c, k1, bal(1))
		rc := &recordingClient{LocalClient: *lc}
		m := &Manager{Cl: rc}
		attempts := 0
		var first *Txn
		_, err := m.Run(c, 11, func(c env.Ctx, tx *Txn) error {
			attempts++
			if attempts == 1 {
				first = tx
				st.Put(c, k1, bal(2)) // commits after tx's snapshot
				tx.Put(k1, bal(10))
				tx.Put(k2, bal(20))
				return nil
			}
			if tx != first {
				t.Error("Run did not reuse its Txn")
			}
			rc.prewrites, rc.commits = nil, nil
			if v, ok, err := tx.Get(c, k1); err != nil || !ok || !bytes.Equal(v, bal(2)) {
				t.Errorf("attempt 2 reads k1 = %v, %v, %v; want the store's %v", v, ok, err, bal(2))
			}
			if v, ok, err := tx.Get(c, k2); err != nil || ok {
				t.Errorf("attempt 2 reads k2 = %v, %v, %v; want absent", v, ok, err)
			}
			tx.Put(k3, bal(30))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if attempts != 2 || m.Conflicts != 1 {
			t.Fatalf("%d attempts, %d conflicts; want 2 and 1", attempts, m.Conflicts)
		}
		want := []string{string(k3)}
		if !slices.Equal(rc.prewrites, want) || !slices.Equal(rc.commits, want) {
			t.Errorf("attempt 2 prewrote %q and committed %q, want %q for both", rc.prewrites, rc.commits, want)
		}
		for _, tc := range []struct {
			key  []byte
			want []byte
		}{{k1, bal(2)}, {k2, nil}, {k3, bal(30)}} {
			if v, ok := st.Get(c, tc.key); ok != (tc.want != nil) || !bytes.Equal(v, tc.want) {
				t.Errorf("store holds %q = %v (%v), want %v", tc.key, v, ok, tc.want)
			}
		}
		if n := st.PendingLocks(); n != 0 {
			t.Errorf("%d locks pending after Run", n)
		}
	})
}

func TestTxnPendingLockMakesWriterDie(t *testing.T) {
	harness(t, 4, func(c env.Ctx, st *core.Store, cl *LocalClient) {
		k := kv.Key(5)
		// A transaction parks a prewrite on k and stalls before commit.
		holder := Begin(c, cl, 1)
		if res := cl.Prewrite(c, k, []byte("held"), k, holder.StartTS(), false); res.Txn != kv.TxnOK {
			t.Fatalf("holder prewrite: %d", res.Txn)
		}
		// A second writer must die (never wait) on the live lock.
		tx := Begin(c, cl, 2)
		tx.Put(k, []byte("blocked"))
		if _, err := tx.Commit(c); !errors.Is(err, ErrConflict) {
			t.Fatalf("write against live lock: %v, want ErrConflict", err)
		}
		if st.PendingLocks() != 1 {
			t.Fatal("loser's rollback disturbed the holder's lock")
		}
		// The holder commits fine afterwards.
		for {
			cts := cl.NextTS(c)
			res := cl.Commit(c, k, holder.StartTS(), cts)
			if res.Txn == kv.TxnRetry {
				continue
			}
			if res.Txn != kv.TxnOK {
				t.Fatalf("holder commit: %d", res.Txn)
			}
			break
		}
		if v, ok, _ := GetAt(c, cl, k, st.SnapshotTS(), 3); !ok || !bytes.Equal(v, []byte("held")) {
			t.Fatal("holder's value lost")
		}
	})
}

func TestTxnConcurrentTransfersConserveTotal(t *testing.T) {
	// Many procs transfer between a small set of accounts while a reader
	// audits the invariant at live snapshots. The close-loop shape of the
	// sim guarantees the test is deterministic end to end.
	const accounts = 8
	const procs = 4
	const transfersPerProc = 25
	s := sim.New(5)
	e := sim.NewEnv(s, 8)
	disk := device.NewSimDisk(s, device.Optane(), device.NewMemStore())
	cfg := core.DefaultConfig(disk)
	cfg.MVCC = true
	st, err := core.Open(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.Start()
	cl := &LocalClient{St: st}
	mu := e.NewMutex()
	cond := e.NewCond(mu)
	finished := 0
	e.Go("seed", func(c env.Ctx) {
		tx := Begin(c, cl, 0)
		for i := 0; i < accounts; i++ {
			tx.Put(kv.Key(int64(i)), bal(1000))
		}
		if _, err := tx.Commit(c); err != nil {
			t.Errorf("seed: %v", err)
		}
		for p := 0; p < procs; p++ {
			p := p
			e.Go("mover", func(c env.Ctx) {
				m := &Manager{Cl: cl, MaxAttempts: 64}
				for i := 0; i < transfersPerProc; i++ {
					from := kv.Key(int64((p + i) % accounts))
					to := kv.Key(int64((p*3 + i*7 + 1) % accounts))
					if bytes.Equal(from, to) {
						continue
					}
					_, err := m.Run(c, int64(p*1000+i), func(c env.Ctx, tx *Txn) error {
						fv, _, err := tx.Get(c, from)
						if err != nil {
							return err
						}
						tv, _, err := tx.Get(c, to)
						if err != nil {
							return err
						}
						amt := uint64(1 + i%5)
						f := binary.LittleEndian.Uint64(fv)
						if f < amt {
							return nil // insufficient funds; commit as read-only
						}
						tx.Put(from, bal(f-amt))
						tx.Put(to, bal(binary.LittleEndian.Uint64(tv)+amt))
						return nil
					})
					if err != nil {
						t.Errorf("mover %d transfer %d: %v", p, i, err)
						break
					}
					// Audit: one consistent snapshot across all accounts.
					if i%5 == 0 {
						ts := st.SnapshotTS()
						var sum uint64
						for a := 0; a < accounts; a++ {
							v, ok, err := GetAt(c, cl, kv.Key(int64(a)), ts, int64(a))
							if err != nil || !ok {
								t.Errorf("audit read %d: ok=%v err=%v", a, ok, err)
								return
							}
							sum += binary.LittleEndian.Uint64(v)
						}
						if sum != accounts*1000 {
							t.Errorf("mover %d step %d: snapshot sum %d, want %d", p, i, sum, accounts*1000)
							return
						}
					}
				}
				mu.Lock(c)
				finished++
				mu.Unlock(c)
				cond.Signal(c)
			})
		}
		e.Go("closer", func(c env.Ctx) {
			mu.Lock(c)
			for finished < procs {
				cond.Wait(c)
			}
			mu.Unlock(c)
			st.Stop(c)
		})
	})
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if st.PendingLocks() != 0 {
		t.Fatal("locks left behind")
	}
	if err := st.CheckMVCC(); err != nil {
		t.Fatal(err)
	}
	if err := st.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTxnCommit(b *testing.B) {
	e := env.NewReal()
	ms := device.NewMemStore()
	disk := device.NewRealDisk(ms, 2, false)
	cfg := core.DefaultConfig(disk)
	cfg.MVCC = true
	st, err := core.Open(e, cfg)
	if err != nil {
		b.Fatal(err)
	}
	st.Start()
	cl := &LocalClient{St: st}
	doneCh := make(chan struct{})
	e.Go("bench", func(c env.Ctx) {
		defer close(doneCh)
		seed := Begin(c, cl, 0)
		for i := int64(0); i < 64; i++ {
			seed.Put(kv.Key(i), kv.Value(i, 0, 128))
		}
		if _, err := seed.Commit(c); err != nil {
			b.Error(err)
			return
		}
		val := make([]byte, 128)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Disjoint two-key transactions: the steady-state commit cost
			// (2 prewrites + primary flip + secondary roll-forward).
			k1 := kv.Key(int64(i % 64))
			k2 := kv.Key(int64((i + 32) % 64))
			tx := Begin(c, cl, int64(i))
			kv.FillValue(val, int64(i%64), uint64(i))
			tx.Put(k1, val)
			tx.Put(k2, val)
			if _, err := tx.Commit(c); err != nil {
				b.Error(err)
				return
			}
		}
		b.StopTimer()
		st.Stop(c)
	})
	<-doneCh
	e.Wait()
	disk.Close()
}

// localRoundTripAllocBudget is what a warm TxnGet + Commit through
// LocalClient may allocate: 1, the caller-owned Result.Value of the read,
// plus 5%. With a closure per store continuation it measured 2. Go1.24.0 on
// linux/amd64.
const localRoundTripAllocBudget = 1 * 1.05

// TestAllocBudgetLocalRoundTrip pins LocalClient at no kv.Request per store
// round trip: a warm TxnGet + Commit allocates no more than the same two
// operations on caller-owned requests through core.Store.Do, and no more
// than localRoundTripAllocBudget.
func TestAllocBudgetLocalRoundTrip(t *testing.T) {
	harness(t, 1, func(c env.Ctx, st *core.Store, cl *LocalClient) {
		k := kv.Key(9)
		start := cl.NextTS(c)
		if res := cl.Prewrite(c, k, bal(9), k, start, false); res.Txn != kv.TxnOK {
			t.Fatalf("prewrite: %v", res.Txn)
		}
		cts := cl.NextTS(c)
		if res := cl.Commit(c, k, start, cts); res.Txn != kv.TxnOK {
			t.Fatalf("commit: %v", res.Txn)
		}
		get := &kv.Request{Op: kv.OpTxnGet, Key: k, TS: cts}
		commit := &kv.Request{Op: kv.OpTxnCommit, Key: k, TS: start, TS2: cts}
		owned := func() {
			get.ValueBuf = nil // a fresh value per read, as LocalClient returns
			if res := st.Do(c, get); !res.Found || !bytes.Equal(res.Value, bal(9)) {
				t.Fatalf("TxnGet through Do: %+v", res)
			}
			if res := st.Do(c, commit); res.Txn != kv.TxnOK {
				t.Fatalf("repeated Commit through Do: %v", res.Txn)
			}
		}
		local := func() {
			if res := cl.TxnGet(c, k, cts, 0); !res.Found || !bytes.Equal(res.Value, bal(9)) {
				t.Fatalf("TxnGet: %+v", res)
			}
			if res := cl.Commit(c, k, start, cts); res.Txn != kv.TxnOK {
				t.Fatalf("repeated Commit: %v", res.Txn)
			}
		}
		owned()
		local() // warm: the page is cached and one waiter is pooled
		want := testing.AllocsPerRun(100, owned)
		got := testing.AllocsPerRun(100, local)
		if got > want {
			t.Errorf("LocalClient TxnGet+Commit allocates %.0f/op, %.0f more than on caller-owned requests", got, got-want)
		}
		if got > localRoundTripAllocBudget {
			t.Errorf("LocalClient TxnGet+Commit allocates %.0f/op, budget %.2f", got, float64(localRoundTripAllocBudget))
		}
	})
}
