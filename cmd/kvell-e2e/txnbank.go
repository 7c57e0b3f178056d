package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"kvell/internal/core"
	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/sim"
	"kvell/internal/stats"
	"kvell/internal/trace"
	"kvell/internal/txn"
)

// The bank: accounts hold a balance, movers transfer between randomly drawn
// accounts inside percolator transactions, and the sum of all balances must
// never change. harness.RunTxnBank reports neither per-transfer latency nor
// the store it ran on, so the benchmark drives sim, device, core.Open and
// txn.Manager itself.
const (
	bankAccounts  = 16_384
	bankInitial   = 1_000
	bankMovers    = 16
	bankTransfers = 10_000 // per mover at nominalSeconds
	bankTxnSize   = 3
	bankTheta     = 0.6 // probability a draw comes from the hot accounts/64
	bankBalBytes  = 16  // balance, then the writer's start timestamp
)

func encBal(v int64, tag uint64) []byte {
	b := make([]byte, bankBalBytes)
	binary.LittleEndian.PutUint64(b, uint64(v))
	binary.LittleEndian.PutUint64(b[8:], tag)
	return b
}

func decBal(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }

// pickAccounts draws bankTxnSize distinct accounts into dst.
func pickAccounts(rng *rand.Rand, dst []int64) {
	for n := 0; n < len(dst); {
		a := rng.Int63n(bankAccounts)
		if rng.Float64() < bankTheta {
			a = rng.Int63n(bankAccounts / 64)
		}
		dup := false
		for _, b := range dst[:n] {
			dup = dup || a == b
		}
		if !dup {
			dst[n] = a
			n++
		}
	}
}

// tracedClient is txn.LocalClient with every store round trip opened as a
// trace context, so a traced pass can say where a transfer's time went.
type tracedClient struct {
	st *core.Store
	tr *trace.Tracer
}

func (t *tracedClient) do(c env.Ctx, r *kv.Request) kv.Result {
	r.Trace = t.tr.Begin(int(r.Op), c.Now())
	c.SetTrace(r.Trace)
	res := t.st.Do(c, r)
	c.SetTrace(nil)
	t.tr.Finish(r.Trace, c.Now())
	return res
}

func (t *tracedClient) NextTS(c env.Ctx) uint64 { return t.st.NextTS(c) }

func (t *tracedClient) TxnGet(c env.Ctx, key []byte, ts, skip uint64) kv.Result {
	return t.do(c, &kv.Request{Op: kv.OpTxnGet, Key: key, TS: ts, TS2: skip})
}

func (t *tracedClient) Prewrite(c env.Ctx, key, value, primary []byte, startTS uint64, del bool) kv.Result {
	return t.do(c, &kv.Request{Op: kv.OpTxnPrewrite, Key: key, Value: value, TS: startTS, Aux: primary, Del: del})
}

func (t *tracedClient) Commit(c env.Ctx, key []byte, startTS, commitTS uint64) kv.Result {
	return t.do(c, &kv.Request{Op: kv.OpTxnCommit, Key: key, TS: startTS, TS2: commitTS})
}

func (t *tracedClient) Resolve(c env.Ctx, primary []byte, startTS, readTS uint64) kv.Result {
	return t.do(c, &kv.Request{Op: kv.OpTxnResolve, Key: primary, TS: startTS, TS2: readTS})
}

func (t *tracedClient) Rollback(c env.Ctx, key []byte, startTS uint64) kv.Result {
	return t.do(c, &kv.Request{Op: kv.OpTxnRollback, Key: key, TS: startTS})
}

func runTxnBank(seed int64, sc scale, o passOpts) outcome {
	transfers := max(int(float64(bankTransfers)*sc.dur), 1)
	start := mark()

	s := sim.New(seed + 1)
	e := sim.NewEnv(s, 4)
	disks := make([]device.Disk, 2)
	simDisks := make([]*device.SimDisk, len(disks))
	for i := range disks {
		simDisks[i] = device.NewSimDisk(s, device.AmazonNVMe(), device.NewMemStore())
		disks[i] = simDisks[i]
	}
	var cl txn.Client
	if o.tracer != nil {
		o.tracer.OpNames = nil
		for op := kv.OpGet; op <= kv.OpTxnGC; op++ {
			o.tracer.OpNames = append(o.tracer.OpNames, op.String())
		}
		trace.Attach(o.tracer, e) // before the store is built: mutexes copy the hook
		for _, d := range simDisks {
			d.Tracer = o.tracer
		}
	}
	cfg := core.DefaultConfig(disks...)
	cfg.Workers = 4
	cfg.MVCC = true
	st, err := core.Open(e, cfg)
	if err != nil {
		panic(err)
	}
	items := make([]kv.Item, bankAccounts)
	for i := range items {
		items[i] = kv.Item{Key: kv.Key(int64(i)), Value: encBal(bankInitial, 0)}
	}
	if err := st.BulkLoad(items); err != nil {
		panic(err)
	}
	st.Start()
	first := mark()
	o.profile.start()

	cl = &txn.LocalClient{St: st}
	if o.tracer != nil {
		cl = &tracedClient{st: st, tr: o.tracer}
	}

	out := outcome{tracer: o.tracer, attempted: int64(bankMovers * transfers)}
	lat := stats.NewHist()
	var failure error
	var lastCommit env.Time
	mu := e.NewMutex()
	cond := e.NewCond(mu)
	finished := 0

	for mi := 0; mi < bankMovers; mi++ {
		mi := mi
		e.Go(fmt.Sprintf("mover-%d", mi), func(c env.Ctx) {
			rng := rand.New(rand.NewSource(seed*7919 + int64(mi)))
			mgr := &txn.Manager{Cl: cl, MaxAttempts: 64}
			accs := make([]int64, bankTxnSize)
			keys := make([][]byte, bankTxnSize)
			for t := 0; t < transfers; t++ {
				pickAccounts(rng, accs)
				for i, a := range accs {
					keys[i] = kv.Key(a)
				}
				amt := 1 + rng.Int63n(7)
				begin := c.Now()
				_, err := mgr.Run(c, seed*104_729+int64(mi)*1_000_003+int64(t), func(c env.Ctx, tx *txn.Txn) error {
					// The first account pays one share to each of the others.
					for i, k := range keys {
						v, ok, err := tx.Get(c, k)
						if err != nil {
							return err
						}
						if !ok {
							return fmt.Errorf("account %d missing", accs[i])
						}
						delta := amt
						if i == 0 {
							delta = -amt * (bankTxnSize - 1)
						}
						tx.Put(k, encBal(decBal(v)+delta, tx.StartTS()))
					}
					return nil
				})
				if err != nil {
					if !errors.Is(err, txn.ErrConflict) && failure == nil {
						failure = fmt.Errorf("txn_bank: mover %d transfer %d: %w", mi, t, err)
					}
					continue // an exhausted retry budget is counted in mgr.Aborts
				}
				out.completed++
				lat.Add(c.Now() - begin)
				lastCommit = c.Now()
			}
			out.txnConflicts += mgr.Conflicts
			out.txnAborts += mgr.Aborts
			mu.Lock(c)
			finished++
			mu.Unlock(c)
			cond.Signal(c)
		})
	}

	// The auditor waits for the movers, collects garbage, then sums every
	// balance at one snapshot.
	var sum int64
	e.Go("auditor", func(c env.Ctx) {
		mu.Lock(c)
		for finished < bankMovers {
			cond.Wait(c)
		}
		mu.Unlock(c)
		out.gcFreed = int64(st.GC(c, st.SnapshotTS()))
		ts := st.SnapshotTS()
		for a := int64(0); a < bankAccounts; a++ {
			v, ok := st.GetAt(c, kv.Key(a), ts)
			if !ok && failure == nil {
				failure = fmt.Errorf("txn_bank: account %d missing at the final audit", a)
			}
			if ok {
				sum += decBal(v)
			}
		}
		st.Stop(c)
	})

	if err := s.Run(-1); err != nil {
		panic(err)
	}
	end := mark()
	out.setup, out.host = first.since(start), end.since(first)
	out.liveMB = liveHeapMB()

	switch {
	case failure != nil:
	case sum != bankAccounts*bankInitial:
		failure = fmt.Errorf("txn_bank: conservation violated: sum %d, want %d", sum, bankAccounts*bankInitial)
	case st.PendingLocks() != 0:
		failure = fmt.Errorf("txn_bank: %d locks still pending after the movers drained", st.PendingLocks())
	default:
		if failure = st.CheckMVCC(); failure == nil {
			failure = st.CheckConsistency()
		}
	}
	out.err = failure
	if err := s.Close(); err != nil {
		panic(err)
	}

	if lastCommit > 0 {
		out.vOpsPerS = float64(out.completed) / (float64(lastCommit) / float64(env.Second))
	}
	out.latMeanUS = float64(lat.Mean()) / 1e3
	out.latP99US = interpolatedPercentile(lat, 0.99) / 1e3
	out.latSamples = lat.Count()
	out.core = st.Stats()
	out.dev = diskTotals(simDisks)
	out.updates = out.completed * bankTxnSize
	out.userWriteBytes = out.updates * (kv.KeyLen + bankBalBytes)

	out.digest = digestOf(
		out.completed, out.txnConflicts, out.txnAborts, out.gcFreed, sum, int64(lastCommit),
		int64(lat.Digest()), out.dev.ReadOps, out.dev.WriteOps, out.core.Syscalls, out.core.IOsSubmitted,
	)
	return out
}
