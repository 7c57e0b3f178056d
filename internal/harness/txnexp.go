package harness

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"slices"

	"kvell/internal/cluster"
	"kvell/internal/core"
	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/fault"
	"kvell/internal/kv"
	"kvell/internal/mvcc"
	"kvell/internal/net"
	"kvell/internal/sim"
	"kvell/internal/stats"
	"kvell/internal/trace"
	"kvell/internal/txn"
)

// The txnbank workload: accounts hold fixed-point balances, movers transfer
// between randomly drawn accounts inside percolator transactions, and the
// invariant is conservation — the sum of all balances never changes, at any
// snapshot, across crashes and failovers. Because every transfer debits
// exactly what it credits, conservation at a snapshot is equivalent to "no
// transaction is ever visible half-applied", which is the whole point of the
// transaction layer.

// balSize is the account value: 8-byte little-endian signed balance plus an
// 8-byte tag (the writing transaction's start timestamp) so torn or
// cross-transaction mixes are detectable by byte comparison.
const balSize = 16

func encBal(v int64, tag uint64) []byte {
	b := make([]byte, balSize)
	binary.LittleEndian.PutUint64(b, uint64(v))
	binary.LittleEndian.PutUint64(b[8:], tag)
	return b
}

func decBal(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }

// pickTxnKeys draws n distinct account numbers. theta is the conflict knob:
// the probability a draw comes from the hot set of max(2, accounts/64)
// accounts. theta=0 is uniform (near-zero conflict); theta=1 serializes
// everything through the hot set.
func pickTxnKeys(rng *rand.Rand, accounts int64, n int, theta float64) []int64 {
	hot := max(2, accounts/64)
	out := make([]int64, 0, n)
	for len(out) < n {
		var a int64
		if theta > 0 && rng.Float64() < theta {
			a = rng.Int63n(hot)
		} else {
			a = rng.Int63n(accounts)
		}
		if !slices.Contains(out, a) {
			out = append(out, a)
		}
	}
	return out
}

// transfer is one drawn bank transfer: the first account pays amt to each of
// the others. vals are the exact bytes the committing attempt wrote.
type transfer struct {
	accs   []int64
	keys   [][]byte
	deltas []int64
	vals   [][]byte
}

// mover is one mover proc's transfer stream. Its account draws, amounts and
// per-transfer backoff seeds are all functions of (seed, ci, transfer index),
// so the transfer schedule is part of the reproducible transactional schedule.
type mover struct {
	mgr      *txn.Manager
	rng      *rand.Rand
	seed     int64 // per-transfer manager seed base
	n        int   // transfers drawn so far
	accounts int64
	size     int
	theta    float64
	bals     []int64
}

func newMover(cl txn.Client, seed int64, ci int, accounts int64, size int, theta float64) *mover {
	return &mover{
		mgr:      &txn.Manager{Cl: cl, MaxAttempts: 64},
		rng:      rand.New(rand.NewSource(seed*7919 + int64(ci))),
		seed:     seed*104_729 + int64(ci)*1_000_003,
		accounts: accounts,
		size:     size,
		theta:    theta,
		bals:     make([]int64, size),
	}
}

// next draws the next transfer and runs it through the percolator client,
// returning its commit timestamp or the manager's error.
func (mv *mover) next(c env.Ctx) (transfer, uint64, error) {
	tr := transfer{accs: pickTxnKeys(mv.rng, mv.accounts, mv.size, mv.theta)}
	n := len(tr.accs)
	tr.keys, tr.deltas, tr.vals = make([][]byte, n), make([]int64, n), make([][]byte, n)
	for i, a := range tr.accs {
		tr.keys[i] = kv.Key(a)
	}
	amt := 1 + mv.rng.Int63n(7)
	cts, err := mv.mgr.Run(c, mv.seed+int64(mv.n), func(c env.Ctx, tx *txn.Txn) error {
		for i, k := range tr.keys {
			v, ok, err := tx.Get(c, k)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("txnbank: account %d missing", tr.accs[i])
			}
			mv.bals[i] = decBal(v)
		}
		for i, k := range tr.keys {
			tr.deltas[i] = amt
			if i == 0 {
				tr.deltas[i] = -amt * int64(n-1)
			}
			tr.vals[i] = encBal(mv.bals[i]+tr.deltas[i], tx.StartTS())
			tx.Put(k, tr.vals[i])
		}
		return nil
	})
	mv.n++
	return tr, cts, err
}

// tracedClient is the auditor's transport: a LocalClient whose snapshot-read
// round trips are traced, so the run can prove snapshot reads never wait on a
// lock (the summed CompLock component must stay zero — readers resolve
// through the primary or read past, they do not block).
type tracedClient struct {
	txn.LocalClient
	tracer *trace.Tracer
}

func (tc *tracedClient) TxnGet(c env.Ctx, key []byte, ts, skip uint64) kv.Result {
	t := tc.tracer.Begin(int(kv.OpTxnGet), c.Now())
	res := tc.St.Do(c, &kv.Request{Op: kv.OpTxnGet, Key: key, TS: ts, TS2: skip, Trace: t})
	tc.tracer.Finish(t, c.Now())
	return res
}

// The bank's fixed shape. Every run starts each account at bankInitial and
// drives bankMovers mover procs against bankWorkers-worker stores; what varies
// per run is the seed, the skew, and the size and number of transfers.
const (
	bankInitial = 1_000
	bankMovers  = 4
	bankWorkers = 4
)

// TxnBankSpec describes one single-node bank run: bankMovers procs each
// commit Transfers multi-account transfers over bankAccounts accounts through
// the percolator client, while an auditor proc sums every balance at a fresh
// snapshot bankAudits times mid-run and once more after the movers drain.
type TxnBankSpec struct {
	Seed int64
	// Transfers is the closed-loop transfer count per mover.
	Transfers int
	// TxnSize is the number of accounts per transfer (>= 2); the first
	// account pays TxnSize-1 shares, the rest receive one each.
	TxnSize int
	// Theta is the hot-set draw probability (see pickTxnKeys).
	Theta float64
}

const (
	bankAccounts = 256
	bankAudits   = 4
	bankAuditGap = 2 * env.Millisecond
	bankNDisks   = 2 // also the crash run's
	bankCores    = 4 // also the crash run's
)

func (ts *TxnBankSpec) defaults() {
	def(&ts.Transfers, 50)
	def(&ts.TxnSize, 2)
}

// TxnBankResult is one bank run's outcome. Digest fingerprints the whole
// observable schedule (commits, conflicts, every audit's snapshot and sum,
// final balances); equal specs must produce equal digests.
type TxnBankResult struct {
	Accounts  int64
	Committed int64
	Conflicts int64 // write-write conflict retries across all movers
	Aborts    int64 // transfers that exhausted their retry budget
	Audits    int64
	// ReadLockWait is the summed CompLock over every audited snapshot read;
	// the run fails unless it is zero (SI readers never block on writers).
	ReadLockWait env.Time
	GCFreed      int64
	PendingAfter int
	Digest       uint64
}

// RunTxnBank executes one bank run. The returned error is a verification
// failure (conservation violated at some snapshot, ledger mismatch, lock
// leak, reader lock-wait); harness problems panic.
func RunTxnBank(spec TxnBankSpec) (TxnBankResult, error) {
	spec.defaults()
	res := TxnBankResult{Accounts: bankAccounts}
	const total = bankAccounts * bankInitial

	s := sim.New(spec.Seed + 1)
	e := sim.NewEnv(s, bankCores)
	disks := make([]device.Disk, bankNDisks)
	for i := range disks {
		disks[i] = device.NewSimDisk(s, device.AmazonNVMe(), device.NewMemStore())
	}
	st := openBank(e, disks)
	must(st.BulkLoad(bankItems(bankAccounts)))
	st.Start()

	tracer := trace.NewTracer(0)
	ledger := make([]int64, bankAccounts) // committed deltas, by account
	finals := make([]int64, bankAccounts)
	var audits []uint64 // (ts, sum) pairs, in audit order
	var vd verdict

	mu := e.NewMutex()
	cond := e.NewCond(mu)
	finished := 0

	for ci := 0; ci < bankMovers; ci++ {
		ci := ci
		e.Go(fmt.Sprintf("txn-mover-%d", ci), func(c env.Ctx) {
			mv := newMover(&txn.LocalClient{St: st}, spec.Seed, ci, bankAccounts, spec.TxnSize, spec.Theta)
			for t := 0; t < spec.Transfers; t++ {
				tr, _, err := mv.next(c)
				if err == txn.ErrConflict {
					continue // retry budget exhausted; counted in mgr.Aborts
				}
				if err != nil {
					vd.failf("mover %d transfer %d: %v", ci, t, err)
					continue
				}
				res.Committed++
				for i, a := range tr.accs {
					ledger[a] += tr.deltas[i]
				}
			}
			res.Conflicts += mv.mgr.Conflicts
			res.Aborts += mv.mgr.Aborts
			mu.Lock(c)
			finished++
			mu.Unlock(c)
			cond.Signal(c)
		})
	}

	auditCl := &tracedClient{LocalClient: txn.LocalClient{St: st}, tracer: tracer}
	audit := func(c env.Ctx, final bool) {
		ts := st.SnapshotTS()
		bo := mvcc.NewBackoff(spec.Seed^int64(ts), 2*env.Microsecond, 256*env.Microsecond)
		var sum int64
		for a := int64(0); a < bankAccounts; a++ {
			v, ok, err := txn.SnapshotGet(c, auditCl, kv.Key(a), ts, bo)
			if err != nil {
				vd.failf("audit@%d: read of account %d: %v", ts, a, err)
				return
			}
			if !ok {
				vd.failf("audit@%d: account %d missing", ts, a)
				return
			}
			bal := decBal(v)
			if final {
				finals[a] = bal
			}
			sum += bal
		}
		if sum != total {
			vd.failf("audit@%d: conservation violated: sum=%d want %d", ts, sum, total)
		}
		audits = append(audits, ts, uint64(sum))
		res.Audits++
	}

	e.Go("txn-auditor", func(c env.Ctx) {
		for i := 0; i < bankAudits; i++ {
			c.Sleep(bankAuditGap)
			audit(c, false)
		}
		mu.Lock(c)
		for finished < bankMovers {
			cond.Wait(c)
		}
		mu.Unlock(c)
		res.GCFreed = int64(st.GC(c, st.SnapshotTS()))
		audit(c, true)
		for a := int64(0); a < bankAccounts; a++ {
			if want := bankInitial + ledger[a]; finals[a] != want {
				vd.failf("account %d: final balance %d, committed ledger says %d", a, finals[a], want)
			}
		}
		res.PendingAfter = st.PendingLocks()
		if res.PendingAfter != 0 {
			vd.failf("%d locks still pending after all movers drained", res.PendingAfter)
		}
		st.Stop(c)
	})

	must(s.Run(-1))
	res.ReadLockWait = env.Time(tracer.Breakdown().Sum(trace.CompLock))
	if res.ReadLockWait != 0 {
		vd.failf("snapshot reads waited %s on locks; SI readers must never block", stats.FmtDur(res.ReadLockWait))
	}
	if err := st.CheckMVCC(); err != nil {
		vd.failf("post-run MVCC audit: %v", err)
	}
	if err := st.CheckConsistency(); err != nil {
		vd.failf("post-run consistency: %v", err)
	}
	must(s.Close())

	h := stats.NewFNV()
	h.Word(uint64(bankAccounts))
	h.Word(uint64(res.Committed))
	h.Word(uint64(res.Conflicts))
	h.Word(uint64(res.Aborts))
	h.Word(uint64(res.Audits))
	h.Word(uint64(res.GCFreed))
	h.Word(uint64(res.ReadLockWait))
	for _, v := range audits {
		h.Word(v)
	}
	for _, v := range finals {
		h.Word(uint64(v))
	}
	res.Digest = uint64(h)

	if vd.failed() {
		return res, fmt.Errorf("txnbank seed=%d theta=%.2f size=%d: %d failures, first: %s",
			spec.Seed, spec.Theta, spec.TxnSize, len(vd.failures), vd.failures[0])
	}
	return res, nil
}

// openBank opens an MVCC store for the single-node bank runs.
func openBank(e *sim.Env, disks []device.Disk) *core.Store {
	cfg := core.DefaultConfig(disks...)
	cfg.Workers = bankWorkers
	cfg.MVCC = true
	st, err := core.Open(e, cfg)
	must(err)
	return st
}

// bankItems is the bank's bulk load: every account at its initial balance.
func bankItems(accounts int64) []kv.Item {
	items := make([]kv.Item, accounts)
	for i := range items {
		items[i] = kv.Item{Key: kv.Key(int64(i)), Value: encBal(bankInitial, 0)}
	}
	return items
}

// ackedTxn is one acknowledged transfer: its commit timestamp, the accounts
// it touched, and the exact bytes it left behind. The crash and failover
// verifiers re-read every key of every acked transaction at its commit
// timestamp — all present, or the transaction was visible half-applied.
type ackedTxn struct {
	cts  uint64
	keys [][]byte
	vals [][]byte
}

// The transactional crash run's shape: bankMovers movers run open-ended
// uniform-draw transfers of crashTxnSize accounts over crashAccounts accounts.
const (
	crashAccounts = 128
	crashTxnSize  = 3
)

// TxnCrashResult is one transactional crash run's outcome.
type TxnCrashResult struct {
	Seed      int64
	AtWrite   int64
	CrashTime env.Time
	Fault     fault.Stats
	// IssuedTxns/AckedTxns count transfers started / acknowledged before the
	// crash. Transactions past their commit point but not yet acknowledged
	// fall in between; conservation covers them either way.
	IssuedTxns int64
	AckedTxns  int64
	Conflicts  int64
	// Resolved is how many leftover intents crash settlement rolled forward
	// or back during recovery.
	Resolved    int
	RecoverTime env.Time
	Digest      uint64
}

// RunTxnCrash executes one transactional crash–recover–verify cycle: movers
// transfer on fault-wrapped disks until the machine dies at the atWrite-th
// device write, then the store is recovered from the power-loss images and
// crash settlement resolves leftover intents. The returned error is a
// verification failure: conservation violated after recovery, an acked
// transaction half-applied, or a lock surviving settlement.
func RunTxnCrash(seed, atWrite int64) (TxnCrashResult, error) {
	res := TxnCrashResult{Seed: seed, AtWrite: atWrite}
	const total = crashAccounts * bankInitial

	// First life: transfers until the power cut.
	tb := NewTestbed(seed, atWrite, bankCores, bankNDisks)
	st := openBank(tb.Env, tb.Disks)
	tb.Load(st, bankItems(crashAccounts))

	acked := make([][]ackedTxn, bankMovers)
	movers := make([]*mover, bankMovers)
	for ci := 0; ci < bankMovers; ci++ {
		ci := ci
		movers[ci] = newMover(&txn.LocalClient{St: st}, seed, ci, crashAccounts, crashTxnSize, 0)
		tb.Env.Go(fmt.Sprintf("txn-crash-mover-%d", ci), func(c env.Ctx) {
			for c.Now() < crashHorizon {
				res.IssuedTxns++
				tr, cts, err := movers[ci].next(c)
				if err != nil {
					continue // conflict exhaustion; the crash freeze also lands here
				}
				res.AckedTxns++
				acked[ci] = append(acked[ci], ackedTxn{cts: cts, keys: tr.keys, vals: tr.vals})
			}
		})
	}
	if err := tb.Crash(); err != nil {
		return res, fmt.Errorf("txnbank: %v", err)
	}
	for _, mv := range movers {
		res.Conflicts += mv.mgr.Conflicts
	}
	res.CrashTime, res.Fault = tb.Inj.CrashTime(), tb.Inj.Stats()

	// Second life: recover, settle leftover intents, and verify. No GC runs,
	// so every acked transaction's versions are still on disk as evidence.
	tb.Reboot()
	st2 := openBank(tb.Env, tb.Disks)
	finals := make([]int64, crashAccounts)
	var vd verdict
	tb.Recover("txn-crash-recover", func(c env.Ctx) {
		t0 := c.Now()
		if err := st2.Recover(c); err != nil {
			vd.failf("recover: %v", err)
			return
		}
		st2.Start()
		res.Resolved = st2.ResolveIntents(c)
		res.RecoverTime = c.Now() - t0
		if n := st2.PendingLocks(); n != 0 {
			vd.failf("%d locks survived crash settlement", n)
		}
		ts := st2.SnapshotTS()
		var sum int64
		for a := int64(0); a < crashAccounts; a++ {
			v, ok := st2.GetAt(c, kv.Key(a), ts)
			if !ok {
				vd.failf("account %d lost in crash", a)
				continue
			}
			finals[a] = decBal(v)
			sum += finals[a]
		}
		if sum != total {
			vd.failf("conservation violated after crash: sum=%d want %d (crash@%s)",
				sum, total, stats.FmtDur(res.CrashTime))
		}
		// Every acknowledged transaction must be fully visible at its commit
		// timestamp: reading each of its keys at cts must return exactly the
		// bytes it wrote (commit timestamps are unique, so the version at cts
		// is that transaction's or the check fails).
		for ci := range acked {
			for ti, at := range acked[ci] {
				for i, k := range at.keys {
					v, ok := st2.GetAt(c, k, at.cts)
					if !ok || !bytes.Equal(v, at.vals[i]) {
						vd.failf("acked txn half-applied: mover %d txn %d cts=%d key %q (found=%v)",
							ci, ti, at.cts, k, ok)
					}
				}
			}
		}
		if err := st2.CheckConsistency(); err != nil {
			vd.failf("post-recovery consistency: %v", err)
		}
		st2.Stop(c)
	})
	if err := st2.CheckMVCC(); err != nil {
		vd.failf("post-recovery MVCC audit: %v", err)
	}
	tb.Close()

	h := stats.NewFNV()
	h.Word(uint64(res.CrashTime))
	h.Word(uint64(res.Fault.Writes))
	h.Word(uint64(res.Fault.InFlight))
	h.Word(uint64(res.Fault.Dropped))
	h.Word(uint64(res.Fault.Torn))
	h.Word(uint64(res.IssuedTxns))
	h.Word(uint64(res.AckedTxns))
	h.Word(uint64(res.Resolved))
	h.Word(uint64(res.RecoverTime))
	for ci := range acked {
		for _, at := range acked[ci] {
			h.Word(at.cts)
		}
	}
	for _, v := range finals {
		h.Word(uint64(v))
	}
	res.Digest = uint64(h)

	if vd.failed() {
		return res, fmt.Errorf("txnbank crash seed=%d atwrite=%d: %d failures, first: %s",
			seed, atWrite, len(vd.failures), vd.failures[0])
	}
	return res, nil
}

// TxnCrashSweep crashes the transactional store at Points seeded write
// indices (the same derivation as CrashSweep) and verifies conservation and
// acked-transaction visibility after each. Returns the number of failing
// points; every failure prints the flags that reproduce it.
func TxnCrashSweep(o SweepOpts, w io.Writer) int {
	repro := func(i int) string { return TxnCrashRepro(o, i) }
	return o.sweep(w, "txnbank", repro, func(pointSeed, atWrite int64) (string, error) {
		res, err := RunTxnCrash(pointSeed, atWrite)
		return fmt.Sprintf("crash@%s write=%d acked=%d resolved=%d digest=%016x",
			stats.FmtDur(res.CrashTime), res.AtWrite, res.AckedTxns, res.Resolved, res.Digest), err
	})
}

// TxnCrashRepro is the command line that reruns point i of the transactional
// crash sweep o — what TxnCrashSweep prints under a failing point.
func TxnCrashRepro(o SweepOpts, i int) string {
	return fmt.Sprintf("go run ./cmd/kvell-bench txn -crash -seed=%d -point=%d", o.Seed, i)
}

// TxnClusterSpec describes one multi-machine transactional run: Machines
// server machines (store shards with MVCC on) plus one client machine whose
// bankMovers mover procs each run txnClusterTransfers two-account percolator
// transfers across shards, timestamps served by the oracle on machine
// cluster.OracleHome. With Failover set, machine KillMachine (never the
// oracle's) dies at txnClusterKillAt and a follower is promoted through
// full-scan recovery; conservation and every acked transaction must survive.
type TxnClusterSpec struct {
	Machines int
	RF       int
	Seed     int64
	Theta    float64

	Failover    bool
	KillMachine int
}

const (
	// txnClusterAccounts is the per-shard dataset size; accounts hash across
	// shards, so transactions routinely span machines.
	txnClusterAccounts  = 64
	txnClusterTransfers = 25
	txnClusterKillAt    = 3 * env.Millisecond
)

func (ts *TxnClusterSpec) defaults() {
	def(&ts.Machines, 4)
	def(&ts.RF, 1)
	// Never the oracle's machine: timestamp service is pinned there.
	def(&ts.KillMachine, 1)
}

// TxnClusterResult is one cluster transaction run's outcome.
type TxnClusterResult struct {
	Machines int
	RF       int

	Committed  int64
	Conflicts  int64
	Aborts     int64
	FailedTxns int64 // transfers aborted by the machine kill (un-acked)
	Swept      int64 // in-flight calls failed by the failover sweep

	AckedVerified int // acked-transaction keys re-read and matched
	Promoted      int
	CrashTime     env.Time
	Net           net.Counters
	PagesShipped  int64
	Digest        uint64
}

// RunTxnCluster executes one cluster transaction run. The returned error is
// a verification failure (conservation violated across shards, acked
// transaction half-applied after failover, promotion failure).
func RunTxnCluster(spec TxnClusterSpec) (TxnClusterResult, error) {
	spec.defaults()
	M := spec.Machines
	total := int64(M) * txnClusterAccounts
	grand := total * bankInitial
	res := TxnClusterResult{Machines: M, RF: spec.RF, Promoted: -1}
	if spec.Failover && spec.KillMachine == cluster.OracleHome {
		panic("txnbank: cannot kill the oracle's machine")
	}

	initial := encBal(bankInitial, 0)
	cl := cluster.Build(cluster.Spec{
		Machines: M, RF: spec.RF, Seed: spec.Seed, Slots: clusterSlots,
		Cores: clusterCores, NDisks: 1,
		Tweak: func(cfg *core.Config) {
			cfg.Workers = bankWorkers
			cfg.MVCC = true
		},
		Records:   total,
		ValueLen:  balSize,
		FillValue: func(buf []byte, _ int64) { copy(buf, initial) },
		Kill:      spec.Failover, KillMachine: spec.KillMachine, KillAt: txnClusterKillAt,
	})
	clientM, clientEnv := M, cl.Envs[M]

	ledger := make([]int64, total)
	acked := make([][]ackedTxn, bankMovers)
	tcs := make([]*cluster.TxnClient, bankMovers)
	for ci := range tcs {
		tcs[ci] = cluster.NewTxnClient(cl, clientEnv, clientM)
	}
	var vd verdict
	mu := clientEnv.NewMutex()
	cond := clientEnv.NewCond(mu)
	finished := 0

	for ci := 0; ci < bankMovers; ci++ {
		ci := ci
		clientEnv.Go(fmt.Sprintf("txn-cluster-mover-%d", ci), func(c env.Ctx) {
			mv := newMover(tcs[ci], spec.Seed, ci, total, 2, spec.Theta)
			for t := 0; t < txnClusterTransfers; t++ {
				tr, cts, err := mv.next(c)
				if err == txn.ErrAborted && spec.Failover {
					// The kill swept this transfer mid-commit; its primary
					// never became durable, so it rolled back cleanly.
					res.FailedTxns++
					continue
				}
				if err == txn.ErrConflict {
					continue // retry budget exhausted; counted in mgr.Aborts
				}
				if err != nil {
					vd.failf("mover %d transfer %d: %v", ci, t, err)
					continue
				}
				res.Committed++
				for i, a := range tr.accs {
					ledger[a] += tr.deltas[i]
				}
				acked[ci] = append(acked[ci], ackedTxn{cts: cts, keys: tr.keys, vals: tr.vals})
			}
			res.Conflicts += mv.mgr.Conflicts
			res.Aborts += mv.mgr.Aborts
			mu.Lock(c)
			finished++
			mu.Unlock(c)
			cond.Signal(c)
		})
	}

	// Failover driver: wait out detection, promote the replica with the dead
	// store's own (MVCC) config so the promoted store rebuilds version chains
	// and locks, then sweep every mover's in-flight call to the dead machine
	// (they complete with TxnRetry and re-send under the new epoch).
	if spec.Failover {
		dead := spec.KillMachine
		res.Promoted = cl.Follower(dead).Host()
		cl.Envs[res.Promoted].Go("txn-failover-driver", func(c env.Ctx) {
			c.Sleep(txnClusterKillAt + clusterDetectDelay - c.Now())
			if !cl.Inj.Tripped() {
				vd.failf("machine %d never died", dead)
				return
			}
			if _, err := cl.Promote(c, dead); err != nil {
				vd.failf("promotion failed: %v", err)
				return
			}
			for _, tc := range tcs {
				tc.SweepIf(c, dead)
			}
		})
	}

	// Verifier: after the movers drain, audit conservation across all shards
	// at a fresh snapshot and re-read every key of every acked transaction at
	// its commit timestamp through the (possibly re-routed) cluster.
	allDone := false
	clientEnv.Go("txn-cluster-verify", func(c env.Ctx) {
		mu.Lock(c)
		for finished < bankMovers {
			cond.Wait(c)
		}
		mu.Unlock(c)
		vtc := cluster.NewTxnClient(cl, clientEnv, clientM)
		ts := vtc.SnapshotTS(c)
		var sum int64
		finals := make([]int64, total)
		for a := int64(0); a < total; a++ {
			v, ok, err := txn.GetAt(c, vtc, kv.Key(a), ts, spec.Seed)
			if err != nil {
				vd.failf("verify read of account %d: %v", a, err)
				continue
			}
			if !ok {
				vd.failf("account %d lost", a)
				continue
			}
			finals[a] = decBal(v)
			sum += finals[a]
		}
		if sum != grand {
			vd.failf("conservation violated across cluster: sum=%d want %d", sum, grand)
		}
		if !spec.Failover {
			// Without a kill every commit was acknowledged, so the committed
			// ledger predicts every balance exactly.
			for a := int64(0); a < total; a++ {
				if want := bankInitial + ledger[a]; finals[a] != want {
					vd.failf("account %d: balance %d, committed ledger says %d", a, finals[a], want)
				}
			}
		}
		for ci := range acked {
			for ti, at := range acked[ci] {
				for i, k := range at.keys {
					v, ok, err := txn.GetAt(c, vtc, k, at.cts, spec.Seed+int64(ti))
					if err != nil || !ok || !bytes.Equal(v, at.vals[i]) {
						vd.failf("acked txn half-applied after failover: mover %d txn %d cts=%d key %q",
							ci, ti, at.cts, k)
					} else {
						res.AckedVerified++
					}
				}
			}
		}
		allDone = true
	})

	must(cl.S.Run(60 * env.Second))
	if !allDone && !vd.failed() {
		panic("txnbank cluster: run did not complete within the time bound")
	}
	if cl.Inj != nil && cl.Inj.Tripped() {
		res.CrashTime = cl.Inj.CrashTime()
	}
	res.Net = cl.Net.Counters()
	for _, rp := range cl.Repls {
		if rp != nil {
			res.PagesShipped += rp.PagesShipped
		}
	}
	for _, tc := range tcs {
		res.Swept += tc.Swept
	}
	// After a failover the killed machine's entry is its promoted store.
	for m, st := range cl.Stores {
		if err := st.CheckMVCC(); err != nil {
			vd.failf("machine %d MVCC audit: %v", m, err)
		}
	}
	must(cl.S.Close())

	h := stats.NewFNV()
	h.Word(uint64(M))
	h.Word(uint64(spec.RF))
	h.Word(uint64(res.Committed))
	h.Word(uint64(res.Conflicts))
	h.Word(uint64(res.Aborts))
	h.Word(uint64(res.FailedTxns))
	h.Word(uint64(res.Swept))
	h.Word(uint64(res.AckedVerified))
	h.Word(uint64(res.Promoted + 1))
	h.Word(uint64(res.CrashTime))
	h.Word(uint64(res.Net.Msgs))
	h.Word(uint64(res.Net.Bytes))
	h.Word(uint64(res.PagesShipped))
	for ci := range acked {
		for _, at := range acked[ci] {
			h.Word(at.cts)
		}
	}
	for _, v := range ledger {
		h.Word(uint64(v))
	}
	res.Digest = uint64(h)

	if vd.failed() {
		return res, fmt.Errorf("txnbank cluster seed=%d machines=%d rf=%d failover=%v: %d failures, first: %s",
			spec.Seed, M, spec.RF, spec.Failover, len(vd.failures), vd.failures[0])
	}
	return res, nil
}

// txnExp is the deliverable experiment: transactional throughput and
// conflict behaviour across a conflict-rate (theta) × transaction-size
// sweep, each point verified for conservation at every audit snapshot, then
// a cross-shard cluster run with a mid-workload machine kill proving no
// acknowledged transaction is ever half-applied.
func txnExp(o Options, w io.Writer) {
	thetas := []float64{0, 0.5, 0.9}
	sizes := []int{2, 4, 8}
	transfers := 50
	if o.Quick {
		transfers = 25
		sizes = []int{2, 4}
	}

	fmt.Fprintf(w, "\nTxnbank: %d movers, %d transfers each, conservation audited at every snapshot:\n\n",
		4, transfers)
	fmt.Fprintf(w, "%-8s %-6s %10s %10s %10s %12s %12s\n",
		"theta", "size", "committed", "conflicts", "aborts", "gc-freed", "digest")
	for _, th := range thetas {
		for _, sz := range sizes {
			res, err := RunTxnBank(TxnBankSpec{
				Seed:      o.Seed,
				Theta:     th,
				TxnSize:   sz,
				Transfers: transfers,
			})
			if err != nil {
				fmt.Fprintf(w, "%-8.2f %-6d FAILED: %v\n", th, sz, err)
				continue
			}
			fmt.Fprintf(w, "%-8.2f %-6d %10d %10d %10d %12d %12x\n",
				th, sz, res.Committed, res.Conflicts, res.Aborts, res.GCFreed, res.Digest)
		}
	}

	fm, rf := 4, 2
	fres, err := RunTxnCluster(TxnClusterSpec{
		Machines:    fm,
		RF:          rf,
		Seed:        o.Seed,
		Theta:       0.3,
		Failover:    true,
		KillMachine: 1,
	})
	fmt.Fprintf(w, "\nCluster transactions: %d machines, RF=%d, kill machine %d at %s (promoted: machine %d)\n",
		fm, rf, 1, stats.FmtDur(fres.CrashTime), fres.Promoted)
	fmt.Fprintf(w, "  committed=%d failed=%d swept=%d conflicts=%d acked-keys-verified=%d\n",
		fres.Committed, fres.FailedTxns, fres.Swept, fres.Conflicts, fres.AckedVerified)
	if err != nil {
		fmt.Fprintf(w, "  FAILED: %v\n", err)
	} else {
		fmt.Fprintf(w, "  ok: conservation held across the kill; no acked transaction half-applied (digest %016x)\n",
			fres.Digest)
	}
}
