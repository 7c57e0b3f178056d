package harness

import (
	"bytes"
	"encoding/binary"
	"errors"
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
// the others. vals are the exact bytes the committing attempt wrote and cts
// its commit timestamp.
type transfer struct {
	accs   []int64
	keys   [][]byte
	deltas []int64
	vals   [][]byte
	cts    uint64
}

// mover is one mover proc's transfer stream. Its account draws, amounts and
// per-transfer backoff seeds are all functions of (seed, ci, transfer index),
// so the transfer schedule is part of the reproducible transactional schedule.
type mover struct {
	b    *bank
	mgr  *txn.Manager
	rng  *rand.Rand
	seed int64 // per-transfer manager seed base
	n    int   // transfers drawn so far
	bals []int64
}

func newMover(b *bank, cl txn.Client, ci int) *mover {
	return &mover{
		b:    b,
		mgr:  &txn.Manager{Cl: cl, MaxAttempts: 64},
		rng:  rand.New(rand.NewSource(b.seed*7919 + int64(ci))),
		seed: b.seed*104_729 + int64(ci)*1_000_003,
		bals: make([]int64, b.size),
	}
}

// next draws the next transfer and runs it through the percolator client.
func (mv *mover) next(c env.Ctx) (tr transfer, err error) {
	tr.accs = pickTxnKeys(mv.rng, mv.b.accounts, mv.b.size, mv.b.theta)
	n := len(tr.accs)
	tr.keys, tr.deltas, tr.vals = make([][]byte, n), make([]int64, n), make([][]byte, n)
	for i, a := range tr.accs {
		tr.keys[i] = kv.Key(a)
	}
	amt := 1 + mv.rng.Int63n(7)
	tr.cts, err = mv.mgr.Run(c, mv.seed+int64(mv.n), func(c env.Ctx, tx *txn.Txn) error {
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
	return tr, err
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
	res := tc.St.Call(c, kv.Request{Op: kv.OpTxnGet, Key: key, TS: ts, TS2: skip, Trace: t})
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

	s := sim.New(spec.Seed + 1)
	e := sim.NewEnv(s, bankCores)
	disks := make([]device.Disk, bankNDisks)
	for i := range disks {
		disks[i] = device.NewSimDisk(s, device.AmazonNVMe(), device.NewMemStore())
	}
	st := openBank(e, disks)
	must(st.BulkLoad(bankItems(bankAccounts)))
	st.Start()

	b := driveBank(e, spec.Seed, bankAccounts, spec.TxnSize, spec.Theta,
		func(int) txn.Client { return &txn.LocalClient{St: st} },
		func(_ env.Ctx, t int) bool { return t < spec.Transfers },
		func(error) bool { return false })

	tracer := trace.NewTracer(0)
	auditCl := &tracedClient{LocalClient: txn.LocalClient{St: st}, tracer: tracer}
	var audits []uint64 // (ts, sum) pairs, in audit order
	audit := func(c env.Ctx) {
		ts := st.SnapshotTS()
		bo := mvcc.MakeBackoff(spec.Seed^int64(ts), 2*env.Microsecond, 256*env.Microsecond)
		sum := b.audit(c, ts, func(c env.Ctx, key []byte, ts uint64) ([]byte, bool, error) {
			return txn.SnapshotGet(c, auditCl, key, ts, &bo)
		})
		audits = append(audits, ts, uint64(sum))
		res.Audits++
	}
	e.Go("txn-auditor", func(c env.Ctx) {
		for i := 0; i < bankAudits; i++ {
			c.Sleep(bankAuditGap)
			audit(c)
		}
		b.finished.Wait(c)
		res.GCFreed = int64(st.GC(c, st.SnapshotTS()))
		audit(c)
		b.checkLedger()
		res.PendingAfter = st.PendingLocks()
		if res.PendingAfter != 0 {
			b.vd.failf("%d locks still pending after all movers drained", res.PendingAfter)
		}
		st.Stop(c)
	})

	must(s.Run(-1))
	res.Committed = b.committed
	res.Conflicts, res.Aborts = b.conflicts()
	res.ReadLockWait = env.Time(tracer.Breakdown().Sum(trace.CompLock))
	if res.ReadLockWait != 0 {
		b.vd.failf("snapshot reads waited %s on locks; SI readers must never block", stats.FmtDur(res.ReadLockWait))
	}
	if err := st.CheckMVCC(); err != nil {
		b.vd.failf("post-run MVCC audit: %v", err)
	}
	if err := st.CheckConsistency(); err != nil {
		b.vd.failf("post-run consistency: %v", err)
	}
	must(s.Close())

	h := stats.NewFNV()
	h.Words(bankAccounts, uint64(res.Committed), uint64(res.Conflicts), uint64(res.Aborts),
		uint64(res.Audits), uint64(res.GCFreed), uint64(res.ReadLockWait))
	h.Words(audits...)
	foldInts(&h, b.finals)
	res.Digest = uint64(h)

	return res, b.vd.err("txnbank seed=%d theta=%.2f size=%d", spec.Seed, spec.Theta, spec.TxnSize)
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

// bank is the txnbank workload and its books. bankMovers mover procs transfer
// between accounts in percolator transactions; the bank keeps the committed
// ledger and every acknowledged transfer, and afterwards audits conservation
// at a snapshot, checks the balances against the ledger and re-reads what it
// acknowledged. What a run adds is the machine, when it dies, and the read.
type bank struct {
	seed     int64
	accounts int64
	size     int // accounts per transfer
	theta    float64

	movers   []*mover
	finished env.Latch    // the movers, counted out as their stop rule ends them
	ledger   []int64      // committed deltas, by account
	finals   []int64      // balances, as the last audit read them
	acked    [][]transfer // acknowledged transfers, by mover
	vd       verdict

	// issued/committed count transfers started and acknowledged; failed those
	// lost to an excused error (see driveBank).
	issued, committed, failed int64
}

// bankRead is a snapshot read of key at ts from the store under audit.
type bankRead func(c env.Ctx, key []byte, ts uint64) ([]byte, bool, error)

// driveBank opens a bank of accounts accounts and starts its movers on e,
// mover ci over client(ci), each transfer moving between size accounts drawn
// with skew theta. more is the stop rule, asked before each transfer with the
// number already drawn. A transfer that exhausts its retry budget
// (txn.ErrConflict, counted in mgr.Aborts) is skipped; any other error is a
// verification failure unless excused says the machine's fate explains it.
func driveBank(e env.Env, seed, accounts int64, size int, theta float64,
	client func(ci int) txn.Client, more func(c env.Ctx, t int) bool, excused func(error) bool) *bank {
	b := &bank{
		seed: seed, accounts: accounts, size: size, theta: theta,
		movers:   make([]*mover, bankMovers),
		finished: env.NewLatch(e),
		ledger:   make([]int64, accounts),
		finals:   make([]int64, accounts),
		acked:    make([][]transfer, bankMovers),
	}
	b.finished.Add(nil, bankMovers)
	for ci := range b.movers {
		mv := newMover(b, client(ci), ci)
		b.movers[ci] = mv
		e.Go(fmt.Sprintf("txn-mover-%d", ci), func(c env.Ctx) {
			for t := 0; more(c, t); t++ {
				b.issued++
				tr, err := mv.next(c)
				switch {
				case err == nil:
					b.committed++
					for i, a := range tr.accs {
						b.ledger[a] += tr.deltas[i]
					}
					b.acked[ci] = append(b.acked[ci], tr)
				case errors.Is(err, txn.ErrConflict): // skipped
				case excused(err):
					b.failed++
				default:
					b.vd.failf("mover %d transfer %d: %v", ci, t, err)
				}
			}
			b.finished.Done(c)
		})
	}
	return b
}

// conflicts sums the movers' write-write conflict retries and the transfers
// that exhausted their retry budget.
func (b *bank) conflicts() (conflicts, aborts int64) {
	for _, mv := range b.movers {
		conflicts += mv.mgr.Conflicts
		aborts += mv.mgr.Aborts
	}
	return conflicts, aborts
}

// audit reads every account at snapshot ts into finals and checks
// conservation: the balances must sum to what the bank opened with. It
// returns the sum.
func (b *bank) audit(c env.Ctx, ts uint64, read bankRead) int64 {
	var sum int64
	for a := range b.finals {
		v, ok, err := read(c, kv.Key(int64(a)), ts)
		if err != nil || !ok {
			b.vd.failf("audit@%d: account %d unreadable (found=%v, err=%v)", ts, a, ok, err)
			continue
		}
		b.finals[a] = decBal(v)
		sum += b.finals[a]
	}
	if want := b.accounts * bankInitial; sum != want {
		b.vd.failf("audit@%d: conservation violated: sum=%d want %d", ts, sum, want)
	}
	return sum
}

// checkLedger holds the last audit's balances against the committed ledger.
// They agree exactly only when every commit was acknowledged: not after a
// machine died mid-commit.
func (b *bank) checkLedger() {
	for a, d := range b.ledger {
		if want := bankInitial + d; b.finals[a] != want {
			b.vd.failf("account %d: balance %d, committed ledger says %d", a, b.finals[a], want)
		}
	}
}

// verifyAcked re-reads every key of every acknowledged transfer at its commit
// timestamp and returns how many held exactly the bytes the transfer wrote.
// Commit timestamps are unique, so any other outcome means the transfer was
// visible half-applied.
func (b *bank) verifyAcked(c env.Ctx, read bankRead) (matched int) {
	for ci := range b.acked {
		for ti, at := range b.acked[ci] {
			for i, k := range at.keys {
				v, ok, err := read(c, k, at.cts)
				if err != nil || !ok || !bytes.Equal(v, at.vals[i]) {
					b.vd.failf("acked txn half-applied: mover %d txn %d cts=%d key %q (found=%v, err=%v)",
						ci, ti, at.cts, k, ok, err)
					continue
				}
				matched++
			}
		}
	}
	return matched
}

// foldAcked folds every acknowledged commit timestamp, in mover order, into a
// run's digest.
func (b *bank) foldAcked(h *stats.FNV) {
	for ci := range b.acked {
		for _, at := range b.acked[ci] {
			h.Word(at.cts)
		}
	}
}

// foldInts folds balances or ledger deltas into a run's digest.
func foldInts(h *stats.FNV, vs []int64) {
	for _, v := range vs {
		h.Word(uint64(v))
	}
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

	// First life: transfers until the power cut. The crash freezes the movers
	// mid-transfer, so no error of theirs is a verdict.
	tb := NewTestbed(seed, atWrite, bankCores, bankNDisks)
	st := openBank(tb.Env, tb.Disks)
	tb.Load(st, bankItems(crashAccounts))
	b := driveBank(tb.Env, seed, crashAccounts, crashTxnSize, 0,
		func(int) txn.Client { return &txn.LocalClient{St: st} },
		func(c env.Ctx, _ int) bool { return c.Now() < crashHorizon },
		func(error) bool { return true })
	if err := tb.Crash(); err != nil {
		return res, fmt.Errorf("txnbank: %v", err)
	}
	res.IssuedTxns, res.AckedTxns = b.issued, b.committed
	res.Conflicts, _ = b.conflicts()
	res.CrashTime, res.Fault = tb.Inj.CrashTime(), tb.Inj.Stats()

	// Second life: recover, settle leftover intents, and verify. No GC runs,
	// so every acked transaction's versions are still on disk as evidence.
	tb.Reboot()
	st2 := openBank(tb.Env, tb.Disks)
	tb.Recover("txn-crash-recover", func(c env.Ctx) {
		t0 := c.Now()
		if err := st2.Recover(c); err != nil {
			b.vd.failf("recover: %v", err)
			return
		}
		st2.Start()
		res.Resolved = st2.ResolveIntents(c)
		res.RecoverTime = c.Now() - t0
		if n := st2.PendingLocks(); n != 0 {
			b.vd.failf("%d locks survived crash settlement", n)
		}
		read := func(c env.Ctx, key []byte, ts uint64) ([]byte, bool, error) {
			v, ok := st2.GetAt(c, key, ts)
			return v, ok, nil
		}
		b.audit(c, st2.SnapshotTS(), read)
		b.verifyAcked(c, read)
		if err := st2.CheckConsistency(); err != nil {
			b.vd.failf("post-recovery consistency: %v", err)
		}
		st2.Stop(c)
	})
	if err := st2.CheckMVCC(); err != nil {
		b.vd.failf("post-recovery MVCC audit: %v", err)
	}
	tb.Close()

	h := stats.NewFNV()
	h.Words(uint64(res.CrashTime), uint64(res.Fault.Writes), uint64(res.Fault.InFlight),
		uint64(res.Fault.Dropped), uint64(res.Fault.Torn), uint64(res.IssuedTxns), uint64(res.AckedTxns),
		uint64(res.Resolved), uint64(res.RecoverTime))
	b.foldAcked(&h)
	foldInts(&h, b.finals)
	res.Digest = uint64(h)

	return res, b.vd.err("txnbank crash seed=%d atwrite=%d", seed, atWrite)
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
// cluster.OracleHome (machine 0). With Failover set, machine KillMachine dies
// at txnClusterKillAt and a follower is promoted through full-scan recovery;
// conservation and every acked transaction must survive. KillMachine 0 means
// the default, machine 1: the oracle's machine cannot be the one to die,
// because timestamp service is pinned there.
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
	res := TxnClusterResult{Machines: M, RF: spec.RF, Promoted: -1}

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
	clientEnv := cl.Envs[M]

	// A transfer the kill swept mid-commit reports ErrAborted: its primary
	// never became durable, so it rolled back cleanly.
	b := driveBank(clientEnv, spec.Seed, total, 2, spec.Theta,
		func(int) txn.Client { return &txn.LocalClient{St: cl.NewClient()} },
		func(_ env.Ctx, t int) bool { return t < txnClusterTransfers },
		func(err error) bool { return spec.Failover && errors.Is(err, txn.ErrAborted) })

	// Failover driver: wait out detection, promote the replica with the dead
	// store's own (MVCC) config so the promoted store rebuilds version chains
	// and locks, then sweep every call in flight to the dead machine (it
	// completes with TxnRetry, and the mover re-sends it to the promoted store).
	if spec.Failover {
		dead := spec.KillMachine
		res.Promoted = cl.Follower(dead).Host()
		cl.Envs[res.Promoted].Go("txn-failover-driver", func(c env.Ctx) {
			c.Sleep(txnClusterKillAt + clusterDetectDelay - c.Now())
			if !cl.Inj.Tripped() {
				b.vd.failf("machine %d never died", dead)
				return
			}
			if _, err := cl.Promote(c, dead); err != nil {
				b.vd.failf("promotion failed: %v", err)
				return
			}
			res.Swept = int64(cl.Sweep(c, dead))
		})
	}

	// Verifier: after the movers drain, audit conservation across all shards
	// at a fresh snapshot and re-read every key of every acked transaction at
	// its commit timestamp through the (possibly re-routed) cluster.
	allDone := false
	clientEnv.Go("txn-cluster-verify", func(c env.Ctx) {
		b.finished.Wait(c)
		vk := cl.NewClient()
		vc := &txn.LocalClient{St: vk}
		read := func(c env.Ctx, key []byte, ts uint64) ([]byte, bool, error) {
			return txn.GetAt(c, vc, key, ts, spec.Seed)
		}
		b.audit(c, vk.SnapshotTS(c), read)
		if !spec.Failover {
			b.checkLedger()
		}
		res.AckedVerified = b.verifyAcked(c, read)
		allDone = true
	})

	must(cl.S.Run(60 * env.Second))
	if !allDone && !b.vd.failed() {
		panic("txnbank cluster: run did not complete within the time bound")
	}
	res.Committed, res.FailedTxns = b.committed, b.failed
	res.Conflicts, res.Aborts = b.conflicts()
	if cl.Inj != nil && cl.Inj.Tripped() {
		res.CrashTime = cl.Inj.CrashTime()
	}
	res.Net = cl.Net.Counters()
	for _, rp := range cl.Repls {
		if rp != nil {
			res.PagesShipped += rp.PagesShipped
		}
	}
	// After a failover the killed machine's entry is its promoted store.
	for m, st := range cl.Stores {
		if err := st.CheckMVCC(); err != nil {
			b.vd.failf("machine %d MVCC audit: %v", m, err)
		}
	}
	must(cl.S.Close())

	h := stats.NewFNV()
	h.Words(uint64(M), uint64(spec.RF), uint64(res.Committed), uint64(res.Conflicts), uint64(res.Aborts),
		uint64(res.FailedTxns), uint64(res.Swept), uint64(res.AckedVerified), uint64(res.Promoted+1),
		uint64(res.CrashTime), uint64(res.Net.Msgs), uint64(res.Net.Bytes), uint64(res.PagesShipped))
	b.foldAcked(&h)
	foldInts(&h, b.ledger)
	res.Digest = uint64(h)

	return res, b.vd.err("txnbank cluster seed=%d machines=%d rf=%d failover=%v", spec.Seed, M, spec.RF, spec.Failover)
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
		bankMovers, transfers)
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

	fspec := TxnClusterSpec{
		Machines:    4,
		RF:          2,
		Seed:        o.Seed,
		Theta:       0.3,
		Failover:    true,
		KillMachine: 1,
	}
	fres, err := RunTxnCluster(fspec)
	fmt.Fprintf(w, "\nCluster transactions: %d machines, RF=%d, kill machine %d at %s (promoted: machine %d)\n",
		fspec.Machines, fspec.RF, fspec.KillMachine, stats.FmtDur(fres.CrashTime), fres.Promoted)
	fmt.Fprintf(w, "  committed=%d failed=%d swept=%d conflicts=%d acked-keys-verified=%d\n",
		fres.Committed, fres.FailedTxns, fres.Swept, fres.Conflicts, fres.AckedVerified)
	if err != nil {
		fmt.Fprintf(w, "  FAILED: %v\n", err)
	} else {
		fmt.Fprintf(w, "  ok: conservation held across the kill; no acked transaction half-applied (digest %016x)\n",
			fres.Digest)
	}
}
