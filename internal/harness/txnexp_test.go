package harness

import (
	"fmt"
	"runtime"
	"testing"

	"kvell/internal/cluster"
)

// TestTxnBankConservation is the tentpole's basic soundness check: a
// contended single-node bank run conserves the total balance at every audit
// snapshot and the final balances match the committed ledger exactly.
func TestTxnBankConservation(t *testing.T) {
	t.Parallel()
	res, err := RunTxnBank(TxnBankSpec{Seed: 42, Theta: 0.8, TxnSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("no transfers committed")
	}
	if res.Conflicts == 0 {
		t.Fatalf("theta=0.8 over a hot set should produce write-write conflicts (committed=%d)", res.Committed)
	}
	if res.Audits < 5 {
		t.Fatalf("expected at least 5 audits, got %d", res.Audits)
	}
}

// TestTxnReadNeverLockWaits asserts the ISSUE's read-path guarantee: across
// a maximally contended run, the traced audit reads accumulate exactly zero
// lock-wait time — snapshot readers resolve through the primary or read
// past, they never block on a writer's lock.
func TestTxnReadNeverLockWaits(t *testing.T) {
	t.Parallel()
	res, err := RunTxnBank(TxnBankSpec{Seed: 7, Theta: 1.0, TxnSize: 2, Transfers: 80})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadLockWait != 0 {
		t.Fatalf("snapshot reads waited %d ns on locks; must be zero", res.ReadLockWait)
	}
}

// TestTxnSpecDeterminism: equal specs produce bit-equal digests; a different
// seed must diverge.
func TestTxnSpecDeterminism(t *testing.T) {
	t.Parallel()
	spec := TxnBankSpec{Seed: 99, Theta: 0.5, TxnSize: 3, Transfers: 30}
	a, err := RunTxnBank(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTxnBank(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("same spec diverged: %016x vs %016x", a.Digest, b.Digest)
	}
	spec.Seed = 100
	c, err := RunTxnBank(spec)
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest == a.Digest {
		t.Fatalf("different seeds collided on digest %016x", a.Digest)
	}
}

// TestTxnCrashMini sweeps a handful of seeded crash points through the
// transactional store; the nightly run covers the full 125-point sweep.
func TestTxnCrashMini(t *testing.T) {
	t.Parallel()
	if fails := TxnCrashSweep(SweepOpts{Points: 5, Seed: 4242}, testWriter{t}); fails != 0 {
		t.Fatalf("%d crash points failed verification", fails)
	}
}

// TestTxnClusterFailover kills a machine mid-workload under RF=2 and
// verifies conservation and acked-transaction visibility across the
// promotion.
func TestTxnClusterFailover(t *testing.T) {
	t.Parallel()
	res, err := RunTxnCluster(TxnClusterSpec{
		Seed:        31,
		Machines:    4,
		RF:          2,
		Theta:       0.3,
		Failover:    true,
		KillMachine: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("no transfers committed")
	}
	if res.CrashTime == 0 {
		t.Fatal("the kill never happened")
	}
	if res.AckedVerified == 0 {
		t.Fatal("no acked-transaction keys were verified")
	}
}

// An unset KillMachine is machine 1, so a spec cannot ask for the oracle's
// machine (cluster.OracleHome, machine 0) to die.
func TestTxnClusterKillMachineDefault(t *testing.T) {
	spec := TxnClusterSpec{Failover: true, KillMachine: cluster.OracleHome}
	spec.defaults()
	if spec.KillMachine != 1 {
		t.Errorf("KillMachine defaults to %d, want machine 1", spec.KillMachine)
	}
}

// TestTxnClusterPlain is the no-failover cross-shard run: every balance must
// match the committed ledger exactly (no kill means no unacked commits).
func TestTxnClusterPlain(t *testing.T) {
	t.Parallel()
	res, err := RunTxnCluster(TxnClusterSpec{Seed: 8, Machines: 4, RF: 1, Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("no transfers committed")
	}
}

// Golden digests for the transactional workloads, same discipline as
// TestGoldenDigests.
const txnGoldenPath = "testdata/txn_golden.json"

func TestTxnGoldenDigests(t *testing.T) {
	t.Parallel()
	fx := openGolden[string](t, txnGoldenPath)

	bank, err := RunTxnBank(TxnBankSpec{Seed: 1234, Theta: 0.5, TxnSize: 3, Transfers: 40})
	if err != nil {
		t.Fatal(err)
	}
	fx.check(t, "bank-single-node", fmt.Sprintf("%016x", bank.Digest))

	clus, err := RunTxnCluster(TxnClusterSpec{Seed: 1234, Machines: 4, RF: 1, Theta: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	fx.check(t, "bank-cluster-4m", fmt.Sprintf("%016x", clus.Digest))
}

// testWriter adapts t.Logf to io.Writer for sweep output.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}

// txnLoopAllocBudget is the marginal heap allocations per committed transfer
// TestAllocBudgetTxnLoop allows: 41.8425, the largest of three measurements
// (41.8387, 41.8425, 41.8362), plus 5%. Most of it is the caller-owned
// Result.Value of every read and the bank's own transfer records. With a
// closure per store continuation, a fresh Txn per attempt and a garbage
// collection that freed every slot in one batch it measured 145.60. Go1.24.0
// on linux/amd64; re-record after a toolchain bump the way
// closedLoopAllocBudget is.
const txnLoopAllocBudget = 41.8425 * 1.05

// TestAllocBudgetTxnLoop bounds what RunTxnBank allocates per committed
// transfer — the movers' percolator client, the store's transaction
// handlers, the version table and the final garbage collection — on the
// shape of the benchmark's txn_bank workload, so tier-1 fails where its
// host_allocs_per_op would move. Two runs that differ only in their transfer
// count are compared, so opening and loading the bank cancels. Not
// parallel, like TestAllocBudgetClosedLoop.
func TestAllocBudgetTxnLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	run := func(transfers int) (mallocs uint64, committed int64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := RunTxnBank(TxnBankSpec{Seed: 1, Transfers: transfers, TxnSize: 3, Theta: 0.6})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("bank run failed: %v", err)
		}
		return after.Mallocs - before.Mallocs, res.Committed
	}
	m1, c1 := run(200)
	m2, c2 := run(400)
	if c2 <= c1 {
		t.Fatalf("longer run committed no more transfers: %d then %d", c1, c2)
	}
	perOp := (float64(m2) - float64(m1)) / float64(c2-c1)
	t.Logf("%.4f allocations per transfer (%d over %d transfers)", perOp, int64(m2)-int64(m1), c2-c1)
	if perOp > txnLoopAllocBudget {
		t.Errorf("transaction loop allocates %.4f per transfer, budget %.4f", perOp, float64(txnLoopAllocBudget))
	}
}
