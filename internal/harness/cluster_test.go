package harness

import (
	"fmt"
	"runtime"
	"testing"

	"kvell/internal/env"
)

// clusterTestSpec is the CI-sized cluster run: small per-machine dataset,
// short workload, default placement/network. Everything downstream of the
// spec is deterministic in Seed.
func clusterTestSpec(machines int, seed int64) ClusterSpec {
	return ClusterSpec{
		Machines:          machines,
		RF:                1,
		Seed:              seed,
		RecordsPerMachine: 4_000,
		Duration:          200 * env.Millisecond,
	}
}

// clusterFailoverSpec kills machine 1 of a replicated 3-machine cluster a
// third of the way into the workload.
func clusterFailoverSpec(seed int64) ClusterSpec {
	s := clusterTestSpec(3, seed)
	s.RF = 2
	s.Failover = true
	s.KillMachine = 1
	return s
}

// Golden digests for the cluster schedules: the full observable outcome of a
// run (ops, latency shape, network traffic, replication stream, failover
// recovery state) folded to one FNV word, with the counters that explain a
// move beside it. Any change to the simulator kernel, network model,
// placement, replication protocol or promotion path moves them; re-record
// (see TestGoldenDigests) only for changes *meant* to alter cluster
// schedules.
const clusterGoldenPath = "testdata/cluster_golden.json"

type clusterGoldenEntry struct {
	Digest       string `json:"digest"`
	Completed    int64  `json:"completed"`
	Failed       int64  `json:"failed"`
	NetMsgs      int64  `json:"net_msgs"`
	PagesShipped int64  `json:"pages_shipped"`
}

func TestClusterGoldenDigest(t *testing.T) {
	t.Parallel()
	fx := openGolden[clusterGoldenEntry](t, clusterGoldenPath)
	for _, c := range []struct {
		name string
		spec ClusterSpec
	}{
		{"1-machine", clusterTestSpec(1, 1)},
		{"2-machine", clusterTestSpec(2, 1)},
		{"failover", clusterFailoverSpec(1)},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			res, err := RunCluster(c.spec)
			if err != nil {
				t.Fatalf("cluster run failed: %v", err)
			}
			fx.check(t, c.name, clusterGoldenEntry{
				Digest:       fmt.Sprintf("%016x", res.Digest),
				Completed:    res.Completed,
				Failed:       res.FailedOps,
				NetMsgs:      res.Net.Msgs,
				PagesShipped: res.PagesShipped,
			})
		})
	}
}

// Same seed, same digest — including the failover path (seeded promotion
// choice, full-scan recovery on the promoted replica, client sweep).
func TestClusterSameSeedDeterminism(t *testing.T) {
	t.Parallel()
	for _, spec := range []ClusterSpec{clusterTestSpec(2, 7), clusterFailoverSpec(7)} {
		a, errA := RunCluster(spec)
		b, errB := RunCluster(spec)
		if errA != nil || errB != nil {
			t.Fatalf("cluster runs failed: %v / %v", errA, errB)
		}
		if a.Digest != b.Digest {
			t.Errorf("same seed produced different cluster schedules: %016x vs %016x (completed %d vs %d)",
				a.Digest, b.Digest, a.Completed, b.Completed)
		}
		if a.Completed == 0 {
			t.Error("cluster run completed no operations")
		}
	}
}

// Replication under RF=2 actually ships state and delays write acks at the
// barrier, without failover in the picture.
func TestClusterReplicationShipsState(t *testing.T) {
	t.Parallel()
	spec := clusterTestSpec(2, 3)
	spec.RF = 2
	res, err := RunCluster(spec)
	if err != nil {
		t.Fatalf("cluster run failed: %v", err)
	}
	if res.PagesShipped == 0 || res.BytesShipped == 0 {
		t.Errorf("replication shipped nothing: pages=%d bytes=%d", res.PagesShipped, res.BytesShipped)
	}
	if res.ReplTime == 0 {
		t.Error("no time was attributed to the replication barrier (CompReplicate)")
	}
	if res.Updates == 0 {
		t.Error("workload performed no updates")
	}
}

// The failover contract: machine 1 dies mid-workload, a seeded-RNG follower
// is promoted through the ordinary full-scan recovery, and not one
// acknowledged write is lost. The promoted store's scan-rebuilt index must
// name the halted leader's location for every key that was not in flight at
// the kill.
func TestClusterFailoverNoAckedWriteLost(t *testing.T) {
	t.Parallel()
	res, err := RunCluster(clusterFailoverSpec(11))
	if err != nil {
		t.Fatalf("failover run failed: %v", err)
	}
	if res.Promoted == res.Machines || res.Promoted < 0 || res.Promoted == 1 {
		t.Errorf("promoted machine %d is not a surviving follower", res.Promoted)
	}
	if res.CrashTime == 0 {
		t.Error("the kill never happened")
	}
	if res.Verified == 0 {
		t.Error("verification read back no keys from the promoted store")
	}
	if res.Lost != 0 {
		t.Errorf("%d acknowledged writes lost after promotion", res.Lost)
	}
	if res.Checked == 0 {
		t.Error("no key's location was checked against the halted leader's index")
	}
	if res.Mismatches != 0 {
		t.Errorf("%d of %d keys have another location on the promoted store than on the halted leader",
			res.Mismatches, res.Checked)
	}
	if res.Frontier == 0 {
		t.Error("promoted replica applied no replication records")
	}
	if res.Net.Dropped == 0 {
		t.Error("no messages were dropped at the dead machine")
	}
}

// A failover needs a follower to promote: RF=1 is a spec error, not a panic
// in the follower pick.
func TestClusterFailoverNeedsReplication(t *testing.T) {
	spec := clusterFailoverSpec(1)
	spec.RF = 1
	res, err := RunCluster(spec)
	if err == nil {
		t.Fatal("a failover run at RF=1 returned no error")
	}
	if res.Completed != 0 || res.Promoted != -1 {
		t.Errorf("the rejected spec ran: completed=%d promoted=%d", res.Completed, res.Promoted)
	}
}

// Weak scaling: 4 machines must beat 1 machine by a healthy margin even at
// CI sizes (the full ≥6×-at-8 criterion is checked by the cluster experiment
// and the nightly sweep; this is the smoke version).
func TestClusterMiniSweepScaling(t *testing.T) {
	t.Parallel()
	one, err := RunCluster(clusterTestSpec(1, 1))
	if err != nil {
		t.Fatalf("1-machine run failed: %v", err)
	}
	four, err := RunCluster(clusterTestSpec(4, 1))
	if err != nil {
		t.Fatalf("4-machine run failed: %v", err)
	}
	speedup := four.ThroughputOps / one.ThroughputOps
	if speedup < 3.0 {
		t.Errorf("4-machine speedup = %.2fx, want >= 3.0x (1m: %.0f ops/s, 4m: %.0f ops/s)",
			speedup, one.ThroughputOps, four.ThroughputOps)
	}
}

// clusterLoopAllocBudget is the marginal heap allocations per completed
// operation TestAllocBudgetClusterLoop allows: 10.6426, the largest of three
// measurements (10.6416, 10.6426, 10.6417), plus 5%. With a B-tree that
// allocated every new key it was 11.1076; shipping index records as well as
// pages measured 14.0848; with pages alone but a Done closure per replica
// page write, 12.0980. All three are rejected. Go1.24.0 on linux/amd64;
// re-record after a toolchain bump the way closedLoopAllocBudget is.
const clusterLoopAllocBudget = 10.6426 * 1.05

// TestAllocBudgetClusterLoop bounds what RunCluster allocates per completed
// operation — the shadow client's issue path, the network hops, the serve
// thread, replication shipping and the barrier ack — on a small copy of the
// benchmark's cluster_rf2 workload, so tier-1 fails where its
// host_allocs_per_op would move. Two runs that differ only in duration are compared, so building and
// loading the cluster cancels. Not parallel, like TestAllocBudgetClosedLoop.
func TestAllocBudgetClusterLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	run := func(dur env.Time) (mallocs uint64, ops int64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		spec := clusterTestSpec(2, 1)
		spec.RF = 2
		spec.Duration = dur
		res, err := RunCluster(spec)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("cluster run failed: %v", err)
		}
		return after.Mallocs - before.Mallocs, res.Completed
	}
	m1, o1 := run(100 * env.Millisecond)
	m2, o2 := run(200 * env.Millisecond)
	if o2 <= o1 {
		t.Fatalf("longer run completed no more operations: %d then %d", o1, o2)
	}
	perOp := (float64(m2) - float64(m1)) / float64(o2-o1)
	t.Logf("%.4f allocations per operation (%d over %d operations)", perOp, int64(m2)-int64(m1), o2-o1)
	if perOp > clusterLoopAllocBudget {
		t.Errorf("cluster loop allocates %.4f per operation, budget %.4f", perOp, float64(clusterLoopAllocBudget))
	}
}
