package harness

import (
	"fmt"
	"io"

	"kvell/internal/cluster"
	"kvell/internal/core"
	"kvell/internal/env"
	"kvell/internal/fault"
	"kvell/internal/kv"
	"kvell/internal/net"
	"kvell/internal/stats"
	"kvell/internal/trace"
)

// ClusterSpec describes one multi-machine cluster run: Machines server
// machines (clusterCores cores, clusterWorkers KVell workers and one disk
// each) plus one client machine, joined by a 10GbE network model, serving
// a closed-loop YCSB-A (50/50 uniform get/update) workload routed by
// consistent-hash placement. With RF > 1 every leader ships its slab-page
// writes to its RF-1 followers and acknowledges writes only after all live
// followers have them durable. With Failover set (which needs RF > 1),
// machine KillMachine dies a third of the way into the workload (power
// loss + halted event domain) and a seeded-RNG-chosen follower is promoted
// via the ordinary full-scan recovery path; acknowledged writes must all
// survive on the promoted store, and its rebuilt index must name the same
// locations as the halted leader's.
type ClusterSpec struct {
	Machines int
	RF       int
	Seed     int64
	// RecordsPerMachine fixes the per-machine dataset (weak scaling).
	RecordsPerMachine int64
	ItemSize          int
	// ClientsPerMachine client threads per server machine run on the client
	// machine, each with a Window-deep closed loop.
	ClientsPerMachine int
	Window            int
	Duration          env.Time

	// Failover enables the kill-one-machine run.
	Failover    bool
	KillMachine int
}

// The server machines of a cluster run; RunTxnCluster builds the same ones,
// with bankWorkers workers each.
const (
	clusterSlots   = 4096 // placement hash slots
	clusterCores   = 5    // CPU cores per server machine
	clusterWorkers = 4    // KVell workers per server machine
	// clusterDetectDelay is the failure-detection delay before promotion
	// starts.
	clusterDetectDelay = 200 * env.Microsecond
)

func (cs *ClusterSpec) defaults() {
	def(&cs.Machines, 2)
	def(&cs.RF, 1)
	def(&cs.RecordsPerMachine, 20_000)
	def(&cs.ItemSize, 256)
	def(&cs.ClientsPerMachine, 8)
	def(&cs.Window, 8)
	def(&cs.Duration, env.Second)
}

// ClusterResult is one run's outcome. Digest fingerprints the whole
// observable schedule (completed ops, latency shape, network traffic,
// replication stream, failover recovery state); equal seeds must produce
// equal digests.
type ClusterResult struct {
	Machines int
	RF       int

	Issued    int64
	Completed int64
	Updates   int64
	// FailedOps are client ops swept as failed when their serving machine
	// died (un-acked; the verification window covers them).
	FailedOps int64

	ThroughputOps float64 // completed ops per second of workload
	MeanLat       env.Time
	P99           env.Time

	Net          net.Counters
	PagesShipped int64
	BytesShipped int64
	// NetTime/ReplTime are the summed per-request CompNet / CompReplicate
	// components (request+reply hops; replication-barrier waits).
	NetTime  env.Time
	ReplTime env.Time

	// Failover outcome (Promoted == -1 when no failover ran).
	Promoted   int
	CrashTime  env.Time
	Fault      fault.Stats
	Frontier   uint64 // promoted replica's applied frontier
	Checked    int    // dead store's keys not in flight, located on halted leader and promoted store
	Mismatches int
	Verified   int // dead store's keys read back post-failover
	Lost       int // acked writes missing from the promoted store

	Digest uint64
}

// RunCluster executes one cluster run. The returned error is a bad spec (a
// failover with no follower to promote) or a verification failure (acked
// write lost, promoted index mismatch, promotion failure); harness problems
// panic.
func RunCluster(spec ClusterSpec) (ClusterResult, error) {
	spec.defaults()
	M := spec.Machines
	total := int64(M) * spec.RecordsPerMachine
	res := ClusterResult{Machines: M, RF: spec.RF, Promoted: -1}
	if spec.Failover && spec.RF < 2 {
		return res, fmt.Errorf("cluster: failover needs RF >= 2 to have a follower to promote (RF=%d)", spec.RF)
	}

	// Shadow model (crash-harness discipline): after a failover the durable
	// version of every key must be one its client could have been told about.
	sh := newShadow(total, func(int64, uint64) int { return spec.ItemSize })
	killAt := spec.Duration / 3
	cl := cluster.Build(cluster.Spec{
		Machines: M, RF: spec.RF, Seed: spec.Seed, Slots: clusterSlots,
		Cores: clusterCores, NDisks: 1,
		Tweak: func(cfg *core.Config) {
			cfg.Workers = clusterWorkers
			cfg.PageCachePages = max(256, int(spec.RecordsPerMachine/16/3))
		},
		Records:   total,
		ValueLen:  spec.ItemSize,
		FillValue: func(buf []byte, i int64) { kv.FillValue(buf, i, 1) },
		Kill:      spec.Failover, KillMachine: spec.KillMachine, KillAt: killAt,
	})
	clientEnv := cl.Envs[M]
	tracer := trace.NewTracer(0)

	nClients := spec.ClientsPerMachine * M
	clients := env.NewLatch(clientEnv)
	clients.Add(nil, nClients)
	for ci := 0; ci < nClients; ci++ {
		win, to := shadowWindow(clientEnv, sh, spec.Window, tracer), cl.NewClient()
		clientEnv.Go(fmt.Sprintf("cluster-client-%d", ci), func(c env.Ctx) {
			shadowClient(c, sh, win, to, tracer, spec.Seed, ci, nClients, spec.Duration)
			clients.Done(c)
		})
	}

	var verifyErr error
	var recVer []uint64
	if spec.Failover {
		dead := spec.KillMachine
		var deadKeys []int64
		keyBuf := make([]byte, kv.KeyLen)
		for i := int64(0); i < total; i++ {
			kv.FillKey(keyBuf, i)
			if cl.Place.Leader(cl.Place.SlotOf(keyBuf)) == dead {
				deadKeys = append(deadKeys, i)
			}
		}

		// Failover driver: runs on the machine of the follower to promote,
		// waits out the detection delay, promotes, checks the rebuilt index,
		// and sweeps the requests stuck at the dead machine (the client-side
		// timeout: they fail, un-acked). The sweep clears sh.inflight, so it
		// comes after the index check.
		rep := cl.Follower(dead)
		res.Promoted = rep.Host()
		cl.Envs[rep.Host()].Go("failover-driver", func(c env.Ctx) {
			c.Sleep(killAt + clusterDetectDelay - c.Now())
			if !cl.Inj.Tripped() {
				verifyErr = fmt.Errorf("cluster: machine %d never died", dead)
				return
			}
			leader := cl.Stores[dead] // halted, its index as it was at the kill
			st2, err := cl.Promote(c, dead)
			if err != nil {
				verifyErr = fmt.Errorf("cluster: promotion failed: %v", err)
				return
			}
			res.Frontier = rep.Frontier()
			// The scan over the replica disks must find every key where the
			// leader's index put it. A key with an update in flight at the
			// kill may have its page past the applied frontier: skip it.
			for _, k := range deadKeys {
				if sh.inflight[k] {
					continue
				}
				kv.FillKey(keyBuf, k)
				want, wantOK := leader.LookupLoc(keyBuf)
				got, gotOK := st2.LookupLoc(keyBuf)
				res.Checked++
				if got != want || gotOK != wantOK {
					res.Mismatches++
				}
			}
			res.FailedOps = int64(cl.Sweep(c, dead))
		})

		// Post-workload verification: read every key of the dead store back
		// through the cluster — now served by the promoted follower — and
		// check it against the shadow model.
		clientEnv.Go("cluster-verify", func(c env.Ctx) {
			clients.Wait(c)
			if verifyErr != nil {
				return
			}
			key := func(i int) int64 { return deadKeys[i] }
			recVer = readBack(c, clientEnv, sh, cl.NewClient(), len(deadKeys), key, func(k int64, ver uint64, out kv.Result) {
				res.Verified++
				if ver == 0 {
					res.Lost++
					if verifyErr == nil {
						verifyErr = fmt.Errorf("cluster: key %d lost after failover (found=%v, acked=%d, issued=%d)",
							k, out.Found, sh.acked[k], sh.issued[k])
					}
				}
			})
		})
	}

	must(cl.S.Run(spec.Duration + 2*env.Second))
	if cl.Inj != nil && cl.Inj.Tripped() {
		res.CrashTime = cl.Inj.CrashTime()
		res.Fault = cl.Inj.Stats()
	}
	res.Net = cl.Net.Counters()
	for _, rp := range cl.Repls {
		if rp == nil {
			continue
		}
		res.PagesShipped += rp.PagesShipped
		res.BytesShipped += rp.BytesShipped
	}
	res.Issued, res.Completed, res.Updates = sh.nIssued, sh.nCompleted, sh.nAckedUpdates
	res.ThroughputOps = float64(res.Completed) / (float64(spec.Duration) / float64(env.Second))
	res.MeanLat = sh.lat.Mean()
	res.P99 = sh.lat.Percentile(0.99)
	res.NetTime = env.Time(tracer.Breakdown().Sum(trace.CompNet))
	res.ReplTime = env.Time(tracer.Breakdown().Sum(trace.CompReplicate))
	must(cl.S.Close())

	h := stats.NewFNV()
	h.Words(uint64(M), uint64(spec.RF), uint64(res.Issued), uint64(res.Completed), uint64(res.Updates), uint64(res.FailedOps),
		uint64(res.MeanLat), uint64(res.P99), uint64(res.Net.Msgs), uint64(res.Net.Bytes), uint64(res.Net.Dropped),
		uint64(res.PagesShipped), uint64(res.BytesShipped), uint64(res.NetTime), uint64(res.ReplTime),
		uint64(res.Promoted+1), uint64(res.CrashTime), res.Frontier,
		uint64(res.Checked), uint64(res.Mismatches), uint64(res.Verified), uint64(res.Lost))
	h.Words(recVer...)
	res.Digest = uint64(h)

	if verifyErr != nil {
		return res, verifyErr
	}
	if res.Mismatches > 0 {
		return res, fmt.Errorf("cluster: the promoted store's index disagrees with the halted leader's on %d of %d keys",
			res.Mismatches, res.Checked)
	}
	return res, nil
}

// clusterExp is the deliverable experiment: YCSB-A weak-scaling throughput
// from 1 to 8 machines (RF=1 share-nothing sharding — near-linear is the
// target, §the cluster generalization of the paper's per-core scaling), then
// a kill-one-machine failover run under RF=2 proving no acknowledged write
// is lost when a follower is promoted.
func clusterExp(o Options, w io.Writer) {
	machines := []int{1, 2, 4, 8}
	if o.Quick {
		machines = []int{1, 2, 4}
	}
	recs := o.records(50_000)
	dur := o.dur(env.Second)

	fmt.Fprintln(w)
	spec := ClusterSpec{RF: 1, Seed: o.Seed, RecordsPerMachine: recs, Duration: dur}
	if ScalingReport(spec, machines, w) != nil {
		return
	}
	spec.Machines, spec.RF, spec.Failover, spec.KillMachine = 4, 2, true, 1
	FailoverReport(spec, w)
}

// ScalingReport runs spec's weak-scaling sweep, one run per machine count,
// and prints a row per run with the digest a rerun at the same seed must
// reproduce. It stops at the first failed run and returns its error.
func ScalingReport(spec ClusterSpec, machines []int, w io.Writer) error {
	fmt.Fprintf(w, "Sharded KVell cluster: YCSB A uniform, %d records/machine, RF=%d, 10GbE, seed=%d\n\n",
		spec.RecordsPerMachine, spec.RF, spec.Seed)
	fmt.Fprintf(w, "%-10s %12s %10s %10s %12s %12s %18s\n",
		"machines", "ops/s", "speedup", "p99", "net msgs", "net MB", "digest")
	var base float64
	for _, m := range machines {
		spec.Machines = m
		res, err := RunCluster(spec)
		if err != nil {
			fmt.Fprintf(w, "%-10d FAILED: %v\n", m, err)
			return err
		}
		if base == 0 {
			base = res.ThroughputOps
		}
		fmt.Fprintf(w, "%-10d %12.0f %9.2fx %10s %12d %12.1f   %016x\n",
			m, res.ThroughputOps, res.ThroughputOps/base, stats.FmtDur(res.P99),
			res.Net.Msgs, float64(res.Net.Bytes)/(1<<20), res.Digest)
	}
	return nil
}

// FailoverReport runs the failover spec fspec and prints its outcome, ending
// in an "ok:" line with the run's digest or a "FAILED:" line; it returns
// RunCluster's error.
func FailoverReport(fspec ClusterSpec, w io.Writer) error {
	fres, err := RunCluster(fspec)
	fmt.Fprintf(w, "\nFailover: %d machines, RF=%d, kill machine %d at %s (promoted follower: machine %d)\n",
		fres.Machines, fres.RF, fspec.KillMachine, stats.FmtDur(fres.CrashTime), fres.Promoted)
	fmt.Fprintf(w, "  completed=%d failed=%d pages-shipped=%d frontier=%d\n",
		fres.Completed, fres.FailedOps, fres.PagesShipped, fres.Frontier)
	fmt.Fprintf(w, "  verified=%d keys on promoted store: lost=%d, index entries checked=%d mismatches=%d\n",
		fres.Verified, fres.Lost, fres.Checked, fres.Mismatches)
	if err != nil {
		fmt.Fprintf(w, "  FAILED: %v\n", err)
	} else {
		fmt.Fprintf(w, "  ok: every acknowledged write survived the machine kill (digest %016x)\n", fres.Digest)
	}
	return err
}
