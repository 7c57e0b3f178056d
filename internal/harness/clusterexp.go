package harness

import (
	"fmt"
	"io"
	"math/rand"

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
// consistent-hash placement. With RF > 1 every leader ships index entries
// and slab pages to its RF-1 followers and acknowledges writes only after
// all live followers have them durable. With Failover set, machine
// KillMachine dies a third of the way into the workload (power loss + halted
// event domain) and a seeded-RNG-chosen follower is promoted via the
// ordinary full-scan recovery path; acknowledged writes must all survive on
// the promoted store.
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

	Net            net.Counters
	PagesShipped   int64
	EntriesShipped int64
	BytesShipped   int64
	// NetTime/ReplTime are the summed per-request CompNet / CompReplicate
	// components (request+reply hops; replication-barrier waits).
	NetTime  env.Time
	ReplTime env.Time

	// Failover outcome (Promoted == -1 when no failover ran).
	Promoted   int
	CrashTime  env.Time
	Fault      fault.Stats
	Frontier   uint64 // promoted replica's applied frontier
	Checked    int    // replicated index entries validated after recovery
	Mismatches int
	Verified   int // dead store's keys read back post-failover
	Lost       int // acked writes missing from the promoted store

	Digest uint64
}

// clientSlot is one window slot of one client: at most one operation rides a
// slot at a time, and seq invalidates replies that arrive after the slot was
// swept by the failover driver (a reply already in flight when its slot was
// reclaimed must not be mistaken for the slot's next operation).
type clientSlot struct {
	m      *cluster.ReqMsg
	key    int64
	ver    uint64
	update bool
	start  env.Time
	active bool
	seq    uint64
}

type clientState struct {
	mu    env.Mutex
	cond  env.Cond
	slots []clientSlot
	free  []int
}

// RunCluster executes one cluster run. The returned error is a verification
// failure (acked write lost, replica index mismatch, promotion failure);
// harness problems panic.
func RunCluster(spec ClusterSpec) (ClusterResult, error) {
	spec.defaults()
	M := spec.Machines
	total := int64(M) * spec.RecordsPerMachine
	res := ClusterResult{Machines: M, RF: spec.RF, Promoted: -1}

	// Shadow model (crash-harness discipline): after a failover the durable
	// version of every key must be one its client could have been told about.
	sh := newShadow(total, func(k int64, v uint64) []byte { return kv.Value(k, v, spec.ItemSize) })
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
	s, clientM, clientEnv := cl.S, M, cl.Envs[M]
	tracer := trace.NewTracer(0)

	lat := stats.NewHist()
	nClients := spec.ClientsPerMachine * M
	states := make([]*clientState, nClients)
	dmu := clientEnv.NewMutex()
	dcond := clientEnv.NewCond(dmu)
	clientsLeft := nClients

	for ci := 0; ci < nClients; ci++ {
		ci := ci
		cs := &clientState{slots: make([]clientSlot, spec.Window)}
		cs.mu = clientEnv.NewMutex()
		cs.cond = clientEnv.NewCond(cs.mu)
		for si := range cs.slots {
			cs.slots[si].m = cluster.NewReqMsg(cl)
			cs.free = append(cs.free, si)
		}
		states[ci] = cs
		clientEnv.Go(fmt.Sprintf("cluster-client-%d", ci), func(c env.Ctx) {
			// Seeded from the spec: the client schedule is part of the
			// reproducible cluster schedule.
			rng := rand.New(rand.NewSource(spec.Seed*7919 + int64(ci)))
			lo := int64(ci) * total / int64(nClients)
			hi := (int64(ci) + 1) * total / int64(nClients)
			for c.Now() < spec.Duration {
				cs.mu.Lock(c)
				for len(cs.free) == 0 {
					cs.cond.Wait(c)
				}
				si := cs.free[len(cs.free)-1]
				cs.free = cs.free[:len(cs.free)-1]
				cs.mu.Unlock(c)
				sl := &cs.slots[si]
				k := lo + rng.Int63n(hi-lo)
				sl.key = k
				sl.update = rng.Intn(2) == 0 && !sh.inflight[k]
				sl.start = c.Now()
				sl.active = true
				sl.seq++
				mySeq := sl.seq
				m := sl.m
				res.Issued++
				if sl.update {
					sl.ver = sh.issue(k)
					m.Op = kv.OpUpdate
					m.Key = kv.Key(k)
					m.Value = sh.val(k, sl.ver)
				} else {
					m.Op = kv.OpGet
					m.Key = kv.Key(k)
					m.Value = nil
				}
				m.Trace = tracer.Begin(int(m.Op), c.Now())
				tc := m.Trace
				m.Done = func(kv.Result) {
					now := s.Now()
					cs.mu.Lock(nil)
					if !sl.active || sl.seq != mySeq {
						cs.mu.Unlock(nil)
						tracer.Finish(tc, now)
						return
					}
					sl.active = false
					if sl.update {
						sh.ack(sl.key, sl.ver)
						res.Updates++
					}
					res.Completed++
					lat.Add(now - sl.start)
					cs.free = append(cs.free, si)
					cs.mu.Unlock(nil)
					tracer.Finish(tc, now)
					cs.cond.Signal(nil)
				}
				cl.Send(c, clientM, m)
			}
			cs.mu.Lock(c)
			for len(cs.free) < spec.Window {
				cs.cond.Wait(c)
			}
			cs.mu.Unlock(c)
			dmu.Lock(c)
			clientsLeft--
			if clientsLeft == 0 {
				dcond.Broadcast(c)
			}
			dmu.Unlock(c)
		})
	}

	var verifyErr error
	var recVer []uint64
	if spec.Failover {
		// Failover driver: runs on the machine of the follower to promote,
		// waits out the detection delay, promotes, validates the replicated
		// index, and sweeps clients' stuck slots (the client-side timeout: ops
		// sent to the dead machine fail, un-acked).
		dead := spec.KillMachine
		rep := cl.Follower(dead)
		res.Promoted = rep.Host()
		cl.Envs[rep.Host()].Go("failover-driver", func(c env.Ctx) {
			c.Sleep(killAt + clusterDetectDelay - c.Now())
			if !cl.Inj.Tripped() {
				verifyErr = fmt.Errorf("cluster: machine %d never died", dead)
				return
			}
			st2, err := cl.Promote(c, dead)
			if err != nil {
				verifyErr = fmt.Errorf("cluster: promotion failed: %v", err)
				return
			}
			res.Frontier = rep.Frontier()
			// Keys with an update in flight at the kill may have records
			// past the applied frontier; everything else must match exactly.
			res.Checked, res.Mismatches = rep.ValidateIndex(st2, func(key string) bool {
				n := kv.KeyNum([]byte(key))
				return n < 0 || sh.inflight[n]
			})
			for _, cs := range states {
				cs.mu.Lock(c)
				for si := range cs.slots {
					sl := &cs.slots[si]
					if sl.active && sl.m.Node.Host() == dead {
						sl.active = false
						sl.seq++ // a late reply must not complete the next op
						if sl.update {
							sh.inflight[sl.key] = false
						}
						res.FailedOps++
						cs.free = append(cs.free, si)
					}
				}
				cs.mu.Unlock(c)
				cs.cond.Broadcast(c)
			}
		})

		// Post-workload verification: read every key of the dead store back
		// through the cluster — now served by the promoted follower — and
		// check it against the shadow model.
		var deadKeys []int64
		keyBuf := make([]byte, kv.KeyLen)
		for i := int64(0); i < total; i++ {
			kv.FillKey(keyBuf, i)
			if cl.Place.Leader(cl.Place.SlotOf(keyBuf)) == dead {
				deadKeys = append(deadKeys, i)
			}
		}
		recVer = make([]uint64, len(deadKeys))
		clientEnv.Go("cluster-verify", func(c env.Ctx) {
			dmu.Lock(c)
			for clientsLeft > 0 {
				dcond.Wait(c)
			}
			dmu.Unlock(c)
			if verifyErr != nil {
				return
			}
			win := newWindow(clientEnv, verifyWindow)
			for i, k := range deadKeys {
				win.acquire(c)
				i, k := i, k
				m := cluster.NewReqMsg(cl)
				m.Op = kv.OpGet
				m.Key = kv.Key(k)
				m.Done = func(out kv.Result) {
					res.Verified++
					recVer[i] = sh.match(k, out)
					if recVer[i] == 0 {
						res.Lost++
						if verifyErr == nil {
							verifyErr = fmt.Errorf("cluster: key %d lost after failover (found=%v, acked=%d, issued=%d)",
								k, out.Found, sh.acked[k], sh.issued[k])
						}
					}
					win.release()
				}
				cl.Send(c, clientM, m)
			}
			win.drain(c)
		})
	}

	must(s.Run(spec.Duration + 2*env.Second))
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
		res.EntriesShipped += rp.EntriesShipped
		res.BytesShipped += rp.BytesShipped
	}
	res.ThroughputOps = float64(res.Completed) / (float64(spec.Duration) / float64(env.Second))
	res.MeanLat = lat.Mean()
	res.P99 = lat.Percentile(0.99)
	res.NetTime = env.Time(tracer.Breakdown().Sum(trace.CompNet))
	res.ReplTime = env.Time(tracer.Breakdown().Sum(trace.CompReplicate))
	must(s.Close())

	h := stats.NewFNV()
	h.Word(uint64(M))
	h.Word(uint64(spec.RF))
	h.Word(uint64(res.Issued))
	h.Word(uint64(res.Completed))
	h.Word(uint64(res.Updates))
	h.Word(uint64(res.FailedOps))
	h.Word(uint64(res.MeanLat))
	h.Word(uint64(res.P99))
	h.Word(uint64(res.Net.Msgs))
	h.Word(uint64(res.Net.Bytes))
	h.Word(uint64(res.Net.Dropped))
	h.Word(uint64(res.PagesShipped))
	h.Word(uint64(res.EntriesShipped))
	h.Word(uint64(res.BytesShipped))
	h.Word(uint64(res.NetTime))
	h.Word(uint64(res.ReplTime))
	h.Word(uint64(res.Promoted + 1))
	h.Word(uint64(res.CrashTime))
	h.Word(res.Frontier)
	h.Word(uint64(res.Checked))
	h.Word(uint64(res.Mismatches))
	h.Word(uint64(res.Verified))
	h.Word(uint64(res.Lost))
	for _, v := range recVer {
		h.Word(v)
	}
	res.Digest = uint64(h)

	if verifyErr != nil {
		return res, verifyErr
	}
	if res.Mismatches > 0 {
		return res, fmt.Errorf("cluster: %d replicated index entries disagree with recovery (checked %d)",
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

	fmt.Fprintf(w, "\nWeak scaling, YCSB A uniform, %d records/machine, RF=1, 10GbE:\n\n", recs)
	fmt.Fprintf(w, "%-10s %12s %10s %10s %12s %12s\n",
		"machines", "ops/s", "speedup", "p99", "net msgs", "net MB")
	var base float64
	for _, m := range machines {
		res, err := RunCluster(ClusterSpec{
			Machines:          m,
			RF:                1,
			Seed:              o.Seed,
			RecordsPerMachine: recs,
			Duration:          dur,
		})
		if err != nil {
			fmt.Fprintf(w, "%-10d FAILED: %v\n", m, err)
			continue
		}
		if base == 0 {
			base = res.ThroughputOps
		}
		fmt.Fprintf(w, "%-10d %12.0f %9.2fx %10s %12d %12.1f\n",
			m, res.ThroughputOps, res.ThroughputOps/base, stats.FmtDur(res.P99),
			res.Net.Msgs, float64(res.Net.Bytes)/(1<<20))
	}

	fm := 4
	fres, err := RunCluster(ClusterSpec{
		Machines:          fm,
		RF:                2,
		Seed:              o.Seed,
		RecordsPerMachine: recs,
		Duration:          dur,
		Failover:          true,
		KillMachine:       1,
	})
	fmt.Fprintf(w, "\nFailover: %d machines, RF=2, kill machine %d at %s (promoted follower: machine %d)\n",
		fm, 1, stats.FmtDur(fres.CrashTime), fres.Promoted)
	fmt.Fprintf(w, "  completed=%d failed=%d pages-shipped=%d entries-shipped=%d frontier=%d\n",
		fres.Completed, fres.FailedOps, fres.PagesShipped, fres.EntriesShipped, fres.Frontier)
	fmt.Fprintf(w, "  verified=%d keys on promoted store: lost=%d, index entries checked=%d mismatches=%d\n",
		fres.Verified, fres.Lost, fres.Checked, fres.Mismatches)
	if err != nil {
		fmt.Fprintf(w, "  FAILED: %v\n", err)
	} else {
		fmt.Fprintf(w, "  ok: every acknowledged write survived the machine kill (digest %016x)\n", fres.Digest)
	}
}
