package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"kvell/internal/core"
	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/harness"
	"kvell/internal/net"
	"kvell/internal/stats"
	"kvell/internal/trace"
	"kvell/internal/ycsb"
)

// scale shrinks a workload without changing its shape: dur multiplies every
// virtual duration (and the txn_bank transfer count), records multiplies the
// dataset. The benchmark proper only ever changes dur (from --seconds); the
// smoke test and selfcheck also shrink the dataset to stay short.
type scale struct{ dur, records float64 }

func (sc scale) t(d env.Time) env.Time { return max(env.Time(float64(d)*sc.dur), env.Microsecond) }
func (sc scale) n(n int64) int64       { return max(int64(float64(n)*sc.records), 64) }

// setupOnly is the shortest possible pass over the same dataset (t still
// returns a microsecond): only its set-up is worth reading.
func (sc scale) setupOnly() scale { return scale{dur: 0, records: sc.records} }

// nominalSeconds is the --seconds value at which virtual durations are the
// ones written in the workload table below.
const nominalSeconds = 20.0

// workload is one named traffic mix. Single-node workloads give a
// harness.Spec; the cluster and the transaction workload, which harness.Run
// cannot express, give a run function instead.
type workload struct {
	name, why string
	spec      func(seed int64, sc scale) harness.Spec
	run       func(seed int64, sc scale, o passOpts) outcome
	// p99LimitUS, when set, is a latency limit every pass must meet.
	p99LimitUS float64
	// opaqueSetup: the harness call builds, loads and runs in one go, so a
	// pass cannot see where set-up ends. Its host metrics cover the whole
	// call, and setup_s comes from separate shortest-possible passes.
	opaqueSetup bool
}

// passOpts are the knobs of one pass that are not part of the workload.
type passOpts struct {
	tracer  *trace.Tracer // non-nil for the traced pass
	profile *cpuProfile   // non-nil for the traced pass: started once set-up is over
	// vary edits the spec of a single-node workload: the selfcheck's
	// known-worse variants. burn spins the generator per draw.
	vary func(*harness.Spec)
	burn time.Duration
}

const (
	records  = 200_000 // × 1 KB: the single-node dataset
	itemSize = 1024
)

func ycsbGen(wl byte, dist ycsb.Distribution, n int64) func(int64) harness.Generator {
	return func(seed int64) harness.Generator {
		return ycsb.NewGeneratorTheta(ycsb.Core(wl), dist, n, itemSize, seed, ycsb.DefaultTheta)
	}
}

// singleNode is the store every single-node workload runs on: KVell, one
// Optane, 8 cores and 8 workers, a page cache of a third of the dataset, 8
// clients with 32 requests outstanding each.
func singleNode(name string, seed int64, sc scale, gen func(int64) harness.Generator, warm, dur env.Time) harness.Spec {
	return harness.Spec{
		Name: name, Seed: seed, Engine: harness.KVell,
		Cores: 8, Profile: device.Optane(), NDisks: 1,
		Records: sc.n(records), ItemSize: itemSize, CacheFrac: 1.0 / 3,
		Gen: gen, Clients: 8, Window: 32,
		Warmup: sc.t(warm), Duration: sc.t(dur),
		Bucket: 10 * env.Millisecond,
	}
}

const openLoopRate = 800_000 // arrivals per virtual second

var workloads = []workload{
	{
		name: "ycsb_a_uniform",
		why:  "50/50 get/update, uniform keys, dataset 3x the page cache: slab encode, free lists, aio batching and the device queue do the work",
		spec: func(seed int64, sc scale) harness.Spec {
			return singleNode("ycsb_a_uniform", seed, sc, ycsbGen('A', ycsb.Uniform, sc.n(records)), 500*env.Millisecond, 1500*env.Millisecond)
		},
	},
	{
		name: "ycsb_c_zipf",
		why:  "read-only zipf 0.99, mostly page-cache hits, zero device writes: index, cache, generator and sim hand-offs dominate; bypasses every write-path change",
		spec: func(seed int64, sc scale) harness.Spec {
			return singleNode("ycsb_c_zipf", seed, sc, ycsbGen('C', ycsb.Zipfian, sc.n(records)), 250*env.Millisecond, 750*env.Millisecond)
		},
	},
	{
		name: "ycsb_e_scan",
		why:  "95% scans of up to 100 items, zipf 0.99: ordered index iteration merged across workers, then tens of device reads per op; shows a point-lookup gain that costs scans",
		spec: func(seed int64, sc scale) harness.Spec {
			return singleNode("ycsb_e_scan", seed, sc, ycsbGen('E', ycsb.Zipfian, sc.n(records)), 500*env.Millisecond, 1500*env.Millisecond)
		},
	},
	{
		name: "openloop_absorb_hot", p99LimitUS: 1000,
		why: "open loop, Poisson 800K arrivals/s (about 80% of the knee), 50/50 zipf 0.99 with write absorption and the hot tier on: the only workload where those two stages run, and the one with a p99 limit",
		spec: func(seed int64, sc scale) harness.Spec {
			// The hot tier and the page cache fill for the first 150 ms or so
			// whatever the scale, and until they have, p99 is up to twice its
			// steady value and differs by as much from seed to seed. So the
			// warm-up is as long as the window: 200 ms at --seconds 4.
			s := singleNode("openloop_absorb_hot", seed, sc, ycsbGen('A', ycsb.Zipfian, sc.n(records)), 1000*env.Millisecond, 1000*env.Millisecond)
			s.Arrival = &harness.Arrival{Rate: openLoopRate, MaxPerShard: 1024, Policy: harness.Shed}
			s.TweakKVell = absorbHot(seed)
			return s
		},
	},
	{
		name: "cluster_rf2",
		why:  "4 machines, RF=2, closed-loop YCSB A over a 10GbE model: net fabric, index+page shipping and barrier acks do the work, and a result waits for the slowest follower",
		run:  runCluster, opaqueSetup: true,
	},
	{
		name: "txn_bank",
		why:  "16 movers transfer between 3 of 16384 accounts in percolator transactions on the MVCC store: version chains and 2PC do the work, and the total balance must be conserved",
		run:  runTxnBank,
	},
}

// absorbHot turns on the write-absorbing front end and the hot-key tier.
func absorbHot(seed int64) func(*core.Config) {
	return func(c *core.Config) {
		c.AbsorbInterval = 200 * env.Microsecond
		c.TieredHotBytes = 8 << 20
		c.TieredSeed = seed
	}
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// outcome is everything one pass of one workload produced, on both clocks.
type outcome struct {
	// Virtual clock: exact for a fixed seed.
	vOpsPerS   float64
	latMeanUS  float64
	latP99US   float64
	latSamples int64
	attempted  int64 // whole run, warm-up included
	completed  int64
	digest     uint64

	// Host clock. setup is start → first generated op, host is first
	// generated op → return; a workload with opaqueSetup has the whole call
	// in host.
	setup, host hostCost
	liveMB      float64
	genS        float64 // wall inside the generator (traced passes only)

	// Layer counters, whole run.
	core           core.Stats
	dev            device.Counters
	devUtil        float64
	cpuUtil        float64
	updates        int64 // update operations issued
	userWriteBytes int64
	shedShare      float64
	net            net.Counters
	netUS, replUS  float64 // mean per completed op
	pagesShipped   int64
	bytesShipped   int64
	txnConflicts   int64
	txnAborts      int64
	gcFreed        int64
	tracer         *trace.Tracer
	winFrom, winTo env.Time // the measurement window, where the harness has one

	err error // a failed correctness condition of the pass itself
}

// pass runs the workload once.
func (w *workload) pass(seed int64, sc scale, o passOpts) outcome {
	if w.run != nil {
		return w.run(seed, sc, o)
	}
	spec := w.spec(seed, sc)
	if o.vary != nil {
		o.vary(&spec)
	}
	return runSpec(spec, o)
}

// runSpec drives harness.Run and reads both clocks off it.
func runSpec(spec harness.Spec, o passOpts) outcome {
	mg := &meteredGen{timed: o.tracer != nil, burn: o.burn, profile: o.profile}
	inner := spec.Gen
	spec.Gen = func(seed int64) harness.Generator {
		mg.inner = inner(seed).(*ycsb.Generator)
		return mg
	}
	spec.Tracer = o.tracer

	start := mark()
	res := harness.Run(spec)
	end := mark()

	first := mg.firstOp
	if first == nil { // a pass too short to issue anything
		first = end
	}
	out := outcome{
		setup:     first.since(start),
		host:      end.since(first),
		genS:      float64(mg.genNS) / 1e9,
		attempted: mg.calls,
		completed: res.OpsTotal,
		tracer:    o.tracer,
		winFrom:   spec.Warmup,
		winTo:     spec.Warmup + spec.Duration,
	}
	out.liveMB = liveHeapMB()

	window := float64(spec.Duration) / float64(env.Second)
	out.vOpsPerS = float64(res.Ops) / window
	out.latMeanUS = float64(res.Lat.Mean()) / 1e3
	out.latP99US = interpolatedPercentile(res.Lat, 0.99) / 1e3
	out.latSamples = res.Lat.Count()
	if spec.Arrival != nil {
		out.attempted = res.Arrivals
		if n := res.Ops + res.Shed; n > 0 {
			out.shedShare = float64(res.Shed) / float64(n)
		}
	}

	st := res.Engine.(*core.Store)
	out.core = st.Stats()
	out.dev = diskTotals(res.Disks)
	total := spec.Warmup + spec.Duration
	out.devUtil = busyShare(res.DiskUtil, total)
	out.cpuUtil = busyShare(res.CPUUtil, total)
	out.updates, out.userWriteBytes = mg.updates, mg.userWriteBytes

	out.digest = digestOf(
		res.Ops, res.OpsTotal, res.Arrivals, res.Shed, res.Delayed,
		int64(res.Lat.Digest()), int64(res.Timeline.Digest()),
		out.dev.ReadOps, out.dev.WriteOps, out.dev.ReadBytes, out.dev.WriteBytes,
		out.core.CacheHits, out.core.CacheMisses, out.core.Syscalls, out.core.IOsSubmitted,
		out.core.FreeReused, out.core.Absorbed, out.core.AbsorbWrites,
		out.core.HotHits, out.core.HotMisses, out.core.HotPromotions,
	)
	return out
}

func diskTotals(disks []*device.SimDisk) device.Counters {
	var sum device.Counters
	for _, d := range disks {
		c := d.Counters()
		sum.ReadOps += c.ReadOps
		sum.WriteOps += c.WriteOps
		sum.ReadBytes += c.ReadBytes
		sum.WriteBytes += c.WriteBytes
	}
	return sum
}

// digestOf fingerprints a pass's virtual outcome: equal digests mean the
// same simulated schedule.
func digestOf(vs ...int64) uint64 {
	d := stats.NewFNV()
	for _, v := range vs {
		d.Word(uint64(v))
	}
	return uint64(d)
}

// busyShare is a utilization timeline's busy fraction over [0, total): the
// harness keeps simulating idle time after the workload ends, which the
// timeline's own mean would count.
func busyShare(u *stats.Util, total env.Time) float64 {
	var sum float64
	for _, f := range u.Fractions() {
		sum += f
	}
	return sum * float64(u.Width) / float64(total)
}

// interpolatedPercentile reads quantile p off a stats.Hist more finely than
// Hist.Percentile, which answers with the upper edge of a 5%-wide bucket and
// so reports the same number for every seed until it jumps a whole bucket.
// The histogram's counts are private, so the bucket holding p and the share
// of samples below each of its edges are found by probing Percentile; the
// answer is the linear interpolation between the edges. Returns nanoseconds.
func interpolatedPercentile(h *stats.Hist, p float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	hi := h.Percentile(p)
	at := func(rank int) env.Time { return h.Percentile((float64(rank) + 0.5) / float64(n)) }
	// Ranks [first, last] are the samples whose bucket edge is hi.
	target := int(p * float64(n))
	first := sort.Search(target, func(r int) bool { return at(r) >= hi })
	last := target + sort.Search(int(n)-target, func(i int) bool { return at(target+i) > hi }) - 1
	lo := h.Min()
	if first > 0 {
		lo = at(first - 1)
	}
	if hi >= h.Max() || last < first {
		return float64(hi)
	}
	frac := (p*float64(n) - float64(first)) / float64(last-first+1)
	return float64(lo) + math.Min(math.Max(frac, 0), 1)*float64(hi-lo)
}
