package main

import (
	"kvell/internal/env"
	"kvell/internal/trace"
)

// metricDef declares one metric. BENCHMARK.json carries the same names,
// units, directions and bounds; the smoke test holds the two together.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the median it may worsen
}

// Every workload reports all of these. v_* are virtual (simulated) time and
// repeat bit-for-bit for a seed; host_* and setup_s are this Go process.
var endToEnd = []metricDef{
	{"v_ops_per_s", "1/s", "higher", 0.05},
	{"v_lat_mean_us", "us", "lower", 0.12},
	{"v_lat_p99_us", "us", "lower", 0.25},
	{"goodput_share", "fraction", "higher", 0},
	{"host_ops_per_s", "1/s", "higher", 0.25},
	{"host_cpu_us_per_op", "us", "lower", 0.25},
	{"host_allocs_per_op", "allocs/op", "lower", 0.03},
	{"host_alloc_bytes_per_op", "B/op", "lower", 0.04},
	{"host_live_heap_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// e2eOf reads one pass's end-to-end metrics, all but setup_s, which is a
// median over every set-up the run made.
func e2eOf(o *outcome) map[string]float64 {
	ops := float64(o.completed)
	return map[string]float64{
		"v_ops_per_s":             o.vOpsPerS,
		"v_lat_mean_us":           o.latMeanUS,
		"v_lat_p99_us":            o.latP99US,
		"goodput_share":           ops / float64(o.attempted),
		"host_ops_per_s":          ops / o.host.wall,
		"host_cpu_us_per_op":      o.host.cpu * 1e6 / ops,
		"host_allocs_per_op":      o.host.mallocs / ops,
		"host_alloc_bytes_per_op": o.host.bytes / ops,
		"host_live_heap_mb":       o.liveMB,
	}
}

// traceComps are the trace components reported as trace.<name>_us, in the
// tracer's own order; net and replicate are reported under net.us_per_op and
// cluster.repl_wait_us_per_op, where the cluster fills them.
var traceComps = []struct {
	comp int
	name string
}{
	{trace.CompQueue, "trace.queue_us"},
	{trace.CompCPU, "trace.cpu_us"},
	{trace.CompCPUQ, "trace.cpuq_us"},
	{trace.CompLock, "trace.lock_us"},
	{trace.CompStall, "trace.stall_us"},
	{trace.CompDevQueue, "trace.devq_us"},
	{trace.CompDevService, "trace.dev_us"},
	{trace.CompAbsorb, "trace.absorb_us"},
	{trace.CompHotCache, "trace.hot_us"},
	{trace.CompOther, "trace.other_us"},
}

// hostShares are the buckets a CPU profile of the traced pass is folded
// into; see foldProfile for the rule.
var hostShares = []string{
	"host.share.sim", "host.share.device_aio", "host.share.core",
	"host.share.index_cache_slab", "host.share.mvcc_txn", "host.share.net_cluster",
	"host.share.ycsb", "host.share.harness_stats", "host.share.trace",
	"host.share.runtime_gc", "host.share.runtime_sched", "host.share.other",
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// Exact virtual counts from the counters a pass already returns.
		{name: "core.syscalls_per_op", unit: "count", better: "lower"},
		{name: "core.ios_per_syscall", unit: "count", better: "higher"},
		{name: "core.free_reused_per_op", unit: "count", better: "higher"},
		{name: "core.absorb_merge_share", unit: "fraction", better: "higher"},
		{name: "core.absorb_writes_per_update", unit: "count", better: "lower"},
		{name: "pagecache.hit_share", unit: "fraction", better: "higher"},
		{name: "hotcache.hit_share", unit: "fraction", better: "higher"},
		{name: "hotcache.promotions_per_kop", unit: "count", better: "lower"},
		{name: "device.reads_per_op", unit: "count", better: "lower"},
		{name: "device.writes_per_op", unit: "count", better: "lower"},
		{name: "device.write_bytes_per_user_byte", unit: "B/B", better: "lower"},
		{name: "device.util_share", unit: "fraction", better: "lower"},
		{name: "sim.cpu_util_share", unit: "fraction", better: "lower"},
		{name: "harness.shed_share", unit: "fraction", better: "lower"},
		{name: "net.msgs_per_op", unit: "count", better: "lower"},
		{name: "net.bytes_per_op", unit: "B/op", better: "lower"},
		{name: "net.us_per_op", unit: "us", better: "lower"},
		{name: "cluster.repl_wait_us_per_op", unit: "us", better: "lower"},
		{name: "cluster.pages_shipped_per_update", unit: "count", better: "lower"},
		{name: "cluster.bytes_shipped_per_update", unit: "B/op", better: "lower"},
		{name: "txn.conflicts_per_commit", unit: "count", better: "lower"},
		{name: "txn.abort_share", unit: "fraction", better: "lower"},
		{name: "mvcc.gc_freed_per_commit", unit: "count", better: "higher"},
		{name: "core.recover_v_us_per_kitem", unit: "us", better: "lower"},
	}
	// Virtual latency attribution: mean us per op, by component.
	for _, c := range traceComps {
		defs = append(defs, metricDef{name: c.name, unit: "us", better: "lower"})
	}
	defs = append(defs,
		metricDef{name: "trace.coverage_min", unit: "fraction", better: "higher"},
		metricDef{name: "trace.overhead_share", unit: "fraction", better: "lower"},
	)
	// Host attribution: CPU profile shares and the benchmark's own spans.
	for _, name := range hostShares {
		defs = append(defs, metricDef{name: name, unit: "fraction", better: "lower"})
	}
	defs = append(defs,
		metricDef{name: "span.setup_s", unit: "s", better: "lower"},
		metricDef{name: "span.generate_s", unit: "s", better: "lower"},
		metricDef{name: "span.simulate_s", unit: "s", better: "lower"},
	)
	// Probes: one public function of one layer in a tight loop.
	for _, p := range probes {
		defs = append(defs, metricDef{name: p.name, unit: p.unit, better: "lower"})
		if p.unit == "ns" {
			defs = append(defs, metricDef{name: allocsName(p.name), unit: "allocs/op", better: "lower"})
		}
	}
	return defs
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layersOf derives the counter-based per-layer metrics of one pass. A layer
// that did not run in the workload reports exactly 0.
func layersOf(o *outcome) map[string]float64 {
	ops := float64(o.completed)
	upd := float64(o.updates)
	m := map[string]float64{
		"core.syscalls_per_op":             ratio(float64(o.core.Syscalls), ops),
		"core.ios_per_syscall":             ratio(float64(o.core.IOsSubmitted), float64(o.core.Syscalls)),
		"core.free_reused_per_op":          ratio(float64(o.core.FreeReused), ops),
		"core.absorb_merge_share":          ratio(float64(o.core.Absorbed), upd),
		"core.absorb_writes_per_update":    ratio(float64(o.core.AbsorbWrites), upd),
		"pagecache.hit_share":              ratio(float64(o.core.CacheHits), float64(o.core.CacheHits+o.core.CacheMisses)),
		"hotcache.hit_share":               ratio(float64(o.core.HotHits), float64(o.core.HotHits+o.core.HotMisses)),
		"hotcache.promotions_per_kop":      ratio(1000*float64(o.core.HotPromotions), ops),
		"device.reads_per_op":              ratio(float64(o.dev.ReadOps), ops),
		"device.writes_per_op":             ratio(float64(o.dev.WriteOps), ops),
		"device.write_bytes_per_user_byte": ratio(float64(o.dev.WriteBytes), float64(o.userWriteBytes)),
		"device.util_share":                o.devUtil,
		"sim.cpu_util_share":               o.cpuUtil,
		"harness.shed_share":               o.shedShare,
		"net.msgs_per_op":                  ratio(float64(o.net.Msgs), ops),
		"net.bytes_per_op":                 ratio(float64(o.net.Bytes), ops),
		"net.us_per_op":                    o.netUS,
		"cluster.repl_wait_us_per_op":      o.replUS,
		"cluster.pages_shipped_per_update": ratio(float64(o.pagesShipped), upd),
		"cluster.bytes_shipped_per_update": ratio(float64(o.bytesShipped), upd),
		"txn.conflicts_per_commit":         ratio(float64(o.txnConflicts), ops),
		"txn.abort_share":                  ratio(float64(o.txnAborts), float64(o.attempted)),
		"mvcc.gc_freed_per_commit":         ratio(float64(o.gcFreed), ops),
	}
	for _, c := range traceComps {
		m[c.name] = 0
	}
	m["trace.coverage_min"] = 0
	switch {
	case o.tracer != nil && o.winTo > 0:
		// harness.Run: the sampled requests that finished inside the
		// measurement window, so the components sum to (a 1-in-16 sample of)
		// v_lat_mean_us.
		w := windowBreakdown(o.tracer, o.winFrom, o.winTo)
		for _, c := range traceComps {
			m[c.name] = w.comp[c.comp] / 1e3
		}
		m["trace.coverage_min"] = w.coverageMin
	case o.tracer != nil:
		// txn_bank: a transfer is several traced store round trips, so the
		// tracer's sums are divided by transfers, and the client-side time
		// between round trips is the remainder.
		var booked float64
		for _, c := range traceComps {
			m[c.name] = o.tracer.Breakdown().Sum(c.comp) / 1e3 / ops
			booked += m[c.name]
		}
		m["trace.other_us"] += max(o.latMeanUS-booked, 0)
		m["trace.coverage_min"], _ = o.tracer.Coverage()
	case o.netUS > 0:
		// The cluster harness owns its tracer and returns two sums only.
		m["trace.other_us"] = o.latMeanUS - o.netUS - o.replUS
	}
	return m
}

// windowTrace is the latency attribution of the sampled requests of a traced
// pass that finished inside the measurement window.
type windowTrace struct {
	comp        [trace.NumComponents]float64 // mean ns per sampled request
	meanNS      float64                      // their mean end-to-end latency
	coverageMin float64                      // least share of a request's latency its components cover
	n           int
}

// windowBreakdown rebuilds the breakdown from the tracer's retained spans:
// each sampled request is one KindOp span followed by its component spans.
// The tracer's own breakdown covers every request of the pass, and the
// warm-up of an open-loop run (cold caches, a backlog) would drown the window.
func windowBreakdown(tr *trace.Tracer, from, to env.Time) windowTrace {
	w := windowTrace{coverageMin: 1}
	var in bool
	var total, booked env.Time
	flush := func() {
		if !in {
			return
		}
		other := max(total-booked, 0)
		w.comp[trace.CompOther] += float64(other)
		w.meanNS += float64(total)
		if total > 0 {
			w.coverageMin = min(w.coverageMin, 1-float64(other)/float64(total))
		}
		w.n++
	}
	for _, s := range tr.Spans() {
		switch {
		case s.Bg:
		case s.Kind == trace.KindOp:
			flush()
			in, total, booked = s.End >= from && s.End < to, s.End-s.Start, 0
		case s.Kind == trace.KindComp && in:
			w.comp[s.Comp] += float64(s.End - s.Start)
			booked += s.End - s.Start
		}
	}
	flush()
	if w.n == 0 {
		return windowTrace{}
	}
	for i := range w.comp {
		w.comp[i] /= float64(w.n)
	}
	w.meanNS /= float64(w.n)
	return w
}
