package harness

import (
	"fmt"
	"io"

	"kvell/internal/core"
	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/stats"
	"kvell/internal/ycsb"
)

// TierOpts parameterizes the hot/cold tiering sweep: zipfian skew × hot-tier
// size, all engines at hot size 0 as baselines, on the slow device.ColdSSD
// profile. The page cache is deliberately small (TierCacheFrac of the
// dataset): the paper's Nutanix traces split into a ~21% and a ~99%
// page-cache-hit regime, and this sweep reproduces both as measured
// memory-hit-rate points — the low one from a skew the small caches cannot
// absorb, the high one from a hot tier sized to the working set. One extra
// KVell point at the highest theta and a mid-size cache (under capacity
// pressure) rotates the YCSB hot head every tierHotShiftEvery, exercising
// demotion and re-promotion under workload churn.
type TierOpts struct {
	Thetas  []float64 // zipfian skew grid
	CacheMB []float64 // hot-tier size grid in MB; 0 = tiering off
	Rate    float64   // open-loop arrival rate per virtual second
}

// TierCacheFrac sizes the page cache relative to the dataset in this sweep:
// small enough that cold reads actually pay the slow device, which is the
// regime where a hot tier matters.
const TierCacheFrac = 0.05

// The sweep's fixed shape.
const (
	tierRecords  = 20_000
	tierItemSize = 1024
	// tierMaxPerShard is the admission valve bound (Shed policy: overload is
	// rejected, so goodput and tail latency stay measurable).
	tierMaxPerShard = 256
	// tierPromoteAfter is the decayed access count that promotes: on the
	// first cold read (the ghost table still shields the cache from
	// single-touch scans at 2 and above).
	tierPromoteAfter  = 1
	tierHotShiftEvery = 250 * env.Millisecond
)

func (to *TierOpts) defaults() {
	if len(to.Thetas) == 0 {
		to.Thetas = []float64{0.6, 0.99}
	}
	if len(to.CacheMB) == 0 {
		to.CacheMB = []float64{0, 1.5, 4, 24}
	}
	def(&to.Rate, 300_000)
}

// TierPoint is one cell of the sweep with derived hit-rate measurements.
type TierPoint struct {
	Engine  EngineKind
	Theta   float64
	CacheMB float64
	Shift   bool

	Res Result
	// MemHitPct is the fraction of cache-visible lookups served from
	// memory: (hot hits + page/block hits) / (those + page misses) — the
	// metric behind the paper's Nutanix hit-rate regimes.
	MemHitPct float64
	// HotHitPct is hot-tier hits over hot-tier probes (KVell tiered only).
	HotHitPct float64
}

func (p *TierPoint) fillDerived() {
	r := &p.Res
	mem := r.HotHits + r.CacheHits
	if tot := mem + r.CacheMisses; tot > 0 {
		p.MemHitPct = 100 * float64(mem) / float64(tot)
	}
	if probes := r.HotHits + r.HotMisses; probes > 0 {
		p.HotHitPct = 100 * float64(r.HotHits) / float64(probes)
	}
}

// readMostlyGen is a 98/2 read/update Zipfian stream: read-dominated so the
// hot tier is the bottleneck-mover, with enough writes to keep the
// write-through/invalidation protocol honest. ColdSSD sustains ~10K random
// writes/s, so the 2% write stream stays below the cold tier's write cliff.
func readMostlyGen(records int64, itemSize int, theta float64, shiftEvery env.Time) func(int64) Generator {
	return func(seed int64) Generator {
		wl := ycsb.Workload{Name: "read-mostly", ReadPct: 98, UpdatePct: 2}
		g := ycsb.NewGeneratorTheta(wl, ycsb.Zipfian, records, itemSize, seed, theta)
		if shiftEvery > 0 {
			g.SetHotShift(shiftEvery, seed+0x686F74)
		}
		return g
	}
}

// tierSpec builds one sweep cell's Spec. cacheMB is the hot-tier size; zero
// leaves the engine untiered.
func tierSpec(o Options, rate float64, eng EngineKind, theta, cacheMB float64, shift env.Time) Spec {
	return Spec{
		Name:      "tiering",
		Seed:      o.Seed,
		Engine:    eng,
		Profile:   device.ColdSSD(),
		Records:   tierRecords,
		ItemSize:  tierItemSize,
		CacheFrac: TierCacheFrac,
		Gen:       readMostlyGen(tierRecords, tierItemSize, theta, shift),
		// Long enough that the one-time cold-read promotion misses (one per
		// record at tierPromoteAfter = 1) amortize out of the hit rate.
		Duration: o.dur(6 * env.Second),
		Arrival:  &Arrival{Rate: rate, MaxPerShard: tierMaxPerShard},
		TweakKVell: func(c *core.Config) {
			if cacheMB > 0 {
				c.TieredHotBytes = int64(cacheMB * (1 << 20))
				c.TieredPromoteAfter = tierPromoteAfter
				c.TieredSeed = o.Seed
			}
		},
	}
}

// TierSweep runs the grid: every engine untiered as a baseline, KVell
// additionally at each hot-tier size, plus one hot-set-shift point.
func TierSweep(o Options, to TierOpts) []TierPoint {
	to.defaults()
	var pts []TierPoint
	var specs []Spec
	for _, eng := range AllEngines {
		sizes := to.CacheMB[:1] // baseline only: the hot tier is a KVell front end
		if eng == KVell {
			sizes = to.CacheMB
		}
		for _, theta := range to.Thetas {
			for _, mb := range sizes {
				pts = append(pts, TierPoint{Engine: eng, Theta: theta, CacheMB: mb})
				specs = append(specs, tierSpec(o, to.Rate, eng, theta, mb, 0))
			}
		}
	}
	theta := to.Thetas[len(to.Thetas)-1]
	mb := shiftMB(&to)
	pts = append(pts, TierPoint{Engine: KVell, Theta: theta, CacheMB: mb, Shift: true})
	specs = append(specs, tierSpec(o, to.Rate, KVell, theta, mb, tierHotShiftEvery))
	results := o.runAll(specs...)
	for i := range pts {
		pts[i].Res = results[i]
		pts[i].fillDerived()
	}
	return pts
}

// shiftMB picks the hot-set-shift point's cache size: the second-largest
// entry when the grid has one, so the arena is under capacity pressure and
// rotation visibly demotes; a dataset-sized cache would never evict.
func shiftMB(to *TierOpts) float64 {
	if len(to.CacheMB) > 2 {
		return to.CacheMB[len(to.CacheMB)-2]
	}
	return to.CacheMB[len(to.CacheMB)-1]
}

// findTierPoint returns the sweep cell matching the coordinates, or nil.
func findTierPoint(pts []TierPoint, eng EngineKind, theta, mb float64, shift bool) *TierPoint {
	for i := range pts {
		p := &pts[i]
		if p.Engine == eng && p.Theta == theta && p.CacheMB == mb && p.Shift == shift {
			return p
		}
	}
	return nil
}

// tieringExp is the registered experiment: default grid, table, verdicts.
func tieringExp(o Options, w io.Writer) {
	TierReport(o, TierOpts{}, w)
}

// tierHeader announces the sweep's fixed shape and the offered load, and
// names the columns.
func tierHeader(w io.Writer, rate float64) {
	fmt.Fprintf(w, "Hot/cold tiering: open-loop read-mostly Zipfian sweep on %s\n", device.ColdSSD().Name)
	fmt.Fprintf(w, "(%d records x %dB, page cache %.0f%% of dataset, offered load %s/s, valve bound %d/shard)\n\n",
		tierRecords, tierItemSize, 100*TierCacheFrac, stats.FmtRate(rate), tierMaxPerShard)
	fmt.Fprintf(w, "%-16s %-6s %8s %12s %10s %10s %8s %8s %9s %9s %8s\n",
		"engine", "theta", "hot-MB", "goodput", "p50", "p99", "memhit%", "hothit%", "promos", "demos", "shed")
}

// TierReport runs the sweep described by to (zero fields take defaults) and
// prints the table plus the headline verdicts — the entry point `kvell-bench tier`
// uses for flag-selected skews and cache sizes.
func TierReport(o Options, to TierOpts, w io.Writer) {
	to.defaults()
	tierHeader(w, to.Rate)
	pts := TierSweep(o, to)
	for i := range pts {
		p := &pts[i]
		mb := "off"
		if p.CacheMB > 0 {
			mb = fmt.Sprintf("%.1f", p.CacheMB)
		}
		name := p.Engine.String()
		if p.Shift {
			name += "+shift"
		}
		fmt.Fprintf(w, "%-16s %-6.2f %8s %12s %10s %10s %8.1f %8.1f %9d %9d %8d\n",
			name, p.Theta, mb,
			stats.FmtRate(p.Res.Throughput),
			stats.FmtDur(p.Res.Lat.Percentile(0.50)),
			stats.FmtDur(p.Res.Lat.Percentile(0.99)),
			p.MemHitPct, p.HotHitPct,
			p.Res.HotPromotions, p.Res.HotDemotions, p.Res.Shed)
	}
	fmt.Fprintf(w, "\n")

	// Headline 1: tiered vs untiered KVell goodput at the highest skew.
	maxTheta := to.Thetas[len(to.Thetas)-1]
	if base := findTierPoint(pts, KVell, maxTheta, 0, false); base != nil && base.Res.Throughput > 0 {
		best := base
		for _, mb := range to.CacheMB[1:] {
			if p := findTierPoint(pts, KVell, maxTheta, mb, false); p != nil && p.Res.Throughput > best.Res.Throughput {
				best = p
			}
		}
		gain := best.Res.Throughput / base.Res.Throughput
		verdict := "FAIL"
		if gain >= 2 {
			verdict = "ok"
		}
		fmt.Fprintf(w, "KVell theta=%.2f on %s: goodput %s -> %s with a %.1fMB hot tier (%.2fx, >=2x: %s)\n",
			maxTheta, device.ColdSSD().Name,
			stats.FmtRate(base.Res.Throughput), stats.FmtRate(best.Res.Throughput),
			best.CacheMB, gain, verdict)
	}

	// Headline 2: the two Nutanix hit-rate regimes as measured points. The
	// low regime is the smallest hot tier at the lowest skew (caches too
	// small for the working set); the high regime is the largest hot tier at
	// the highest skew (working set fits).
	minTheta := to.Thetas[0]
	if len(to.CacheMB) > 1 {
		if low := findTierPoint(pts, KVell, minTheta, to.CacheMB[1], false); low != nil {
			verdict := "FAIL"
			if low.MemHitPct >= 10 && low.MemHitPct <= 35 {
				verdict = "ok"
			}
			fmt.Fprintf(w, "low-hit regime  (theta=%.2f, %.1fMB): %.1f%% memory hits (~21%% band [10,35]: %s)\n",
				minTheta, low.CacheMB, low.MemHitPct, verdict)
		}
		big := to.CacheMB[len(to.CacheMB)-1]
		if high := findTierPoint(pts, KVell, maxTheta, big, false); high != nil {
			verdict := "FAIL"
			if high.MemHitPct >= 90 {
				verdict = "ok"
			}
			fmt.Fprintf(w, "high-hit regime (theta=%.2f, %.1fMB): %.1f%% memory hits (~99%% band >=90: %s)\n",
				maxTheta, big, high.MemHitPct, verdict)
		}
	}

	// Headline 3: rotating the hot head must churn the cache — demotions
	// happen, and re-promoting each epoch's new head costs more promotions
	// than the static workload at the same size.
	if sp := findTierPoint(pts, KVell, maxTheta, shiftMB(&to), true); sp != nil {
		verdict := "FAIL"
		if sp.Res.HotDemotions > 0 {
			verdict = "ok"
		}
		extra := ""
		if st := findTierPoint(pts, KVell, maxTheta, shiftMB(&to), false); st != nil {
			extra = fmt.Sprintf(", %d vs %d static promotions", sp.Res.HotPromotions, st.Res.HotPromotions)
		}
		fmt.Fprintf(w, "hot-set shift every %s: %d demotions under churn (>0: %s%s)\n",
			stats.FmtDur(tierHotShiftEvery), sp.Res.HotDemotions, verdict, extra)
	}
	fmt.Fprintf(w, "\nA hot tier sized to the Zipfian head turns the cold-SSD read bottleneck into a memory\nworkload: cold reads promote after repeated touches, writes go through or invalidate in\nplace, and the frequency-ordered ring demotes the coldest resident record when the arena\nis full — all in virtual time, so tiered schedules are as replayable as untiered ones.\n")
}
