package harness

import (
	"fmt"
	"io"
	"math/rand"

	"kvell/internal/core"
	"kvell/internal/costs"
	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/nutanix"
	"kvell/internal/pagecache"
	"kvell/internal/sim"
	"kvell/internal/stats"
	"kvell/internal/ycsb"
)

func ycsbSpecGen(wl byte, dist ycsb.Distribution, records int64, itemSize int) func(int64) Generator {
	return func(seed int64) Generator {
		return ycsb.NewGenerator(ycsb.Core(wl), dist, records, itemSize, seed)
	}
}

// table4 documents the YCSB core workloads and verifies the generator's
// realized mixes.
func table4(o Options, w io.Writer) {
	fmt.Fprintf(w, "Table 4: YCSB core workloads (mix realized by the generator over 20K draws)\n\n")
	fmt.Fprintf(w, "%-8s %-45s %s\n", "Workload", "Description", "realized mix")
	desc := map[byte]string{
		'A': "write-intensive: 50% updates, 50% reads",
		'B': "read-intensive: 5% updates, 95% reads",
		'C': "read-only: 100% reads",
		'D': "read-latest: 5% inserts, 95% reads",
		'E': "scan-intensive: 5% inserts, 95% scans (avg 50)",
		'F': "50% read-modify-write, 50% reads",
	}
	for _, wl := range []byte{'A', 'B', 'C', 'D', 'E', 'F'} {
		g := ycsb.NewGenerator(ycsb.Core(wl), ycsb.Uniform, 10_000, 1024, o.Seed)
		counts := map[kv.OpType]int{}
		for i := 0; i < 20_000; i++ {
			counts[g.Next().Op]++
		}
		fmt.Fprintf(w, "YCSB %c   %-45s", wl, desc[wl])
		for _, op := range []kv.OpType{kv.OpGet, kv.OpUpdate, kv.OpRMW, kv.OpScan} {
			if counts[op] > 0 {
				fmt.Fprintf(w, " %s=%d%%", op, counts[op]*100/20_000)
			}
		}
		fmt.Fprintln(w)
	}
}

// fig5 is the headline comparison: average YCSB throughput for all five
// engines under uniform and Zipfian key distributions (Config-Optane).
func fig5(o Options, w io.Writer) {
	records := o.records(100_000)
	dur := o.dur(2 * env.Second)
	fmt.Fprintf(w, "Figure 5: YCSB average throughput (Config-Optane, %d x 1KB records, cache = 1/3)\n", records)
	for _, dist := range []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian} {
		fmt.Fprintf(w, "\n-- %s key distribution --\n", dist)
		ycsbByEngine(o, w, 16, func(wl byte, k EngineKind) Spec {
			return Spec{
				Name: fmt.Sprintf("fig5-%c-%s-%v", wl, dist, k), Seed: o.Seed,
				Engine: k, Records: records,
				Gen:      ycsbSpecGen(wl, dist, records, 1024),
				Duration: dur,
			}
		})
	}
	fmt.Fprintf(w, "\nPaper: KVell >= 2x next best on read-dominated, >= 5x on write-dominated;\ncomparable or better on scans (E): ~ RocksDB uniform, +25%% and more on Zipfian.\n")
}

// fig3 shows the LSM and B+ tree baselines saturating CPU while leaving
// device bandwidth idle; fig6 shows KVell doing the opposite.
func fig3(o Options, w io.Writer) {
	utilTimelines(o, w, "Figure 3", []EngineKind{RocksLike, WiredTigerLike})
	fmt.Fprintf(w, "\nPaper: both are CPU-bound (~100%%) with the device far below its bandwidth.\n")
}

func fig6(o Options, w io.Writer) {
	utilTimelines(o, w, "Figure 6", []EngineKind{KVell})
	fmt.Fprintf(w, "\nPaper: KVell uses ~98%% of device bandwidth without becoming CPU-bound (~40%% CPU).\n")
}

func utilTimelines(o Options, w io.Writer, figname string, kinds []EngineKind) {
	records := o.records(100_000)
	dur := o.dur(6 * env.Second)
	fmt.Fprintf(w, "%s: disk bandwidth and CPU utilization timelines (YCSB A uniform, 1KB)\n\n", figname)
	for _, k := range kinds {
		r := Run(Spec{
			Name: "util-" + k.String(), Seed: o.Seed,
			Engine: k, Records: records,
			Gen:      ycsbSpecGen('A', ycsb.Uniform, records, 1024),
			Duration: dur, Warmup: dur / 6, Bucket: dur / 12,
		})
		maxBW := float64(r.Spec.Profile.Channels) * device.PageSize /
			(float64(r.Spec.Profile.WriteSvc) / float64(env.Second))
		fmt.Fprintf(w, "%-16s avg throughput %s, device %s of max %.0fMB/s, CPU %.0f%%\n",
			r.EngineName, stats.FmtRate(r.Throughput),
			stats.FmtBytesRate(meanRate(r.DiskBW)), maxBW/(1<<20),
			100*r.CPUUtil.MeanFraction(1))
		fmt.Fprintf(w, "  disk MB/s:")
		for _, v := range r.DiskBW.Rates() {
			fmt.Fprintf(w, " %6.0f", v/(1<<20))
		}
		fmt.Fprintf(w, "\n  CPU %%    :")
		for _, v := range r.CPUUtil.Fractions() {
			fmt.Fprintf(w, " %6.0f", 100*v)
		}
		fmt.Fprintln(w)
	}
}

func meanRate(tl *stats.Timeline) float64 {
	r := tl.Rates()
	if len(r) <= 1 {
		if len(r) == 1 {
			return r[0]
		}
		return 0
	}
	r = r[:len(r)-1]
	var s float64
	for _, v := range r {
		s += v
	}
	return s / float64(len(r))
}

// fig4 and fig7 show throughput fluctuations over time.
func fig4(o Options, w io.Writer) {
	records := o.records(100_000)
	dur := o.dur(10 * env.Second)
	fmt.Fprintf(w, "Figure 4: per-second throughput, YCSB A uniform\n\n")
	for _, k := range []EngineKind{RocksLike, WiredTigerLike} {
		r := Run(Spec{
			Name: "fig4", Seed: o.Seed, Engine: k, Records: records,
			Gen:      ycsbSpecGen('A', ycsb.Uniform, records, 1024),
			Duration: dur, Warmup: dur / 10, Bucket: dur / 16,
		})
		min, max := r.Timeline.MinMax(1)
		fmt.Fprintf(w, "%-16s avg=%s min=%s max=%s\n  ", r.EngineName,
			stats.FmtRate(r.Throughput), stats.FmtRate(min), stats.FmtRate(max))
		for _, v := range r.Timeline.Rates() {
			fmt.Fprintf(w, " %7s", stats.FmtRate(v))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nPaper: RocksDB averages 63K but drops to 1.5K; WiredTiger drops from 120K to 8.5K.\n")
}

func fig7(o Options, w io.Writer) {
	records := o.records(100_000)
	dur := o.dur(10 * env.Second)
	fmt.Fprintf(w, "Figure 7: per-second throughput timelines, uniform distribution\n")
	for _, wl := range []byte{'A', 'B', 'C', 'E'} {
		fmt.Fprintf(w, "\n-- YCSB %c --\n", wl)
		var specs []Spec
		for _, k := range []EngineKind{KVell, RocksLike, PebblesLike, WiredTigerLike} {
			specs = append(specs, Spec{
				Name: "fig7", Seed: o.Seed, Engine: k, Records: records,
				Gen:      ycsbSpecGen(wl, ycsb.Uniform, records, 1024),
				Duration: dur, Warmup: dur / 10, Bucket: dur / 16,
			})
		}
		for _, r := range o.runAll(specs...) {
			min, max := r.Timeline.MinMax(1)
			fmt.Fprintf(w, "%-16s avg=%8s min=%8s max=%8s |", r.EngineName,
				stats.FmtRate(r.Throughput), stats.FmtRate(min), stats.FmtRate(max))
			for _, v := range r.Timeline.Rates() {
				fmt.Fprintf(w, " %6s", stats.FmtRate(v))
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "\nPaper: KVell is flat after ramp-up; the others dip by an order of magnitude during maintenance.\n")
}

// table5 reports tail latency on YCSB A.
func table5(o Options, w io.Writer) {
	records := o.records(100_000)
	dur := o.dur(8 * env.Second)
	fmt.Fprintf(w, "Table 5: p99 and max request latency, YCSB A uniform\n\n")
	fmt.Fprintf(w, "%-18s %10s %10s\n", "Engine", "p99", "max")
	var specs []Spec
	for _, k := range []EngineKind{KVell, RocksLike, PebblesLike, WiredTigerLike} {
		specs = append(specs, Spec{
			Name: "table5", Seed: o.Seed, Engine: k, Records: records,
			Gen: ycsbSpecGen('A', ycsb.Uniform, records, 1024), Duration: dur,
		})
	}
	for _, r := range o.runAll(specs...) {
		fmt.Fprintf(w, "%-18s %10s %10s\n", r.EngineName,
			stats.FmtDur(r.Lat.Percentile(0.99)), stats.FmtDur(r.Lat.Max()))
	}
	fmt.Fprintf(w, "\nPaper: KVell 2.4ms/3.9ms; RocksDB 5.4ms/9.6s; PebblesDB 2.8ms/9.4s; WiredTiger 4.7ms/3s.\n")
}

// ycsbByEngine prints a table of YCSB A–F by AllEngines, label column width
// wide: each workload's row runs spec(workload, engine) for every engine,
// prints the throughputs and, when some other engine did any work, KVell's
// ratio to the best of them.
func ycsbByEngine(o Options, w io.Writer, width int, spec func(wl byte, k EngineKind) Spec) {
	fmt.Fprintf(w, "%-*s", width, "workload")
	for _, k := range AllEngines {
		fmt.Fprintf(w, " %14s", k)
	}
	fmt.Fprintln(w)
	for _, wl := range []byte("ABCDEF") {
		fmt.Fprintf(w, "%-*s", width, fmt.Sprintf("YCSB %c", wl))
		specs := make([]Spec, len(AllEngines))
		for i, k := range AllEngines {
			specs[i] = spec(wl, k)
		}
		var kvellT, best float64
		for i, r := range o.runAll(specs...) {
			fmt.Fprintf(w, " %14s", stats.FmtRate(r.Throughput))
			if AllEngines[i] == KVell {
				kvellT = r.Throughput
			} else if r.Throughput > best {
				best = r.Throughput
			}
		}
		if best > 0 {
			fmt.Fprintf(w, "   KVell/next-best = %.1fx", kvellT/best)
		}
		fmt.Fprintln(w)
	}
}

// fig8 runs the Config-Amazon-8NVMe configuration: 8 drives, more cores.
func fig8(o Options, w io.Writer) {
	records := o.records(160_000)
	dur := o.dur(2 * env.Second)
	fmt.Fprintf(w, "Figure 8: YCSB throughput on Config-Amazon-8NVMe (8 disks, 32 cores, uniform)\n\n")
	ycsbByEngine(o, w, 10, func(wl byte, k EngineKind) Spec {
		return Spec{
			Name: "fig8", Seed: o.Seed, Engine: k, Records: records,
			Profile: device.AmazonNVMe(), NDisks: 8, Cores: 32,
			Clients:  map[bool]int{true: 16, false: 48}[k == KVell],
			Gen:      ycsbSpecGen(wl, ycsb.Uniform, records, 1024),
			Duration: dur,
		}
	})
	fmt.Fprintf(w, "\nPaper: KVell 6.7x RocksDB, 8x PebblesDB, 13x TokuMX, 9.3x WiredTiger on A;\nslightly ahead of RocksDB on E. (Cores scaled 72 -> 32 here; see EXPERIMENTS.md.)\n")
}

// fig9a runs the two Nutanix production workloads.
func fig9a(o Options, w io.Writer) {
	records := o.records(120_000)
	dur := o.dur(3 * env.Second)
	fmt.Fprintf(w, "Figure 9A: Nutanix production workloads (57:41:2 write:read:scan, 250B-1KB items)\n\n")
	fmt.Fprintf(w, "%-12s", "workload")
	for _, k := range AllEngines {
		fmt.Fprintf(w, " %14s", k)
	}
	fmt.Fprintln(w)
	for _, prof := range []nutanix.Profile{nutanix.Workload1, nutanix.Workload2} {
		fmt.Fprintf(w, "production %d", prof)
		var kvellT, rocksT float64
		for _, k := range AllEngines {
			r := Run(Spec{
				Name: "fig9a", Seed: o.Seed, Engine: k, Records: records,
				ItemSize: 512, // sizes are drawn 250B-1KB by the generator
				Gen: func(seed int64) Generator {
					return nutanix.New(prof, records, seed)
				},
				Duration: dur,
			})
			fmt.Fprintf(w, " %14s", stats.FmtRate(r.Throughput))
			if k == KVell {
				kvellT = r.Throughput
			}
			if k == RocksLike {
				rocksT = r.Throughput
			}
		}
		fmt.Fprintf(w, "   KVell/RocksDB = %.1fx\n", kvellT/rocksT)
	}
	fmt.Fprintf(w, "\nPaper: KVell ~4x RocksDB (the next best) on both workloads.\n")
}

// fig9b scales the dataset up with a fixed small cache (0.6%% cached, as in
// the paper's 5TB/30GB configuration) to test scaling with dataset size.
func fig9b(o Options, w io.Writer) {
	records := o.records(2_000_000)
	dur := o.dur(2 * env.Second)
	fmt.Fprintf(w, "Figure 9B: KVell on a large dataset (Config-Amazon-8NVMe, %d records, cache 0.6%%)\n", records)
	fmt.Fprintf(w, "(values null-backed: timing and I/O pattern are unaffected; see DESIGN.md)\n\n")
	for _, wl := range []byte{'A', 'C', 'E'} {
		r := Run(Spec{
			Name: "fig9b", Seed: o.Seed, Engine: KVell, Records: records,
			Profile: device.AmazonNVMe(), NDisks: 8, Cores: 32, Clients: 16,
			CacheFrac:  0.006,
			NullBacked: true,
			Gen:        ycsbSpecGen(wl, ycsb.Uniform, records, 1024),
			Duration:   dur,
		})
		st := r.Engine.(*core.Store).Stats()
		fmt.Fprintf(w, "YCSB %c: %s ops/s  (index %dMB for %d items)\n",
			wl, stats.FmtRate(r.Throughput), st.IndexBytes>>20, st.Items)
	}
	fmt.Fprintf(w, "\nPaper (5B keys): 866K req/s on A (92%% of peak), 2.7M on C, 52K scans/s on E —\nslightly below the small-dataset numbers because lookups in bigger indexes cost ~25%% more.\n")
}

// fig10 sweeps item size on YCSB E: sorted RocksDB reads several small
// items per page; unsorted KVell always reads one page per item.
func fig10(o Options, w io.Writer) {
	dur := o.dur(4 * env.Second)
	fmt.Fprintf(w, "Figure 10: YCSB E (scan-dominated) throughput vs item size\n\n")
	fmt.Fprintf(w, "%-10s %14s %14s %20s\n", "item size", "KVell", "RocksDB-like", "RocksDB-min(compact)")
	for _, size := range []int{64, 256, 1024, 4096} {
		records := int64(64 << 20 / size) // constant ~64MB dataset
		if o.Quick {
			records /= 2
		}
		var kvellT float64
		var rocksAvg, rocksMin float64
		for _, k := range []EngineKind{KVell, RocksLike} {
			r := Run(Spec{
				Name: "fig10", Seed: o.Seed, Engine: k,
				Records: records, ItemSize: size,
				Gen:      ycsbSpecGen('E', ycsb.Uniform, records, size),
				Duration: dur, Warmup: dur / 8,
			})
			if k == KVell {
				kvellT = r.Throughput
			} else {
				rocksAvg = r.Throughput
				rocksMin, _ = r.Timeline.MinMax(1)
			}
		}
		fmt.Fprintf(w, "%-10d %14s %14s %20s\n", size,
			stats.FmtRate(kvellT), stats.FmtRate(rocksAvg), stats.FmtRate(rocksMin))
	}
	fmt.Fprintf(w, "\nPaper: RocksDB wins for small items (reads 64x fewer pages at 64B), the advantage\nvanishes as items grow; KVell is flat and never collapses during compactions.\n")
}

// table6 models the in-memory index under memory pressure: B-tree nodes
// beyond the RAM budget fault through the kernel (the index is allocated
// from an mmap-ed file, §5.3).
func table6(o Options, w io.Writer) {
	dur := o.dur(env.Second)
	fmt.Fprintf(w, "Table 6: index lookups/s vs index-size/RAM ratio (Config-Amazon-8NVMe)\n\n")
	fmt.Fprintf(w, "%-18s %12s %12s\n", "indexSize/RAM", "Zipf ops/s", "Uniform ops/s")
	const depth = 5
	for _, ratio := range []float64{0.8, 1.03, 1.2, 2.6, 5.0} {
		row := make(map[string]float64)
		for _, dist := range []string{"zipf", "uniform"} {
			s := sim.New(o.Seed + 31)
			e := sim.NewEnv(s, 32)
			prof := device.AmazonNVMe()
			prof.SpikeEvery = 0
			d := device.NewSimDisk(s, prof, device.NullStore{})
			resident := 1.0
			if ratio > 1 {
				resident = 1 / ratio
			}
			skew := 1.0
			if dist == "zipf" {
				skew = 0.3 // hot nodes stay resident
			}
			var ops int64
			workers := 32
			sio := device.NewSyncIO(e)
			for i := 0; i < workers; i++ {
				i := i
				e.Go("lookup", func(c env.Ctx) {
					r := rand.New(rand.NewSource(int64(i)*17 + o.Seed))
					buf := make([]byte, device.PageSize)
					for c.Now() < dur {
						c.CPU(depth * costs.BTreeNode)
						// The two top levels are always hot; deeper nodes
						// fault with probability (1-resident)*skew each.
						for lvl := 0; lvl < depth-2; lvl++ {
							if r.Float64() < (1-resident)*skew {
								c.CPU(costs.MmapFault)
								sio.Do(c, d, device.Read, r.Int63n(1<<31), buf)
							}
						}
						ops++
					}
				})
			}
			must(s.Run(dur))
			s.Close()
			row[dist] = float64(ops) / (float64(dur) / float64(env.Second))
		}
		fmt.Fprintf(w, "%-18.2f %12s %12s\n", ratio, stats.FmtRate(row["zipf"]), stats.FmtRate(row["uniform"]))
	}
	fmt.Fprintf(w, "\nPaper: 0.8 -> 24M/15M; 1.03 -> 2.4M/1.4M; 1.2 -> 614K/540K; 2.6 -> 348K/156K; 5.0 -> 280K/109K.\n")
}

// batchLat reproduces §6.5.1: batch 64 maximizes bandwidth at 158us average
// latency; batch 32 halves latency at 88%% of bandwidth.
func batchLat(o Options, w io.Writer) {
	records := o.records(100_000)
	dur := o.dur(2 * env.Second)
	fmt.Fprintf(w, "Batch size trade-off (§6.5.1): YCSB A uniform on Config-Optane\n\n")
	fmt.Fprintf(w, "%-8s %12s %12s %12s\n", "batch", "throughput", "avg lat", "device util")
	for _, batch := range []int{64, 32} {
		r := Run(Spec{
			Name: "batchlat", Seed: o.Seed, Engine: KVell, Records: records,
			Gen:        ycsbSpecGen('A', ycsb.Uniform, records, 1024),
			Duration:   dur,
			Window:     batch / 2,
			TweakKVell: func(c *core.Config) { c.BatchSize = batch },
		})
		fmt.Fprintf(w, "%-8d %12s %12s %11.0f%%\n", batch,
			stats.FmtRate(r.Throughput), stats.FmtDur(r.Lat.Mean()),
			100*r.DiskUtil.MeanFraction(1))
	}
	fmt.Fprintf(w, "\nPaper: batch 64 -> 158us average latency at full bandwidth; batch 32 -> 76us at 88%%.\n")
}

// ablationCache compares the page-cache index structures (§5.3): the hash
// table's growth pauses blow up tail latency; the B-tree stays flat.
func ablationCache(o Options, w io.Writer) {
	records := o.records(120_000)
	dur := o.dur(4 * env.Second)
	fmt.Fprintf(w, "Ablation: page-cache index structure (YCSB B uniform; §5.3 anecdote)\n\n")
	fmt.Fprintf(w, "%-10s %12s %12s %12s\n", "index", "throughput", "p99", "max")
	for _, kind := range []pagecache.IndexKind{pagecache.IndexBTree, pagecache.IndexHash} {
		name := "B-tree"
		if kind == pagecache.IndexHash {
			name = "hash"
		}
		r := Run(Spec{
			Name: "ablation-cache", Seed: o.Seed, Engine: KVell, Records: records,
			Gen:        ycsbSpecGen('B', ycsb.Uniform, records, 1024),
			Duration:   dur,
			TweakKVell: func(c *core.Config) { c.CacheIndex = kind },
		})
		fmt.Fprintf(w, "%-10s %12s %12s %12s\n", name,
			stats.FmtRate(r.Throughput), stats.FmtDur(r.Lat.Percentile(0.99)), stats.FmtDur(r.Lat.Max()))
	}
	fmt.Fprintf(w, "\nPaper: hash-table growth caused up to 100ms insertions; switching to a B-tree removed the spikes.\n")
}

// ablationBatch sweeps the I/O batch size.
func ablationBatch(o Options, w io.Writer) {
	records := o.records(100_000)
	dur := o.dur(env.Second)
	fmt.Fprintf(w, "Ablation: I/O batch size sweep (YCSB A uniform)\n\n")
	fmt.Fprintf(w, "%-8s %12s %12s\n", "batch", "throughput", "avg lat")
	for _, batch := range []int{1, 4, 16, 32, 64, 128} {
		r := Run(Spec{
			Name: "ablation-batch", Seed: o.Seed, Engine: KVell, Records: records,
			Gen:        ycsbSpecGen('A', ycsb.Uniform, records, 1024),
			Duration:   dur,
			Window:     max(batch/2, 1),
			TweakKVell: func(c *core.Config) { c.BatchSize = batch },
		})
		fmt.Fprintf(w, "%-8d %12s %12s\n", batch, stats.FmtRate(r.Throughput), stats.FmtDur(r.Lat.Mean()))
	}
	fmt.Fprintf(w, "\nBatching amortizes syscall CPU (§4.3): throughput should rise steeply from 1 to ~64,\nwhile average latency grows with queue depth.\n")
}

// ablationCommitLog measures what §4.4 avoids: adding a commit log to
// KVell doubles write I/O and costs throughput.
func ablationCommitLog(o Options, w io.Writer) {
	records := o.records(100_000)
	dur := o.dur(2 * env.Second)
	fmt.Fprintf(w, "Ablation: KVell with vs without a commit log (YCSB A uniform)\n\n")
	for _, withLog := range []bool{false, true} {
		r := Run(Spec{
			Name: "ablation-commitlog", Seed: o.Seed, Engine: KVell, Records: records,
			Gen:        ycsbSpecGen('A', ycsb.Uniform, records, 1024),
			Duration:   dur,
			TweakKVell: func(c *core.Config) { c.WithCommitLog = withLog },
		})
		name := "no commit log (KVell)"
		if withLog {
			name = "with commit log"
		}
		fmt.Fprintf(w, "%-24s %12s ops/s  avg lat %s\n", name,
			stats.FmtRate(r.Throughput), stats.FmtDur(r.Lat.Mean()))
	}
	fmt.Fprintf(w, "\n§4.4: removing the commit log leaves all disk bandwidth for useful work.\n")
}

// ablationWorkers shows shared-nothing scaling across workers.
func ablationWorkers(o Options, w io.Writer) {
	records := o.records(100_000)
	dur := o.dur(env.Second)
	fmt.Fprintf(w, "Ablation: KVell worker scaling (YCSB A uniform, 8 cores)\n\n")
	fmt.Fprintf(w, "%-10s %12s\n", "workers", "throughput")
	for _, workers := range []int{1, 2, 4, 8} {
		r := Run(Spec{
			Name: "ablation-workers", Seed: o.Seed, Engine: KVell, Records: records,
			Gen:        ycsbSpecGen('A', ycsb.Uniform, records, 1024),
			Duration:   dur,
			TweakKVell: func(c *core.Config) { c.Workers = workers },
		})
		fmt.Fprintf(w, "%-10d %12s\n", workers, stats.FmtRate(r.Throughput))
	}
	fmt.Fprintf(w, "\nEach worker owns its partition (§4.1); throughput scales until the device saturates.\n")
}

// ablationShared contrasts KVell's shared-nothing design with the
// conventional shared-structures design (§4.1): same worker count, but one
// index/cache/slab set behind a global lock.
func ablationShared(o Options, w io.Writer) {
	records := o.records(100_000)
	dur := o.dur(env.Second)
	fmt.Fprintf(w, "Ablation: shared-nothing vs shared-everything (YCSB A uniform, 8 workers)\n\n")
	for _, shared := range []bool{false, true} {
		r := Run(Spec{
			Name: "ablation-shared", Seed: o.Seed, Engine: KVell, Records: records,
			Gen:        ycsbSpecGen('A', ycsb.Uniform, records, 1024),
			Duration:   dur,
			TweakKVell: func(c *core.Config) { c.SharedEverything = shared },
		})
		name := "shared-nothing (KVell)"
		if shared {
			name = "shared-everything"
		}
		fmt.Fprintf(w, "%-24s %12s ops/s  p99 %s\n", name,
			stats.FmtRate(r.Throughput), stats.FmtDur(r.Lat.Percentile(0.99)))
	}
	fmt.Fprintf(w, "\n§4.1: partitioning all structures per worker removes synchronization from the common path.\n")
}

// ablationInPlace measures the §5.6 power-failure-safe variant: every
// update becomes append+tombstone instead of an in-place page write.
func ablationInPlace(o Options, w io.Writer) {
	records := o.records(100_000)
	dur := o.dur(env.Second)
	fmt.Fprintf(w, "Ablation: in-place updates vs append+tombstone (YCSB A uniform)\n\n")
	for _, noInPlace := range []bool{false, true} {
		r := Run(Spec{
			Name: "ablation-inplace", Seed: o.Seed, Engine: KVell, Records: records,
			Gen:        ycsbSpecGen('A', ycsb.Uniform, records, 1024),
			Duration:   dur,
			TweakKVell: func(c *core.Config) { c.NoInPlaceUpdates = noInPlace },
		})
		name := "in-place (KVell default)"
		if noInPlace {
			name = "append+tombstone (power-failure-safe)"
		}
		c := r.Disks[0].Counters()
		fmt.Fprintf(w, "%-40s %12s ops/s  %.2f writes/op\n", name,
			stats.FmtRate(r.Throughput), float64(c.WriteOps)/float64(r.Ops))
	}
	fmt.Fprintf(w, "\n§5.6: the variant lifts the atomic-4KB-write assumption at the cost of extra tombstone writes.\n")
}
