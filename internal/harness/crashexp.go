package harness

import (
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"

	"kvell/internal/core"
	"kvell/internal/env"
	"kvell/internal/fault"
	"kvell/internal/kv"
	"kvell/internal/stats"
	"kvell/internal/ycsb"
)

// CrashSpec describes one crash–recover–verify run: an engine under a
// closed-loop update/get workload is killed at the AtWrite-th device write,
// reopened against the power-loss disk images, and every key is read back
// and checked against a shadow model of acknowledged versions.
type CrashSpec struct {
	Engine  EngineKind
	Seed    int64
	Records int64
	// AtWrite kills the machine when the Nth timed device write is
	// submitted (1-based, counted across all disks).
	AtWrite int64
	// AbsorbInterval enables KVell's write-absorption front end (0 = off).
	// Absorbed writes are acknowledged only when their group commit settles,
	// so the same verification applies: no acked version may be lost, even
	// when the crash lands in the middle of a multi-write group commit.
	AbsorbInterval env.Time
	// TieredHotBytes enables KVell's hot-key cache (0 = off). The cache is
	// a read accelerator, never a durability layer: a cached-but-unflushed
	// value must never be what makes the acked-write check pass, because
	// recovery rebuilds from disk alone and the cache starts empty.
	TieredHotBytes int64
}

// The crash machine and its workload: crashClients closed-loop clients, each
// crashWindow requests deep, on a crashCores-core machine with crashNDisks
// disks, over values of crashItemSize bytes and up (see crashValSize).
const (
	crashItemSize = 256
	crashClients  = 4
	crashWindow   = 4
	crashNDisks   = 2
	crashCores    = 4
)

func (cs *CrashSpec) defaults() {
	def(&cs.Records, 8_000)
	def(&cs.AtWrite, 1_000)
}

// crashValSize is the deterministic value size for version v of record k.
// Sizes hop between two sub-page size classes (so KVell exercises both
// in-place updates and append+tombstone migration) and every 89th key is
// multi-page (so a crash can tear it across its pages).
func crashValSize(k int64, v uint64) int {
	if k%89 == 0 {
		return crashItemSize + 5_000
	}
	if (uint64(k)+v)%4 >= 2 {
		return crashItemSize * 2
	}
	return crashItemSize
}

// CrashResult is one run's outcome. Digest is an FNV-1a fingerprint of the
// crash schedule and the fully recovered state: equal seeds must produce
// equal digests, which the determinism regression test enforces.
type CrashResult struct {
	Engine    string
	Seed      int64
	AtWrite   int64
	CrashTime env.Time
	Fault     fault.Stats
	// AckedUpdates/IssuedUpdates count workload updates whose Done
	// callback ran / that were submitted, over the whole run.
	AckedUpdates  int64
	IssuedUpdates int64
	// Replayed is what the engine's recovery path reported: items scanned
	// (KVell) or log records replayed from the log's valid prefix
	// (baselines).
	Replayed int64
	// HotHits is how often the hot-key cache served a read before the crash
	// (KVell with TieredHotBytes only) — proof the sweep exercised it.
	HotHits int64
	// RecoverTime is the virtual time the reopen-and-recover step took.
	RecoverTime env.Time
	Digest      uint64
}

// RunCrash executes one crash–recover–verify cycle. The returned error is a
// verification failure (acknowledged write lost, torn value surfaced,
// inconsistent metadata) or a harness problem (crash point never reached);
// nil means the engine survived this crash.
func RunCrash(spec CrashSpec) (CrashResult, error) {
	spec.defaults()
	res := CrashResult{Engine: spec.Engine.String(), Seed: spec.Seed, AtWrite: spec.AtWrite}
	sh := newShadow(spec.Records, crashValSize)

	// First life: run the workload until the machine dies.
	tb := NewTestbed(spec.Seed, spec.AtWrite, crashCores, crashNDisks)
	hs := crashHarnessSpec(&spec)
	eng := buildEngine(tb.Env, hs, tb.Disks)
	items := make([]kv.Item, spec.Records)
	for i := int64(0); i < spec.Records; i++ {
		items[i] = kv.Item{Key: kv.Key(i), Value: sh.fillVal(nil, i, 1)}
	}
	tb.Load(eng, items)

	e1 := tb.Env
	for ci := 0; ci < crashClients; ci++ {
		e1.Go(fmt.Sprintf("crash-client-%d", ci), func(c env.Ctx) {
			shadowClient(c, sh, shadowWindow(e1, sh, crashWindow, nil), eng, nil, spec.Seed, ci, crashClients, crashHorizon)
		})
	}
	if err := tb.Crash(); err != nil {
		return res, fmt.Errorf("%s: %v", res.Engine, err)
	}
	res.CrashTime, res.Fault = tb.Inj.CrashTime(), tb.Inj.Stats()
	res.IssuedUpdates, res.AckedUpdates = sh.nIssuedUpdates, sh.nAckedUpdates
	if st, ok := eng.(*core.Store); ok {
		res.HotHits = st.Stats().HotHits
	}

	// Second life: run the engine's recovery path on the power-loss images
	// and read back every key through the engine.
	tb.Reboot()
	eng2 := buildEngine(tb.Env, hs, tb.Disks)
	var recVer []uint64
	var vd verdict
	tb.Recover("crash-recover", func(c env.Ctx) {
		t0 := c.Now()
		n, err := recoverEngine(c, spec.Engine, eng2)
		if err != nil {
			vd.failf("recover: %v", err)
			return
		}
		res.Replayed, res.RecoverTime = n, c.Now()-t0
		if st, ok := eng2.(*core.Store); ok {
			if err := st.CheckConsistency(); err != nil {
				vd.failf("post-recovery consistency: %v", err)
			}
		}

		eng2.Start()
		all := func(i int) int64 { return int64(i) }
		recVer = readBack(c, tb.Env, sh, eng2, int(spec.Records), all, func(k int64, ver uint64, out kv.Result) {
			if !out.Found {
				vd.failf("key %d lost: acked version %d (issued %d)", k, sh.acked[k], sh.issued[k])
			} else if ver == 0 {
				vd.failf("key %d recovered to an impossible value (%dB; acked %d, issued %d)",
					k, len(out.Value), sh.acked[k], sh.issued[k])
			}
		})
		eng2.Stop(c)
	})
	tb.Close()

	h := stats.NewFNV()
	h.Words(uint64(res.CrashTime), uint64(res.Fault.Writes), uint64(res.Fault.InFlight),
		uint64(res.Fault.Completed), uint64(res.Fault.Dropped), uint64(res.Fault.Torn), uint64(res.Fault.LostPost),
		uint64(res.AckedUpdates), uint64(res.IssuedUpdates), uint64(res.Replayed), uint64(res.RecoverTime))
	h.Words(recVer...)
	res.Digest = uint64(h)

	return res, vd.err("%s seed=%d atwrite=%d", res.Engine, spec.Seed, spec.AtWrite)
}

// recoverEngine runs kind's recovery path on eng, freshly built over a
// crashed machine's disks, and returns what it rebuilt from: items scanned
// (KVell's full-scan Recover) or log records replayed (the baselines'
// ReplayLog).
func recoverEngine(c env.Ctx, kind EngineKind, eng kv.Engine) (int64, error) {
	if kind == KVell {
		st := eng.(*core.Store)
		err := st.Recover(c)
		return st.Stats().Items, err
	}
	return int64(eng.(interface{ ReplayLog(env.Ctx) int }).ReplayLog(c)), nil
}

// crashHarnessSpec maps a CrashSpec onto the benchmark Spec that
// buildEngine consumes, giving every baseline's log a group size of 0, so
// each record's chunk completes before its operation is acknowledged (KVell
// is durable by construction — no commit log, acknowledgements only after
// the final-location write).
func crashHarnessSpec(cs *CrashSpec) *Spec {
	hs := &Spec{
		Engine:        cs.Engine,
		Seed:          cs.Seed,
		Cores:         crashCores,
		Records:       cs.Records,
		ItemSize:      crashItemSize,
		CacheFrac:     1.0 / 3,
		UngroupedLogs: true,
	}
	if cs.AbsorbInterval > 0 || cs.TieredHotBytes > 0 {
		hs.TweakKVell = func(c *core.Config) {
			c.AbsorbInterval = cs.AbsorbInterval
			if cs.TieredHotBytes > 0 {
				c.TieredHotBytes = cs.TieredHotBytes
				c.TieredPromoteAfter = 1
				c.TieredSeed = cs.Seed
			}
		}
	}
	return hs
}

// SweepOpts configure CrashSweep.
type SweepOpts struct {
	// Points is how many seeded crash points to run per engine.
	Points int
	// Seed is the master seed; every per-point seed and crash write index
	// derives from it deterministically.
	Seed    int64
	Records int64
	// Point, if > 0, runs only the Point-th point (1-based) — the repro
	// knob the failure message prints (see CrashRepro).
	Point   int
	Verbose bool
	// AbsorbInterval runs every point with KVell's write-absorption front
	// end at this commit interval (0 = off; KVell only).
	AbsorbInterval env.Time
	// TieredHotBytes runs every point with KVell's hot-key cache of this
	// size (0 = off; KVell only).
	TieredHotBytes int64
}

// SweepPoint returns the i-th (1-based) derived crash point for a master
// seed: the per-run seed and the write index to die at. Exposed so a
// failure can be reproduced by index.
func SweepPoint(seed int64, i int) (pointSeed, atWrite int64) {
	// Seeded from the sweep's master seed: derivation must be reproducible.
	rng := rand.New(rand.NewSource(seed * 31337))
	atWrite = 0
	pointSeed = 0
	for j := 1; j <= i; j++ {
		pointSeed = seed + int64(j)*1_000_003
		atWrite = 150 + rng.Int63n(2_850)
	}
	return pointSeed, atWrite
}

// sweep visits o's crash points: run executes one and returns the detail its
// ok line prints under Verbose; a failing point prints its error and repro
// line instead. It returns the number of failing points.
func (o SweepOpts) sweep(w io.Writer, label string, repro func(i int) string, run func(pointSeed, atWrite int64) (string, error)) int {
	def(&o.Points, 25)
	failures := 0
	for i := 1; i <= o.Points; i++ {
		if o.Point > 0 && i != o.Point {
			continue
		}
		detail, err := run(SweepPoint(o.Seed, i))
		if err != nil {
			failures++
			fmt.Fprintf(w, "FAIL %s point %2d/%d: %v\n", label, i, o.Points, err)
			fmt.Fprintf(w, "     repro: %s\n", repro(i))
		} else if o.Verbose {
			fmt.Fprintf(w, "ok   %s point %2d/%d: %s\n", label, i, o.Points, detail)
		}
	}
	return failures
}

// CrashSweep crashes one engine at Points seeded write indices and verifies
// recovery after each. It returns the number of failing points; every
// failure prints the exact command that reproduces it.
func CrashSweep(kind EngineKind, o SweepOpts, w io.Writer) int {
	label := kind.String()
	if o.AbsorbInterval > 0 {
		label += "+absorb"
	}
	if o.TieredHotBytes > 0 {
		label += "+hotcache"
	}
	repro := func(i int) string { return CrashRepro(kind, o, i) }
	return o.sweep(w, fmt.Sprintf("%-16s", label), repro, func(pointSeed, atWrite int64) (string, error) {
		res, err := RunCrash(CrashSpec{
			Engine:         kind,
			Seed:           pointSeed,
			Records:        o.Records,
			AtWrite:        atWrite,
			AbsorbInterval: o.AbsorbInterval,
			TieredHotBytes: o.TieredHotBytes,
		})
		return fmt.Sprintf("crash@%s write=%d inflight=%d (kept %d, dropped %d, torn %d) acked=%d replayed=%d recover=%s digest=%016x",
			stats.FmtDur(res.CrashTime), res.AtWrite, res.Fault.InFlight,
			res.Fault.Completed, res.Fault.Dropped, res.Fault.Torn,
			res.AckedUpdates, res.Replayed, stats.FmtDur(res.RecoverTime), res.Digest), err
	})
}

// CrashRepro is the command line that reruns point i of the sweep o on kind —
// what CrashSweep prints under a failing point.
func CrashRepro(kind EngineKind, o SweepOpts, i int) string {
	line := fmt.Sprintf("go run ./cmd/kvell-bench crash -engine=%s -seed=%d -point=%d",
		engineNames[kind][0], o.Seed, i)
	if o.Records > 0 {
		line += fmt.Sprintf(" -records=%d", o.Records)
	}
	if o.AbsorbInterval > 0 {
		line += fmt.Sprintf(" -absorb-us=%d", int64(o.AbsorbInterval/env.Microsecond))
	}
	if o.TieredHotBytes > 0 {
		line += fmt.Sprintf(" -hot-mb=%d", o.TieredHotBytes>>20)
	}
	return line
}

// engineNames are the -engine spellings every subcommand accepts, by kind;
// the first is the one repro lines print.
var engineNames = map[EngineKind][]string{
	KVell:          {"kvell"},
	RocksLike:      {"rocks", "rocksdb", "lsm"},
	PebblesLike:    {"pebbles", "pebblesdb"},
	WiredTigerLike: {"wt", "wiredtiger", "wtree"},
	TokuLike:       {"toku", "tokumx", "betree"},
}

// ParseEngineFlag maps an -engine spelling (case and surrounding space
// ignored) to its kind; ok is false on an unknown name.
func ParseEngineFlag(name string) (EngineKind, bool) {
	name = strings.ToLower(strings.TrimSpace(name))
	for _, k := range AllEngines {
		for _, n := range engineNames[k] {
			if n == name {
				return k, true
			}
		}
	}
	return 0, false
}

// recoveryScaleExp measures recovery time as the store grows: KVell's
// full-scan index rebuild is bandwidth-bound, so recovery time scales with
// the dataset (§6.6 — the paper recovers 100GB in 6.6s this way). Each
// size crashes a live store mid-workload and times the reopen.
func recoveryScaleExp(o Options, w io.Writer) {
	sizes := []int64{25_000, 50_000, 100_000, 200_000}
	if o.Quick {
		sizes = []int64{10_000, 20_000, 40_000}
	}
	fmt.Fprintf(w, "Recovery time vs store size (§6.6): KVell full-scan rebuild after a mid-workload crash\n\n")
	fmt.Fprintf(w, "%-12s %12s %12s %14s\n", "records", "items", "recover", "items/s")
	for _, n := range sizes {
		res, err := RunCrash(CrashSpec{
			Engine:  KVell,
			Seed:    o.Seed + n,
			Records: n,
			AtWrite: 1_000,
		})
		if err != nil {
			fmt.Fprintf(w, "%-12d FAILED: %v\n", n, err)
			continue
		}
		secs := float64(res.RecoverTime) / float64(env.Second)
		fmt.Fprintf(w, "%-12d %12d %12s %14.0f\n", n, res.Replayed, stats.FmtDur(res.RecoverTime), float64(res.Replayed)/secs)
	}
	fmt.Fprintf(w, "\nPaper: recovery scans the full slabs at device bandwidth; 100GB recovers in 6.6s.\n")
}

// recoveryCrashWrite is where the recovery experiment cuts power. Every
// update of its YCSB A burst costs each engine at least one device write
// (KVell's slab page, a baseline's log chunk), and the burst's ~2,500
// updates pass it.
const recoveryCrashWrite = 2_000

// recoveryExp measures §6.6 through the crash testbed: on the Amazon-8NVMe
// machine, the same YCSB A update burst runs KVell, RocksDB-like and
// WiredTiger-like into a power cut at the same device write, and each
// engine's own recovery path runs on the power-loss images — KVell's full
// slab scan, the baselines' log replay. The baselines' logs run at group
// size 0, as in the crash sweep: their log holds the whole store, bulk load
// included, so replay rebuilds all of it.
func recoveryExp(o Options, w io.Writer) {
	records := o.records(200_000)
	fmt.Fprintf(w, "Recovery (§6.6): crash during YCSB A, %d x 1KB records, Config-Amazon-8NVMe\n\n", records)
	fmt.Fprintf(w, "%-18s %12s %18s %12s %12s\n", "Engine", "recover", "rebuilt from", "read", "per item")
	kinds := []EngineKind{KVell, RocksLike, WiredTigerLike}
	took := make(map[EngineKind]env.Time)
	for _, kind := range kinds {
		hs := crashHarnessSpec(&CrashSpec{Engine: kind, Seed: o.Seed, Records: records})
		hs.Cores, hs.ItemSize = 32, 1024
		tb := NewTestbed(o.Seed, recoveryCrashWrite, hs.Cores, 8)
		eng := buildEngine(tb.Env, hs, tb.Disks)
		gen := ycsb.NewGenerator(ycsb.Core('A'), ycsb.Uniform, records, 1024, o.Seed)
		tb.Load(eng, gen.InitialItems())
		tb.Env.Go("writer", func(c env.Ctx) {
			p := eng.(interface{ Put(env.Ctx, []byte, []byte) })
			for i := 0; i < 5000; i++ {
				if r := gen.Next(); r.Op == kv.OpUpdate {
					p.Put(c, r.Key, r.Value)
				}
			}
		})
		must(tb.Crash())
		tb.Reboot()
		eng2 := buildEngine(tb.Env, hs, tb.Disks)
		var n int64
		tb.Recover("recover", func(c env.Ctx) {
			t0 := c.Now()
			var err error
			n, err = recoverEngine(c, kind, eng2)
			must(err)
			took[kind] = c.Now() - t0
		})
		var read int64
		for _, d := range tb.Disks {
			read += d.Counters().ReadBytes
		}
		tb.Close()
		unit := "records"
		if kind == KVell {
			unit = "items"
		}
		fmt.Fprintf(w, "%-18s %12s %18s %10.1fMB %10.2fus\n", kind, stats.FmtDur(took[kind]),
			fmt.Sprintf("%d %s", n, unit), float64(read)/1e6, float64(took[kind])/float64(n)/float64(env.Microsecond))
	}
	order := slices.Clone(kinds)
	slices.SortStableFunc(order, func(a, b EngineKind) int { return cmp.Compare(took[a], took[b]) })
	names := make([]string, len(order))
	for i, k := range order {
		names[i] = k.String()
	}
	verdict := "holds"
	if !slices.Equal(order, kinds) {
		verdict = "does not hold"
	}
	fmt.Fprintf(w, "\nMeasured order: %s — the paper's order %s.\n", strings.Join(names, " < "), verdict)
	fmt.Fprintf(w, "Paper: KVell 6.6s < RocksDB 18s < WiredTiger 24s on the 100GB database. KVell scans the\nwhole database at device bandwidth; log-replay systems are CPU-bound on record re-insertion.\n")
}
