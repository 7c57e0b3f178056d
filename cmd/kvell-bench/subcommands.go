package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"kvell/internal/env"
	"kvell/internal/harness"
	"kvell/internal/trace"
	"kvell/internal/ycsb"
)

// floatList is a comma-separated list flag; left empty it means "use the
// sweep's default list".
type floatList []float64

func (l *floatList) String() string { return fmt.Sprint([]float64(*l)) }

func (l *floatList) Set(s string) error {
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return err
		}
		*l = append(*l, v)
	}
	return nil
}

// absorbCmd runs the write-absorption sweep: open-loop update-only Zipfian
// workloads across skew × arrival rate × commit interval, reporting
// device-write reduction, goodput and tail latency per cell (DESIGN.md §11;
// `-exp absorb` is the default grid).
func absorbCmd(fs *flag.FlagSet) func(harness.Options, io.Writer) int {
	var ao harness.AbsorbOpts
	var ivs floatList
	fs.Var((*floatList)(&ao.Rates), "rate", "comma-separated arrival rates, ops per virtual second")
	fs.Var((*floatList)(&ao.Thetas), "skew", "comma-separated zipfian thetas")
	fs.Var(&ivs, "interval-us", "comma-separated commit intervals in microseconds (0 = absorption off)")
	return func(o harness.Options, w io.Writer) int {
		for _, us := range ivs {
			ao.Intervals = append(ao.Intervals, env.Time(us)*env.Microsecond)
		}
		harness.AbsorbReport(o, ao, w)
		return 0
	}
}

// tierCmd runs the hot/cold tiering sweep: open-loop read-mostly Zipfian
// workloads on the slow cold-SSD profile across skew × hot-tier size, every
// engine untiered as a baseline (DESIGN.md §12; `-exp tiering` is the
// default grid).
func tierCmd(fs *flag.FlagSet) func(harness.Options, io.Writer) int {
	var to harness.TierOpts
	fs.Var((*floatList)(&to.Thetas), "theta", "comma-separated zipfian thetas")
	fs.Var((*floatList)(&to.CacheMB), "cachemb", "comma-separated hot-tier sizes in MB (0 = tiering off)")
	fs.Float64Var(&to.Rate, "rate", 0, "open-loop arrival rate, ops per virtual second (0 = default)")
	return func(o harness.Options, w io.Writer) int {
		harness.TierReport(o, to, w)
		return 0
	}
}

// clusterCmd runs the multi-machine experiment: a weak-scaling sweep of the
// share-nothing sharded KVell over -machines simulated machines, then a
// kill-one-machine failover verification (DESIGN.md §13). Every row prints
// the digest a rerun at the same -seed must reproduce.
func clusterCmd(fs *flag.FlagSet) func(harness.Options, io.Writer) int {
	var (
		machines = fs.String("machines", "1,2,4,8", "comma-separated server machine counts to sweep")
		rf       = fs.Int("rf", 1, "replication factor for the sweep (leader + rf-1 followers)")
		records  = fs.Int64("records", 50_000, "records per machine (weak scaling)")
		durMS    = fs.Int64("dur-ms", 1_000, "workload duration per run, in virtual milliseconds")
		failover = fs.Bool("failover", true, "also run the kill-one-machine failover verification")
		killRF   = fs.Int("failover-rf", 2, "replication factor for the failover run")
	)
	return func(o harness.Options, w io.Writer) int {
		recs, dur := *records, env.Time(*durMS)*env.Millisecond
		if o.Quick {
			recs = min(recs, 20_000)
			dur = min(dur, 400*env.Millisecond)
		}
		var counts []int
		for _, f := range strings.Split(*machines, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "bad -machines entry %q\n", f)
				return 2
			}
			counts = append(counts, n)
		}
		spec := harness.ClusterSpec{RF: *rf, Seed: o.Seed, RecordsPerMachine: recs, Duration: dur}

		t0 := time.Now()
		if harness.ScalingReport(spec, counts, w) != nil {
			return 1
		}

		if *failover {
			spec.Machines = max(2, counts[len(counts)-1])
			spec.RF, spec.Failover, spec.KillMachine = *killRF, true, 1
			if harness.FailoverReport(spec, w) != nil {
				return 1
			}
		}
		fmt.Fprintf(w, "\n(%.1fs wall)\n", time.Since(t0).Seconds())
		return 0
	}
}

// txnCmd runs the transactional workloads: by default the txn experiment
// (conflict-rate × transaction-size sweep plus the cross-shard cluster kill);
// with -crash the transactional crash sweep (kill the store mid-commit at
// seeded points, recover, verify conservation and that no acknowledged
// transaction is visible half-applied); with -bank one bank run.
func txnCmd(fs *flag.FlagSet) func(harness.Options, io.Writer) int {
	var (
		crash   = fs.Bool("crash", false, "run the transactional crash sweep instead of the experiment")
		bank    = fs.Bool("bank", false, "run a single bank point instead of the experiment")
		points  = fs.Int("k", 25, "seeded crash points (with -crash)")
		point   = fs.Int("point", 0, "run only this 1-based crash point (failure repro)")
		theta   = fs.Float64("theta", 0.5, "hot-set draw probability (with -bank)")
		size    = fs.Int("size", 2, "accounts per transfer (with -bank)")
		moves   = fs.Int("transfers", 50, "transfers per mover (with -bank)")
		verbose = fs.Bool("v", false, "print one line per surviving crash point")
	)
	return func(o harness.Options, w io.Writer) int {
		start := time.Now()
		switch {
		case *crash:
			so := harness.SweepOpts{Points: *points, Seed: o.Seed, Point: *point, Verbose: *verbose}
			if fails := harness.TxnCrashSweep(so, w); fails > 0 {
				fmt.Fprintf(w, "\ntxn crash sweep FAILED: %d failing point(s) (seed %d)\n", fails, o.Seed)
				return 1
			}
			fmt.Fprintf(w, "txn crash sweep passed: %d point(s), seed %d, %.1fs\n",
				pointsRun(so), o.Seed, time.Since(start).Seconds())
		case *bank:
			res, err := harness.RunTxnBank(harness.TxnBankSpec{
				Seed:      o.Seed,
				Theta:     *theta,
				TxnSize:   *size,
				Transfers: *moves,
			})
			if err != nil {
				fmt.Fprintf(w, "txnbank FAILED: %v\n", err)
				return 1
			}
			fmt.Fprintf(w, "txnbank ok: committed=%d conflicts=%d aborts=%d audits=%d gc-freed=%d digest=%016x\n",
				res.Committed, res.Conflicts, res.Aborts, res.Audits, res.GCFreed, res.Digest)
		default:
			ex, _ := harness.Find("txn")
			ex.Run(o, w)
		}
		return 0
	}
}

// pointsRun is how many points a sweep visits.
func pointsRun(so harness.SweepOpts) int {
	if so.Point > 0 {
		return 1
	}
	return so.Points
}

// traceCmd runs one YCSB run per engine with span tracing enabled and writes
// the observability artifacts (DESIGN.md §10):
//
//	trace_<engine>.json     Chrome trace-event JSON; open in Perfetto
//	                        (ui.perfetto.dev) or chrome://tracing
//	breakdown_<engine>.txt  per-component latency attribution table
//
// Everything in the artifacts is virtual time: the traces are bit-identical
// across runs at a fixed seed, and tracing never perturbs the simulated
// schedule (the untraced run's golden digests hold with tracing on).
func traceCmd(fs *flag.FlagSet) func(harness.Options, io.Writer) int {
	var (
		engines  = fs.String("engine", "rocksdb,kvell", "comma-separated engines: kvell, rocksdb, pebblesdb, wiredtiger, tokumx")
		workload = fs.String("workload", "A", "YCSB core workload (A-F)")
		dist     = fs.String("dist", "uniform", "key distribution: uniform or zipfian")
		records  = fs.Int64("records", 100_000, "dataset size in records")
		item     = fs.Int("item", 1024, "item size in bytes")
		dur      = fs.Duration("dur", 3*time.Second, "measured duration (virtual time)")
		warmup   = fs.Duration("warmup", 0, "warmup (virtual time; default duration/4)")
		sample   = fs.Int("sample", 32, "trace 1 request in N (head sampling by sequence number)")
		outDir   = fs.String("o", ".", "output directory for trace and breakdown files")
	)
	return func(o harness.Options, w io.Writer) int {
		d := ycsb.Uniform
		switch strings.ToLower(*dist) {
		case "uniform":
		case "zipfian":
			d = ycsb.Zipfian
		default:
			fmt.Fprintf(os.Stderr, "unknown distribution %q\n", *dist)
			return 2
		}
		if len(*workload) != 1 || (*workload)[0] < 'A' || (*workload)[0] > 'F' {
			fmt.Fprintf(os.Stderr, "workload must be a letter A-F, got %q\n", *workload)
			return 2
		}
		wl := (*workload)[0]
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "output dir: %v\n", err)
			return 1
		}

		for _, name := range strings.Split(*engines, ",") {
			k, ok := harness.ParseEngineFlag(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown engine %q\n", name)
				return 2
			}
			tr := trace.NewTracer(*sample)
			r := harness.Run(harness.Spec{
				Name: "kvell-trace", Seed: o.Seed, Engine: k, Records: *records,
				ItemSize: *item,
				Gen: func(seed int64) harness.Generator {
					return ycsb.NewGenerator(ycsb.Core(wl), d, *records, *item, seed)
				},
				Warmup:   env.Time(*warmup),
				Duration: env.Time(*dur),
				Tracer:   tr,
			})
			harness.ReportTrace(w, r, tr)

			// slug maps the engine display name to a filename fragment.
			slug := strings.ToLower(strings.TrimSuffix(r.EngineName, "-like"))
			tracePath := filepath.Join(*outDir, "trace_"+slug+".json")
			tablePath := filepath.Join(*outDir, "breakdown_"+slug+".txt")
			var chrome, table bytes.Buffer
			err := tr.WriteChrome(&chrome)
			if err == nil {
				err = os.WriteFile(tracePath, chrome.Bytes(), 0o644)
			}
			fmt.Fprintf(&table, "%s, YCSB %c %s, %d records, seed %d\n",
				r.EngineName, wl, strings.ToLower(*dist), *records, o.Seed)
			tr.WriteBreakdownTable(&table)
			if err == nil {
				err = os.WriteFile(tablePath, table.Bytes(), 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "write: %v\n", err)
				return 1
			}
			fmt.Fprintf(w, "  wrote %s and %s\n\n", tracePath, tablePath)
		}
		fmt.Fprintln(w, "open the .json files at https://ui.perfetto.dev (or chrome://tracing)")
		return 0
	}
}

// crashCmd runs the crash–recover–verify sweep: it kills each engine at
// seeded points mid-workload, reboots it on the power-loss disk images, and
// verifies that every acknowledged write survived, no torn value surfaced,
// and (for KVell) the rebuilt metadata is consistent (DESIGN.md §9). Every
// crash point, torn-write pattern and post-recovery digest derives from
// -seed alone, so the repro line printed on failure replays the same crash.
func crashCmd(fs *flag.FlagSet) func(harness.Options, io.Writer) int {
	var (
		engine   = fs.String("engine", "all", "engine to crash: kvell, rocks, pebbles, wt, toku, or all")
		points   = fs.Int("k", 25, "seeded crash points per engine")
		records  = fs.Int64("records", 8_000, "records in the store under test")
		point    = fs.Int("point", 0, "run only this 1-based point (failure repro)")
		verbose  = fs.Bool("v", false, "print one line per surviving crash point")
		absorbUS = fs.Int64("absorb-us", 50, "commit interval (µs) for the extra KVell+absorb pass; 0 skips it")
		hotMB    = fs.Int64("hot-mb", 4, "hot-cache size (MB) for the extra KVell+hotcache passes; 0 skips them")
	)
	return func(o harness.Options, w io.Writer) int {
		kinds := harness.AllEngines
		if *engine != "all" {
			k, ok := harness.ParseEngineFlag(*engine)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown engine %q (want kvell, rocks, pebbles, wt, toku, all)\n", *engine)
				return 2
			}
			kinds = []harness.EngineKind{k}
		}
		so := harness.SweepOpts{
			Points:  *points,
			Seed:    o.Seed,
			Records: *records,
			Point:   *point,
			Verbose: *verbose,
		}
		failures := 0
		start := time.Now()
		var names []string
		sweep := func(k harness.EngineKind, name string, absorb env.Time, hot int64) {
			so.AbsorbInterval, so.TieredHotBytes = absorb, hot
			failures += harness.CrashSweep(k, so, w)
			names = append(names, k.String()+name)
		}
		for _, k := range kinds {
			sweep(k, "", 0, 0)
		}
		// KVell runs extra passes with its front ends enabled: absorbed-then-
		// acked writes must survive a crash landing mid-group-commit, and the
		// hot-key cache must never be what satisfies the acked-write check —
		// recovery rebuilds from disk alone, so a cached-but-unflushed value
		// that mattered would surface here as a lost or impossible version.
		absorb, hot := env.Time(*absorbUS)*env.Microsecond, *hotMB<<20
		for _, k := range kinds {
			if k != harness.KVell {
				continue
			}
			if absorb > 0 {
				sweep(k, "+absorb", absorb, 0)
			}
			if hot > 0 {
				sweep(k, "+hotcache", 0, hot)
			}
			if absorb > 0 && hot > 0 {
				sweep(k, "+absorb+hotcache", absorb, hot)
			}
		}
		if failures > 0 {
			fmt.Fprintf(w, "\ncrash sweep FAILED: %d failing point(s) (seed %d); rerun locally with make crash-sweep SEED=%d\n",
				failures, o.Seed, o.Seed)
			return 1
		}
		fmt.Fprintf(w, "crash sweep passed: %d point(s) x [%s], seed %d, %.1fs\n",
			pointsRun(so), strings.Join(names, ", "), o.Seed, time.Since(start).Seconds())
		return 0
	}
}
