// Command kvell-bench regenerates the paper's tables and figures and runs
// the per-feature sweeps.
//
// Usage:
//
//	kvell-bench -list
//	kvell-bench -exp fig5 [-quick] [-seed 42]
//	kvell-bench -exp all [-quick] [-parallel 0]
//	kvell-bench -exp table1,table2,table3,fig1,fig2   # device characterization (§2)
//	kvell-bench -exp fig5 -cpuprofile cpu.out -memprofile mem.out
//	kvell-bench <subcommand> [flags]                  # see below; -h lists a subcommand's flags
//
// Each experiment prints a text table with the corresponding paper values
// quoted underneath; EXPERIMENTS.md records a full paper-vs-measured
// comparison.
//
// Subcommands (every one takes -seed, -quick and -parallel):
//
//	absorb   write-absorption sweep: skew x arrival rate x commit interval
//	tier     hot/cold tiering sweep: skew x hot-tier size on the cold-SSD profile
//	cluster  sharded cluster weak-scaling sweep plus kill-one-machine failover
//	txn      transactional bank: conflict sweep, -crash sweep, or one -bank point
//	trace    traced runs: Chrome trace JSON plus latency breakdown per engine
//	crash    crash-recover-verify sweep over seeded crash points per engine
//
// -parallel N runs up to N simulations concurrently (N=0: one per CPU) in
// the experiments and the absorb and tier sweeps; the other subcommands run
// their simulations one after another. Every simulation is single-threaded
// and self-contained, so results are bit-identical at any parallelism;
// experiments still print in request order. Everything is deterministic:
// every schedule, crash point and digest derives from -seed alone. The pprof
// flags profile the run for performance work on the simulator itself.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"kvell/internal/harness"
)

// subcommand registers its own flags on fs and returns the function that
// runs it once the flags are parsed, writing its report to w and returning
// the process exit code.
type subcommand func(fs *flag.FlagSet) func(o harness.Options, w io.Writer) int

var subcommands = map[string]subcommand{
	"exp":     expCmd,
	"absorb":  absorbCmd,
	"tier":    tierCmd,
	"cluster": clusterCmd,
	"txn":     txnCmd,
	"trace":   traceCmd,
	"crash":   crashCmd,
}

// commonFlags declares, once, the flags every subcommand shares.
func commonFlags(fs *flag.FlagSet, o *harness.Options) {
	fs.Int64Var(&o.Seed, "seed", 42, "master seed: every schedule, crash point and digest derives from it")
	fs.BoolVar(&o.Quick, "quick", false, "shorter durations and smaller datasets")
	fs.IntVar(&o.Parallel, "parallel", 1, "concurrent simulations (0 = one per CPU)")
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run executes one kvell-bench command line, writing its report to w, and
// returns the process exit code.
func run(args []string, w io.Writer) int {
	name := "exp"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	sub, ok := subcommands[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown subcommand %q (want absorb, tier, cluster, txn, trace, crash, or -exp)\n", name)
		return 2
	}
	fs := flag.NewFlagSet("kvell-bench "+name, flag.ContinueOnError)
	var o harness.Options
	commonFlags(fs, &o)
	runSub := sub(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	return runSub(o, w)
}

// expCmd is the default subcommand: experiments from the registry.
func expCmd(fs *flag.FlagSet) func(harness.Options, io.Writer) int {
	var (
		exp        = fs.String("exp", "", "experiment id (or 'all')")
		list       = fs.Bool("list", false, "list experiment ids")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	return func(o harness.Options, w io.Writer) int {
		if *list || *exp == "" {
			fmt.Fprintln(w, "experiments:")
			for _, e := range harness.All() {
				fmt.Fprintf(w, "  %-20s %s\n", e.ID, e.Title)
			}
			if *list {
				return 0
			}
			return 2
		}

		var exps []harness.Experiment
		if *exp == "all" {
			exps = harness.All()
		} else {
			for _, id := range strings.Split(*exp, ",") {
				e, ok := harness.Find(strings.TrimSpace(id))
				if !ok {
					fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
					return 2
				}
				exps = append(exps, e)
			}
		}

		if *cpuprofile != "" {
			f, err := os.Create(*cpuprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
				return 1
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
				return 1
			}
			defer pprof.StopCPUProfile()
		}

		runExperiments(exps, o, w)

		if *memprofile != "" {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return 1
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return 1
			}
			f.Close()
		}
		return 0
	}
}

// runExperiments executes exps and writes each banner-wrapped report to w in
// request order. With o.Parallel > 1 experiments also overlap each other (in
// addition to intra-experiment RunAll concurrency), buffering their output
// so the printed stream is unchanged.
func runExperiments(exps []harness.Experiment, o harness.Options, w io.Writer) {
	run := func(e harness.Experiment, w io.Writer) {
		t0 := time.Now()
		fmt.Fprintf(w, "==== %s: %s ====\n", e.ID, e.Title)
		e.Run(o, w)
		fmt.Fprintf(w, "---- (%s wall) ----\n\n", time.Since(t0).Round(time.Millisecond))
	}
	if o.Parallel <= 1 || len(exps) == 1 {
		for _, e := range exps {
			run(e, w)
		}
		return
	}
	bufs := make([]bytes.Buffer, len(exps))
	idx := make(chan int)
	done := make([]chan struct{}, len(exps))
	for i := range done {
		done[i] = make(chan struct{})
	}
	for t := 0; t < o.Parallel; t++ {
		go func() {
			for i := range idx {
				run(exps[i], &bufs[i])
				close(done[i])
			}
		}()
	}
	go func() {
		for i := range exps {
			idx <- i
		}
		close(idx)
	}()
	for i := range exps {
		<-done[i]
		io.Copy(w, &bufs[i])
	}
}
