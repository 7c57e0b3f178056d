// Command kvell-e2e is the repository's end-to-end benchmark: six named
// workloads measured on two clocks (virtual time of the modelled store, host
// time of this Go process), with a separate traced run that attributes both
// to layers. See README.md for the metric tables and how to read them.
//
//	kvell-e2e run      [-seed 1] [-workload all] [-seconds 4] [-reps 1] [-out file]
//	kvell-e2e trace    [-seed 1] [-workload all] [-seconds 4] [-reps 1] [-out file]
//	kvell-e2e layers
//	kvell-e2e selfcheck [-seed 1]
//	kvell-e2e compare a.json b.json
//	kvell-e2e manifest            (prints BENCHMARK.json from the tables here)
//	kvell-e2e bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run and trace start one fresh process per workload and repetition (bench),
// so no run inherits another's heap. bench is also what BENCHMARK.json's
// command reaches through bench.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch cmd, args := os.Args[1], os.Args[2:]; cmd {
	case "bench":
		err = cmdBench(args)
	case "run":
		err = cmdRun(args, 0)
	case "trace":
		err = cmdRun(args, 1)
	case "layers":
		printValues(runProbes(1))
	case "selfcheck":
		err = cmdSelfcheck(args)
	case "compare":
		err = cmdCompare(args)
	case "manifest":
		var out []byte
		if out, err = manifest(); err == nil {
			os.Stdout.Write(out)
		}
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvell-e2e:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: kvell-e2e run|trace|layers|selfcheck|compare|bench [flags]; see README.md")
	os.Exit(2)
}

// hostProcs is GOMAXPROCS for every measured pass. The simulator is one
// logical thread that hands control between goroutines; on two Ps those
// hand-offs cross cores and host time varies by +-10% run to run, on one P by
// +-2%. GC then runs on the measured core, so wall time shows it too.
const hostProcs = 1

// hostGODEBUG makes the runtime hand freed heap back with MADV_FREE, which
// costs nothing until the kernel wants the pages, and not MADV_DONTNEED. A
// run's passes free and regrow the heap by hundreds of MB; on the VM this
// was written on a fresh page fault costs 3 to 16 us depending on the hour,
// and faulting the same pages in again made single passes take twice as long.
const hostGODEBUG = "madvdontneed=0"

// cmdBench is one run of one workload in this process: the timed run
// (--trace 0, end-to-end metrics) or the traced run (--trace 1, per-layer
// metrics). The last line of standard output is the result as JSON.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "workload name")
	seed := new(int64)
	*seed = 1
	fs.Func("seed", "seed of every generated input: any 64-bit integer, signed or unsigned", func(v string) error {
		n, err := strconv.ParseInt(v, 0, 64)
		if err != nil {
			var u uint64
			u, err = strconv.ParseUint(v, 0, 64)
			n = int64(u)
		}
		*seed = n
		return err
	})
	seconds := fs.Float64("seconds", defaultSeconds, "length of a run; virtual durations scale with it")
	traced := fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.Parse(args)
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if os.Getenv("GOMAXPROCS") != fmt.Sprint(hostProcs) || os.Getenv("GODEBUG") != hostGODEBUG {
		// Start over with the runtime configured from its first instruction:
		// lowering GOMAXPROCS at run time leaves the second P's threads
		// behind and the passes slow down one after the other.
		self, err := os.Executable()
		if err != nil {
			return err
		}
		os.Setenv("GOMAXPROCS", fmt.Sprint(hostProcs))
		os.Setenv("GODEBUG", hostGODEBUG)
		return syscall.Exec(self, os.Args, os.Environ())
	}
	fmt.Printf("%s seed=%d seconds=%g trace=%d GOMAXPROCS=%d GODEBUG=%s GOGC=default\n", w.name, *seed, *seconds, *traced, hostProcs, hostGODEBUG)

	var r *runResult
	if *traced == 0 {
		r = benchTimed(w, *seed, cfgFor(*seconds))
	} else {
		r = benchTraced(w, *seed, cfgFor(*seconds))
	}
	for _, n := range r.notes {
		fmt.Println(" ", n)
	}
	defs := endToEnd
	if *traced != 0 {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("  %-34s %16.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	for _, p := range r.problems {
		fmt.Println("  FAILED:", p)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !r.Correct {
		return fmt.Errorf("%s: %d correctness checks failed", w.name, len(r.problems))
	}
	return nil
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 4

// runFile is what run and trace write with -out and compare reads.
type runFile struct {
	Mode      string                  `json:"mode"` // "run" or "trace"
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Workloads map[string][]*runResult `json:"workloads"` // one entry per repetition
}

// cmdRun runs the chosen workloads, each repetition in a freshly started
// child process, and prints medians and quartiles.
func cmdRun(args []string, traced int) error {
	mode := [...]string{"run", "trace"}[traced]
	fs := flag.NewFlagSet(mode, flag.ExitOnError)
	seed := fs.Int64("seed", 1, "seed of every generated input; repetition i uses seed+i")
	which := fs.String("workload", "all", "workload name, or all")
	seconds := fs.Float64("seconds", defaultSeconds, "length of a run; virtual durations scale with it")
	reps := fs.Int("reps", 1, "repetitions per workload")
	out := fs.String("out", "", "write every repetition's metrics to this JSON file")
	fs.Parse(args)

	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := runFile{Mode: mode, Seed: *seed, Seconds: *seconds, Workloads: map[string][]*runResult{}}
	failed := 0
	for i := range workloads {
		w := &workloads[i]
		if *which != "all" && *which != w.name {
			continue
		}
		for rep := 0; rep < *reps; rep++ {
			cmd := exec.Command(self, "bench", "--workload", w.name, "--seed", fmt.Sprint(*seed+int64(rep)),
				"--seconds", fmt.Sprint(*seconds), "--trace", fmt.Sprint(traced))
			cmd.Stderr = os.Stderr
			stdout, runErr := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			r := &runResult{}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), r); err != nil {
				return fmt.Errorf("%s: no result from the child process: %v (%v)", w.name, err, runErr)
			}
			for _, l := range lines[:len(lines)-1] {
				if rep == 0 && strings.HasPrefix(l, "  pass") || strings.Contains(l, "FAILED") {
					fmt.Println(l)
				}
			}
			if !r.Correct {
				failed++
			}
			file.Workloads[w.name] = append(file.Workloads[w.name], r)
		}
		printWorkload(w.name, file.Workloads[w.name], traced)
	}
	if len(file.Workloads) == 0 {
		return fmt.Errorf("unknown workload %q", *which)
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed a correctness check", failed)
	}
	return nil
}

// valuesOf collects one metric over repetitions.
func valuesOf(reps []*runResult, name string) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = r.Metrics[name].Value
	}
	return xs
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so spreads printed
// here match the ones the benchmark is accepted on.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(k*(n+1)) - float64(4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func printWorkload(name string, reps []*runResult, traced int) {
	defs := endToEnd
	if traced != 0 {
		defs = perLayer
	}
	fmt.Printf("%s (%d runs, GOMAXPROCS=%d)\n", name, len(reps), hostProcs)
	for _, d := range defs {
		xs := valuesOf(reps, d.name)
		fmt.Printf("  %-34s %16.6g %-10s", d.name, median(xs), d.unit)
		if len(xs) > 1 {
			q1, q3 := quartiles(xs)
			fmt.Printf(" quartiles %.6g .. %.6g", q1, q3)
		}
		fmt.Println()
	}
}

func printValues(m map[string]float64) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-34s %16.6g\n", name, m[name])
	}
}
