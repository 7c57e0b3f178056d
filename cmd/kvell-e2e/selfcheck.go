package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"kvell/internal/core"
	"kvell/internal/harness"
)

// A variant is the store or the harness made worse in one known way. The
// selfcheck proves the benchmark measures: the metric predicted to move must
// move past its bound, and what the change cannot touch must stay put.
type variant struct {
	name, workload string
	opts           passOpts
	// moved and still inspect base and variant metrics (end-to-end and
	// counter-based per-layer together) and return what is wrong.
	moved, still func(base, v map[string]float64) []string
	// bypass, when set, is a workload the change cannot reach: with the
	// variant applied every virtual number of it must stay bit-identical.
	bypass string
}

// virtualNames are what "bit-identical on the virtual clock" covers.
var virtualNames = []string{"v_ops_per_s", "v_lat_mean_us", "v_lat_p99_us", "goodput_share", "digest"}

// selfcheckBurn is spun per generated operation by the host-only variant:
// enough to slow ycsb_c_zipf (about 8 us of host CPU per op) well past the
// host_ops_per_s bound.
const selfcheckBurn = 6 * time.Microsecond

func defOf(name string) metricDef {
	for _, d := range endToEnd {
		if d.name == name {
			return d
		}
	}
	panic("no end-to-end metric " + name)
}

// worseBy is the share of base by which v is worse, in the metric's own
// direction; negative when v is better.
func worseBy(d metricDef, base, v float64) float64 {
	if base == 0 {
		return 0
	}
	if d.better == "higher" {
		return (base - v) / base
	}
	return (v - base) / base
}

// pastBound reports the named end-to-end metrics that did not get worse by
// more than their bound.
func pastBound(base, v map[string]float64, names ...string) []string {
	var bad []string
	for _, name := range names {
		d := defOf(name)
		if w := worseBy(d, base[name], v[name]); w <= d.bound {
			bad = append(bad, fmt.Sprintf("%s worsened by %.1f%%, not past its %.0f%% bound (%.6g -> %.6g)",
				name, 100*w, 100*d.bound, base[name], v[name]))
		}
	}
	return bad
}

// identical reports the named metrics that differ at all.
func identical(base, v map[string]float64, names ...string) []string {
	var bad []string
	for _, name := range names {
		if base[name] != v[name] {
			bad = append(bad, fmt.Sprintf("%s changed: %.9g -> %.9g", name, base[name], v[name]))
		}
	}
	return bad
}

// within reports the named metrics that moved by more than tol of base.
func within(base, v map[string]float64, tol float64, names ...string) []string {
	var bad []string
	for _, name := range names {
		if d := v[name] - base[name]; d > tol*base[name] || -d > tol*base[name] {
			bad = append(bad, fmt.Sprintf("%s moved by more than %.0f%%: %.6g -> %.6g", name, 100*tol, base[name], v[name]))
		}
	}
	return bad
}

var variants = []variant{
	{
		// A write-path change that costs the modelled store: every update is
		// also appended to a commit log, doubling its device writes.
		name: "WithCommitLog", workload: "ycsb_a_uniform", bypass: "ycsb_c_zipf",
		opts: passOpts{vary: func(s *harness.Spec) {
			s.TweakKVell = func(c *core.Config) { c.WithCommitLog = true }
		}},
		moved: func(base, v map[string]float64) []string {
			bad := pastBound(base, v, "v_ops_per_s")
			if v["device.writes_per_op"] < 1.5*base["device.writes_per_op"] {
				bad = append(bad, fmt.Sprintf("device.writes_per_op %.3f -> %.3f, want it nearly doubled", base["device.writes_per_op"], v["device.writes_per_op"]))
			}
			return bad
		},
		still: func(base, v map[string]float64) []string { return identical(base, v, "goodput_share") },
	},
	{
		// One I/O per syscall. The workload is device-bound (device.util_share
		// is 1, sim.cpu_util_share under 0.4), so the extra syscalls cost CPU
		// the store has to spare: the layer counters move, v_ops_per_s does
		// not (0.6% when this was written), and the check says so.
		name: "BatchSize=1", workload: "ycsb_a_uniform",
		opts: passOpts{vary: func(s *harness.Spec) {
			s.TweakKVell = func(c *core.Config) { c.BatchSize = 1 }
		}},
		moved: func(base, v map[string]float64) []string {
			var bad []string
			if got := v["core.ios_per_syscall"]; got > 1.01 || base["core.ios_per_syscall"] < 2 {
				bad = append(bad, fmt.Sprintf("core.ios_per_syscall %.3f -> %.3f, want it to fall to 1", base["core.ios_per_syscall"], got))
			}
			if v["core.syscalls_per_op"] < 2*base["core.syscalls_per_op"] || v["sim.cpu_util_share"] <= base["sim.cpu_util_share"] {
				bad = append(bad, fmt.Sprintf("core.syscalls_per_op %.3f -> %.3f and sim.cpu_util_share %.3f -> %.3f, want both clearly up",
					base["core.syscalls_per_op"], v["core.syscalls_per_op"], base["sim.cpu_util_share"], v["sim.cpu_util_share"]))
			}
			return bad
		},
		// Every op still completes and an update still costs the same device
		// writes.
		still: func(base, v map[string]float64) []string {
			return append(identical(base, v, "goodput_share"), within(base, v, 0.02, "device.writes_per_op")...)
		},
	},
	{
		name: "CacheFrac 1/3 -> 1/30", workload: "ycsb_c_zipf",
		opts: passOpts{vary: func(s *harness.Spec) { s.CacheFrac = 1.0 / 30 }},
		moved: func(base, v map[string]float64) []string {
			bad := pastBound(base, v, "v_ops_per_s")
			if v["pagecache.hit_share"] >= base["pagecache.hit_share"]-0.1 {
				bad = append(bad, fmt.Sprintf("pagecache.hit_share %.3f -> %.3f, want a clear fall", base["pagecache.hit_share"], v["pagecache.hit_share"]))
			}
			return bad
		},
		// The write path is the bypass of a read-only workload.
		still: func(base, v map[string]float64) []string {
			return identical(base, v, "goodput_share", "device.writes_per_op", "core.absorb_writes_per_update")
		},
	},
	{
		name: "generator burns CPU per draw", workload: "ycsb_c_zipf",
		opts: passOpts{burn: selfcheckBurn},
		moved: func(base, v map[string]float64) []string {
			return pastBound(base, v, "host_ops_per_s", "host_cpu_us_per_op")
		},
		// A host-only change: every virtual number is bit-identical.
		still: func(base, v map[string]float64) []string {
			return identical(base, v, append(virtualNames, "pagecache.hit_share", "device.reads_per_op", "core.syscalls_per_op", "sim.cpu_util_share")...)
		},
	},
}

// metricsOf flattens one pass for the selfcheck; the digest rides along so
// "identical" can cover the whole virtual schedule.
func metricsOf(o *outcome) map[string]float64 {
	m := e2eOf(o)
	for name, v := range layersOf(o) {
		m[name] = v
	}
	m["digest"] = float64(o.digest >> 11) // exact in a float64
	return m
}

// runVariant runs base and variant as alternating pairs and takes medians,
// so a slow moment on the host hits both sides alike.
func runVariant(w *workload, seed int64, sc scale, v variant, pairs int) (base, worse map[string]float64) {
	samples := [2]map[string][]float64{{}, {}}
	for i := 0; i < pairs; i++ {
		for side, opts := range [2]passOpts{{}, v.opts} {
			o := w.pass(seed, sc, opts)
			for name, x := range metricsOf(&o) {
				samples[side][name] = append(samples[side][name], x)
			}
		}
	}
	med := func(s map[string][]float64) map[string]float64 {
		m := map[string]float64{}
		for name, xs := range s {
			m[name] = median(xs)
		}
		return m
	}
	return med(samples[0]), med(samples[1])
}

func cmdSelfcheck(args []string) error {
	fs := flag.NewFlagSet("selfcheck", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "seed of every generated input")
	fs.Parse(args)
	sc := scale{dur: 0.1, records: 0.25}
	failed := 0
	for _, v := range variants {
		w, err := findWorkload(v.workload)
		if err != nil {
			return err
		}
		base, worse := runVariant(w, *seed, sc, v, 3)
		problems := append(v.moved(base, worse), v.still(base, worse)...)
		if v.bypass != "" {
			bw, err := findWorkload(v.bypass)
			if err != nil {
				return err
			}
			base, same := runVariant(bw, *seed, sc, v, 1)
			for _, p := range identical(base, same, virtualNames...) {
				problems = append(problems, "bypass "+v.bypass+": "+p)
			}
		}
		if len(problems) == 0 {
			fmt.Printf("ok    %-32s on %-16s v_ops_per_s %.0f -> %.0f, host_ops_per_s %.0f -> %.0f\n",
				v.name, v.workload, base["v_ops_per_s"], worse["v_ops_per_s"], base["host_ops_per_s"], worse["host_ops_per_s"])
			continue
		}
		failed++
		fmt.Printf("FAIL  %-32s on %s\n        %s\n", v.name, v.workload, strings.Join(problems, "\n        "))
	}
	if failed > 0 {
		return fmt.Errorf("selfcheck: %d of %d known-worse variants were not measured as predicted", failed, len(variants))
	}
	return nil
}
