package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// Tier-1 smoke test of the benchmark itself. It pins no value the program
// under test produces: later changes may move every number, and this
// directory is not theirs to edit.

var smokeCfg = runCfg{sc: scale{dur: 1.0 / 100, records: 0.05}, passes: 1, probeDiv: 200}

var profiler sync.Mutex

var crashOnce = sync.OnceValues(func() (float64, error) { return crashCheck(7) })

var sharedLayers = sync.OnceValue(func() map[string]float64 {
	values := runProbes(smokeCfg.probeDiv)
	values["core.recover_v_us_per_kitem"], _ = crashOnce() // TestChecks reads the verdict
	return values
})

func TestManifestMatchesTables(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json differs from the metric and workload tables; regenerate it with `kvell-e2e manifest`")
	}
}

func TestNamesMeetTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		use(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		use(d.name)
		if !unit.MatchString(d.unit) || (d.better != "higher" && d.better != "lower") || d.bound < 0 || d.bound > 0.25 {
			t.Errorf("metric %+v is outside the contract", d)
		}
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
}

func TestWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			timed, values := measureTimed(w, 7, smokeCfg)
			timed.finish(endToEnd, values)
			if !timed.Correct {
				t.Fatalf("timed run not correct: %v", timed.problems)
			}
			if g := timed.Metrics["goodput_share"].Value; g != 1 {
				t.Errorf("goodput_share = %v, want 1", g)
			}
			// A second pass on the timed run's seed must repeat its virtual
			// numbers exactly (one pass per run here, so medians are values).
			o := w.pass(subSeed(7, 0), smokeCfg.sc, passOpts{})
			again := e2eOf(&o)
			for _, d := range endToEnd {
				if d.name == "goodput_share" || strings.HasPrefix(d.name, "v_") {
					if a, b := timed.Metrics[d.name].Value, again[d.name]; a != b || a <= 0 {
						t.Errorf("%s: two passes of one seed gave %v and %v; want equal and positive", d.name, a, b)
					}
				}
			}

			// The probes and the crash check do not depend on the workload:
			// run once, shared.
			profiler.Lock() // one CPU profile at a time per process
			traced, values := measureTraced(w, 7, smokeCfg)
			profiler.Unlock()
			for name, v := range sharedLayers() {
				values[name] = v
			}
			traced.finish(perLayer, values)
			if !traced.Correct {
				t.Fatalf("traced run not correct: %v", traced.problems)
			}
			var shares float64
			for _, name := range hostShares {
				shares += traced.Metrics[name].Value
			}
			if shares < 0.999 || shares > 1.001 {
				t.Errorf("host.share.* sum to %v, want 1", shares)
			}
		})
	}
}

func TestChecks(t *testing.T) {
	for _, c := range checks {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			err := c.run
			if c.name == "crash" {
				err = func(int64) error { _, err := crashOnce(); return err }
			}
			if err := err(7); err != nil {
				t.Fatal(err)
			}
		})
	}
}
