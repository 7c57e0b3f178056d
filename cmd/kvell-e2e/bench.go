package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"kvell/internal/trace"
)

// runCfg is how much one benchmark run measures.
type runCfg struct {
	sc     scale
	passes int // timed passes, each with its own sub-seed
	// probeDiv divides every probe's iteration count (the smoke test only).
	probeDiv int
}

func cfgFor(seconds float64) runCfg {
	return runCfg{sc: scale{dur: seconds / nominalSeconds, records: 1}, passes: 3, probeDiv: 1}
}

// subSeed derives the seed of pass i, so one --seed fixes every input.
func subSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// runResult is what one benchmark run reports: the contract's last line.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	problems []string
	notes    []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runResult) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *runResult) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// finish fills Metrics from values in the order of defs; a missing or
// non-finite value is itself a failure.
func (r *runResult) finish(defs []metricDef, values map[string]float64) {
	r.Metrics = map[string]metricValue{}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s: no finite value", d.name)
			v = 0
		}
		r.Metrics[d.name] = metricValue{v, d.unit}
	}
	r.Correct = len(r.problems) == 0
}

// median averages the middle two of an even count, as the driver's
// statistics.median does; stats.Median takes the upper one.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return math.NaN()
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// checkPass applies the conditions every pass must meet to be correct.
func (r *runResult) checkPass(w *workload, o *outcome) {
	r.Attempted += o.attempted
	r.Failed += o.attempted - o.completed
	if o.err != nil {
		r.fail("%v", o.err)
	}
	if o.attempted != o.completed {
		r.fail("%s: %d of %d operations did not complete", w.name, o.attempted-o.completed, o.attempted)
	}
	if w.p99LimitUS > 0 && o.latP99US > w.p99LimitUS {
		r.fail("%s: p99 %.0f us is over its %.0f us limit", w.name, o.latP99US, w.p99LimitUS)
	}
}

// benchTimed is the untraced run: the timed passes, then the correctness
// checks that cover the workload's store configuration.
func benchTimed(w *workload, seed int64, cfg runCfg) *runResult {
	r, values := measureTimed(w, seed, cfg)
	for _, c := range checks {
		if c.covers(w.name) {
			if err := c.run(seed); err != nil {
				r.fail("check %s: %v", c.name, err)
			} else {
				r.note("check %s: ok", c.name)
			}
		}
	}
	r.finish(endToEnd, values)
	return r
}

// measureTimed runs a warm-up pass, then cfg.passes timed passes on
// consecutive sub-seeds. Every host time is adjusted by the reference loop
// timed around it (see reference). A host metric is the median over the
// passes, which discards a pass the host disturbed; setup_s is the median
// over every set-up the run made. A virtual metric has no such outliers and
// is the mean over the passes, which uses all of them and also resolves
// cluster_rf2's p99: the harness rounds that one to a 5% bucket edge, so its
// median reads the same on most seeds.
func measureTimed(w *workload, seed int64, cfg runCfg) (*runResult, map[string]float64) {
	r := &runResult{}
	ref := &reference{trips: max(refTrips/cfg.probeDiv, 100)}
	// pass runs one pass with its host times adjusted.
	pass := func(seed int64, sc scale) (o outcome, factor float64) {
		factor = ref.around(func() { o = w.pass(seed, sc, passOpts{}) })
		o.host, o.setup = o.host.times(factor), o.setup.times(factor)
		return o, factor
	}
	var setups []float64 // wall seconds
	if w.opaqueSetup {
		// Shortest-possible passes measure set-up alone, and warm the
		// process up as well.
		for i := 0; i < cfg.passes; i++ {
			o, _ := pass(subSeed(seed, i), cfg.sc.setupOnly())
			setups = append(setups, o.host.wall)
		}
	} else {
		warm, _ := pass(subSeed(seed, 0), scale{cfg.sc.dur / 10, cfg.sc.records})
		setups = append(setups, warm.setup.wall)
	}
	samples := map[string][]float64{}
	for i := 0; i < cfg.passes; i++ {
		o, factor := pass(subSeed(seed, i), cfg.sc)
		if !w.opaqueSetup {
			setups = append(setups, o.setup.wall)
		}
		r.checkPass(w, &o)
		for name, v := range e2eOf(&o) {
			samples[name] = append(samples[name], v)
		}
		r.note("pass %d: seed %d, %d ops in %.2f s after %.2f s set-up (host times x %.3f by the reference loop), p99 over %d samples, digest %016x",
			i, subSeed(seed, i), o.completed, o.host.wall, o.setup.wall, factor, o.latSamples, o.digest)
	}
	// A set-up of milliseconds is noise at four samples: repeat short ones
	// until set-up has had half a second of the run in all. One timing of the
	// reference loop each would take longer than they do, so they share two.
	var spent float64
	for _, s := range setups {
		spent += s
	}
	if !w.opaqueSetup && spent < 0.5 {
		var short []float64
		factor := ref.around(func() {
			for spent < 0.5 {
				o := w.pass(subSeed(seed, 0), cfg.sc.setupOnly(), passOpts{})
				short = append(short, o.setup.wall)
				spent += o.setup.wall + o.host.wall
			}
		})
		for _, s := range short {
			setups = append(setups, s*factor)
		}
	}
	values := map[string]float64{"setup_s": median(setups)}
	for name, xs := range samples {
		if strings.HasPrefix(name, "v_") {
			values[name] = mean(xs)
		} else {
			values[name] = median(xs)
		}
	}
	return r, values
}

// benchTraced is the separate traced run that gives the per-layer numbers:
// the traced pass, the crash check's recovery time, and the probes.
func benchTraced(w *workload, seed int64, cfg runCfg) *runResult {
	r, values := measureTraced(w, seed, cfg)
	recoverUS, err := crashCheck(seed)
	if err != nil {
		r.fail("check crash: %v", err)
	}
	values["core.recover_v_us_per_kitem"] = recoverUS
	for name, v := range runProbes(cfg.probeDiv) {
		values[name] = v
	}
	r.finish(perLayer, values)
	return r
}

// measureTraced runs one plain pass and one pass of the same seed under the
// tracer and the CPU profiler. The two must agree on every virtual number
// (equal digests), and the difference in host throughput between them is the
// tracing overhead.
func measureTraced(w *workload, seed int64, cfg runCfg) (*runResult, map[string]float64) {
	r := &runResult{}
	w.pass(subSeed(seed, 0), scale{cfg.sc.dur / 10, cfg.sc.records}, passOpts{}) // warm-up
	plain := w.pass(subSeed(seed, 0), cfg.sc, passOpts{})
	r.checkPass(w, &plain)

	prof := &cpuProfile{}
	traced := w.pass(subSeed(seed, 0), cfg.sc, passOpts{tracer: trace.NewTracer(16), profile: prof})
	samples, err := prof.samples()
	if err != nil {
		r.fail("%v", err)
	}
	r.checkPass(w, &traced)
	if plain.digest != traced.digest {
		r.fail("%s: traced run diverged from the plain run: digest %016x, want %016x", w.name, traced.digest, plain.digest)
	}
	r.note("digest %016x in both the plain and the traced pass", plain.digest)

	values := layersOf(&traced)
	if traced.tracer != nil {
		// Components are disjoint stretches of a request, so they cannot add
		// up to more than its latency.
		var sum float64
		for _, c := range traceComps {
			sum += values[c.name]
		}
		limit := traced.latMeanUS
		if win := windowBreakdown(traced.tracer, traced.winFrom, traced.winTo); win.n > 0 {
			limit = win.meanNS / 1e3 // the sampled requests' own mean: no sampling error
		}
		if sum > 1.05*limit {
			r.fail("%s: trace components sum to %.1f us, over the mean latency %.1f us", w.name, sum, limit)
		}
		r.note("trace components sum to %.1f us; v_lat_mean_us is %.1f", sum, traced.latMeanUS)
	}
	for name, v := range foldProfile(samples) {
		values[name] = v
	}
	values["trace.overhead_share"] = 1 - (float64(traced.completed)/traced.host.wall)/(float64(plain.completed)/plain.host.wall)
	values["span.setup_s"] = traced.setup.wall
	values["span.generate_s"] = traced.genS
	values["span.simulate_s"] = traced.host.wall - traced.genS
	return r, values
}
