package harness

import (
	"fmt"
	"io"
	"slices"

	"kvell/internal/env"
	"kvell/internal/stats"
	"kvell/internal/trace"
	"kvell/internal/ycsb"
)

// TraceSpec builds the spec the traceattr experiment (and tests)
// runs for one engine, with the given tracer attached.
func TraceSpec(o Options, k EngineKind, tr *trace.Tracer) Spec {
	records := o.records(100_000)
	return Spec{
		Name: "traceattr", Seed: o.Seed, Engine: k, Records: records,
		Gen:      ycsbSpecGen('A', ycsb.Uniform, records, 1024),
		Duration: o.dur(6 * env.Second),
		Tracer:   tr,
	}
}

// TraceSampleEvery is the default head-sampling rate for trace experiments:
// 1 sampled request in N by sequence number, a pure function of the seed.
func TraceSampleEvery(o Options) int {
	if o.Quick {
		return 8
	}
	return 64
}

// uniqueInOrder drops repeated strings, keeping first-appearance order.
func uniqueInOrder(in []string) []string {
	var out []string
	for _, s := range in {
		if !slices.Contains(out, s) {
			out = append(out, s)
		}
	}
	return out
}

// ReportTrace prints one traced run's attribution: the per-component
// breakdown table, span coverage, and the worst sampled request decomposed
// with the maintenance jobs that overlapped it.
func ReportTrace(w io.Writer, r Result, tr *trace.Tracer) {
	covMin, covMean := tr.Coverage()
	fmt.Fprintf(w, "-- %s: %.0f ops/s, %d requests traced, %d sampled --\n",
		r.EngineName, r.Throughput, tr.Finished(), tr.SampledCount())
	tr.WriteBreakdownTable(w)
	fmt.Fprintf(w, "  span coverage of sampled requests: min %.1f%% mean %.1f%%\n",
		covMin*100, covMean*100)
	out := tr.Outlier()
	fmt.Fprintf(w, "  worst sampled op: %s %s =", out.Op, stats.FmtDur(out.Total))
	for i := 0; i < trace.NumComponents; i++ {
		if out.Comp[i] > 0 {
			fmt.Fprintf(w, " %s %s", trace.CompNames[i], stats.FmtDur(out.Comp[i]))
		}
	}
	fmt.Fprintln(w)
	if maint := uniqueInOrder(tr.OutlierMaintenance()); len(maint) > 0 {
		fmt.Fprintf(w, "  maintenance overlapping the worst op: %v\n", maint)
	} else {
		fmt.Fprintf(w, "  maintenance overlapping the worst op: none\n")
	}
}

// traceAttr regenerates the Figure-2 story as attributed data: every
// request's latency decomposed into queue/CPU/lock/stall/device components,
// and the worst op traced to the maintenance job that delayed it — present
// for the LSM and B+ tree engines, absent for KVell (§3.2, §5).
func traceAttr(o Options, w io.Writer) {
	fmt.Fprintf(w, "Latency attribution, YCSB A uniform (deterministic span tracing)\n")
	fmt.Fprintf(w, "(the Figure-2 spikes, traced to the maintenance work that caused them)\n\n")
	for _, k := range []EngineKind{RocksLike, WiredTigerLike, KVell} {
		tr := trace.NewTracer(TraceSampleEvery(o))
		r := Run(TraceSpec(o, k, tr))
		ReportTrace(w, r, tr)
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "Paper §3.2/Fig.2: LSM and B+ tree tail spikes coincide with compactions and\n")
	fmt.Fprintf(w, "checkpoints; KVell schedules no blocking maintenance, so no overlap exists.\n")
}
