package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"kvell/internal/trace"
)

func tracedSpec(k EngineKind, seed int64, tr *trace.Tracer) Spec {
	s := determinismSpec(k, seed)
	s.Tracer = tr
	return s
}

// tracedGolden is goldenFingerprint's traced twin: determinismSpec(k, 1234)
// with a 1-in-4 sampling tracer attached, run once per engine and shared by
// the trace tests (a finished tracer is read-only).
func tracedGolden(k EngineKind) (fingerprint, *trace.Tracer) {
	r := &tracedRuns[k]
	r.once.Do(func() {
		r.tr = trace.NewTracer(4)
		r.fp = runFingerprint(tracedSpec(k, 1234, r.tr))
	})
	return r.fp, r.tr
}

var tracedRuns [TokuLike + 1]struct {
	once sync.Once
	fp   fingerprint
	tr   *trace.Tracer
}

// TestTraceDeterminism is the tracing analogue of TestGoldenDigests: tracing
// must be purely observational (the traced run's schedule fingerprint is
// byte-identical to the untraced one, which TestGoldenDigests pins to the
// golden fixture), and the trace itself must be a pure function of the seed
// (two same-seed traced runs produce identical trace digests).
func TestTraceDeterminism(t *testing.T) {
	t.Parallel()
	for _, k := range AllEngines {
		base := goldenFingerprint(k)
		a, tr1 := tracedGolden(k)
		tr2 := trace.NewTracer(4)
		runFingerprint(tracedSpec(k, 1234, tr2))
		if a != base {
			t.Errorf("%v: tracing perturbed the schedule\n traced: %+v\nuntraced: %+v", k, a, base)
		}
		if tr1.Finished() == 0 || tr1.SampledCount() == 0 {
			t.Errorf("%v: tracer saw no requests (finished=%d sampled=%d)", k, tr1.Finished(), tr1.SampledCount())
		}
		if d1, d2 := tr1.Digest(), tr2.Digest(); d1 != d2 {
			t.Errorf("%v: same seed produced different trace digests: %016x vs %016x", k, d1, d2)
		}
	}
}

// TestTraceCoverage checks that the component spans account for (nearly) all
// of every sampled request's end-to-end latency: the breakdown is an
// explanation, not a sample of convenient moments.
func TestTraceCoverage(t *testing.T) {
	t.Parallel()
	for _, k := range []EngineKind{KVell, RocksLike, WiredTigerLike, TokuLike} {
		_, tr := tracedGolden(k)
		covMin, covMean := tr.Coverage()
		if covMean < 0.95 {
			t.Errorf("%v: mean span coverage %.1f%% < 95%%", k, covMean*100)
		}
		if covMin < 0.5 {
			t.Errorf("%v: worst-request span coverage %.1f%% — a major latency source is untraced", k, covMin*100)
		}
	}
}

// TestTraceFigure2Story is the acceptance check behind the traceattr
// experiment: the LSM engine's worst sampled op overlaps an engine
// maintenance job, while KVell's never does (KVell schedules no blocking
// maintenance, §5).
func TestTraceFigure2Story(t *testing.T) {
	t.Parallel()
	o := Options{Quick: true, Seed: 1}

	lsmTr := trace.NewTracer(TraceSampleEvery(o))
	Run(TraceSpec(o, RocksLike, lsmTr))
	if len(lsmTr.OutlierMaintenance()) == 0 {
		out := lsmTr.Outlier()
		t.Errorf("LSM worst op (%s, comps %v) overlaps no maintenance job — Figure 2's attribution is missing", out.Op, out.Comp)
	}

	kvTr := trace.NewTracer(TraceSampleEvery(o))
	Run(TraceSpec(o, KVell, kvTr))
	if m := kvTr.OutlierMaintenance(); len(m) != 0 {
		t.Errorf("KVell worst op overlaps maintenance %v — KVell must have none", m)
	}
	if len(kvTr.BgSpans()) != 0 {
		// Filter devspikes: those are device-internal, not engine maintenance.
		for _, s := range kvTr.BgSpans() {
			if s.Name != "devspike" {
				t.Errorf("KVell recorded engine maintenance span %q", s.Name)
			}
		}
	}
}

// TestTraceChromeExport validates the exporter on a real traced run: the
// output must be well-formed JSON with the expected track structure.
func TestTraceChromeExport(t *testing.T) {
	t.Parallel()
	_, tr := tracedGolden(RocksLike)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("exporter produced invalid JSON (%d bytes)", buf.Len())
	}
	out := buf.String()
	for _, want := range []string{`"cores"`, `"ops"`, `"maintenance"`, `"disk 0"`, `"ph":"X"`} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome trace missing %s", want)
		}
	}
	var table bytes.Buffer
	tr.WriteBreakdownTable(&table)
	for _, want := range []string{"dev-service", "end-to-end"} {
		if !strings.Contains(table.String(), want) {
			t.Errorf("breakdown table missing %q:\n%s", want, table.String())
		}
	}
}
