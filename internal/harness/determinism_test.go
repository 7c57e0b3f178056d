package harness

import (
	"sync"
	"testing"

	"kvell/internal/core"
	"kvell/internal/env"
	"kvell/internal/ycsb"
)

// fingerprint captures every determinism-sensitive observable of a run: op
// count, the full latency distribution, both timelines bit-for-bit, and the
// final virtual-clock reading. Two runs of the same Spec must agree on all of
// them — this is the regression test behind the invariants that the
// kvell-lint analyzers enforce statically (see DESIGN.md "Determinism
// invariants").
type fingerprint struct {
	ops      int64
	lat      uint64
	timeline uint64
	diskBW   uint64
	now      env.Time
}

func runFingerprint(spec Spec) fingerprint {
	r := Run(spec)
	return fingerprintOf(&r)
}

func fingerprintOf(r *Result) fingerprint {
	return fingerprint{
		ops:      r.Ops,
		lat:      r.Lat.Digest(),
		timeline: r.Timeline.Digest(),
		diskBW:   r.DiskBW.Digest(),
		now:      r.Sim.Now(),
	}
}

func determinismSpec(k EngineKind, seed int64) Spec {
	return Spec{
		Name:     "determinism",
		Engine:   k,
		Seed:     seed,
		Records:  5_000,
		Gen:      ycsbGen('A', ycsb.Zipfian, 5_000, 1024),
		Warmup:   100 * env.Millisecond,
		Duration: 300 * env.Millisecond,
	}
}

// goldenFingerprint returns the untraced determinismSpec(k, 1234) run that
// TestGoldenDigests pins to the fixture and that TestTraceDeterminism and the
// seed tests compare against; each engine runs once, for whichever test asks
// first.
func goldenFingerprint(k EngineKind) fingerprint {
	r := &goldenRuns[k]
	r.once.Do(func() { r.fp = runFingerprint(determinismSpec(k, 1234)) })
	return r.fp
}

var goldenRuns [TokuLike + 1]struct {
	once sync.Once
	fp   fingerprint
}

func TestSameSeedIdenticalRun(t *testing.T) {
	t.Parallel()
	for _, k := range []EngineKind{KVell, RocksLike} {
		a := goldenFingerprint(k)
		b := runFingerprint(determinismSpec(k, 1234))
		if a.ops == 0 {
			t.Errorf("%v: no operations completed", k)
			continue
		}
		if a != b {
			t.Errorf("%v: same seed produced different runs\n first: %+v\nsecond: %+v", k, a, b)
		}
	}
}

func TestDifferentSeedDifferentRun(t *testing.T) {
	t.Parallel()
	a := goldenFingerprint(KVell)
	b := runFingerprint(determinismSpec(KVell, 2))
	if a.lat == b.lat && a.timeline == b.timeline && a.ops == b.ops {
		t.Errorf("different seeds produced identical runs — the seed is not reaching the workload: %+v", a)
	}
}

// absorbDeterminismSpec is an open-loop, absorb-enabled KVell run: it
// exercises the arrival generator, the admission valve, the absorb buffer
// and the adaptive commit interval in one schedule.
func absorbDeterminismSpec(seed int64) Spec {
	return Spec{
		Name:     "absorb-determinism",
		Engine:   KVell,
		Seed:     seed,
		Records:  5_000,
		ItemSize: 512,
		Gen:      updateOnlyGen(5_000, 512, 0.99),
		Duration: 200 * env.Millisecond,
		Arrival:  &Arrival{Rate: 400_000, MaxPerShard: 128},
		TweakKVell: func(c *core.Config) {
			c.AbsorbInterval = 100 * env.Microsecond
		},
	}
}

// absorbGoldenPath locks absorbDeterminismSpec(1234), the absorb-enabled
// open-loop schedule, the same way goldenPath locks the closed-loop ones.
const absorbGoldenPath = "testdata/absorb_golden.json"

func TestAbsorbGoldenDigest(t *testing.T) {
	t.Parallel()
	openGolden[goldenEntry](t, absorbGoldenPath).check(t, "absorb-1234", toGolden(runFingerprint(absorbDeterminismSpec(1234))))
}

func TestAbsorbSpecDeterminism(t *testing.T) {
	t.Parallel()
	a := runFingerprint(absorbDeterminismSpec(99))
	if a.ops == 0 {
		t.Fatal("absorb-enabled open-loop run completed no operations")
	}
	if b := runFingerprint(absorbDeterminismSpec(99)); a != b {
		t.Errorf("same seed produced different absorb-enabled runs\n first: %+v\nsecond: %+v", a, b)
	}
	if c := runFingerprint(absorbDeterminismSpec(100)); c.lat == a.lat && c.timeline == a.timeline {
		t.Errorf("different seeds produced identical absorb-enabled runs: %+v", a)
	}
}

// Golden digests for the open-loop arrival generator: Digest folds the first
// n inter-arrival gaps (burst modulation and the fractional-ns carry
// included) into an FNV-1a word. On mismatch the failure message prints the
// measured digest; update only for changes meant to alter arrival schedules.
func TestArrivalGenGoldenDigest(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    Arrival
		seed int64
		n    int
		want uint64
	}{
		{"poisson-1M", Arrival{Rate: 1_000_000}, 7, 100_000, 0x5d431d7dd5c3ceb5},
		{"burst-8x", Arrival{
			Rate:        250_000,
			BurstEvery:  10 * env.Millisecond,
			BurstLen:    2 * env.Millisecond,
			BurstFactor: 8,
		}, 11, 100_000, 0x8771402626509c2f},
	} {
		g := NewArrivalGen(&tc.a, tc.seed)
		if got := g.Digest(tc.n); got != tc.want {
			t.Errorf("%s: digest %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}
