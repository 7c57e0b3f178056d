package harness

import (
	"testing"

	"kvell/internal/core"
	"kvell/internal/device"
	"kvell/internal/env"
)

// tieredDeterminismSpec is an open-loop tiered KVell run on the cold-SSD
// profile with the hot head rotating mid-run: it exercises the arrival
// generator, the admission valve, the hot-cache promotion/demotion machinery
// and the clocked workload generator in one schedule.
func tieredDeterminismSpec(seed int64) Spec {
	return Spec{
		Name:      "tiered-determinism",
		Engine:    KVell,
		Seed:      seed,
		Profile:   device.ColdSSD(),
		Records:   5_000,
		ItemSize:  512,
		CacheFrac: TierCacheFrac,
		Gen:       readMostlyGen(5_000, 512, 0.9, 50*env.Millisecond),
		Duration:  200 * env.Millisecond,
		Arrival:   &Arrival{Rate: 200_000, MaxPerShard: 128, Policy: Shed},
		TweakKVell: func(c *core.Config) {
			c.TieredHotBytes = 1 << 20
			c.TieredSlotBytes = 512
			c.TieredPromoteAfter = 1
			c.TieredSeed = seed
		},
	}
}

// hotCounters is the tiering-specific half of a run's fingerprint.
type hotCounters struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Promotions int64 `json:"promotions"`
	Demotions  int64 `json:"demotions"`
}

func hotCountersOf(r *Result) hotCounters {
	return hotCounters{r.HotHits, r.HotMisses, r.HotPromotions, r.HotDemotions}
}

// tieredGoldenPath locks tieredDeterminismSpec(4321), the tiered open-loop
// schedule, including every hot-cache counter.
const tieredGoldenPath = "testdata/tiered_golden.json"

type tieredGoldenEntry struct {
	goldenEntry
	Hot hotCounters `json:"hot"`
}

func TestTieredGoldenDigest(t *testing.T) {
	t.Parallel()
	r := Run(tieredDeterminismSpec(4321))
	openGolden[tieredGoldenEntry](t, tieredGoldenPath).check(t, "tiered-4321",
		tieredGoldenEntry{goldenEntry: toGolden(fingerprintOf(&r)), Hot: hotCountersOf(&r)})
}

func TestTieredSpecDeterminism(t *testing.T) {
	t.Parallel()
	a := Run(tieredDeterminismSpec(7))
	if a.Ops == 0 {
		t.Fatal("tiered open-loop run completed no operations")
	}
	if a.HotPromotions == 0 || a.HotHits == 0 {
		t.Fatalf("hot tier never engaged: %+v", hotCountersOf(&a))
	}
	b := Run(tieredDeterminismSpec(7))
	if a.Ops != b.Ops || a.Lat.Digest() != b.Lat.Digest() || a.Timeline.Digest() != b.Timeline.Digest() {
		t.Errorf("same seed produced different tiered runs: ops %d vs %d", a.Ops, b.Ops)
	}
	if hotCountersOf(&a) != hotCountersOf(&b) {
		t.Errorf("same seed produced different hot-cache counters\n first: %+v\nsecond: %+v", hotCountersOf(&a), hotCountersOf(&b))
	}
	c := Run(tieredDeterminismSpec(8))
	if c.Lat.Digest() == a.Lat.Digest() && c.Timeline.Digest() == a.Timeline.Digest() {
		t.Errorf("different seeds produced identical tiered runs: %+v", hotCountersOf(&a))
	}
}
