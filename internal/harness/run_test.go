package harness

import (
	"testing"

	"kvell/internal/env"
	"kvell/internal/ycsb"
)

func ycsbGen(w byte, dist ycsb.Distribution, records int64, item int) func(int64) Generator {
	return func(seed int64) Generator {
		return ycsb.NewGenerator(ycsb.Core(w), dist, records, item, seed)
	}
}

func TestSmokeKVellYCSBA(t *testing.T) {
	t.Parallel()
	r := Run(Spec{
		Name:     "smoke-kvell",
		Engine:   KVell,
		Records:  20_000,
		Gen:      ycsbGen('A', ycsb.Uniform, 20_000, 1024),
		Warmup:   200 * env.Millisecond,
		Duration: 500 * env.Millisecond,
	})
	if r.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if r.Throughput < 50_000 {
		t.Fatalf("KVell YCSB-A throughput %.0f ops/s; far below device capability", r.Throughput)
	}
	if r.Lat.Count() == 0 || r.Lat.Percentile(0.99) <= 0 {
		t.Fatal("no latency samples")
	}
}

// TestSmokeBaselinesYCSBA: every engine completes operations on the
// write-heavy (A), read-only (C) and scan-heavy (E) core workloads. KVell on
// A is TestSmokeKVellYCSBA's, at a larger scale.
func TestSmokeBaselinesYCSBA(t *testing.T) {
	for _, wl := range []byte{'A', 'C', 'E'} {
		wl := wl
		t.Run(string(wl), func(t *testing.T) {
			t.Parallel()
			for _, k := range AllEngines {
				if wl == 'A' && k == KVell {
					continue
				}
				r := Run(Spec{
					Name:     "smoke",
					Engine:   k,
					Records:  10_000,
					Gen:      ycsbGen(wl, ycsb.Uniform, 10_000, 1024),
					Warmup:   100 * env.Millisecond,
					Duration: 300 * env.Millisecond,
				})
				if r.Ops == 0 {
					t.Fatalf("%v: no operations completed", k)
				}
				t.Logf("%v: %.0f ops/s", k, r.Throughput)
			}
		})
	}
}
