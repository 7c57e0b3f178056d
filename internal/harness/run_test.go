package harness

import (
	"runtime"
	"testing"

	"kvell/internal/env"
	"kvell/internal/nutanix"
	"kvell/internal/ycsb"
)

// The built-in generators must satisfy the harness's workload interface,
// YCSB also the clocked one its hot-set shift needs.
var (
	_ Generator     = (*ycsb.Generator)(nil)
	_ ClockedFiller = (*ycsb.Generator)(nil)
	_ Generator     = (*nutanix.Generator)(nil)
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

// cacheFillByteBudget is the marginal heap bytes per completed operation
// TestAllocBudgetCacheFill allows: 128. Fills that share the device's page
// arrays measure 23.9-24.7 over five runs; a fill into a fresh page buffer
// of its own measured 2439.9 (2610 misses in 4413 operations, 4 KB each).
// Go1.24.0 on linux/amd64; re-record after a toolchain bump the way
// closedLoopAllocBudget is.
const cacheFillByteBudget = 128

// TestAllocBudgetCacheFill bounds the heap bytes a page-cache fill costs: on
// uniform reads of a dataset the cache can hold whole, nearly every
// operation misses into a cache that is still filling, so a fill that copied
// the device page into a buffer of its own would allocate a page for each.
// Two runs of one spec that differ only in duration are compared, so set-up
// cancels, as in TestAllocBudgetClosedLoop.
func TestAllocBudgetCacheFill(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	run := func(dur env.Time) (alloc uint64, ops int64, misses int64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := Run(Spec{
			Name:      "alloc-budget-fill",
			Engine:    KVell,
			Seed:      1,
			Cores:     2,
			Clients:   2,
			Records:   50_000,
			CacheFrac: 1,
			Gen:       ycsbGen('C', ycsb.Uniform, 50_000, 1024),
			Warmup:    env.Millisecond,
			Duration:  dur,
		})
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, r.OpsTotal, r.CacheMisses
	}
	b1, o1, m1 := run(10 * env.Millisecond)
	b2, o2, m2 := run(20 * env.Millisecond)
	if o2 <= o1 || m2 <= m1 {
		t.Fatalf("longer run completed no more operations or misses: %d/%d then %d/%d", o1, m1, o2, m2)
	}
	perOp := (float64(b2) - float64(b1)) / float64(o2-o1)
	t.Logf("%.1f bytes per operation (%d over %d operations, %d of them misses)", perOp, int64(b2)-int64(b1), o2-o1, m2-m1)
	if perOp > cacheFillByteBudget {
		t.Errorf("cache fills allocate %.1f bytes per operation, budget %d", perOp, cacheFillByteBudget)
	}
}

// closedLoopAllocBudget is the marginal heap allocations per completed
// operation TestAllocBudgetClosedLoop allows: 0.01. The measurements are
// zero within the noise of a whole-process count (0.0000, -0.0001, -0.0000)
// since a page-cache miss continues in a pooled record; with a closure per
// miss it was 0.2081, and 0.4141 while every new index key, page numbers
// included, was an allocation. Measured with go1.24.0 on linux/amd64; what
// escapes to the heap is the compiler's decision, so a toolchain bump may
// move the count and the budget is then re-recorded the same way.
const closedLoopAllocBudget = 0.01

// TestAllocBudgetClosedLoop bounds what harness.Run allocates per completed
// operation on the closed-loop issue path — pooled requests, generator fill,
// KVell's read path, completion accounting — on the shape of the benchmark's
// ycsb_c_zipf workload, so tier-1 fails where host_allocs_per_op would move.
// Two runs of one spec that differ only in duration are compared, so set-up
// (bulk load, index, caches, pools) cancels. Not parallel: Mallocs counts the
// whole process, and a serial test runs while every parallel one is parked.
func TestAllocBudgetClosedLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	run := func(dur env.Time) (mallocs uint64, ops int64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := Run(Spec{
			Name:     "alloc-budget",
			Engine:   KVell,
			Seed:     1,
			Cores:    2, // two workers: a quarter of the operations, the same path
			Clients:  2,
			Records:  20_000,
			Gen:      ycsbGen('C', ycsb.Zipfian, 20_000, 1024),
			Warmup:   50 * env.Millisecond,
			Duration: dur,
		})
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, r.OpsTotal
	}
	m1, o1 := run(200 * env.Millisecond)
	m2, o2 := run(400 * env.Millisecond)
	if o2 <= o1 {
		t.Fatalf("longer run completed no more operations: %d then %d", o1, o2)
	}
	perOp := (float64(m2) - float64(m1)) / float64(o2-o1)
	t.Logf("%.4f allocations per operation (%d over %d operations)", perOp, int64(m2)-int64(m1), o2-o1)
	if perOp > closedLoopAllocBudget {
		t.Errorf("closed loop allocates %.4f per operation, budget %.4f", perOp, float64(closedLoopAllocBudget))
	}
}
