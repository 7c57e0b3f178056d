package harness

import (
	"testing"

	"kvell/internal/env"
	"kvell/internal/ycsb"
)

func openLoopSpec(k EngineKind, seed int64, a *Arrival) Spec {
	return Spec{
		Name:     "openloop",
		Engine:   k,
		Seed:     seed,
		Records:  5_000,
		Gen:      ycsbGen('A', ycsb.Zipfian, 5_000, 1024),
		Warmup:   100 * env.Millisecond,
		Duration: 300 * env.Millisecond,
		Arrival:  a,
	}
}

func TestOpenLoopModerateLoad(t *testing.T) {
	t.Parallel()
	r := Run(openLoopSpec(KVell, 7, &Arrival{Rate: 50_000}))
	if r.Arrivals == 0 || r.Ops == 0 {
		t.Fatalf("open loop produced no work: arrivals=%d ops=%d", r.Arrivals, r.Ops)
	}
	if r.Shed != 0 || r.Delayed != 0 {
		t.Fatalf("valve engaged at moderate load: shed=%d delayed=%d", r.Shed, r.Delayed)
	}
	// ~50k ops/s over the 300ms window is ~15k completions; allow slack for
	// Poisson variance but require the open loop to track the offered rate.
	if r.Ops < 10_000 {
		t.Fatalf("completed %d ops, expected ~15k at 50k ops/s offered", r.Ops)
	}
}

func TestOpenLoopValveSheds(t *testing.T) {
	t.Parallel()
	// An offered rate far past device capacity with a tight bound: the
	// valve must engage, and everything admitted must still complete.
	r := Run(openLoopSpec(KVell, 7, &Arrival{Rate: 5_000_000, MaxPerShard: 64}))
	if r.Shed == 0 {
		t.Fatalf("overload at 5M ops/s never engaged the shed valve (arrivals=%d ops=%d)", r.Arrivals, r.Ops)
	}
	if r.Ops == 0 {
		t.Fatal("no admitted ops completed under overload")
	}
}

func TestOpenLoopValveDelays(t *testing.T) {
	t.Parallel()
	r := Run(openLoopSpec(KVell, 7, &Arrival{Rate: 5_000_000, MaxPerShard: 64, Policy: Delay}))
	if r.Delayed == 0 {
		t.Fatalf("overload never engaged the delay valve (arrivals=%d)", r.Arrivals)
	}
	if r.Shed != 0 {
		t.Fatalf("delay policy shed %d arrivals", r.Shed)
	}
}

func TestOpenLoopSameSeedIdentical(t *testing.T) {
	t.Parallel()
	a := &Arrival{Rate: 200_000, MaxPerShard: 128}
	r1 := Run(openLoopSpec(KVell, 11, a))
	r2 := Run(openLoopSpec(KVell, 11, a))
	if r1.Ops != r2.Ops || r1.Arrivals != r2.Arrivals || r1.Shed != r2.Shed ||
		r1.Lat.Digest() != r2.Lat.Digest() || r1.Timeline.Digest() != r2.Timeline.Digest() {
		t.Fatalf("same seed open-loop runs differ:\n first: ops=%d arr=%d shed=%d lat=%x\nsecond: ops=%d arr=%d shed=%d lat=%x",
			r1.Ops, r1.Arrivals, r1.Shed, r1.Lat.Digest(), r2.Ops, r2.Arrivals, r2.Shed, r2.Lat.Digest())
	}
}

func TestAllocBudgetOpenLoopArrival(t *testing.T) {
	g := NewArrivalGen(&Arrival{Rate: 100_000}, 1)
	if n := testing.AllocsPerRun(1000, func() {
		g.NextGap()
	}); n != 0 {
		t.Fatalf("arrival draw allocates %.1f/op, want 0", n)
	}
}

func BenchmarkOpenLoopNextArrival(b *testing.B) {
	g := NewArrivalGen(&Arrival{Rate: 100_000}, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.NextGap()
	}
}
