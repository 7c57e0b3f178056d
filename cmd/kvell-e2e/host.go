package main

import (
	"runtime"
	"syscall"
	"time"

	"kvell/internal/harness"
	"kvell/internal/kv"
)

// hostCost is what a stretch of this Go process cost on the host clock:
// wall and CPU seconds, heap allocations and allocated bytes.
type hostCost struct {
	wall, cpu float64
	mallocs   float64
	bytes     float64
}

// hostMark is a point on the host clock; cost between two marks is their
// difference. ReadMemStats stops the world, so marks are taken only at pass
// boundaries, never per operation.
type hostMark struct {
	t  time.Time
	ru syscall.Rusage
	ms runtime.MemStats
}

func mark() *hostMark {
	m := &hostMark{}
	runtime.ReadMemStats(&m.ms)
	// RUSAGE_SELF covers every thread of the process, so GC work on the
	// second core is charged even though it hides from wall time.
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &m.ru); err != nil {
		panic(err)
	}
	m.t = time.Now()
	return m
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

func (m *hostMark) since(start *hostMark) hostCost {
	return hostCost{
		wall:    m.t.Sub(start.t).Seconds(),
		cpu:     tvSeconds(m.ru.Utime) + tvSeconds(m.ru.Stime) - tvSeconds(start.ru.Utime) - tvSeconds(start.ru.Stime),
		mallocs: float64(m.ms.Mallocs - start.ms.Mallocs),
		bytes:   float64(m.ms.TotalAlloc - start.ms.TotalAlloc),
	}
}

// times scales the two clocks of a cost, not its counts.
func (c hostCost) times(f float64) hostCost {
	c.wall *= f
	c.cpu *= f
	return c
}

// reference is the loop every host time of a timed run is measured against.
//
// The VM this runs on shares its cores with neighbours, and its speed moves
// by 20 to 30% for minutes at a time: over an hour, three-pass medians of
// ycsb_c_zipf's wall time spread 14% (quartiles) and 35% (range), and every
// workload's median moved together by about a quarter between two sets of
// runs, which is the whole of the largest bound a metric may have. Nothing
// measured inside a pass can tell a slower host from slower code. So a fixed
// piece of work that no change to the repository can touch is timed before
// and after each pass, and the pass's wall and CPU seconds are multiplied by
// nominal/measured: host times are in seconds of a host that runs the loop at
// its nominal speed. Over the same hour that cut the spread to 6% and the
// range to 14%, and that of set-up time from 8% to 5%.
//
// The work is two goroutines handing a token back and forth over unbuffered
// channels: on one P that is park, unpark and a scheduler pass per hand-off,
// which is how the simulator itself spends the host's time, and of three
// candidates (this, a pointer chase through 32 MB, a 1 KB-block copy through
// 64 MB) it followed minute-long averages of the pass time closest
// (correlation 0.96, 0.81, 0.90).
type reference struct {
	trips int     // round trips per timing
	last  float64 // seconds the loop took when last timed; 0 before the first
}

const (
	refTrips = 400_000
	// refTripNS is the nominal duration of one round trip: what it took in a
	// quiet hour of the VM this was written on. Only ratios of host times mean
	// anything across machines, and those do not depend on it.
	refTripNS = 520
)

func (r *reference) time() float64 {
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
	}()
	t0 := time.Now()
	v := 0
	for i := 0; i < r.trips; i++ {
		ping <- v
		v = <-pong
	}
	d := time.Since(t0)
	close(ping)
	if v != r.trips {
		panic("reference loop lost a hand-off")
	}
	return d.Seconds()
}

// around runs fn between two timings of the loop, the earlier one shared with
// the call before, and returns the factor fn's host times are multiplied by.
func (r *reference) around(fn func()) float64 {
	if r.last == 0 {
		r.last = r.time()
	}
	before := r.last
	fn()
	r.last = r.time()
	nominal := refTripNS * 1e-9 * float64(r.trips)
	return nominal / ((before + r.last) / 2)
}

// liveHeapMB forces a collection and returns what survives it. The caller
// keeps the store and its disks reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// meteredGen wraps a workload generator so the benchmark can see, from
// outside the harness, where set-up ends (the first generated operation) and
// how many operations were attempted. It forwards every draw unchanged, so
// the simulated schedule is the wrapped generator's own.
type meteredGen struct {
	inner interface {
		harness.Generator
		harness.Filler
	}
	calls   int64
	firstOp *hostMark   // host clock at the first generated operation
	profile *cpuProfile // started there, when set
	// updates and userWriteBytes count the writes the stream asked for, the
	// denominator of device write amplification.
	updates, userWriteBytes int64

	// timed, when set (traced runs only), accumulates wall time spent inside
	// the generator: the "generate" span.
	timed bool
	genNS int64
	// burn is the selfcheck's known-worse variant: spin this long per draw.
	burn time.Duration
}

func (g *meteredGen) InitialItems() []kv.Item { return g.inner.InitialItems() }

func (g *meteredGen) Next() *kv.Request {
	r := &kv.Request{}
	g.FillNext(r)
	return r
}

func (g *meteredGen) FillNext(r *kv.Request) {
	if g.calls == 0 {
		g.firstOp = mark()
		g.profile.start()
	}
	g.calls++
	if !g.timed && g.burn == 0 {
		g.inner.FillNext(r)
	} else {
		t0 := time.Now()
		g.inner.FillNext(r)
		for g.burn > 0 && time.Since(t0) < g.burn {
		}
		g.genNS += int64(time.Since(t0))
	}
	if r.Op == kv.OpUpdate || r.Op == kv.OpRMW {
		g.updates++
		g.userWriteBytes += int64(len(r.Key) + len(r.Value))
	}
}
