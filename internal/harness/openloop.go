package harness

import (
	"fmt"
	"math/rand"

	"kvell/internal/core"
	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/sim"
	"kvell/internal/stats"
)

// ValvePolicy selects what the admission valve does with an arrival whose
// target shard is already at its outstanding bound.
type ValvePolicy uint8

const (
	// Shed rejects the arrival outright: it is counted, not serviced, and
	// contributes no latency sample. Goodput and p99 stay measurements of
	// the work the system accepted.
	Shed ValvePolicy = iota
	// Delay holds admission until the shard drains below its bound. The
	// arrival's latency clock keeps running from its scheduled arrival
	// time, so the backpressure wait is visible in the distribution.
	Delay
)

// String names the policy.
func (p ValvePolicy) String() string {
	if p == Delay {
		return "delay"
	}
	return "shed"
}

// Arrival configures the open-loop arrival process: requests arrive on a
// seeded Poisson process at Rate ops/s of virtual time — independent of
// service completions, unlike the default closed-loop clients — and pass
// through a per-shard admission valve before reaching the engine.
type Arrival struct {
	// Rate is the mean arrival rate in operations per virtual second.
	Rate float64
	// MaxPerShard bounds admitted-but-incomplete requests per engine shard
	// (a KVell shard; one shard for library engines, scaled by the KVell
	// default worker count to keep bounds comparable). Default 1024.
	MaxPerShard int
	// Policy is what happens at the bound (default Shed).
	Policy ValvePolicy
}

func (a *Arrival) maxPerShard() int {
	if a.MaxPerShard <= 0 {
		return 1024
	}
	return a.MaxPerShard
}

// ArrivalGen draws Poisson inter-arrival gaps. The draw path does not
// allocate.
type ArrivalGen struct {
	r         *rand.Rand
	meanGap   float64 // mean inter-arrival gap, ns
	shortfall float64 // fractional ns carried between draws
}

// NewArrivalGen builds the generator for a (seeded) arrival spec.
func NewArrivalGen(a *Arrival, seed int64) *ArrivalGen {
	return &ArrivalGen{
		r:       rand.New(rand.NewSource(seed)),
		meanGap: float64(env.Second) / a.Rate,
	}
}

// NextGap returns the virtual-time gap to the next arrival. Gaps are
// exponentially distributed around the mean; sub-nanosecond remainders carry
// over so the long-run rate is exact even at extreme arrival rates.
func (g *ArrivalGen) NextGap() env.Time {
	gap := g.r.ExpFloat64()*g.meanGap + g.shortfall
	whole := env.Time(gap)
	g.shortfall = gap - float64(whole)
	return whole
}

// Digest fingerprints the next n gaps — the golden-fixture hook for the
// generator's determinism test.
func (g *ArrivalGen) Digest(n int) uint64 {
	d := stats.NewFNV()
	for i := 0; i < n; i++ {
		d.Word(uint64(g.NextGap()))
	}
	return uint64(d)
}

// shardsOf returns the admission shard count for an engine: KVell's shard
// count, or one aggregate shard for single-submission-path engines.
func shardsOf(eng kv.Engine) int {
	if st, ok := eng.(*core.Store); ok {
		return st.Shards()
	}
	return 1
}

// runOpenLoop drives the engine with the spec's arrival process. One
// dispatcher proc generates arrivals, fills requests from the workload
// generator (one draw per arrival, shed or not, so the operation stream is
// independent of valve behavior), applies the admission valve, and hands
// admitted requests to a pool of service procs that submit them — blocking
// engines occupy a service proc for the duration of the op, KVell returns
// immediately and completes via Done.
func runOpenLoop(e *sim.Env, spec *Spec, res *Result, eng kv.Engine, gen Generator, end env.Time) {
	a := spec.Arrival
	ag := NewArrivalGen(a, spec.Seed+0x6F70656E) // "open"
	shards := shardsOf(eng)
	perShard := a.maxPerShard()
	if shards == 1 {
		// Single-submission-path engines get one aggregate shard; scale its
		// bound so total admitted capacity matches a default KVell run.
		perShard *= core.DefaultConfig().Workers
	}
	outstanding := make([]int, shards)
	total := 0
	mu := e.NewMutex()
	drained := e.NewCond(mu)

	admitQ := e.NewQueue()
	fill := fillFunc(gen)
	var free []*kv.Request

	shardFor := func(key []byte) int {
		if shards == 1 {
			return 0
		}
		return int(kv.Hash64(key) % uint64(shards))
	}

	// finishOne books a completion and credits its shard. It runs on
	// whatever proc invoked Done (engine worker or service proc); each
	// pooled request's Done is wired to it once, so steady-state dispatch
	// allocates nothing.
	finishOne := func(r *kv.Request) {
		res.complete(r)
		mu.Lock(nil)
		outstanding[shardFor(r.Key)]--
		total--
		free = append(free, r)
		mu.Unlock(nil)
		drained.Broadcast(nil)
	}

	e.Go("openloop-dispatch", func(c env.Ctx) {
		for {
			gap := ag.NextGap()
			if gap > 0 {
				c.Sleep(gap)
			}
			if c.Now() >= end {
				break
			}
			arrived := c.Now()
			res.Arrivals++
			mu.Lock(c)
			var r *kv.Request
			if n := len(free); n > 0 {
				r = free[n-1]
				free = free[:n-1]
			}
			mu.Unlock(c)
			if r == nil {
				nr := &kv.Request{}
				nr.Done = func(kv.Result) { finishOne(nr) }
				r = nr
			}
			fill(r, arrived)
			shard := shardFor(r.Key)
			mu.Lock(c)
			if outstanding[shard] >= perShard {
				if a.Policy == Shed {
					if arrived >= spec.Warmup && arrived < end {
						res.Shed++
					}
					free = append(free, r)
					mu.Unlock(c)
					continue
				}
				if arrived >= spec.Warmup && arrived < end {
					res.Delayed++
				}
				for outstanding[shard] >= perShard {
					drained.Wait(c)
				}
			}
			outstanding[shard]++
			total++
			mu.Unlock(c)
			// Latency is measured from the scheduled arrival: any valve
			// delay and admit-queue wait counts against the system.
			r.Start = arrived
			admitQ.Push(c, r)
		}
		admitQ.Close(c)
	})

	procs := spec.Clients
	active := procs
	for ci := 0; ci < procs; ci++ {
		e.Go(fmt.Sprintf("openloop-serve-%d", ci), func(c env.Ctx) {
			buf := make([]any, 1)
			for {
				batch := admitQ.PopWait(c, buf)
				if batch == nil {
					break
				}
				submit(c, eng, spec.Tracer, batch[0].(*kv.Request))
			}
			active--
			if active > 0 {
				return
			}
			// Last service proc: wait for every admitted request to
			// complete, then stop the engine.
			mu.Lock(c)
			for total > 0 {
				drained.Wait(c)
			}
			mu.Unlock(c)
			eng.Stop(c)
		})
	}
}
