package sim

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"
)

// The schedule-equivalence stress: a seeded scenario that leans on every way
// control moves through the kernel — procs, timers, Mutex/Cond/spin loop/
// Queue/Pool/Station, procs started from callbacks, a second machine domain
// that is halted mid-run, staged Run(until) calls, Stop from a proc and from a
// callback, and Close over procs parked everywhere — and folds (now, actor,
// Running()) of every step into an FNV digest. The digests below were
// recorded on the scheduler-goroutine kernel this one replaced (PR 14); a
// kernel change that reorders a single event, moves the clock differently or
// reports a different Running() anywhere changes them.

// spinLock is the busy-wait lock the baseline engines' log slots model: a
// waiter burns CPU against the pool in 2us quanta while the lock is held. Its
// counters are folded into the stress digest.
type spinLock struct {
	pool                          *Pool
	locked                        bool
	SpinTime, Acquires, Contended int64
}

func (m *spinLock) Lock(p *Proc) {
	m.Acquires++
	if m.locked {
		m.Contended++
	}
	for m.locked {
		m.pool.Use(p, 2000)
		m.SpinTime += 2000
	}
	m.locked = true
}

func (m *spinLock) Unlock() { m.locked = false }

type stressEnd int

const (
	endQuiesce      stressEnd = iota // staged Run(until) calls, then Run(-1) to quiescence
	endBoundary                      // last Run stops at a boundary with events still pending
	endStopProc                      // a proc calls Stop mid-run
	endStopCallback                  // an At function calls Stop mid-run
)

type stressLog struct {
	s     *Sim
	h     hash.Hash64
	steps int
}

func (l *stressLog) step(actor string) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(l.s.Now()))
	l.h.Write(b[:])
	l.h.Write([]byte(actor))
	if r := l.s.Running(); r != nil {
		l.h.Write([]byte("@" + r.Name()))
	} else {
		l.h.Write([]byte{0})
	}
	l.steps++
}

func (l *stressLog) count(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	l.h.Write(b[:])
}

func stressScenario(t *testing.T, seed int64, end stressEnd) (digest uint64, steps int) {
	s := New(seed)
	l := &stressLog{s: s, h: fnv.New64a()}
	rng := s.Rand()

	pool := NewPool(s, 2)
	pool.Quantum = 40
	pool1 := NewPool(s, 1) // machine 1's core
	dev := NewStation(3)
	mu := NewMutex(s)
	cond := NewCond(s)
	spin := &spinLock{pool: pool}
	q := NewQueue(s)
	qOpen := true
	var submitted, completed int

	// Producers mix every blocking primitive; the last one out closes q.
	producers := 4
	for i := 0; i < producers; i++ {
		name := fmt.Sprintf("prod%d", i)
		s.Go(name, func(p *Proc) {
			defer l.step("exit:" + name)
			for n := 0; n < 200; n++ {
				switch rng.Intn(6) {
				case 0:
					p.Sleep(rng.Int63n(30))
				case 1:
					if qOpen {
						q.Push(n)
					}
				case 2:
					mu.Lock(p)
					pool.Use(p, 1+rng.Int63n(120))
					mu.Unlock(p)
				case 3:
					spin.Lock(p)
					p.Sleep(rng.Int63n(5))
					spin.Unlock()
				case 4:
					p.Sleep(0)
				case 5:
					pool.Use(p, 1+rng.Int63n(20))
				}
				l.step(name)
			}
			if producers--; producers == 0 {
				qOpen = false
				q.Close()
			}
		})
	}

	// Consumers pop batches, burn CPU, book the device and let an At function
	// (the aio-completion pattern) wake the waiters.
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("cons%d", i)
		s.Go(name, func(p *Proc) {
			defer l.step("exit:" + name)
			buf := make([]any, 3)
			for {
				batch := q.PopWait(p, buf)
				if batch == nil {
					return
				}
				for range batch {
					pool.Use(p, 10+rng.Int63n(40))
					done := dev.Assign(s.Now(), 20+rng.Int63n(50))
					submitted++
					id := submitted
					s.At(done, func() {
						l.step("io-done")
						completed++
						if id%2 == 0 {
							cond.Broadcast()
						} else {
							cond.Signal()
						}
					})
					l.step(name)
				}
			}
		})
	}

	// Waiters: the second one's target is never reached, so it is still in
	// Cond.Wait when the simulation is closed.
	for i, target := range []int{25, 1 << 30} {
		name := fmt.Sprintf("wait%d", i)
		s.Go(name, func(p *Proc) {
			defer l.step("exit:" + name)
			mu.Lock(p)
			for completed < target {
				cond.Wait(p, mu)
				l.step(name)
			}
			mu.Unlock(p)
		})
	}

	// A self-rescheduling timer that feeds the queue and starts short procs
	// from scheduler context; those finish while events remain.
	var tick func()
	ticks := 0
	tick = func() {
		l.step("tick")
		ticks++
		if qOpen {
			q.Push(-ticks)
		}
		if ticks%7 == 0 {
			name := fmt.Sprintf("spawn%d", ticks)
			s.Go(name, func(p *Proc) {
				defer l.step("exit:" + name)
				pool.Use(p, 5+rng.Int63n(90))
				l.step(name)
			})
		}
		if ticks < 300 {
			s.At(s.Now()+1+rng.Int63n(60), tick)
		}
	}
	s.At(3, tick)

	// Machine 1: two procs and a timer, halted at t=2000; a proc started on
	// it after the halt parks at its first sleep.
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("m1-%d", i)
		s.GoOn(1, name, func(p *Proc) {
			defer l.step("exit:" + name)
			for {
				pool1.Use(p, 5+rng.Int63n(30))
				p.Sleep(rng.Int63n(40))
				l.step(name)
			}
		})
	}
	var tick1 func()
	tick1 = func() {
		l.step("m1-tick")
		s.AtOn(1, s.Now()+10+rng.Int63n(50), tick1)
	}
	s.AtOn(1, 5, tick1)
	s.At(2000, func() {
		l.step("halt")
		s.Halt(1)
	})
	s.At(2200, func() {
		l.step("late-start")
		s.GoOn(1, "m1-late", func(p *Proc) {
			defer l.step("exit:m1-late")
			l.step("m1-late")
			p.Sleep(1)
			l.step("m1-late-unreachable")
		})
	})

	// Procs that are still parked at Close, one per primitive: a mutex held
	// forever, a queue never pushed, a cond never signalled, a far sleep, and
	// one that charges CPU from a defer while being unwound.
	mu2 := NewMutex(s)
	q2 := NewQueue(s)
	cond2 := NewCond(s)
	s.Go("holder", func(p *Proc) {
		defer l.step("exit:holder")
		mu2.Lock(p)
		q2.PopWait(p, make([]any, 1))
	})
	s.Go("blocked-mu", func(p *Proc) {
		defer l.step("exit:blocked-mu")
		p.Sleep(1)
		mu2.Lock(p)
	})
	s.Go("blocked-cond", func(p *Proc) {
		defer l.step("exit:blocked-cond")
		cond2.Wait(p, nil)
	})
	s.Go("far-sleeper", func(p *Proc) {
		defer l.step("exit:far-sleeper")
		p.Sleep(1 << 40)
		l.step("far-sleeper")
		q2.PopWait(p, make([]any, 1))
	})
	s.Go("defer-cpu", func(p *Proc) {
		defer l.step("exit:defer-cpu")
		defer pool.Use(p, 100)
		cond2.Wait(p, nil)
	})

	switch end {
	case endStopProc:
		s.Go("stopper", func(p *Proc) {
			defer l.step("exit:stopper")
			p.Sleep(4000)
			l.step("stop")
			s.Stop()
			pool.Use(p, 30) // keeps control until it parks
			l.step("stopper-unreachable")
		})
	case endStopCallback:
		s.At(4000, func() {
			l.step("stop")
			s.Stop()
		})
	}

	run := func(until Time) {
		if err := s.Run(until); err != nil {
			t.Fatalf("seed %d end %d: Run(%d): %v", seed, end, until, err)
		}
		l.step("run-return")
	}
	for _, until := range []Time{0, 1, 250, 250, 777, 3000} {
		run(until)
		// Work injected between stages, from outside simulation context.
		name := fmt.Sprintf("staged%d", until)
		s.Go(name, func(p *Proc) {
			defer l.step("exit:" + name)
			p.Sleep(rng.Int63n(100))
			mu.Lock(p)
			l.step(name)
			mu.Unlock(p)
		})
		s.At(until+50, func() { l.step("staged-timer") })
	}
	if end == endBoundary {
		run(5000)
	} else {
		run(1 << 39) // short of far-sleeper's wake-up
		run(-1)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("seed %d end %d: Close: %v", seed, end, err)
	}
	l.step("closed")
	if s.Live() != 0 {
		t.Errorf("seed %d end %d: %d procs live after Close", seed, end, s.Live())
	}
	for _, v := range []int64{int64(submitted), int64(completed), int64(ticks),
		pool.Station().BusyTime(), pool1.Station().BusyTime(), dev.BusyTime(),
		mu.Acquires, mu.Contended, spin.Acquires, spin.Contended, spin.SpinTime, q.Pushes} {
		l.count(v)
	}
	return l.h.Sum64(), l.steps
}

var stressGolden = []struct {
	seed   int64
	end    stressEnd
	digest uint64
	steps  int
}{
	{1, endQuiesce, 0x824cedba31cc3d77, 2283},
	{1, endBoundary, 0x157c6252c173adbe, 1001},
	{1, endStopProc, 0x2ba4bac31cef9f4e, 861},
	{1, endStopCallback, 0x8f8fa9168512c85a, 860},
	{7, endQuiesce, 0xb2da64d54aa8bf63, 2291},
	{7, endBoundary, 0xd38157df640327d5, 1170},
	{7, endStopProc, 0x5b38d6e674dd5d49, 955},
	{7, endStopCallback, 0x2d39c2ea294aed91, 954},
}

func TestScheduleEquivalenceStress(t *testing.T) {
	for _, g := range stressGolden {
		digest, steps := stressScenario(t, g.seed, g.end)
		if digest != g.digest || steps != g.steps {
			t.Errorf("seed %d end %d: digest %#016x after %d steps, recorded %#016x after %d",
				g.seed, g.end, digest, steps, g.digest, g.steps)
		}
	}
}
