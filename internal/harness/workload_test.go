package harness

import (
	"fmt"
	"testing"

	"kvell/internal/env"
	"kvell/internal/sim"
)

// probe is the window tests' message: it completes when the test says so.
type probe struct{ l lease[*probe] }

func probeWindow(e env.Env, n int) *window[*probe] {
	return newWindow(e, n, func(l lease[*probe]) *probe { return &probe{l: l} })
}

// More acquirers than slots: the bound is reached and never exceeded, and
// every operation gets through.
func TestWindowBoundsConcurrentAcquirers(t *testing.T) {
	const depth, procs, each = 4, 4 + 3, 50
	s := sim.New(1)
	e := sim.NewEnv(s, 2)
	win := probeWindow(e, depth)
	inflight, peak, completed := 0, 0, 0
	for p := 0; p < procs; p++ {
		e.Go(fmt.Sprintf("acquirer-%d", p), func(c env.Ctx) {
			for i := 0; i < each; i++ {
				m := win.acquire(c)
				inflight++
				peak = max(peak, inflight)
				if inflight > depth {
					t.Errorf("%d operations in flight, window is %d", inflight, depth)
				}
				s.At(c.Now()+1+s.Rand().Int63n(50), func() {
					inflight--
					completed++
					m.l.release()
				})
				c.Sleep(s.Rand().Int63n(10))
			}
		})
	}
	must(s.Run(-1))
	must(s.Close())
	if peak != depth || completed != procs*each {
		t.Errorf("peak %d in flight (window %d), %d of %d operations completed", peak, depth, completed, procs*each)
	}
}

func TestWindowDrainWaitsForLastCompletion(t *testing.T) {
	s := sim.New(1)
	e := sim.NewEnv(s, 1)
	win := probeWindow(e, 3)
	drained := env.Time(-1)
	e.Go("client", func(c env.Ctx) {
		for _, at := range []env.Time{300, 100, 200} {
			m := win.acquire(c)
			s.At(at, func() { m.l.release() })
		}
		win.drain(c)
		drained = c.Now()
	})
	must(s.Run(-1))
	must(s.Close())
	if drained != 300 {
		t.Errorf("drain returned at t=%d, the last completion is at t=300", drained)
	}
}

// The steady-state issue path: a slot's message and its completion callback
// exist before the first operation, so an acquire→complete cycle allocates
// nothing.
func TestAllocBudgetWindowCycle(t *testing.T) {
	win := probeWindow(env.NewReal(), 4)
	if n := testing.AllocsPerRun(1000, func() { win.acquire(nil).l.release() }); n != 0 {
		t.Errorf("acquire→complete allocates %.1f times, want 0", n)
	}
}
