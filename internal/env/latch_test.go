package env_test

import (
	"testing"

	"kvell/internal/env"
	"kvell/internal/sim"
)

// runSim runs body as one proc of a fresh two-core simulation, then closes
// it, failing the test if a proc failed.
func runSim(t *testing.T, setup func(s *sim.Sim, e *sim.Env)) {
	t.Helper()
	s := sim.New(1)
	e := sim.NewEnv(s, 2)
	setup(s, e)
	if err := s.Run(env.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// Done runs from scheduler context with a nil Ctx, as an I/O or network
// completion does; the waiter wakes at the last one, at that instant.
func TestLatchDoneFromSchedulerContext(t *testing.T) {
	var woke env.Time = -1
	runSim(t, func(s *sim.Sim, e *sim.Env) {
		l := env.NewLatch(e)
		e.Go("waiter", func(c env.Ctx) {
			l.Add(c, 2)
			s.At(10*env.Microsecond, func() { l.Done(nil) })
			s.At(25*env.Microsecond, func() { l.Done(nil) })
			l.Wait(c)
			woke = c.Now()
		})
	})
	if woke != 25*env.Microsecond {
		t.Fatalf("waiter woke at %d ns, want at the last Done (25000 ns)", woke)
	}
}

// Wait at count zero returns at once: it must not park until some later
// Broadcast (here, another user's Done on the same latch at 10 µs).
func TestLatchWaitAtZeroDoesNotPark(t *testing.T) {
	var returned env.Time = -1
	runSim(t, func(s *sim.Sim, e *sim.Env) {
		l := env.NewLatch(e)
		e.Go("waiter", func(c env.Ctx) {
			c.Sleep(env.Microsecond)
			l.Wait(c)
			returned = c.Now()
		})
		e.Go("other", func(c env.Ctx) {
			c.Sleep(10 * env.Microsecond)
			l.Add(c, 1)
			l.Done(c)
		})
	})
	if returned != env.Microsecond {
		t.Fatalf("Wait at zero returned at %d ns, want 1000 ns (no park)", returned)
	}
}

// Every waiter wakes on the last Done, none on an earlier one.
func TestLatchWakesEveryWaiter(t *testing.T) {
	const waiters = 3
	var woke []env.Time
	runSim(t, func(s *sim.Sim, e *sim.Env) {
		l := env.NewLatch(e)
		l.Add(nil, 3)
		for range waiters {
			e.Go("waiter", func(c env.Ctx) {
				l.Wait(c)
				woke = append(woke, c.Now())
			})
		}
		e.Go("completer", func(c env.Ctx) {
			for range 3 {
				c.Sleep(10 * env.Microsecond)
				l.Done(c)
			}
		})
	})
	if len(woke) != waiters {
		t.Fatalf("%d of %d waiters woke", len(woke), waiters)
	}
	for i, at := range woke {
		if at != 30*env.Microsecond {
			t.Errorf("waiter %d woke at %d ns, want 30000 ns", i, at)
		}
	}
}

// A latch that has counted down is armed again by Add, as the pooled
// waiters of core and device re-arm theirs for every request.
func TestLatchRearm(t *testing.T) {
	var rounds []env.Time
	runSim(t, func(s *sim.Sim, e *sim.Env) {
		l := env.NewLatch(e)
		e.Go("waiter", func(c env.Ctx) {
			for r := env.Time(1); r <= 3; r++ {
				l.Add(c, 2)
				now := c.Now()
				s.At(now+r*env.Microsecond, func() { l.Done(nil) })
				s.At(now+2*r*env.Microsecond, func() { l.Done(nil) })
				l.Wait(c)
				rounds = append(rounds, c.Now()-now)
			}
		})
	})
	want := []env.Time{2 * env.Microsecond, 4 * env.Microsecond, 6 * env.Microsecond}
	if len(rounds) != len(want) {
		t.Fatalf("%d rounds completed, want %d", len(rounds), len(want))
	}
	for i := range want {
		if rounds[i] != want[i] {
			t.Errorf("round %d waited %d ns, want %d ns", i, rounds[i], want[i])
		}
	}
}
