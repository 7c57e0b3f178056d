package sim

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
)

// goid names the calling goroutine ("goroutine 17"), so a test can tell which
// goroutine the kernel ran a scheduled function on.
func goid() string {
	line, _, _ := bytes.Cut(debug.Stack(), []byte(" ["))
	return string(line)
}

// A proc whose own wake-up is the next proc event runs the scheduled
// functions in between from its park and carries on, on its own goroutine,
// with Running() nil inside the function and itself again afterwards.
func TestSelfResume(t *testing.T) {
	s := New(1)
	c := NewCond(s)
	var procG, fnG string
	var fnRunning, after *Proc
	var woke Time
	waiter := s.Go("waiter", func(p *Proc) {
		procG = goid()
		s.At(10, func() {
			fnG, fnRunning = goid(), s.Running()
			c.Signal()
		})
		c.Wait(p, nil)
		woke, after = p.Now(), s.Running()
	})
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	if fnG != procG {
		t.Errorf("At function ran on %s, want the parked waiter's %s", fnG, procG)
	}
	if fnRunning != nil {
		t.Errorf("Running() inside the At function = %q, want nil", fnRunning.Name())
	}
	if woke != 10 || after != waiter {
		t.Errorf("waiter resumed at %d with Running() = %v, want 10 and itself", woke, after)
	}
	if s.Running() != nil || s.Live() != 0 {
		t.Errorf("after Run: Running() = %v, Live() = %d", s.Running(), s.Live())
	}
}

// A proc that returns while events remain dispatches them from its exiting
// goroutine and hands control to the next proc.
func TestFinishThenDispatch(t *testing.T) {
	s := New(1)
	var shortG, fnG, otherG string
	var otherWoke Time
	s.Go("other", func(p *Proc) {
		otherG = goid()
		p.Sleep(20)
		otherWoke = p.Now()
		if g := goid(); g != otherG {
			t.Errorf("other resumed on %s, started on %s", g, otherG)
		}
	})
	s.Go("short", func(p *Proc) {
		shortG = goid()
		s.At(10, func() { fnG = goid() })
	})
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	if fnG != shortG || fnG == otherG {
		t.Errorf("At function ran on %s, want the finished proc's %s (other is %s)", fnG, shortG, otherG)
	}
	if otherWoke != 20 || s.Live() != 0 {
		t.Errorf("other woke at %d, Live() = %d; want 20 and 0", otherWoke, s.Live())
	}
}

// A panic in a scheduled function is raised on Run's caller whichever
// goroutine was dispatching, and is never booked as a failure of the
// bystander proc whose goroutine ran it: the simulation can carry on.
func TestCallbackPanicSurfacesFromRun(t *testing.T) {
	for _, tc := range []struct {
		dispatcher string
		start      func(s *Sim)
		frame      string // a frame of the dispatching goroutine ...
		notFrame   string // ... and one it must not have
		live       int    // procs left parked by the panic
	}{
		{"Run's caller", func(s *Sim) {}, "(*Sim).Run", "(*Sim).relinquish", 0},
		{"a parked proc", func(s *Sim) {
			s.Go("bystander", func(p *Proc) { p.Sleep(100) })
		}, "(*Proc).park", "(*Sim).Run", 1},
		{"a finished proc", func(s *Sim) {
			s.Go("bystander", func(p *Proc) {})
		}, "(*Sim).relinquish", "(*Proc).park", 0},
	} {
		s := New(1)
		tc.start(s)
		s.At(50, func() { panic("boom") })
		var after Time
		s.At(60, func() { after = s.Now() })

		var raised any
		func() {
			defer func() { raised = recover() }()
			err := s.Run(-1)
			t.Errorf("%s dispatching: Run returned (%v), want the panic raised", tc.dispatcher, err)
		}()
		msg := fmt.Sprint(raised)
		if _, ok := raised.(error); !ok || !strings.Contains(msg, "scheduled function panicked: boom") {
			t.Fatalf("%s dispatching: Run raised %v", tc.dispatcher, raised)
		}
		if !strings.Contains(msg, tc.frame) || strings.Contains(msg, tc.notFrame) {
			t.Errorf("%s dispatching: panic stack should have %s and not %s:\n%s",
				tc.dispatcher, tc.frame, tc.notFrame, msg)
		}
		if strings.Contains(msg, `proc "bystander"`) || s.Live() != tc.live {
			t.Errorf("%s dispatching: bystander blamed or lost (Live() = %d, want %d): %s",
				tc.dispatcher, s.Live(), tc.live, msg)
		}
		// Nothing is poisoned: the next Run dispatches the remaining events.
		if err := s.Run(-1); err != nil {
			t.Errorf("%s dispatching: Run after the panic: %v", tc.dispatcher, err)
		}
		if after != 60 || s.Live() != 0 {
			t.Errorf("%s dispatching: second Run reached t=%d with %d live procs, want 60 and 0",
				tc.dispatcher, after, s.Live())
		}
		if err := s.Close(); err != nil {
			t.Errorf("%s dispatching: Close: %v", tc.dispatcher, err)
		}
	}
}

// Close unwinds procs parked in every primitive: those with a wake-up still
// queued first, in event order, then the rest in creation order — including a
// proc that never started because its machine was halted first.
func TestCloseUnwindsEveryPrimitiveInCreationOrder(t *testing.T) {
	s := New(1)
	pool := NewPool(s, 1)
	mu := NewMutex(s)
	spin := &spinLock{pool: pool}
	cond := NewCond(s)
	q := NewQueue(s)
	var order []string
	start := func(name string, body func(p *Proc)) {
		s.Go(name, func(p *Proc) {
			defer func() { order = append(order, name) }()
			body(p)
		})
	}
	start("cond", func(p *Proc) { cond.Wait(p, nil) })
	start("sleep-far", func(p *Proc) { p.Sleep(1000) })
	start("queue", func(p *Proc) { q.PopWait(p, make([]any, 1)) })
	start("holder", func(p *Proc) {
		mu.Lock(p)
		spin.Lock(p)
		cond.Wait(p, nil)
	})
	start("mutex", func(p *Proc) { mu.Lock(p) })
	start("sleep-near", func(p *Proc) { p.Sleep(500) })
	start("cond-mutex", func(p *Proc) {
		mu2 := NewMutex(s)
		mu2.Lock(p)
		cond.Wait(p, mu2)
	})
	start("pool", func(p *Proc) { pool.Use(p, 700) })
	start("spin", func(p *Proc) {
		p.Sleep(50)
		spin.Lock(p) // spins: one 2us quantum queued behind pool's burst
	})
	s.Halt(3)
	s.GoOn(3, "never-started", func(p *Proc) { t.Error("proc on a halted machine ran") })

	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"sleep-near", "pool", "sleep-far", "spin", // queued wake-ups, by time
		"cond", "queue", "holder", "mutex", "cond-mutex", // parked, by creation
	}
	if !slices.Equal(order, want) {
		t.Errorf("unwind order %v, want %v", order, want)
	}
	if s.Live() != 0 {
		t.Errorf("%d procs live after Close", s.Live())
	}
}
