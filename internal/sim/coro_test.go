package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

// Close leaves no coroutine behind, whatever its proc was doing: parked in
// each primitive, asleep on a machine halted under it, or created and never
// run. Every one of them is a goroutine until it ends, so the goroutine count
// is back where it started, and each proc's deferred calls have run.
func TestCloseReleasesEveryCoroutine(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(1)
	pool := NewPool(s, 1)
	mu := NewMutex(s)
	cond := NewCond(s)
	q := NewQueue(s)
	var started, unwound []string
	start := func(machine int, name string, body func(p *Proc)) {
		started = append(started, name)
		s.GoOn(machine, name, func(p *Proc) {
			defer func() { unwound = append(unwound, name) }()
			body(p)
		})
	}
	start(0, "sleep", func(p *Proc) { p.Sleep(1000) })
	start(0, "holder", func(p *Proc) {
		mu.Lock(p)
		cond.Wait(p, nil)
	})
	start(0, "mutex", func(p *Proc) { mu.Lock(p) })
	start(0, "cond", func(p *Proc) { cond.Wait(p, nil) })
	start(0, "queue", func(p *Proc) { q.PopWait(p, make([]any, 1)) })
	start(0, "pool-running", func(p *Proc) { pool.Use(p, 5000) })
	start(0, "pool-queued", func(p *Proc) { pool.Use(p, 5000) })
	start(2, "halted-asleep", func(p *Proc) { p.Sleep(50) })
	s.At(10, func() { s.Halt(2) })
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	// Created after the last Run: its first wake-up is still queued at Close,
	// and its body (deferred call included) must never run.
	s.Go("never-started", func(p *Proc) { t.Error("a proc created after the last Run ran") })
	if live, want := s.Live(), len(started)+1; live != want {
		t.Fatalf("%d procs live before Close, want %d", live, want)
	}
	if during := runtime.NumGoroutine(); during < before+s.Live() {
		t.Errorf("%d goroutines with %d procs live, %d before: a proc without a coroutine?", during, s.Live(), before)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Live() != 0 {
		t.Errorf("%d procs live after Close", s.Live())
	}
	slices.Sort(started)
	slices.Sort(unwound)
	if !slices.Equal(unwound, started) {
		t.Errorf("deferred calls ran in %v, want every proc of %v", unwound, started)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after Close, %d before the simulation was built", after, before)
	}
}

// A proc started from inside another proc first runs when its creator next
// gives up control, after wake-ups queued earlier at that instant; a proc
// that returns without ever parking hands control on like one that parked.
// The expected log is what the goroutine kernel produced.
func TestSpawnFromProcAndFinishWithoutParking(t *testing.T) {
	s := New(1)
	var log []string
	step := func(what string) {
		running := "-"
		if r := s.Running(); r != nil {
			running = r.Name()
		}
		log = append(log, fmt.Sprintf("%d %s @%s", s.Now(), what, running))
	}
	s.Go("parent", func(p *Proc) {
		step("parent starts")
		s.Go("child", func(p *Proc) {
			step("child starts")
			s.Go("grandchild", func(p *Proc) { step("grandchild runs") })
			p.Sleep(5)
			step("child ends")
		})
		s.Go("nopark", func(p *Proc) {
			step("nopark runs")
			s.At(3, func() { step("timer set by nopark") })
		})
		step("parent spawned two")
		p.Sleep(0)
		step("parent yielded")
		p.Sleep(7)
		step("parent ends")
	})
	s.Go("sibling", func(p *Proc) { step("sibling runs") })
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"0 parent starts @parent",
		"0 parent spawned two @parent",
		"0 sibling runs @sibling",
		"0 child starts @child",
		"0 nopark runs @nopark",
		"0 parent yielded @parent",
		"0 grandchild runs @grandchild",
		"3 timer set by nopark @-",
		"5 child ends @child",
		"7 parent ends @parent",
	}
	if !slices.Equal(log, want) {
		t.Errorf("schedule:\n%q\nwant:\n%q", log, want)
	}
	if s.Live() != 0 || s.Running() != nil {
		t.Errorf("after Run: Live() = %d, Running() = %v", s.Live(), s.Running())
	}
}

// A finished proc keeps nothing of its coroutine alive: what its body
// captured is garbage as soon as it returns, although the Sim still tracks
// the Proc. (The benchmark's live-heap metric found this: an open-loop
// generator proc that had finished kept its request pool reachable.)
func TestFinishedProcReleasesItsClosure(t *testing.T) {
	s := New(1)
	var collected atomic.Bool
	func() {
		captured := new([1 << 16]byte)
		runtime.SetFinalizer(captured, func(*[1 << 16]byte) { collected.Store(true) })
		s.Go("short", func(p *Proc) { captured[0] = 1 })
	}()
	s.Go("long", func(p *Proc) { p.Sleep(1000) })
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100 && !collected.Load(); i++ {
		runtime.GC()
		runtime.Gosched() // let the finalizer goroutine run
	}
	if !collected.Load() {
		t.Error("what a finished proc's body captured is still reachable")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
