package sim

import (
	"testing"

	"kvell/internal/env"
)

func TestEnvAdapterBasics(t *testing.T) {
	s := New(1)
	e := NewEnv(s, 4)
	if e.Now() != 0 {
		t.Fatal("fresh env time not zero")
	}
	var order []string
	mu := e.NewMutex()
	cond := e.NewCond(mu)
	q := e.NewQueue()
	ready := false

	e.Go("producer", func(c env.Ctx) {
		c.CPU(1000)
		c.Sleep(50)
		q.Push(c, "item")
		mu.Lock(c)
		ready = true
		mu.Unlock(c)
		cond.Broadcast(c)
		order = append(order, "produced")
	})
	e.Go("consumer", func(c env.Ctx) {
		mu.Lock(c)
		for !ready {
			cond.Wait(c)
		}
		mu.Unlock(c)
		got := q.PopWait(c, make([]any, 4))
		if len(got) != 1 || got[0].(string) != "item" {
			t.Errorf("queue got %v", got)
		}
		order = append(order, "consumed")
		if c.Now() <= 0 {
			t.Error("time did not advance")
		}
	})
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if len(order) != 2 || order[0] != "produced" || order[1] != "consumed" {
		t.Fatalf("order = %v", order)
	}
	if e.CPUs.Station().BusyTime() != 1000 {
		t.Fatalf("CPU busy = %d", e.CPUs.Station().BusyTime())
	}
}

func TestEnvQueueCloseAndTryPop(t *testing.T) {
	s := New(1)
	e := NewEnv(s, 1)
	q := e.NewQueue()
	e.Go("t", func(c env.Ctx) {
		q.Push(c, 1)
		q.Push(c, 2)
		if q.Len() != 2 {
			t.Errorf("len = %d", q.Len())
		}
		if got := q.TryPop(c, make([]any, 1)); len(got) != 1 || got[0].(int) != 1 {
			t.Errorf("TryPop = %v", got)
		}
		q.Close(c)
		if got := q.PopWait(c, make([]any, 5)); len(got) != 1 {
			t.Errorf("drain after close = %v", got)
		}
		if got := q.PopWait(c, make([]any, 5)); got != nil {
			t.Errorf("closed empty queue returned %v", got)
		}
	})
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	s.Close()
}

func TestSchedulerContextLockFromCallback(t *testing.T) {
	// Completion callbacks lock with a nil ctx; uncontended TryLock path.
	s := New(1)
	e := NewEnv(s, 1)
	m := e.NewMutex()
	ran := false
	s.At(10, func() {
		m.Lock(nil)
		ran = true
		m.Unlock(nil)
	})
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if !ran {
		t.Fatal("callback never ran")
	}
}

func TestCtxHelper(t *testing.T) {
	s := New(1)
	e := NewEnv(s, 1)
	s.Go("raw", func(p *Proc) {
		c := e.Ctx(p)
		c.CPU(500)
		c.Sleep(10)
		if c.Now() < 510 {
			t.Errorf("now = %d", c.Now())
		}
	})
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	s.Close()
}
