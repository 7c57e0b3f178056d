package env

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestRealQueueFIFOAndClose(t *testing.T) {
	e := NewReal()
	q := e.NewQueue()
	c := &fakeCtx{}
	for i := 0; i < 5; i++ {
		q.Push(c, i)
	}
	if q.Len() != 5 {
		t.Fatalf("len = %d", q.Len())
	}
	b := q.TryPop(c, make([]any, 3))
	if len(b) != 3 || b[0].(int) != 0 || b[2].(int) != 2 {
		t.Fatalf("TryPop = %v", b)
	}
	b = q.PopWait(c, make([]any, 10))
	if len(b) != 2 {
		t.Fatalf("PopWait = %v", b)
	}
	q.Close(c)
	if b := q.PopWait(c, make([]any, 1)); b != nil {
		t.Fatalf("PopWait after close = %v", b)
	}
}

func TestRealQueueBlocksUntilPush(t *testing.T) {
	e := NewReal()
	q := e.NewQueue()
	c := &fakeCtx{}
	got := make(chan []any, 1)
	go func() { got <- q.PopWait(c, make([]any, 1)) }()
	time.Sleep(10 * time.Millisecond)
	q.Push(c, "x")
	select {
	case b := <-got:
		if len(b) != 1 || b[0].(string) != "x" {
			t.Fatalf("got %v", b)
		}
	case <-time.After(time.Second):
		t.Fatal("PopWait never woke")
	}
}

func TestRealEnvGoAndWait(t *testing.T) {
	e := NewReal()
	var n atomic.Int32
	for i := 0; i < 10; i++ {
		e.Go("t", func(c Ctx) { n.Add(1) })
	}
	e.Wait()
	if n.Load() != 10 {
		t.Fatalf("ran %d goroutines", n.Load())
	}
}

func TestRealCondSignal(t *testing.T) {
	e := NewReal()
	m := e.NewMutex()
	cond := e.NewCond(m)
	c := &fakeCtx{}
	ready := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Lock(c)
		for !ready {
			cond.Wait(c)
		}
		m.Unlock(c)
	}()
	time.Sleep(5 * time.Millisecond)
	m.Lock(c)
	ready = true
	m.Unlock(c)
	cond.Broadcast(c)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("cond wait never woke")
	}
}

func TestNowAdvances(t *testing.T) {
	e := NewReal()
	a := e.Now()
	time.Sleep(2 * time.Millisecond)
	if b := e.Now(); b <= a {
		t.Fatalf("Now did not advance: %d -> %d", a, b)
	}
}

type fakeCtx struct{}

func (fakeCtx) Now() Time    { return 0 }
func (fakeCtx) CPU(Time)     {}
func (fakeCtx) Sleep(d Time) { time.Sleep(time.Duration(d)) }
func (fakeCtx) SetTrace(any) {}
func (fakeCtx) Trace() any   { return nil }

// N goroutines count into one latch at once while one waiter waits; the
// waiter must see every slot they wrote before their Done (under -race, a
// write the latch does not order before Wait's return is reported). Rounds
// re-arm the latch while the last round's Broadcast may still be landing.
func TestRealLatchConcurrentDone(t *testing.T) {
	const n, rounds = 16, 50
	e := NewReal()
	l := NewLatch(e)
	c := &fakeCtx{}
	slots := make([]int, n)
	for r := 1; r <= rounds; r++ {
		l.Add(c, n)
		start := make(chan struct{})
		for i := range slots {
			e.Go("done", func(c Ctx) {
				<-start
				slots[i] = r
				l.Done(nil)
			})
		}
		close(start)
		l.Wait(c)
		for i, v := range slots {
			if v != r {
				t.Fatalf("round %d: slot %d holds %d after Wait", r, i, v)
			}
		}
	}
	e.Wait()
}
