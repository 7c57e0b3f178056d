package env

import (
	"sync"
	"time"
)

// RealEnv maps the environment interface onto the Go runtime: real
// goroutines, sync primitives and the wall clock. CPU charging is a no-op
// (real work already costs real time). It is used when KVell runs as an
// actual persistent store over real files.
type RealEnv struct {
	start time.Time
	wg    sync.WaitGroup
}

// NewReal returns a real-runtime environment.
func NewReal() *RealEnv { return &RealEnv{start: time.Now()} }

// Now implements Env.
func (e *RealEnv) Now() Time { return time.Since(e.start).Nanoseconds() }

// Go implements Env.
func (e *RealEnv) Go(name string, fn func(Ctx)) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		fn(&realCtx{e: e})
	}()
}

// Wait blocks until every thread started with Go has returned.
func (e *RealEnv) Wait() { e.wg.Wait() }

// NewMutex implements Env.
func (e *RealEnv) NewMutex() Mutex { return &realMutex{} }

// NewCond implements Env.
func (e *RealEnv) NewCond(m Mutex) Cond {
	return &realCond{c: sync.NewCond(&m.(*realMutex).mu)}
}

// NewQueue implements Env.
func (e *RealEnv) NewQueue() Queue {
	q := &realQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

type realCtx struct {
	e     *RealEnv
	trace any
}

func (c *realCtx) Now() Time      { return c.e.Now() }
func (c *realCtx) CPU(d Time)     {}
func (c *realCtx) Sleep(d Time)   { time.Sleep(time.Duration(d)) }
func (c *realCtx) SetTrace(v any) { c.trace = v }
func (c *realCtx) Trace() any     { return c.trace }

type realMutex struct{ mu sync.Mutex }

func (m *realMutex) Lock(Ctx)   { m.mu.Lock() }
func (m *realMutex) Unlock(Ctx) { m.mu.Unlock() }

type realCond struct{ c *sync.Cond }

func (c *realCond) Wait(Ctx)      { c.c.Wait() }
func (c *realCond) Signal(Ctx)    { c.c.Signal() }
func (c *realCond) Broadcast(Ctx) { c.c.Broadcast() }

// realQueue is an unbounded FIFO with blocking batched pop.
type realQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []any
	closed bool
}

func (q *realQueue) Push(c Ctx, v any) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		panic("env: push to closed queue")
	}
	q.items = append(q.items, v)
	q.cond.Signal()
}

func (q *realQueue) take(buf []any) []any {
	n := copy(buf, q.items)
	q.items = append(q.items[:0], q.items[n:]...)
	return buf[:n]
}

func (q *realQueue) PopWait(c Ctx, buf []any) []any {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil
	}
	return q.take(buf)
}

func (q *realQueue) TryPop(c Ctx, buf []any) []any {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.take(buf)
}

func (q *realQueue) Close(c Ctx) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

func (q *realQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}
