// Package aio is KVell's batched asynchronous I/O engine (§5.4), modeling
// the Linux AIO io_submit/io_getevents interface: a worker submits up to
// BatchSize requests with a single system call, amortizing syscall CPU cost
// over the batch, and later collects completions. Because each worker owns
// one I/O engine bound to one disk, the device queue length is bounded by
// (batch size × workers per disk), the property §4.3 relies on to get both
// high bandwidth and low latency.
package aio

import (
	"kvell/internal/costs"
	"kvell/internal/device"
	"kvell/internal/env"
)

// IO is a single asynchronous page request: the device.Request it submits,
// plus Tag, which carries engine state through to completion. The caller
// fills Op, Page and Buf, and may set Trace (to attribute the device time to
// a request's trace context) and Enqueued (to backdate the queue wait to when
// the I/O joined the worker's batch). Done belongs to the engine: it is bound
// to the IO's completion at its first Submit and left bound, so an IO may be
// pooled and resubmitted, on any engine, without allocating. Once GetEvents
// returns the IO, Buf holds the data (a read submitted without a buffer
// completes with the disk's image of its page) and Completed the device's
// predicted completion time.
type IO struct {
	device.Request
	Tag any

	eng *Engine // the engine of the latest Submit
}

// complete queues io on the engine it was submitted on. It runs on the
// simulation scheduler or a real executor goroutine; both may take the mutex
// (never held across a park by the worker).
func (io *IO) complete() {
	a := io.eng
	a.mu.Lock(nil)
	a.completed = append(a.completed, io)
	a.mu.Unlock(nil)
	a.cond.Signal(nil)
}

// Engine is a per-worker asynchronous I/O context.
type Engine struct {
	dev device.Disk

	mu        env.Mutex
	cond      env.Cond
	completed []*IO
	spare     []*IO // previous completion batch, recycled as the next list
	inflight  int
	waiting   bool // a GetEvents is parked on cond
	kicked    bool // Kick woke that GetEvents

	// Stats
	Syscalls  int64
	Submitted int64
}

// New returns an I/O engine for dev using e's synchronization primitives.
func New(e env.Env, dev device.Disk) *Engine {
	a := &Engine{dev: dev}
	a.mu = e.NewMutex()
	a.cond = e.NewCond(a.mu)
	return a
}

// Disk returns the underlying device.
func (a *Engine) Disk() device.Disk { return a.dev }

// Inflight returns the number of submitted-but-uncollected requests
// (includes completions not yet returned by GetEvents).
func (a *Engine) Inflight() int { return a.inflight }

// Busy reports whether the device has no idle channel, so that a request
// submitted now would only queue behind the ones in service.
func (a *Engine) Busy() bool { return a.dev.Busy() }

// Kick wakes a GetEvents parked on this engine, which then returns without
// waiting for its completions. It models a request queue and the AIO context
// signalling one eventfd (io_set_eventfd): the owner sleeps on both. A kick
// only lands while the device has an idle channel: otherwise a request issued
// now would only queue, and the owner keeps sleeping to batch it with the
// next completion. With no GetEvents parked a kick is a no-op.
func (a *Engine) Kick(c env.Ctx) {
	if a.Busy() {
		return
	}
	a.mu.Lock(c)
	wake := a.waiting && !a.kicked
	if wake {
		a.kicked = true
	}
	a.mu.Unlock(c)
	if wake {
		a.cond.Signal(c)
	}
}

// Submit issues a batch of requests with the cost of one system call
// (io_submit). Completion data becomes available via GetEvents.
func (a *Engine) Submit(c env.Ctx, ios []*IO) {
	if len(ios) == 0 {
		return
	}
	if a.dev.Dead() {
		// The machine died mid-run: the syscall never executes (no CPU
		// charge) and the requests are lost. They still count as in flight
		// so a worker's GetEvents parks instead of spinning — nothing will
		// ever complete them, and sim.Close unwinds the parked proc.
		a.mu.Lock(c)
		a.inflight += len(ios)
		a.mu.Unlock(c)
		return
	}
	c.CPU(costs.Syscall + env.Time(len(ios))*costs.SyscallPerReq)
	a.Syscalls++
	a.Submitted += int64(len(ios))
	a.mu.Lock(c)
	a.inflight += len(ios)
	a.mu.Unlock(c)
	for _, io := range ios {
		if io.Done == nil {
			io.Done = io.complete
		}
		io.eng = a
		a.dev.Submit(&io.Request)
	}
}

// GetEvents blocks until at least min completions are available (or none
// can ever arrive) or a Kick wakes it, and returns the completions there
// are, charging one system call (io_getevents). min is clamped to the number
// of requests in flight. An empty return charges nothing: the wake is a read
// of the eventfd, whose count says there are no events to collect. The
// returned slice is only valid until the next GetEvents call, which recycles
// its backing array.
func (a *Engine) GetEvents(c env.Ctx, min int) []*IO {
	a.mu.Lock(c)
	if min > a.inflight {
		min = a.inflight
	}
	for len(a.completed) < min && !a.kicked {
		a.waiting = true
		a.cond.Wait(c)
		a.waiting = false
	}
	a.kicked = false
	if len(a.completed) == 0 {
		a.mu.Unlock(c)
		return nil
	}
	out := a.completed
	// Ping-pong the two batch lists: the caller finishes with the returned
	// slice before calling GetEvents again, so its array can back the next
	// completion list instead of a fresh allocation.
	a.completed = a.spare[:0]
	a.spare = out
	a.inflight -= len(out)
	a.mu.Unlock(c)
	c.CPU(costs.Syscall + env.Time(len(out))*costs.SyscallPerReq/4)
	return out
}
