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
	"kvell/internal/trace"
)

// IO is a single asynchronous page request. Tag carries engine state
// through to completion. IO values may be pooled by the worker: the device
// request and completion callback are embedded and wired once, so resubmitting
// a recycled IO allocates nothing.
type IO struct {
	Op   device.Op
	Page int64
	Buf  []byte
	Tag  any
	// Trace, if set, attributes the device time of this I/O to a request's
	// trace context; Created backdates its queue wait to when the I/O joined
	// the worker's batch.
	Trace   *trace.Ctx
	Created env.Time

	eng  *Engine
	req  device.Request
	done func()
}

// Completed returns the device's predicted completion time for the last
// submission of this I/O (valid once the I/O is returned by GetEvents).
func (io *IO) Completed() env.Time { return io.req.Completed }

// Engine is a per-worker asynchronous I/O context.
type Engine struct {
	dev  device.Disk
	busy BusyDevice // dev's idle-channel test, nil if it has none

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

	// ChargeSyscalls disables syscall CPU accounting when false (used by
	// recovery, which the paper measures in I/O time).
	ChargeSyscalls bool
}

// DeadDevice is implemented by devices that can die mid-run (the fault
// injector's wrapped disk). Once Dead reports true the device accepts no
// further I/O: submitted requests vanish and never complete.
type DeadDevice interface{ Dead() bool }

// BusyDevice is implemented by devices that can say whether every channel is
// in service. A device without it is never busy.
type BusyDevice interface{ Busy() bool }

// New returns an I/O engine for dev using e's synchronization primitives.
func New(e env.Env, dev device.Disk) *Engine {
	a := &Engine{dev: dev, ChargeSyscalls: true}
	a.busy, _ = dev.(BusyDevice)
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
func (a *Engine) Busy() bool { return a.busy != nil && a.busy.Busy() }

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
	if dd, ok := a.dev.(DeadDevice); ok && dd.Dead() {
		// The machine died mid-run: the syscall never executes (no CPU
		// charge) and the requests are lost. They still count as in flight
		// so a worker's GetEvents parks instead of spinning — nothing will
		// ever complete them, and sim.Close unwinds the parked proc.
		a.mu.Lock(c)
		a.inflight += len(ios)
		a.mu.Unlock(c)
		return
	}
	if a.ChargeSyscalls {
		c.CPU(costs.Syscall + env.Time(len(ios))*costs.SyscallPerReq)
	}
	a.Syscalls++
	a.Submitted += int64(len(ios))
	a.mu.Lock(c)
	a.inflight += len(ios)
	a.mu.Unlock(c)
	for _, io := range ios {
		if io.done == nil || io.eng != a {
			io := io
			io.eng = a
			io.done = func() {
				// Runs on the simulation scheduler or a real executor
				// goroutine; both may take the mutex (never held across a
				// park by the worker).
				a.mu.Lock(nil)
				a.completed = append(a.completed, io)
				a.mu.Unlock(nil)
				a.cond.Signal(nil)
			}
		}
		io.req = device.Request{Op: io.Op, Page: io.Page, Buf: io.Buf, Done: io.done,
			Trace: io.Trace, Enqueued: io.Created}
		a.dev.Submit(&io.req)
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
	if a.ChargeSyscalls {
		c.CPU(costs.Syscall + env.Time(len(out))*costs.SyscallPerReq/4)
	}
	return out
}
