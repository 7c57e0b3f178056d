// Package env abstracts the execution environment of the key-value engines.
//
// Every engine in this repository (KVell and the baseline designs) is written
// against this small interface instead of directly against goroutines, clocks
// and sync primitives. Two implementations exist:
//
//   - the discrete-event simulator (internal/sim), which provides a virtual
//     clock, a simulated multi-core CPU, and deterministic scheduling — used
//     to reproduce the paper's evaluation on hardware we do not have, and
//   - the real runtime (internal/env.Real*), which maps the interface onto
//     goroutines, sync.Mutex and the wall clock — used by the examples and
//     by the persistence/recovery tests, where KVell runs against real files.
//
// The CPU method is the heart of the substitution described in DESIGN.md:
// in the simulator it charges virtual CPU time against a finite core pool
// (making engines CPU-bound exactly when the paper says they are), and in
// the real runtime it is a no-op (real work costs real time by itself).
package env

// Time is a point in (virtual or real) time, in nanoseconds since the start
// of the environment. Durations use the same unit.
type Time = int64

// Convenient duration units, in nanoseconds.
const (
	Microsecond Time = 1_000
	Millisecond Time = 1_000_000
	Second      Time = 1_000_000_000
)

// Ctx is the per-thread execution context. A Ctx is only valid on the thread
// (simulated proc or real goroutine) it was handed to; it must not be shared.
type Ctx interface {
	// Now returns the current time.
	Now() Time
	// CPU accounts for d nanoseconds of CPU work. In the simulator the
	// calling thread occupies a core for d virtual nanoseconds (queueing
	// behind other threads when all cores are busy); in the real runtime it
	// returns immediately.
	CPU(d Time)
	// Sleep suspends the thread for d nanoseconds.
	Sleep(d Time)
	// SetTrace attaches an observability context to the thread (a
	// *trace.Ctx; typed any to keep this package dependency-free). The
	// simulator's instrumentation hooks read it to attribute CPU bursts and
	// lock waits to the request the thread is currently serving. Purely
	// observational: it never affects scheduling.
	SetTrace(v any)
	// Trace returns the context set by SetTrace, or nil.
	Trace() any
}

// Env creates threads and synchronization objects.
type Env interface {
	// Now returns the current time. It is safe to call from any thread.
	Now() Time
	// Go starts a new thread running fn. The name is used in diagnostics.
	Go(name string, fn func(Ctx))
	// NewMutex returns a mutual-exclusion lock.
	NewMutex() Mutex
	// NewCond returns a condition variable associated with m.
	NewCond(m Mutex) Cond
	// NewQueue returns an unbounded FIFO queue for cross-thread requests.
	NewQueue() Queue
}

// Mutex is a mutual-exclusion lock usable from engine threads.
type Mutex interface {
	Lock(c Ctx)
	Unlock(c Ctx)
}

// Cond is a condition variable. As with sync.Cond, Wait atomically releases
// the associated mutex and suspends the thread; callers must re-check their
// predicate in a loop. Signal and Broadcast may be called by I/O completion
// callbacks, which run without a thread context; they accept a nil Ctx.
type Cond interface {
	Wait(c Ctx)
	Signal(c Ctx)
	Broadcast(c Ctx)
}

// Queue is an unbounded multi-producer FIFO. Pop operations move up to
// len(buf) items into the consumer's buffer and return the filled prefix, so
// a pop allocates nothing and a consumer may block while it still holds a
// batch; PopWait blocks until at least one item is available or the queue is
// closed (in which case it returns nil once drained).
type Queue interface {
	Push(c Ctx, v any)
	PopWait(c Ctx, buf []any) []any
	TryPop(c Ctx, buf []any) []any
	Close(c Ctx)
	Len() int
}
