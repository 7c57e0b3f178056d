package device

import (
	"kvell/internal/env"
	"kvell/internal/trace"
)

// StoreOf returns the backing store behind a disk, for the untimed direct
// writes of bulk load and the host-side reads of verification. Every disk
// that can be loaded this way (SimDisk, RealDisk and the wrappers that
// delegate to them) has a Store method.
func StoreOf(d Disk) Store {
	return d.(interface{ Store() Store }).Store()
}

// SyncIO issues blocking device requests: Do submits one request and parks
// the calling thread until it completes — the shape of a read or write
// system call, which is how the library-model engines do all their I/O.
// Waiters (mutex, cond, bound completion callback and request record) are
// recycled, so a request allocates nothing in steady state.
//
// The free list is host-only state touched without a lock: simulated procs
// are cooperatively scheduled and the pop and push contain no yield point,
// so they cannot interleave. A real-runtime caller gives each thread its own.
type SyncIO struct {
	env  env.Env
	free []*syncWaiter
}

type syncWaiter struct {
	mu     env.Mutex
	cond   env.Cond
	ok     bool
	req    Request
	doneFn func()
}

// NewSyncIO returns an empty pool of blocking requests.
func NewSyncIO(e env.Env) *SyncIO { return &SyncIO{env: e} }

// Do runs one request of len(buf)/PageSize pages against disk and returns
// when it has completed, attributing device time to c's trace context. The
// device copies the request's fields at submission, so the record is free
// for reuse once the wait returns.
func (s *SyncIO) Do(c env.Ctx, disk Disk, op Op, page int64, buf []byte) {
	var w *syncWaiter
	if n := len(s.free); n > 0 {
		w = s.free[n-1]
		s.free = s.free[:n-1]
		w.ok = false
	} else {
		w = &syncWaiter{mu: s.env.NewMutex()}
		w.cond = s.env.NewCond(w.mu)
		w.doneFn = w.done
	}
	w.req = Request{Op: op, Page: page, Buf: buf, Done: w.doneFn, Trace: trace.FromCtx(c)}
	disk.Submit(&w.req)
	w.mu.Lock(c)
	for !w.ok {
		w.cond.Wait(c)
	}
	w.mu.Unlock(c)
	w.req.Buf = nil
	s.free = append(s.free, w)
}

func (w *syncWaiter) done() {
	w.mu.Lock(nil)
	w.ok = true
	w.mu.Unlock(nil)
	w.cond.Broadcast(nil)
}
