package device

import (
	"kvell/internal/costs"
	"kvell/internal/env"
	"kvell/internal/trace"
)

// SyncIO issues blocking device requests: Do submits one request and parks
// the calling thread until it completes — the shape of a read or write
// system call, which is how the library-model engines do all their I/O.
// Waiters (latch, bound completion callback and request record) are
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
	latch env.Latch
	req   Request
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
	} else {
		w = &syncWaiter{latch: env.NewLatch(s.env)}
		w.req.Done = func() { w.latch.Done(nil) }
	}
	w.req = Request{Op: op, Page: page, Buf: buf, Done: w.req.Done, Trace: trace.FromCtx(c)}
	w.latch.Add(c, 1)
	disk.Submit(&w.req)
	w.latch.Wait(c)
	w.req.Buf = nil
	s.free = append(s.free, w)
}

// BufferedIO is the buffered pread/pwrite path of the library-model
// baselines on one disk, the path §6.3.1 profiles: one system call per
// request plus a per-byte copy/checksum charge, blocking the calling thread
// on the device. It holds no engine state, so an engine calls it without
// its own locks wherever its policy drops them; it is also the walog.PageIO
// of an engine's commit log.
type BufferedIO struct {
	disk Disk
	sync SyncIO
}

// NewBufferedIO returns the buffered I/O path on disk.
func NewBufferedIO(e env.Env, disk Disk) *BufferedIO {
	return &BufferedIO{disk: disk, sync: SyncIO{env: e}}
}

// Read fills buf from the pages starting at page.
func (b *BufferedIO) Read(c env.Ctx, page int64, buf []byte) {
	c.CPU(costs.Syscall + costs.PreadBytes(len(buf)))
	b.sync.Do(c, b.disk, Read, page, buf)
}

// Write writes buf to the pages starting at page.
func (b *BufferedIO) Write(c env.Ctx, page int64, buf []byte) {
	c.CPU(costs.Syscall + costs.PwriteBytes(len(buf)))
	b.sync.Do(c, b.disk, Write, page, buf)
}
