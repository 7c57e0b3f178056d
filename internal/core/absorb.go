package core

import (
	"bytes"

	"kvell/internal/aio"
	"kvell/internal/costs"
	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/trace"
)

// absorbEntry is one key's pending, un-acked write in a worker's absorb
// buffer. reqs holds every client request the entry has absorbed, in arrival
// order; the last one carries the surviving operation and value (last-writer
// wins), and all of them are acknowledged together once that single write is
// durable (group ack). heldAt parallels reqs with each request's absorb time
// so the hold can be attributed to the absorb latency component. Entries are
// pooled by the worker's absorber, and an entry is itself the continuation
// its flush hands on to (complete), so the steady-state merge path allocates
// nothing.
type absorbEntry struct {
	w       *worker
	hash    uint64
	reqs    []*kv.Request
	heldAt  []env.Time
	updated bool // an update/RMW was absorbed (delete acks report Found)
	found   bool // flush outcome for a surviving delete
}

// last returns the surviving request (the newest absorbed write).
func (e *absorbEntry) last() *kv.Request { return e.reqs[len(e.reqs)-1] }

// complete acknowledges every absorbed request once the group's device write
// has settled, then recycles the entry. Updates always report Found (as the
// direct path does); deletes report the flush outcome, or Found when the
// delete canceled a write that was still in the buffer.
func (e *absorbEntry) complete(c env.Ctx, _ *aio.IO, out *[]*aio.IO) {
	w := e.w
	for i, r := range e.reqs {
		e.reqs[i] = nil
		res := kv.Result{Found: true}
		if r.Op == kv.OpDelete {
			res.Found = e.found || e.updated
		}
		w.respond(c, r, res)
	}
	e.reqs = e.reqs[:0]
	e.heldAt = e.heldAt[:0]
	w.ab.release(e)
}

// absorber is a worker's write-absorption front end (the host-side analogue
// of the write coalescing that host/SSD collaborative designs push below the
// block layer): same-key puts and deletes arriving within one commit
// interval merge in memory, so only the last version reaches the slab and a
// single device write acknowledges every absorbed request. Entries flush in
// first-absorb order, which keeps the schedule a pure function of the
// request stream.
type absorber struct {
	entries []*absorbEntry          // flush order: first absorb first
	index   map[uint64]*absorbEntry // key-hash -> pending entry
	free    []*absorbEntry
	held    int // requests currently buffered

	// cumulative stats
	absorbed int64 // requests merged into an existing entry
	flushes  int64 // group commits
	groupedW int64 // entries written by group commits
}

func newAbsorber() *absorber {
	return &absorber{index: make(map[uint64]*absorbEntry)}
}

// pending returns the number of buffered (un-flushed) entries.
func (ab *absorber) pending() int { return len(ab.entries) }

func (ab *absorber) release(e *absorbEntry) {
	ab.free = append(ab.free, e)
}

// lookup returns the pending entry for key, if any. A hash collision with a
// different key reads as absent.
func (ab *absorber) lookup(key []byte) *absorbEntry {
	e, ok := ab.index[kv.Hash64(key)]
	if !ok || !bytes.Equal(e.last().Key, key) {
		return nil
	}
	return e
}

// add buffers r (an update, RMW or delete), merging it into the pending
// entry for its key when one exists. It returns false — and buffers nothing
// — when the key's hash slot is occupied by a different key (a 64-bit FNV
// collision); the caller then executes r directly, which is always correct
// because distinct keys have no ordering constraint between them.
func (ab *absorber) add(w *worker, r *kv.Request, now env.Time) bool {
	h := kv.Hash64(r.Key)
	if e, ok := ab.index[h]; ok {
		if !bytes.Equal(e.last().Key, r.Key) {
			return false
		}
		ab.absorbed++
		e.reqs = append(e.reqs, r)
		e.heldAt = append(e.heldAt, now)
		if r.Op != kv.OpDelete {
			e.updated = true
		}
		ab.held++
		return true
	}
	var e *absorbEntry
	if n := len(ab.free); n > 0 {
		e = ab.free[n-1]
		ab.free = ab.free[:n-1]
	} else {
		e = &absorbEntry{w: w}
	}
	e.hash = h
	e.updated = r.Op != kv.OpDelete
	e.found = false
	e.reqs = append(e.reqs, r)
	e.heldAt = append(e.heldAt, now)
	ab.index[h] = e
	ab.entries = append(ab.entries, e)
	ab.held++
	return true
}

// flushTick is the token the per-worker commit-interval proc pushes into the
// worker queue; the worker flushes its absorb buffer when it pops one.
type flushTick struct{}

// absorbStart routes a request through the absorb front end. It returns
// true when the request was fully handled (buffered, served from the
// buffer, or completed); false sends it down the direct path.
func (w *worker) absorbStart(c env.Ctx, r *kv.Request, out *[]*aio.IO) bool {
	switch r.Op {
	case kv.OpGet:
		return w.absorbGet(c, r)
	case kv.OpUpdate, kv.OpDelete:
		return w.absorb(c, r, out)
	case kv.OpRMW:
		if e := w.ab.lookup(r.Key); e != nil {
			// The freshest version lives in the buffer.
			last := e.last()
			if last.Op == kv.OpDelete {
				w.respond(c, r, kv.Result{})
				return true
			}
			c.CPU(costs.MemBytes(len(last.Value))) // RMW read, served in memory
			return w.absorb(c, r, out)
		}
		// Not buffered: the direct path reads the current value from the
		// store and offers the write back to the buffer (finishRead).
	}
	return false
}

// absorb buffers a write-class request, serving it later as part of a group
// commit. Returns false when the request must take the direct path: the
// device is idle with an empty buffer (nothing to merge with, so buffering
// could only add latency), or the key's hash slot holds a colliding key.
func (w *worker) absorb(c env.Ctx, r *kv.Request, out *[]*aio.IO) bool {
	if w.threads[0].Inflight() == 0 && len(*out) == 0 && w.ab.pending() == 0 {
		return false
	}
	now := c.Now()
	c.CPU(costs.Callback) // hash + buffer bookkeeping
	if !w.ab.add(w, r, now) {
		return false
	}
	if w.hot != nil {
		// Mirror the buffered write into the hot tier immediately so the
		// cached copy never lags the buffer it sits behind (see tiered.go).
		w.hotAbsorb(c, r)
	}
	if w.ab.held >= w.st.cfg.AbsorbMaxHeld {
		w.absorbOverflow = true
	}
	return true
}

// absorbGet answers a read from the absorb buffer when the key has a
// buffered write: the freshest value exists only in memory until the group
// commit, so the buffer must serve it (a buffered delete reads as absent).
// Returns false when the key has no buffered write.
func (w *worker) absorbGet(c env.Ctx, r *kv.Request) bool {
	e := w.ab.lookup(r.Key)
	if e == nil {
		return false
	}
	last := e.last()
	if last.Op == kv.OpDelete {
		w.respond(c, r, kv.Result{})
		return true
	}
	c.CPU(costs.MemBytes(len(last.Value)))
	w.respond(c, r, kv.Result{Found: true, Value: kv.CopyValue(last.Value, &r.ValueBuf)})
	return true
}

// flushAbsorb group-commits the buffer: every entry's surviving write is
// turned into device I/O on the shared out batch (one io_submit for the
// whole group), and each entry acknowledges all of its absorbed requests
// only once its write settles — the ack-after-settle invariant that keeps
// the crash model honest. The time each request spent in the buffer is
// booked to the absorb latency component.
func (w *worker) flushAbsorb(c env.Ctx, out *[]*aio.IO) {
	ab := w.ab
	if len(ab.entries) == 0 {
		return
	}
	now := c.Now()
	ab.flushes++
	ab.groupedW += int64(len(ab.entries))
	ab.held = 0
	w.absorbOverflow = false
	for i, e := range ab.entries {
		ab.entries[i] = nil
		delete(ab.index, e.hash)
		for j, r := range e.reqs {
			if tc := r.Trace; tc != nil {
				tc.Add(trace.CompAbsorb, e.heldAt[j], now)
			}
		}
		last := e.last()
		if tc := last.Trace; tc != nil {
			c.SetTrace(tc)
		} else {
			c.SetTrace(nil)
		}
		o := w.getRec(nil)
		o.next = e
		if last.Op == kv.OpDelete {
			e.found = true
			if !w.remove(c, last.Key, o, out) {
				e.found = false
				e.complete(c, nil, out)
			}
		} else {
			w.update(c, last.Key, last.Value, o, out)
		}
	}
	c.SetTrace(nil)
	ab.entries = ab.entries[:0]
}

// absorbTick handles one commit-interval tick: flush, then adapt the
// interval to the device queue depth — shrink toward the floor, a quarter of
// the configured interval, when the device sits idle (latency mode), grow
// toward the ceiling, four times it, when a backlog has formed (bandwidth
// mode). The tick proc reads the interval under absorbMu.
func (w *worker) absorbTick(c env.Ctx, out *[]*aio.IO) {
	depth := w.threads[0].Inflight()
	w.flushAbsorb(c, out)
	cfg := &w.st.cfg
	floor := max(cfg.AbsorbInterval/4, 1)
	ceiling := 4 * cfg.AbsorbInterval
	w.absorbMu.Lock(c)
	switch {
	case depth == 0:
		w.absorbInterval = max(w.absorbInterval/2, floor)
	case depth > cfg.BatchSize:
		w.absorbInterval = min(w.absorbInterval*2, ceiling)
	}
	w.absorbMu.Unlock(c)
}

// absorbLoop is the per-worker commit-interval proc: it sleeps one interval,
// then hands the worker a flush tick through its request queue (flushes must
// run on the worker thread, which owns every structure they touch). The push
// happens under absorbMu so Stop — which sets absorbStopped under the same
// mutex before closing the queue — can never close the queue out from under
// a push.
func (w *worker) absorbLoop(c env.Ctx) {
	for {
		w.absorbMu.Lock(c)
		iv := w.absorbInterval
		stopped := w.absorbStopped
		w.absorbMu.Unlock(c)
		if stopped {
			return
		}
		c.Sleep(iv)
		w.absorbMu.Lock(c)
		if w.absorbStopped {
			w.absorbMu.Unlock(c)
			return
		}
		w.enqueue(c, w.tick)
		w.absorbMu.Unlock(c)
	}
}
