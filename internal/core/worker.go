package core

import (
	"kvell/internal/aio"
	"kvell/internal/btree"
	"kvell/internal/costs"
	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/hotcache"
	"kvell/internal/kv"
	"kvell/internal/mvcc"
	"kvell/internal/pagecache"
	"kvell/internal/slab"
	"kvell/internal/trace"
)

// ioCont is the continuation attached to an asynchronous I/O; it runs in
// worker context when the I/O completes and may emit follow-up I/Os.
type ioCont func(c env.Ctx, io *aio.IO, out *[]*aio.IO)

// locReq is an internal location-direct read used by scans (§5.5: scan
// reads bypass the index because the scanner already consulted it). The
// expected key guards against the slot having been freed and reused for a
// different key between the index snapshot and the read. locReqs belong to
// a scan state and are recycled with it.
type locReq struct {
	scan *scanState
	key  []byte
	l    location
	idx  int // the item slot the read delivers into
	// hops bounds the MVCC-mode walk from an intent at the head of the chain
	// to its newest committed predecessor.
	hops int
	// found says whether the read delivered a value (false: the item
	// vanished between the index snapshot and the read).
	found bool
	// w is the worker serving the read; read is lr.slot, bound once: the
	// continuation readSlot takes.
	w    *worker
	read slotFn
}

// prJoiner is one operation waiting on a pending page read, with the trace
// context it should run under (each joiner belongs to a different request)
// and the time it joined, so late joiners can book the shared read's
// remaining latency as device-queue wait. A joiner wants either the page
// (fn) or the payload of the slot at l (slot, expect) — the second form lets
// a slot read wait without wrapping its continuation in a closure.
type prJoiner struct {
	fn     func(c env.Ctx, data []byte, out *[]*aio.IO)
	slot   slotFn
	l      location
	expect []byte
	tc     *trace.Ctx
	joinAt env.Time
}

// pendingRead deduplicates concurrent reads of the same page: operations
// arriving while a read is in flight join it instead of re-reading.
// pendingRead records are pooled by the worker; cont is wired once so a
// pooled record's completion does not allocate a closure per read.
type pendingRead struct {
	w       *worker
	page    int64
	joiners []prJoiner
	cont    ioCont
}

// complete runs when the page read finishes: it publishes the page to the
// cache, fans the data out to all joiners, and recycles the record. Each
// joiner runs under its own request's trace context; joiner 0 issued the
// I/O and already owns its device spans, later joiners book the time they
// spent waiting on the shared read.
func (pr *pendingRead) complete(c env.Ctx, io *aio.IO, out *[]*aio.IO) {
	w := pr.w
	delete(w.pendingReads, pr.page)
	w.cacheInsert(c, pr.page, io.Buf)
	now := c.Now()
	for i := range pr.joiners {
		j := pr.joiners[i]
		pr.joiners[i] = prJoiner{}
		if j.tc != nil {
			if i > 0 {
				j.tc.Add(trace.CompDevQueue, j.joinAt, now)
			}
			c.SetTrace(j.tc)
		} else {
			c.SetTrace(nil)
		}
		if j.slot != nil {
			sl := w.slabs[j.l.class()]
			off := sl.SlotOffset(j.l.slot())
			j.slot(c, w.slotPayload(c, sl, j.expect, io.Buf[off:off+sl.Stride]), out)
		} else {
			j.fn(c, io.Buf, out)
		}
	}
	c.SetTrace(nil)
	pr.joiners = pr.joiners[:0]
	w.prFree = append(w.prFree, pr)
}

// worker owns one shard of the key space: index, page cache, slabs, free
// lists and one I/O engine bound to one disk. Nothing here is shared with
// other workers except the index mutex scans take briefly (§4.1).
//
// In the SharedEverything ablation, state points at a single worker whose
// index/cache/slabs all threads operate on under shMu — the conventional
// shared design the paper contrasts with.
type worker struct {
	st    *Store
	id    int
	q     env.Queue
	dev   device.Disk
	idx   *btree.Tree
	idxMu env.Mutex
	cache *pagecache.Cache
	slabs []*slab.Slab
	aio   *aio.Engine
	ts    uint64
	state *worker   // shared-state owner (== self in shared-nothing mode)
	shMu  env.Mutex // global lock (nil in shared-nothing mode)

	pendingReads map[int64]*pendingRead
	tailPage     map[int]int64     // class -> pinned append-tail page
	liveTS       map[string]uint64 // recovery only: newest ts seen per key

	// Steady-state free lists (§4's CPU discipline applied to the host):
	// page buffers, pending-read records and IO structs are recycled so the
	// per-operation path allocates nothing once warm. Evicted page buffers
	// park in bufPending until the batch's io_submit has consumed any write
	// that still references them, then move to bufFree.
	bufFree    [][]byte
	bufPending [][]byte
	prFree     []*pendingRead
	ioFree     []*aio.IO

	// commit-log ablation state
	logBase, logPages int64
	logCursor         int64

	// Write-absorption front end (nil when disabled). absorbMu guards the
	// interval and the stopped flag, which the per-worker tick proc reads;
	// everything else is touched only on the worker thread.
	ab             *absorber
	tick           *flushTick
	absorbMu       env.Mutex
	absorbInterval env.Time
	absorbStopped  bool
	absorbOverflow bool

	// Hot-key record cache (nil when tiering is disabled); see tiered.go.
	hot *hotcache.Cache

	// MVCC state (nil/zero unless Config.MVCC); see mvcc.go. mv tracks keys
	// in the uncheckpointed window (pending intent or >1 retained version),
	// envFree pools envelope-encode buffers, recMVCC gathers scanned
	// envelope slots during recovery, and maxCommitTS is the largest commit
	// or start timestamp recovery saw (it re-floors the oracle).
	mv          *mvcc.Table
	envFree     [][]byte
	recMVCC     map[string][]recVer
	maxCommitTS uint64

	reqs int64
}

// pageBuf returns a page-sized buffer destined for a disk read, which
// overwrites every byte — recycled buffers need no clearing.
func (w *worker) pageBuf() []byte {
	if n := len(w.bufFree); n > 0 {
		b := w.bufFree[n-1]
		w.bufFree = w.bufFree[:n-1]
		return b
	}
	return make([]byte, device.PageSize)
}

// zeroPageBuf returns a zeroed page-sized buffer (for freshly appended page
// images, whose unused slots must decode as Empty).
func (w *worker) zeroPageBuf() []byte {
	b := w.pageBuf()
	clear(b)
	return b
}

// recycleBufs moves buffers whose last referencing write has been submitted
// onto the free list. Call only right after aio.Submit.
func (w *worker) recycleBufs() {
	w.bufFree = append(w.bufFree, w.bufPending...)
	clear(w.bufPending)
	w.bufPending = w.bufPending[:0]
}

// retireBuf parks a page buffer the cache no longer references; it becomes
// reusable at the next recycleBufs.
func (w *worker) retireBuf(b []byte) {
	if len(b) == device.PageSize {
		w.bufPending = append(w.bufPending, b)
	}
}

func (w *worker) getPR(page int64) *pendingRead {
	var pr *pendingRead
	if n := len(w.prFree); n > 0 {
		pr = w.prFree[n-1]
		w.prFree = w.prFree[:n-1]
	} else {
		pr = &pendingRead{w: w}
		pr.cont = pr.complete
	}
	pr.page = page
	return pr
}

// emitIO queues one device request on the batch; tag runs at its completion.
// The I/O struct is pooled, and stamped with the calling request's trace
// context (and creation time, so batch wait counts as device-queue time).
func (w *worker) emitIO(c env.Ctx, op device.Op, page int64, buf []byte, tag ioCont, out *[]*aio.IO) {
	var io *aio.IO
	if n := len(w.ioFree); n > 0 {
		io = w.ioFree[n-1]
		w.ioFree = w.ioFree[:n-1]
	} else {
		io = &aio.IO{}
	}
	if tc := trace.FromCtx(c); tc != nil {
		io.Trace = tc
		io.Created = c.Now()
	}
	io.Op, io.Page, io.Buf, io.Tag = op, page, buf, tag
	*out = append(*out, io)
}

func (w *worker) putIO(io *aio.IO) {
	io.Buf = nil
	io.Tag = nil
	io.Trace = nil
	io.Created = 0
	w.ioFree = append(w.ioFree, io)
}

// enqueue hands v to w's request queue and kicks the queue owner's I/O
// engine, so a worker parked on its completions serves v at once while its
// disk has an idle channel (aio.Engine.Kick). In the SharedEverything
// ablation the owner is the shared state's worker.
func (w *worker) enqueue(c env.Ctx, v any) {
	w.q.Push(c, v)
	w.state.aio.Kick(c)
}

func (w *worker) nextTS() uint64 {
	t := w.ts
	w.ts++
	return t
}

// run is the worker main loop — Algorithm 1 of the paper: pop a batch of
// client requests, turn them into I/Os, submit the batch with one syscall,
// then collect and process completions (which may emit follow-up I/Os).
func (w *worker) run(c env.Ctx) {
	// The request batch buffer is this proc's own: SharedEverything workers
	// pop one shared queue and park (lockShared, CPU) while holding a batch.
	batch := make([]any, w.st.cfg.BatchSize)
	state := w.state
	var out []*aio.IO
	for {
		var reqs []any
		idleFlush := false
		if w.aio.Inflight() == 0 {
			if w.ab != nil && w.ab.pending() > 0 {
				// Device idle with absorbed writes pending: commit the
				// group now instead of parking — an uncontended write
				// therefore pays no absorb latency, and the worker never
				// blocks in PopWait while clients await buffered acks.
				reqs = w.q.TryPop(c, batch)
				idleFlush = len(reqs) == 0
			} else {
				reqs = w.q.PopWait(c, batch)
				if reqs == nil {
					return // queue closed and drained, no I/O in flight
				}
			}
		} else {
			reqs = w.q.TryPop(c, batch)
		}
		out = out[:0]
		w.lockShared(c)
		for _, r := range reqs {
			switch t := r.(type) {
			case *kv.Request:
				w.reqs++
				// Capture the trace context before start: Done may finish
				// (and recycle) it. The worker's ambient context is cleared
				// after each item so parks never carry a stale one.
				if tc := t.Trace; tc != nil {
					tc.EndQueue(c.Now())
					c.SetTrace(tc)
					state.start(c, t, &out)
					c.SetTrace(nil)
				} else {
					state.start(c, t, &out)
				}
			case *locReq:
				w.reqs++
				state.startLoc(c, t, &out)
			case *flushTick:
				w.absorbTick(c, &out)
			}
		}
		if w.ab != nil && (idleFlush || w.absorbOverflow) {
			w.flushAbsorb(c, &out)
		}
		w.aio.Submit(c, out)
		// Writes referencing evicted page buffers have been consumed by the
		// device (data is captured at submission), so the buffers are free.
		state.recycleBufs()
		w.unlockShared(c)
		if w.aio.Inflight() > 0 {
			// Serve requests already queued now while the device has an
			// idle channel; otherwise sleep until a completion, or until
			// enqueue kicks, so that arrivals batch with the next
			// completion only where they would queue at the device anyway.
			need := 1
			if w.q.Len() > 0 && !w.aio.Busy() {
				need = 0
			}
			evs := w.aio.GetEvents(c, need)
			out = out[:0]
			w.lockShared(c)
			for _, io := range evs {
				cont := io.Tag.(ioCont)
				if tc := io.Trace; tc != nil {
					// Dwell between device completion and this pickup.
					tc.Add(trace.CompQueue, io.Completed(), c.Now())
					c.SetTrace(tc)
					cont(c, io, &out)
					c.SetTrace(nil)
				} else {
					cont(c, io, &out)
				}
				state.putIO(io)
			}
			// Continuations (an RMW's read completing, say) may have pushed
			// the absorb buffer past its bound.
			if w.ab != nil && w.absorbOverflow {
				w.flushAbsorb(c, &out)
			}
			w.aio.Submit(c, out)
			state.recycleBufs()
			w.unlockShared(c)
		}
	}
}

// lockShared serializes on the global structure lock in the
// SharedEverything ablation; a no-op in KVell's shared-nothing design.
func (w *worker) lockShared(c env.Ctx) {
	if w.shMu != nil {
		c.CPU(costs.LockUncontended)
		w.shMu.Lock(c)
	}
}

func (w *worker) unlockShared(c env.Ctx) {
	if w.shMu != nil {
		w.shMu.Unlock(c)
	}
}

// lookup consults the in-memory index, charging the descent cost.
func (w *worker) lookup(c env.Ctx, key []byte) (location, bool) {
	t0 := c.Now()
	c.CPU(env.Time(w.idx.Depth()) * costs.BTreeNode)
	w.idxMu.Lock(c)
	v, ok := w.idx.Get(key)
	w.idxMu.Unlock(c)
	trace.FromCtx(c).Span("index", t0, c.Now())
	return location(v), ok
}

// indexSet is the one index write: it installs l as key's location (or, with
// del, removes key), charging the descent.
func (w *worker) indexSet(c env.Ctx, key []byte, l location, del bool) {
	c.CPU(env.Time(w.idx.Depth()) * costs.BTreeNode)
	w.idxMu.Lock(c)
	if del {
		w.idx.Delete(key)
	} else {
		w.idx.Put(key, uint64(l))
	}
	w.idxMu.Unlock(c)
}

func (w *worker) indexPut(c env.Ctx, key []byte, l location) { w.indexSet(c, key, l, false) }
func (w *worker) indexDelete(c env.Ctx, key []byte)          { w.indexSet(c, key, 0, true) }

// start is the one request dispatch. The stages run in statement order —
// absorb buffer, version table, hot cache, index, slab layer (DESIGN.md §16)
// — and every stage above the last is a filter that may answer the request,
// never a second path to the slots.
func (w *worker) start(c env.Ctx, r *kv.Request, out *[]*aio.IO) {
	if w.ab != nil && w.absorbStart(c, r, out) {
		return
	}
	switch r.Op {
	case kv.OpGet, kv.OpRMW:
		// Both read the key's current value; an RMW then writes (YCSB F).
		ks, l, ok := w.newestCommitted(r.Key)
		if ks == nil {
			// The hot tier is probed after the absorb buffer (whose copy is
			// fresher for buffered keys) and before the index.
			if r.Op == kv.OpGet && w.hot != nil && w.hotGet(c, r) {
				return
			}
			l, ok = w.lookup(c, r.Key)
		}
		if !ok {
			w.respond(c, r, kv.Result{})
			return
		}
		if payload, hit := w.cachedSlot(c, l, r.Key); hit {
			w.finishRead(c, r, l, payload, out)
			return
		}
		w.fetchSlot(c, l, r.Key, func(c env.Ctx, payload []byte, out *[]*aio.IO) {
			w.finishRead(c, r, l, payload, out)
		}, out)
	case kv.OpUpdate:
		w.update(c, r.Key, r.Value, w.ackFound(r), out)
	case kv.OpDelete:
		if !w.remove(c, r.Key, w.ackFound(r), out) {
			w.respond(c, r, kv.Result{})
		}
	default:
		w.startTxn(c, r, out)
	}
}

// finishRead completes the read stage of a Get or RMW with the payload of
// the key's current slot.
func (w *worker) finishRead(c env.Ctx, r *kv.Request, l location, payload []byte, out *[]*aio.IO) {
	val, ok := w.committedValue(c, payload)
	if !ok {
		w.respond(c, r, kv.Result{})
		return
	}
	val = valueInto(&r.ValueBuf, val)
	if r.Op == kv.OpGet {
		// Multi-page items bypass the hot tier like they bypass the page cache.
		if w.hot != nil && !w.slabs[l.class()].MultiPage() {
			w.hotAdmit(c, r.Key, val)
		}
		w.respond(c, r, kv.Result{Found: true, Value: val})
		return
	}
	if w.ab != nil && w.absorb(c, r, out) {
		return
	}
	w.update(c, r.Key, r.Value, w.ackFound(r), out)
}

// ackFound returns the continuation that acknowledges a durable write.
func (w *worker) ackFound(r *kv.Request) func(c env.Ctx, out *[]*aio.IO) {
	return func(c env.Ctx, out *[]*aio.IO) {
		w.respond(c, r, kv.Result{Found: true})
	}
}

// startLoc reads lr's slot on w, the owner of its location.
func (w *worker) startLoc(c env.Ctx, lr *locReq, out *[]*aio.IO) {
	lr.w = w
	w.readSlot(c, lr.l, lr.key, lr.read, out)
}

// slot receives the payload of lr's slot (see slotFn).
func (lr *locReq) slot(c env.Ctx, payload []byte, out *[]*aio.IO) {
	w := lr.w
	if w.mv != nil {
		// A candidate whose slot turned into a prewrite intent since the
		// index snapshot reads through to its newest committed predecessor
		// (latest-semantics scan, §5.5's "approximately correct" contract).
		if e, ok := mvcc.Decode(payload); ok && e.Intent() && e.PrevLoc != mvcc.NoLoc && lr.hops < maxChainWalk {
			lr.l = location(e.PrevLoc)
			lr.hops++
			w.startLoc(c, lr, out)
			return
		}
	}
	val, ok := w.committedValue(c, payload)
	lr.deliver(c, val, ok)
}

// deliver copies a scan read's key and value (ok false: the item vanished)
// into its item slot, then counts the read done, waking the scanner at the
// last. Nothing of lr's scan state may be touched after the unlock but the
// cond: the scanner may already have returned the state to the pool.
func (lr *locReq) deliver(c env.Ctx, val []byte, ok bool) {
	ss := lr.scan
	if ok {
		it := &ss.items[lr.idx]
		it.Key = append(it.Key[:0], lr.key...)
		it.Value = append(it.Value[:0], val...)
	}
	lr.found = ok
	ss.mu.Lock(c)
	ss.remaining--
	done := ss.remaining == 0
	ss.mu.Unlock(c)
	if done {
		ss.cond.Broadcast(c)
	}
}

func (w *worker) respond(c env.Ctx, r *kv.Request, res kv.Result) {
	c.CPU(costs.Callback)
	if r.Done != nil {
		r.Done(res)
	}
}

// joinRead reads page through the pending-read table: j joins the read in
// flight, or issues one. The data is inserted into the page cache before the
// joiners run.
func (w *worker) joinRead(c env.Ctx, page int64, j prJoiner, out *[]*aio.IO) {
	j.tc = trace.FromCtx(c)
	if pr, ok := w.pendingReads[page]; ok {
		j.joinAt = c.Now()
		pr.joiners = append(pr.joiners, j)
		return
	}
	pr := w.getPR(page)
	pr.joiners = append(pr.joiners, j)
	w.pendingReads[page] = pr
	w.emitIO(c, device.Read, page, w.pageBuf(), pr.cont, out)
}

func (w *worker) cacheInsert(c env.Ctx, page int64, data []byte) {
	if _, ev := w.cache.InsertTake(page, data); ev != nil {
		w.retireBuf(ev)
	}
	c.CPU(w.cache.InsertCost())
}

// cacheRemove drops page from the cache, reclaiming its buffer.
func (w *worker) cacheRemove(page int64) {
	if data := w.cache.RemoveTake(page); data != nil {
		w.retireBuf(data)
	}
}

// writePage submits a page write; done (optional) runs when durable.
func (w *worker) writePage(c env.Ctx, page int64, data []byte, done func(c env.Ctx, out *[]*aio.IO), out *[]*aio.IO) {
	tag := ioContNop
	if done != nil {
		tag = func(c env.Ctx, io *aio.IO, out *[]*aio.IO) { done(c, out) }
	}
	w.emitIO(c, device.Write, page, data, tag, out)
}

// ioContNop is the shared no-op completion for fire-and-forget writes.
var ioContNop = ioCont(func(env.Ctx, *aio.IO, *[]*aio.IO) {})

// update writes (key, value) and calls done once it is durable at its final
// location — the one entry point of every durable put: direct, RMW and
// absorb flush. It covers all §5.2 cases: in-place update here, the
// allocating ones (append, reuse, size-class migration, multi-page) through
// placeItem, followed by the old slot's tombstone.
//
// Under MVCC the write is an autocommit at a fresh oracle timestamp, and the
// stored payload is its envelope. Single-version keys (no table entry) still
// take the ordinary machinery, in-place overwrite included, because no
// snapshot can name their old version through a retained chain; a
// multi-version key gets a chained new slot instead (chainCommit).
func (w *worker) update(c env.Ctx, key, value []byte, done func(c env.Ctx, out *[]*aio.IO), out *[]*aio.IO) {
	if w.hot != nil {
		// Write-through before the slab I/O: every durable put funnels
		// through here, so a cached record can never lag the store.
		w.hotWrite(c, key, value)
	}
	payload := value
	if w.mv != nil {
		cts := w.st.oracle.Next(c.Now())
		if ks := w.mv.Get(key); ks != nil {
			w.chainCommit(c, key, ks, cts, false, value, done, out)
			return
		}
		b := w.encodeEnvelope(&mvcc.Envelope{Kind: mvcc.KindCommitPut, StartTS: cts, CommitTS: cts, PrevLoc: mvcc.NoLoc, Value: value})
		acked := done
		payload, done = b, func(c env.Ctx, out *[]*aio.IO) {
			w.releaseEnv(b)
			acked(c, out)
		}
	}
	cls := w.classFor(key, payload)
	old, exists := w.lookup(c, key)
	ts := w.nextTS()
	c.CPU(costs.MemBytes(len(key) + len(payload))) // marshal into page image
	if w.st.cfg.WithCommitLog {
		done = w.withCommitLog(c, len(key)+len(payload), done, out)
	}
	sl := w.slabs[cls]
	// In-place update (same class, sub-page item). Skipped in the
	// NoInPlaceUpdates variant (§5.6): drives that cannot write a 4KB page
	// atomically must never overwrite the only durable copy.
	if exists && old.class() == cls && !sl.MultiPage() && !w.st.cfg.NoInPlaceUpdates {
		w.patchSlot(c, old, func(c env.Ctx, slot []byte) {
			if err := sl.EncodeItem(slot, ts, key, payload); err != nil {
				panic(err)
			}
		}, done, out)
		return
	}
	// The item moves. After the new value is durable, tombstone the old
	// location (§5.2: "first writes the updated item in its new slab and
	// then deletes it from the old one"; the same ordering protects the §5.6
	// no-in-place variant).
	placed := done
	if exists {
		placed = func(c env.Ctx, out *[]*aio.IO) {
			w.freeSlot(c, old, nil, out)
			done(c, out)
		}
	}
	w.placeItem(c, cls, key, payload, ts, true, placed, out)
}

// classFor returns the size class that fits (key, payload).
func (w *worker) classFor(key, payload []byte) int {
	cls := slab.ClassFor(slab.DefaultClasses, len(key), len(payload))
	if cls < 0 {
		panic("core: item exceeds largest configured size class")
	}
	return cls
}

// remove deletes key, invoking done once the delete is durable — the one
// entry point of every durable delete. It returns false, without calling
// done, when the key does not exist. Under MVCC a multi-version key gets a
// chained committed-delete envelope, so older snapshots keep reading the
// prior version until GC purges the key; a single-version key is removed
// outright, as without MVCC.
func (w *worker) remove(c env.Ctx, key []byte, done func(c env.Ctx, out *[]*aio.IO), out *[]*aio.IO) bool {
	if w.hot != nil {
		w.hotInvalidate(c, key)
	}
	if ks, _, ok := w.newestCommitted(key); ks != nil {
		if ok {
			w.chainCommit(c, key, ks, w.st.oracle.Next(c.Now()), true, nil, done, out)
		}
		return ok
	}
	l, ok := w.lookup(c, key)
	if !ok {
		return false
	}
	w.indexDelete(c, key)
	w.freeSlot(c, l, done, out)
	return true
}

// withCommitLog wraps done so it additionally waits for a sequential
// commit-log append (the §4.4 ablation: what KVell's design avoids).
func (w *worker) withCommitLog(c env.Ctx, recBytes int, done func(c env.Ctx, out *[]*aio.IO), out *[]*aio.IO) func(c env.Ctx, out *[]*aio.IO) {
	c.CPU(costs.WALBytes(recBytes))
	remaining := 2
	wrapped := func(c env.Ctx, out *[]*aio.IO) {
		remaining--
		if remaining == 0 {
			done(c, out)
		}
	}
	page := w.logBase + w.logCursor%w.logPages
	w.logCursor++
	// One-shot log page image, recyclable once the batch submits.
	buf := w.zeroPageBuf()
	w.writePage(c, page, buf, wrapped, out)
	w.retireBuf(buf)
	return wrapped
}
