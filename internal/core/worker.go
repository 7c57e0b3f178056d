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

// cont is a continuation: the tag of every I/O a worker emits, run in worker
// context when the I/O completes, and the durability callback (done) the
// slab layer takes. It may emit follow-up I/Os; io is nil when it runs other
// than as an I/O's completion. Every implementation is a pooled record wired
// once (*pendingRead, *opRec, *absorbEntry), never a closure:
// storing a pooled pointer in an interface or a tag allocates nothing.
type cont interface {
	complete(c env.Ctx, io *aio.IO, out *[]*aio.IO)
}

// noDone is the completion of a fire-and-forget write.
type noDone struct{}

func (noDone) complete(env.Ctx, *aio.IO, *[]*aio.IO) {}

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
	// w is the worker serving the read.
	w *worker
}

// prJoiner is one operation waiting on a pending page read, with the trace
// context it should run under (each joiner belongs to a different request)
// and the time it joined, so late joiners can book the shared read's
// remaining latency as device-queue wait. A joiner wants either the payload
// of the slot at l (slot, expect) or to patch that slot (ed, then done once
// the write-back is durable) — data, never a closure.
type prJoiner struct {
	slot   slotReader
	l      location
	expect []byte
	ed     edit
	done   cont
	tc     *trace.Ctx
	joinAt env.Time
}

// pendingRead deduplicates concurrent reads of the same page: operations
// arriving while a read is in flight join it instead of re-reading. A
// private read is a multi-page slot's, outside the page cache and the
// table, with its one joiner. pendingRead records are pooled by the worker.
type pendingRead struct {
	w       *worker
	page    int64
	private bool
	joiners []prJoiner
}

// complete runs when the page read finishes: it publishes the page to the
// cache, fans the data out to all joiners, and recycles the record. Each
// joiner runs under its own request's trace context; joiner 0 issued the
// I/O and already owns its device spans, later joiners book the time they
// spent waiting on the shared read.
func (pr *pendingRead) complete(c env.Ctx, io *aio.IO, out *[]*aio.IO) {
	w := pr.w
	data := io.Buf
	if !pr.private {
		delete(w.pendingReads, pr.page)
		w.cacheInsert(c, pr.page, data)
	}
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
		if !pr.private {
			// An earlier joiner, or what it went on to do, may have patched
			// the page: its frame then holds the patched copy (writable).
			if f := w.cache.Peek(pr.page); f != nil {
				data = f
			}
			if j.slot == nil {
				data = w.writable(pr.page, data)
			}
		}
		if j.slot == nil {
			w.patchPage(c, j.l, &j.ed, data, j.done, out)
		} else {
			sl := w.slabs[j.l.class()]
			j.slot.slot(c, w.slotPayload(c, sl, j.expect, sl.SlotBytes(data, j.l.slot())), out)
		}
	}
	c.SetTrace(nil)
	pr.joiners = pr.joiners[:0]
	pr.private = false
	w.prFree = append(w.prFree, pr)
}

// opRec is one request's continuation record: the state its operation
// carries across I/Os, in place of the closures that would capture it. A
// record answers its request r with res once the write it tracks is durable,
// or hands on to next instead (an absorb entry's group ack); on the way it
// tombstones the slot a moved write left (l, free), releases the envelope
// buffer (env) and publishes a flipped intent (ks). The same record is a
// read's slotReader, continuing at step. Records are pooled by the worker,
// so a request in flight allocates nothing.
type opRec struct {
	w    *worker
	step opStep
	r    *kv.Request
	res  kv.Result // r's answer; stepVersion: its status, stepOutcome: the won answer
	next cont
	l    location // the slot a read continues from; a moved write's old slot
	free bool     // tombstone l once the new slot is durable
	env  []byte
	// ks is the key whose lock an intent flip publishes, as a version at
	// commit timestamp res.TxnTS.
	ks    *mvcc.KeyState
	depth int // stepWalk: chain hops so far
	// since is the hot tier's write clock when the request started (stepGet
	// with tiering on; see hotAdmit).
	since uint64
}

// opStep says how a record continues from a slot read.
type opStep uint8

const (
	stepGet      opStep = iota // finishRead: a Get or an RMW's read of l
	stepVersion                // versionRead: a table-listed version
	stepWalk                   // walkRead: an on-disk chain walk
	stepPrewrite               // prewriteRead: a cold key's current envelope at l
	stepOutcome                // outcomeRead: the indexed envelope of a settled key
)

// getRec takes a record for r off the worker's free list, or builds one.
func (w *worker) getRec(r *kv.Request) *opRec {
	var o *opRec
	if n := len(w.recFree); n > 0 {
		o = w.recFree[n-1]
		w.recFree = w.recFree[:n-1]
	} else {
		o = &opRec{w: w}
	}
	o.r = r
	return o
}

func (w *worker) putRec(o *opRec) {
	*o = opRec{w: w}
	w.recFree = append(w.recFree, o)
}

// complete is the durability continuation of the write o tracks: the
// record is recycled and the request answered. A moved item is durable in
// its new slot, so its old one is tombstoned first (§5.2: write the new slot
// first, then delete the old one).
func (o *opRec) complete(c env.Ctx, _ *aio.IO, out *[]*aio.IO) {
	w, r, res, next := o.w, o.r, o.res, o.next
	if o.free {
		w.freeSlot(c, o.l, nil, out)
	}
	if o.env != nil {
		w.releaseEnv(o.env)
	}
	if ks := o.ks; ks != nil {
		lk := ks.Lock
		ks.Lock = nil
		ks.Insert(mvcc.Version{CommitTS: res.TxnTS, StartTS: lk.StartTS, Loc: lk.IntentLoc, Del: lk.Del})
	}
	w.putRec(o)
	if next != nil {
		next.complete(c, nil, out)
		return
	}
	w.respond(c, r, res)
}

// slot is a record's read continuation (see slotReader): the record is
// recycled, then the request continues at its step.
func (o *opRec) slot(c env.Ctx, payload []byte, out *[]*aio.IO) {
	w, r, step, l, res, depth, since := o.w, o.r, o.step, o.l, o.res, o.depth, o.since
	w.putRec(o)
	switch step {
	case stepGet:
		w.finishRead(c, r, l, since, payload, out)
	case stepVersion:
		w.versionRead(c, r, payload, res.Txn)
	case stepWalk:
		w.walkRead(c, r, payload, depth, out)
	case stepPrewrite:
		w.prewriteRead(c, r, l, payload, out)
	case stepOutcome:
		w.outcomeRead(c, r, payload, res)
	}
}

// worker is one shard of the key space: index, page cache, slabs, free
// lists and one request queue, on one disk. Nothing here is shared with
// other shards except the index mutex scans take briefly (§4.1).
//
// A thread is a proc running run on one I/O engine of its own. KVell gives
// each shard exactly one thread; the shared-everything ablation gives its one
// shard every thread, and they pop the one queue and touch the shard's
// structures under shMu — the conventional shared design the paper
// contrasts with.
type worker struct {
	st    *Store
	id    int
	q     env.Queue
	dev   device.Disk
	idx   *btree.Tree
	idxMu env.Mutex
	cache *pagecache.Cache
	slabs []*slab.Slab
	ts    uint64
	// threads holds each thread's I/O engine. threads[0] is the first
	// thread's: recovery and the absorb front end use it, enqueue kicks it.
	threads []*aio.Engine
	shMu    env.Mutex // global lock (nil in shared-nothing mode)

	pendingReads map[int64]*pendingRead
	tailPage     map[int]int64     // class -> pinned append-tail page
	liveTS       map[string]uint64 // recovery only: newest ts seen per key

	// shared says the disk shares its page images (device.Disk.Image): a
	// cache fill then takes no buffer, and a frame holds the device's array
	// of its page except while a write of the page is queued (writable).
	shared bool

	// Steady-state free lists (§4's CPU discipline applied to the host):
	// page buffers, pending-read records and IO structs are recycled so the
	// per-operation path allocates nothing once warm. held lists the page
	// buffers a write of the batch being built may still reference; they
	// move to bufFree once the batch's io_submit has consumed its writes
	// (release).
	bufFree [][]byte
	held    []heldBuf
	prFree  []*pendingRead
	ioFree  []*aio.IO
	recFree []*opRec

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

// heldBuf is a page buffer held until the batch is submitted: the private
// copy a cache frame holds while a write of its page is queued (page ≥ 0),
// or one no frame holds (page -1) — a one-shot write image, a private read's
// buffer, a frame's evicted buffer when the disk shares no images.
type heldBuf struct {
	page int64
	buf  []byte
}

// pageBuf returns a page-sized buffer destined for a disk read or a full
// copy, which overwrites every byte — recycled buffers need no clearing.
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

// hold keeps b from reuse until the batch is submitted (release); page is
// the page whose cache frame holds b, or -1.
func (w *worker) hold(page int64, b []byte) {
	w.held = append(w.held, heldBuf{page: page, buf: b})
}

// writable returns bytes of page a patch may write, given data, the page's
// current image: its cache frame's, or a completed read's whose frame is
// gone. That is data itself unless data is the device's own array; then it
// is a pooled copy, which the frame, if it holds data, holds instead until
// the batch is submitted. The copy charges no CPU: the simulated engine
// patches its cached page in place, and only the host keeps one image.
func (w *worker) writable(page int64, data []byte) []byte {
	if img := w.dev.Image(page); img == nil || &img[0] != &data[0] {
		return data
	}
	b := w.pageBuf()
	copy(b, data)
	w.cache.Replace(page, data, b)
	w.hold(page, b)
	return b
}

// release runs right after the batch's aio.Submit, when the device has
// captured every write the batch holds a buffer for: each frame that holds
// one goes back to the device's image of its page, which now equals it,
// and every held buffer returns to the free list.
func (w *worker) release() {
	for i, h := range w.held {
		if h.page >= 0 {
			w.cache.Replace(h.page, h.buf, w.dev.Image(h.page))
		}
		w.bufFree = append(w.bufFree, h.buf)
		w.held[i] = heldBuf{}
	}
	w.held = w.held[:0]
}

func (w *worker) getPR(page int64) *pendingRead {
	var pr *pendingRead
	if n := len(w.prFree); n > 0 {
		pr = w.prFree[n-1]
		w.prFree = w.prFree[:n-1]
	} else {
		pr = &pendingRead{w: w}
	}
	pr.page = page
	return pr
}

// emitIO queues one device request on the batch; tag runs at its completion.
// The I/O struct is pooled, and stamped with the calling request's trace
// context (and creation time, so batch wait counts as device-queue time).
func (w *worker) emitIO(c env.Ctx, op device.Op, page int64, buf []byte, tag cont, out *[]*aio.IO) {
	var io *aio.IO
	if n := len(w.ioFree); n > 0 {
		io = w.ioFree[n-1]
		w.ioFree = w.ioFree[:n-1]
	} else {
		io = &aio.IO{}
	}
	if tc := trace.FromCtx(c); tc != nil {
		io.Trace = tc
		io.Enqueued = c.Now()
	}
	io.Op, io.Page, io.Buf, io.Tag = op, page, buf, tag
	*out = append(*out, io)
}

func (w *worker) putIO(io *aio.IO) {
	io.Buf = nil
	io.Tag = nil
	io.Trace = nil
	io.Enqueued = 0
	w.ioFree = append(w.ioFree, io)
}

// enqueue hands v to w's request queue and kicks the I/O engine of the
// shard's first thread, so a thread parked on its completions serves v at
// once while its disk has an idle channel (aio.Engine.Kick).
func (w *worker) enqueue(c env.Ctx, v any) {
	w.q.Push(c, v)
	w.threads[0].Kick(c)
}

func (w *worker) nextTS() uint64 {
	t := w.ts
	w.ts++
	return t
}

// run is one thread's main loop — Algorithm 1 of the paper: pop a batch of
// client requests, turn them into I/Os, submit the batch on eng with one
// syscall, then collect and process completions (which may emit follow-up
// I/Os).
func (w *worker) run(c env.Ctx, eng *aio.Engine) {
	// The request batch buffer is this thread's own: the threads of a shared
	// shard pop one queue and park (lockShared, CPU) while holding a batch.
	batch := make([]any, w.st.cfg.BatchSize)
	var out []*aio.IO
	for {
		var reqs []any
		idleFlush := false
		if eng.Inflight() == 0 {
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
					w.start(c, t, &out)
					c.SetTrace(nil)
				} else {
					w.start(c, t, &out)
				}
			case *locReq:
				w.reqs++
				w.startLoc(c, t, &out)
			case *gcState:
				w.gcPass(c, t, &out)
			case *flushTick:
				w.absorbTick(c, &out)
			}
		}
		if w.ab != nil && (idleFlush || w.absorbOverflow) {
			w.flushAbsorb(c, &out)
		}
		eng.Submit(c, out)
		// The device captures write data at submission, so the batch's held
		// buffers are free.
		w.release()
		w.unlockShared(c)
		if eng.Inflight() > 0 {
			// Serve requests already queued now while the device has an
			// idle channel; otherwise sleep until a completion, or until
			// enqueue kicks, so that arrivals batch with the next
			// completion only where they would queue at the device anyway.
			need := 1
			if w.q.Len() > 0 && !eng.Busy() {
				need = 0
			}
			evs := eng.GetEvents(c, need)
			out = out[:0]
			w.lockShared(c)
			for _, io := range evs {
				k := io.Tag.(cont)
				if tc := io.Trace; tc != nil {
					// Dwell between device completion and this pickup.
					tc.Add(trace.CompQueue, io.Completed, c.Now())
					c.SetTrace(tc)
					k.complete(c, io, &out)
					c.SetTrace(nil)
				} else {
					k.complete(c, io, &out)
				}
				w.putIO(io)
			}
			// Continuations (an RMW's read completing, say) may have pushed
			// the absorb buffer past its bound.
			if w.ab != nil && w.absorbOverflow {
				w.flushAbsorb(c, &out)
			}
			eng.Submit(c, out)
			w.release()
			w.unlockShared(c)
		}
	}
}

// lockShared serializes on the global structure lock in the
// shared-everything ablation; a no-op in KVell's shared-nothing design.
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
		var since uint64
		if w.hot != nil {
			since = w.hot.Clock()
		}
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
			w.finishRead(c, r, l, since, payload, out)
			return
		}
		o := w.getRec(r)
		o.step, o.l, o.since = stepGet, l, since
		w.fetchSlot(c, l, r.Key, o, out)
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
// the key's current slot; since is the hot tier's write clock when the
// request started.
func (w *worker) finishRead(c env.Ctx, r *kv.Request, l location, since uint64, payload []byte, out *[]*aio.IO) {
	val, ok := w.committedValue(c, payload)
	if !ok {
		w.respond(c, r, kv.Result{})
		return
	}
	val = kv.CopyValue(val, &r.ValueBuf)
	if r.Op == kv.OpGet {
		// Multi-page items bypass the hot tier like they bypass the page
		// cache, and so do keys in the version table (see prewriteLocked).
		if w.hot != nil && !w.slabs[l.class()].MultiPage() && (w.mv == nil || w.mv.Get(r.Key) == nil) {
			w.hotAdmit(c, r.Key, val, since)
		}
		w.respond(c, r, kv.Result{Found: true, Value: val})
		return
	}
	if w.ab != nil && w.absorb(c, r, out) {
		return
	}
	w.update(c, r.Key, r.Value, w.ackFound(r), out)
}

// ackFound returns the record of a write that acknowledges r, Found, once
// durable.
func (w *worker) ackFound(r *kv.Request) *opRec {
	o := w.getRec(r)
	o.res.Found = true
	return o
}

// startLoc reads lr's slot on w, the owner of its location.
func (w *worker) startLoc(c env.Ctx, lr *locReq, out *[]*aio.IO) {
	lr.w = w
	w.readSlot(c, lr.l, lr.key, lr, out)
}

// slot receives the payload of lr's slot (see slotReader).
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
// into its item slot, then counts the read done on the scan's latch, which
// wakes the scanner at the last. Nothing of lr's scan state may be touched
// after Done: the scanner may already have returned the state to the pool.
func (lr *locReq) deliver(c env.Ctx, val []byte, ok bool) {
	ss := lr.scan
	if ok {
		it := &ss.items[lr.idx]
		it.Key = append(it.Key[:0], lr.key...)
		it.Value = append(it.Value[:0], val...)
	}
	lr.found = ok
	ss.reads.Done(c)
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
	// A fill from a disk that shares its images takes no buffer: the read
	// completes with the device's array of the page.
	var buf []byte
	if !w.shared {
		buf = w.pageBuf()
	}
	w.emitIO(c, device.Read, page, buf, pr, out)
}

// privateRead reads page into buf for j alone, outside the page cache and
// the pending-read table: a multi-page slot's read.
func (w *worker) privateRead(c env.Ctx, page int64, buf []byte, j prJoiner, out *[]*aio.IO) {
	j.tc = trace.FromCtx(c)
	pr := w.getPR(page)
	pr.private = true
	pr.joiners = append(pr.joiners, j)
	w.emitIO(c, device.Read, page, buf, pr, out)
}

// cacheInsert puts data in the cache as page's image. An evicted frame's
// buffer is recycled only when the disk shares no images: otherwise it is
// the device's array, or a held copy that release recycles.
func (w *worker) cacheInsert(c env.Ctx, page int64, data []byte) {
	if _, ev := w.cache.InsertTake(page, data); ev != nil && !w.shared {
		w.hold(-1, ev)
	}
	c.CPU(w.cache.InsertCost())
}

// writePage submits a page write; done (optional) is its tag, run when the
// write is durable.
func (w *worker) writePage(c env.Ctx, page int64, data []byte, done cont, out *[]*aio.IO) {
	if done == nil {
		done = noDone{}
	}
	w.emitIO(c, device.Write, page, data, done, out)
}

// update writes (key, value) and completes o once it is durable at its final
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
func (w *worker) update(c env.Ctx, key, value []byte, o *opRec, out *[]*aio.IO) {
	if w.hot != nil {
		// Write-through before the slab I/O: every durable put funnels
		// through here, so a cached record can never lag the store.
		w.hotWrite(c, key, value)
	}
	payload := value
	if w.mv != nil {
		cts := w.st.oracle.Next(c.Now())
		if ks := w.mv.Get(key); ks != nil {
			w.chainCommit(c, key, ks, cts, false, value, o, out)
			return
		}
		payload = w.encodeEnvelope(&mvcc.Envelope{Kind: mvcc.KindCommitPut, StartTS: cts, CommitTS: cts, PrevLoc: mvcc.NoLoc, Value: value})
		o.env = payload
	}
	cls := w.classFor(key, payload)
	old, exists := w.lookup(c, key)
	ts := w.nextTS()
	c.CPU(costs.MemBytes(len(key) + len(payload))) // marshal into page image
	sl := w.slabs[cls]
	// In-place update (same class, sub-page item). Skipped in the
	// NoInPlaceUpdates variant (§5.6): drives that cannot write a 4KB page
	// atomically must never overwrite the only durable copy.
	if exists && old.class() == cls && !sl.MultiPage() && !w.st.cfg.NoInPlaceUpdates {
		w.patchSlot(c, old, edit{op: editItem, ts: ts, key: key, payload: payload}, o, out)
		return
	}
	// The item moves. After the new value is durable, tombstone the old
	// location (§5.2: "first writes the updated item in its new slab and
	// then deletes it from the old one"; the same ordering protects the §5.6
	// no-in-place variant).
	o.l, o.free = old, exists
	w.placeItem(c, cls, key, payload, ts, true, o, out)
}

// classFor returns the size class that fits (key, payload).
func (w *worker) classFor(key, payload []byte) int {
	cls := slab.ClassFor(slab.DefaultClasses, len(key), len(payload))
	if cls < 0 {
		panic("core: item exceeds largest configured size class")
	}
	return cls
}

// remove deletes key, completing o once the delete is durable — the one
// entry point of every durable delete. It returns false, recycling o unrun,
// when the key does not exist. Under MVCC a multi-version key gets a
// chained committed-delete envelope, so older snapshots keep reading the
// prior version until GC purges the key; a single-version key is removed
// outright, as without MVCC.
func (w *worker) remove(c env.Ctx, key []byte, o *opRec, out *[]*aio.IO) bool {
	if w.hot != nil {
		w.hotInvalidate(c, key)
	}
	if ks, _, ok := w.newestCommitted(key); ks != nil {
		if !ok {
			w.putRec(o)
			return false
		}
		w.chainCommit(c, key, ks, w.st.oracle.Next(c.Now()), true, nil, o, out)
		return true
	}
	l, ok := w.lookup(c, key)
	if !ok {
		w.putRec(o)
		return false
	}
	w.indexDelete(c, key)
	w.freeSlot(c, l, o, out)
	return true
}
