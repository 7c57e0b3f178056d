package harness

import (
	"bytes"
	"fmt"
	"math/rand"

	"kvell/internal/cluster"
	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/stats"
	"kvell/internal/trace"
)

// The workload side of a testbed: who keeps W requests in flight (window), who
// waits for the clients to finish (env.Latch), who draws the shadow-model stream
// and reads it back (shadowClient, readBack), over what (transport). The bank
// workload is in txnexp.go. See DESIGN.md §15.

// window bounds a client's outstanding asynchronous operations to its slot
// count. Every slot owns one pooled message whose completion callback is wired
// once, when the slot is made, so steady-state issue allocates nothing:
// acquire hands out a free slot's message (most recently freed first), the
// wired callback releases the slot when the reply arrives, drain waits for
// every reply. A transport that can lose replies also sweeps: the slot gets a
// new generation and a fresh message, and a reply that lands later — still
// wired to the old generation — is dropped instead of completing whatever
// rides the slot by then.
type window[M any] struct {
	mu    env.Mutex
	cond  env.Cond
	wire  func(lease[M]) M
	slots []slot[M]
	free  []*slot[M]
}

type slot[M any] struct {
	msg  M
	gen  uint64
	busy bool
}

// lease is a slot at one generation: what a wired completion callback holds.
type lease[M any] struct {
	w   *window[M]
	sl  *slot[M]
	gen uint64
}

// newWindow returns a window of n slots. wire makes one slot's message, with
// l.release called from its completion callback.
func newWindow[M any](e env.Env, n int, wire func(l lease[M]) M) *window[M] {
	w := &window[M]{mu: e.NewMutex(), wire: wire, slots: make([]slot[M], n), free: make([]*slot[M], n)}
	w.cond = e.NewCond(w.mu)
	for i := range w.slots {
		sl := &w.slots[i]
		sl.msg = wire(lease[M]{w, sl, 0})
		w.free[i] = sl
	}
	return w
}

// acquire blocks until a slot is free and returns its message.
func (w *window[M]) acquire(c env.Ctx) M {
	w.mu.Lock(c)
	for len(w.free) == 0 {
		w.cond.Wait(c)
	}
	sl := w.free[len(w.free)-1]
	w.free = w.free[:len(w.free)-1]
	sl.busy = true
	w.mu.Unlock(c)
	return sl.msg
}

// idle returns how many slots acquire would hand out without blocking.
func (w *window[M]) idle() int { return len(w.free) }

// release frees the slot for the next operation. It runs in scheduler context
// (a completion callback) and reports false, doing nothing, when the slot was
// swept since the callback was wired.
func (l lease[M]) release() bool {
	w, sl := l.w, l.sl
	w.mu.Lock(nil)
	live := sl.busy && sl.gen == l.gen
	if live {
		sl.busy = false
		w.free = append(w.free, sl)
	}
	w.mu.Unlock(nil)
	if live {
		w.cond.Signal(nil)
	}
	return live
}

// drain blocks until no operation is outstanding.
func (w *window[M]) drain(c env.Ctx) {
	w.mu.Lock(c)
	for len(w.free) < len(w.slots) {
		w.cond.Wait(c)
	}
	w.mu.Unlock(c)
}

// sweep is the client-side timeout: it frees every busy slot whose message
// lost selects and returns those messages, which are the window's no longer.
func (w *window[M]) sweep(c env.Ctx, lost func(M) bool) (swept []M) {
	w.mu.Lock(c)
	for i := range w.slots {
		sl := &w.slots[i]
		if sl.busy && lost(sl.msg) {
			swept = append(swept, sl.msg)
			sl.busy = false
			sl.gen++
			sl.msg = w.wire(lease[M]{w, sl, sl.gen})
			w.free = append(w.free, sl)
		}
	}
	w.mu.Unlock(c)
	w.cond.Broadcast(c)
	return swept
}

// transport is how a workload model reaches the store under test: newMsg
// makes one window slot's pooled message with done wired as its completion,
// send fills it with an operation and submits it.
type transport[M any] interface {
	newMsg(done func(kv.Result)) M
	send(c env.Ctx, m M, op kv.OpType, key, value []byte)
}

// engineTransport submits requests to a single-node engine.
type engineTransport struct{ eng kv.Engine }

func (engineTransport) newMsg(done func(kv.Result)) *kv.Request { return &kv.Request{Done: done} }

func (t engineTransport) send(c env.Ctx, r *kv.Request, op kv.OpType, key, value []byte) {
	r.Op, r.Key, r.Value = op, key, value
	t.eng.Submit(c, r)
}

// clusterTransport sends messages from machine client of cl, each traced by
// tracer (nil for none).
type clusterTransport struct {
	cl     *cluster.Cluster
	client int
	tracer *trace.Tracer
}

func (t clusterTransport) newMsg(done func(kv.Result)) *cluster.ReqMsg {
	m := cluster.NewReqMsg(t.cl)
	m.Done = func(out kv.Result) {
		done(out)
		t.tracer.Finish(m.Trace, t.cl.S.Now())
	}
	return m
}

func (t clusterTransport) send(c env.Ctx, m *cluster.ReqMsg, op kv.OpType, key, value []byte) {
	m.Op, m.Key, m.Value = op, key, value
	m.Trace = t.tracer.Begin(int(op), c.Now())
	t.cl.Send(c, t.client, m)
}

// shadow is the acked-write model the crash and failover verifiers share.
// Versions are per key: bulk load is version 1 and each update increments. At
// most one update per key is in flight (clients downgrade a busy key's update
// to a read), so after a crash the durable version of key k must lie in
// [acked[k], issued[k]].
type shadow struct {
	issued   []uint64
	acked    []uint64
	inflight []bool
	// valLen is the length of the value version v of key k carries; its
	// bytes are kv.FillValue's for (k, v).
	valLen func(k int64, v uint64) int
	// scratch holds the candidate values match compares against.
	scratch []byte

	// Whole-run counts over every shadow client: operations issued and
	// completed, updates among each, and the completed operations' latency.
	nIssued, nIssuedUpdates   int64
	nCompleted, nAckedUpdates int64
	lat                       *stats.Hist
}

func newShadow(keys int64, valLen func(k int64, v uint64) int) *shadow {
	sh := &shadow{
		issued:   make([]uint64, keys),
		acked:    make([]uint64, keys),
		inflight: make([]bool, keys),
		valLen:   valLen,
		lat:      stats.NewHist(),
	}
	for i := range sh.issued {
		sh.issued[i], sh.acked[i] = 1, 1
	}
	return sh
}

// fillVal writes the value version v of key k carries into buf, grown if it
// is short, and returns it.
func (sh *shadow) fillVal(buf []byte, k int64, v uint64) []byte {
	n := sh.valLen(k, v)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	kv.FillValue(buf, k, v)
	return buf
}

// issue starts an update of key k and returns its version.
func (sh *shadow) issue(k int64) uint64 {
	sh.inflight[k] = true
	sh.issued[k]++
	return sh.issued[k]
}

// ack records that version v of key k was acknowledged.
func (sh *shadow) ack(k int64, v uint64) {
	sh.acked[k] = v
	sh.inflight[k] = false
}

// match returns which admissible version of key k a read-back value is,
// newest first, or 0 if it is none of them: the key was lost, torn, or rolled
// back past an acknowledgement.
func (sh *shadow) match(k int64, out kv.Result) uint64 {
	if !out.Found {
		return 0
	}
	for v := sh.issued[k]; v >= sh.acked[k]; v-- {
		sh.scratch = sh.fillVal(sh.scratch, k, v)
		if bytes.Equal(out.Value, sh.scratch) {
			return v
		}
	}
	return 0
}

// shadowOp is one window slot of a shadow client: the slot's pooled message,
// the operation riding it, and the key and value bytes it sends, refilled
// for every operation (the message refers to them until its reply).
type shadowOp[M any] struct {
	msg   M
	key   int64
	ver   uint64 // the version an update writes; 0 for a get
	start env.Time
	kbuf  []byte
	vbuf  []byte
}

// shadowWindow returns the depth-slot window of one shadow client on e: a
// completion acknowledges its update in sh and books the operation, unless
// the slot was swept first — then the operation already failed, un-acked.
func shadowWindow[M any](e env.Env, sh *shadow, depth int, tp transport[M]) *window[*shadowOp[M]] {
	return newWindow(e, depth, func(l lease[*shadowOp[M]]) *shadowOp[M] {
		op := &shadowOp[M]{kbuf: make([]byte, kv.KeyLen)}
		op.msg = tp.newMsg(func(kv.Result) {
			if !l.release() {
				return
			}
			if op.ver != 0 {
				sh.ack(op.key, op.ver)
				sh.nAckedUpdates++
			}
			sh.nCompleted++
			sh.lat.Add(e.Now() - op.start)
		})
		return op
	})
}

// shadowClient runs client ci of n over win until virtual time until: a closed
// loop drawing keys from the client's own n-th of the key range, each
// operation a coin flip between a get and an update, an update of a key that
// has one in flight downgraded to a get. The stream is seeded from (seed, ci):
// the client schedule is part of the reproducible schedule.
func shadowClient[M any](c env.Ctx, sh *shadow, win *window[*shadowOp[M]], tp transport[M], seed int64, ci, n int, until env.Time) {
	rng := rand.New(rand.NewSource(seed*7919 + int64(ci)))
	keys := int64(len(sh.issued))
	lo, hi := int64(ci)*keys/int64(n), (int64(ci)+1)*keys/int64(n)
	for c.Now() < until {
		op := win.acquire(c)
		op.key = lo + rng.Int63n(hi-lo)
		op.ver, op.start = 0, c.Now()
		kv.FillKey(op.kbuf, op.key)
		sh.nIssued++
		if rng.Intn(2) == 0 && !sh.inflight[op.key] {
			op.ver = sh.issue(op.key)
			sh.nIssuedUpdates++
			op.vbuf = sh.fillVal(op.vbuf, op.key, op.ver)
			tp.send(c, op.msg, kv.OpUpdate, op.kbuf, op.vbuf)
		} else {
			tp.send(c, op.msg, kv.OpGet, op.kbuf, nil)
		}
	}
	win.drain(c)
}

// sweepShadow fails every in-flight operation of win whose message lost
// selects and returns how many. A failed update stays un-acked — its version
// remains admissible — and frees its key for the next one.
func sweepShadow[M any](c env.Ctx, sh *shadow, win *window[*shadowOp[M]], lost func(M) bool) int64 {
	swept := win.sweep(c, func(op *shadowOp[M]) bool { return lost(op.msg) })
	for _, op := range swept {
		if op.ver != 0 {
			sh.inflight[op.key] = false
		}
	}
	return int64(len(swept))
}

// readOp is one window slot of the read-back verifier: the slot's pooled
// message, which of the keys it is reading, and that key's bytes.
type readOp[M any] struct {
	msg  M
	i    int
	kbuf []byte
}

// readBack reads the n keys key(0..n-1) back through tp, verifyWindow at a
// time, and returns which admissible version the store holds of each
// (sh.match; 0 for none). seen is told every outcome as its read completes.
func readBack[M any](c env.Ctx, e env.Env, sh *shadow, tp transport[M], n int, key func(i int) int64, seen func(k int64, ver uint64, out kv.Result)) []uint64 {
	recVer := make([]uint64, n)
	win := newWindow(e, verifyWindow, func(l lease[*readOp[M]]) *readOp[M] {
		op := &readOp[M]{kbuf: make([]byte, kv.KeyLen)}
		op.msg = tp.newMsg(func(out kv.Result) {
			k := key(op.i)
			recVer[op.i] = sh.match(k, out)
			seen(k, recVer[op.i], out)
			l.release()
		})
		return op
	})
	for i := 0; i < n; i++ {
		op := win.acquire(c)
		op.i = i
		kv.FillKey(op.kbuf, key(i))
		tp.send(c, op.msg, kv.OpGet, op.kbuf, nil)
	}
	win.drain(c)
	return recVer
}

// verdict collects a run's verification failures; the first few are kept and
// the first is reported.
type verdict struct{ failures []string }

func (vd *verdict) failf(format string, args ...any) {
	if len(vd.failures) < 8 {
		vd.failures = append(vd.failures, fmt.Sprintf(format, args...))
	}
}

func (vd *verdict) failed() bool { return len(vd.failures) > 0 }

// err is nil for a clean run; otherwise it names the run (format, args), how
// many failures were kept, and the first.
func (vd *verdict) err(format string, args ...any) error {
	if !vd.failed() {
		return nil
	}
	return fmt.Errorf("%s: %d failures, first: %s", fmt.Sprintf(format, args...), len(vd.failures), vd.failures[0])
}
