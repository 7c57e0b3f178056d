package harness

import (
	"bytes"
	"fmt"
	"math/rand"

	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/stats"
	"kvell/internal/trace"
)

// The workload side of a testbed: who keeps W requests in flight (window), who
// waits for the clients to finish (env.Latch), who draws the shadow-model stream
// and reads it back (shadowClient, readBack), and what they submit to
// (submitter). The bank workload is in txnexp.go. See DESIGN.md §15.

// window bounds a client's outstanding asynchronous operations to its slot
// count. Every slot owns one pooled message whose completion callback is wired
// once, when the slot is made, so steady-state issue allocates nothing:
// acquire hands out a free slot's message (most recently freed first), the
// wired callback releases the slot when the operation completes, drain waits
// for every completion.
type window[M any] struct {
	mu    env.Mutex
	cond  env.Cond
	slots []slot[M]
	free  []*slot[M]
}

type slot[M any] struct{ msg M }

// lease is a slot as its wired completion callback holds it.
type lease[M any] struct {
	w  *window[M]
	sl *slot[M]
}

// newWindow returns a window of n slots. wire makes one slot's message, with
// l.release called from its completion callback.
func newWindow[M any](e env.Env, n int, wire func(l lease[M]) M) *window[M] {
	w := &window[M]{mu: e.NewMutex(), slots: make([]slot[M], n), free: make([]*slot[M], n)}
	w.cond = e.NewCond(w.mu)
	for i := range w.slots {
		sl := &w.slots[i]
		sl.msg = wire(lease[M]{w, sl})
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
	w.mu.Unlock(c)
	return sl.msg
}

// idle returns how many slots acquire would hand out without blocking.
func (w *window[M]) idle() int { return len(w.free) }

// release frees the slot for the next operation. It runs in scheduler context
// (a completion callback), once per acquire.
func (l lease[M]) release() {
	w := l.w
	w.mu.Lock(nil)
	w.free = append(w.free, l.sl)
	w.mu.Unlock(nil)
	w.cond.Signal(nil)
}

// drain blocks until no operation is outstanding.
func (w *window[M]) drain(c env.Ctx) {
	w.mu.Lock(c)
	for len(w.free) < len(w.slots) {
		w.cond.Wait(c)
	}
	w.mu.Unlock(c)
}

// submitter is what a workload model submits requests to: a single-node
// engine or a cluster.Client.
type submitter interface {
	Submit(c env.Ctx, r *kv.Request)
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

// shadowOp is one window slot of a shadow client: the slot's pooled request,
// the operation riding it, and the key and value bytes it sends, refilled
// for every operation (the request refers to them until it completes).
type shadowOp struct {
	req  kv.Request
	key  int64
	ver  uint64 // the version an update writes; 0 for a get
	kbuf []byte
	vbuf []byte
}

// shadowWindow returns the depth-slot window of one shadow client on e: a
// completion acknowledges its update in sh, books the operation and finishes
// its trace in tr (nil for none). A completion with TxnRetry is a request the
// cluster gave up on: the operation failed, un-acked — its version stays
// admissible — and frees its key for the next update; it is neither counted
// nor timed, and its trace is never finished.
func shadowWindow(e env.Env, sh *shadow, depth int, tr *trace.Tracer) *window[*shadowOp] {
	return newWindow(e, depth, func(l lease[*shadowOp]) *shadowOp {
		op := &shadowOp{kbuf: make([]byte, kv.KeyLen)}
		op.req.Done = func(out kv.Result) {
			l.release()
			if out.Txn == kv.TxnRetry {
				if op.ver != 0 {
					sh.inflight[op.key] = false
				}
				return
			}
			if op.ver != 0 {
				sh.ack(op.key, op.ver)
				sh.nAckedUpdates++
			}
			sh.nCompleted++
			sh.lat.Add(e.Now() - op.req.Start)
			tr.Finish(op.req.Trace, e.Now())
		}
		return op
	})
}

// shadowClient runs client ci of n over win until virtual time until,
// submitting to to under tracer tr (nil for none): a closed loop drawing keys
// from the client's own n-th of the key range, each operation a coin flip
// between a get and an update, an update of a key that has one in flight
// downgraded to a get. The stream is seeded from (seed, ci): the client
// schedule is part of the reproducible schedule.
func shadowClient(c env.Ctx, sh *shadow, win *window[*shadowOp], to submitter, tr *trace.Tracer, seed int64, ci, n int, until env.Time) {
	rng := rand.New(rand.NewSource(seed*7919 + int64(ci)))
	keys := int64(len(sh.issued))
	lo, hi := int64(ci)*keys/int64(n), (int64(ci)+1)*keys/int64(n)
	for c.Now() < until {
		op := win.acquire(c)
		r := &op.req
		op.key = lo + rng.Int63n(hi-lo)
		op.ver, r.Start = 0, c.Now()
		kv.FillKey(op.kbuf, op.key)
		sh.nIssued++
		r.Op, r.Key, r.Value = kv.OpGet, op.kbuf, nil
		if rng.Intn(2) == 0 && !sh.inflight[op.key] {
			op.ver = sh.issue(op.key)
			sh.nIssuedUpdates++
			op.vbuf = sh.fillVal(op.vbuf, op.key, op.ver)
			r.Op, r.Value = kv.OpUpdate, op.vbuf
		}
		submit(c, to, tr, r)
	}
	win.drain(c)
}

// readOp is one window slot of the read-back verifier: the slot's pooled
// request, which of the keys it is reading, and that key's bytes.
type readOp struct {
	req  kv.Request
	i    int
	kbuf []byte
}

// readBack reads the n keys key(0..n-1) back through to, verifyWindow at a
// time, and returns which admissible version the store holds of each
// (sh.match; 0 for none). seen is told every outcome as its read completes.
func readBack(c env.Ctx, e env.Env, sh *shadow, to submitter, n int, key func(i int) int64, seen func(k int64, ver uint64, out kv.Result)) []uint64 {
	recVer := make([]uint64, n)
	win := newWindow(e, verifyWindow, func(l lease[*readOp]) *readOp {
		op := &readOp{kbuf: make([]byte, kv.KeyLen)}
		op.req.Done = func(out kv.Result) {
			k := key(op.i)
			recVer[op.i] = sh.match(k, out)
			seen(k, recVer[op.i], out)
			l.release()
		}
		return op
	})
	for i := 0; i < n; i++ {
		op := win.acquire(c)
		op.i = i
		kv.FillKey(op.kbuf, key(i))
		op.req.Op, op.req.Key = kv.OpGet, op.kbuf
		to.Submit(c, &op.req)
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
