package core

import (
	"kvell/internal/costs"
	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/trace"
)

// Hot/cold tiering front end: a per-worker hot-key record cache
// (internal/hotcache) probed after the absorb buffer and before the index.
// Ordering is what makes it safe without any cross-structure locking:
//
//	read:  absorb buffer -> hot cache -> index -> page cache -> disk
//	write: hot cache write-through/invalidate -> slab write
//
// A key with a buffered write is always served from the absorb buffer, so
// the hot cache can never be asked for a value that is fresher in memory;
// every durable write passes through update or remove, where the cached
// copy is refreshed or dropped before the slab I/O is issued, and the write
// is stamped on the hot tier's write clock whether the key is resident or
// not: a cold read in flight across it never admits what it read (hotAdmit).
// Transaction writes (MVCC) bypass update and remove, so a key in the
// version table is never in the hot tier: its prewrite drops the cached
// record (and stamps it), reads of it skip hotGet, and finishRead admits
// only keys with no table entry. The cache is a pure read accelerator — the
// disk stays authoritative, so crash recovery is byte-for-byte the untiered
// scan. Everything below is gated on w.hot, keeping tiering-off schedules
// bit-identical.

// hotGet serves an OpGet from the hot tier. Returns false on a miss (the
// request then takes the normal index/page-cache path); the miss itself is
// recorded as ghost-table evidence that feeds later promotion.
func (w *worker) hotGet(c env.Ctx, r *kv.Request) bool {
	t0 := c.Now()
	c.CPU(costs.HashLookup)
	val, ok := w.hot.Get(r.Key, c.Now(), &r.ValueBuf)
	tc := trace.FromCtx(c)
	if !ok {
		tc.Count(trace.CtrHotMiss, 1)
		return false
	}
	c.CPU(costs.MemBytes(len(val)))
	tc.Add(trace.CompHotCache, t0, c.Now())
	tc.Count(trace.CtrHotHit, 1)
	w.respond(c, r, kv.Result{Found: true, Value: val})
	return true
}

// hotAdmit offers a value that just came off the cold path to the hot tier,
// unless the key was written after the read started, at write clock since:
// the write-through of a key that was not resident is a no-op, so the value
// read may predate it, and admitting it would serve it from then on. Call
// before responding: key and val are backed by request-owned buffers that
// may be recycled by Done.
func (w *worker) hotAdmit(c env.Ctx, key, val []byte, since uint64) {
	c.CPU(costs.HashLookup)
	if w.hot.WrittenSince(key, since) {
		return
	}
	promoted, demoted := w.hot.Admit(key, val, c.Now())
	tc := trace.FromCtx(c)
	if promoted {
		c.CPU(costs.MemBytes(len(key) + len(val)))
		tc.Count(trace.CtrHotPromote, 1)
	}
	if demoted {
		tc.Count(trace.CtrHotDemote, 1)
	}
}

// hotWrite applies write-through to a resident record (or evicts it when the
// new value no longer fits a slot). Writes never admit: only repeated cold
// reads promote, so a write-heavy cold tail cannot flush the hot set.
func (w *worker) hotWrite(c env.Ctx, key, value []byte) {
	c.CPU(costs.HashLookup)
	if w.hot.Update(key, value, c.Now()) {
		c.CPU(costs.MemBytes(len(value)))
	}
}

// hotInvalidate drops a record ahead of its delete.
func (w *worker) hotInvalidate(c env.Ctx, key []byte) {
	c.CPU(costs.HashLookup)
	w.hot.Invalidate(key)
}

// hotAbsorb mirrors a just-buffered write into the hot tier at absorb-add
// time. The absorb buffer already shields reads of this key, but keeping the
// cached copy current means the entry's eventual flush (which passes through
// update/remove and writes through again) can never expose a stale
// value, and a demotion between add and flush loses nothing.
func (w *worker) hotAbsorb(c env.Ctx, r *kv.Request) {
	if r.Op == kv.OpDelete {
		w.hotInvalidate(c, r.Key)
		return
	}
	w.hotWrite(c, r.Key, r.Value)
}
