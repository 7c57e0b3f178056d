package wtree

import (
	"bytes"

	"kvell/internal/costs"
	"kvell/internal/engine/leaf"
	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/trace"
	"kvell/internal/walog"
)

// Submit implements kv.Engine (library model: operations run on the
// calling thread).
func (d *DB) Submit(c env.Ctx, r *kv.Request) { kv.SubmitLibrary(c, library{d}, r) }

// library is DB as a kv.Library, whose Delete reports nothing.
type library struct{ *DB }

func (l library) Delete(c env.Ctx, key []byte) { l.DB.Delete(c, key) }

// logRecord joins the record to the commit log's open slot: a writer that
// finds a slot write in flight busy-waits for it, burning CPU
// (__log_wait_for_earlier_slot), and the writer that fills the slot writes
// it sequentially.
func (d *DB) logRecord(c env.Ctx, op byte, key, value []byte) {
	t0 := c.Now()
	c.CPU(costs.LogSlotJoin + costs.WALBytes(leaf.EntryBytes(len(key), len(value))))
	spins, wrote := d.log.Append(c, op, key, value)
	d.stats.LogSpinTime += env.Time(spins) * costs.LogSlotSpin
	if wrote {
		d.stats.LogSlotWrites++
	}
	trace.FromCtx(c).Span("wal", t0, c.Now())
}

// Put inserts or replaces a record.
func (d *DB) Put(c env.Ctx, key, value []byte) {
	d.logRecord(c, walog.OpPut, key, value)

	c.CPU(costs.LockUncontended)
	d.mu.Lock(c)
	d.stats.Puts++
	l := d.residentLeaf(c, key)
	c.CPU(costs.MemBytes(len(key) + len(value)))
	d.t.Upsert(l, key, bytes.Clone(value))
	d.t.Fit(l)

	dirtyStall := int64(float64(d.cfg.CacheBytes) * dirtyStallFrac)
	if d.t.DirtyBytes() > int64(float64(d.cfg.CacheBytes)*dirtyTriggerFrac) {
		d.cond.Broadcast(c) // wake the eviction thread
	}
	for d.t.DirtyBytes() > dirtyStall && !d.closing {
		// §3.2: user writes stall when eviction cannot keep up.
		d.stats.WriteStalls++
		t0 := c.Now()
		d.cond.Wait(c)
		d.stats.StallTime += c.Now() - t0
		trace.FromCtx(c).Add(trace.CompStall, t0, c.Now())
	}
	d.mu.Unlock(c)
}

// residentLeaf returns the leaf owning key with its records in memory (mu
// held on entry and on return). A miss drops the lock for the read, during
// which the leaf may have split, so the descent repeats until it lands on a
// resident leaf. Callers unlock explicitly, never by defer: a thread parked
// in that read does not hold mu, and closing the simulation unwinds parked
// threads through their deferred calls.
func (d *DB) residentLeaf(c env.Ctx, key []byte) *leaf.Leaf {
	for {
		l := d.t.Leaves[d.t.Find(c, key)]
		if !d.loadLeaf(c, l) {
			return l
		}
	}
}

// Get returns the value for key.
func (d *DB) Get(c env.Ctx, key []byte) ([]byte, bool) {
	return d.GetInto(c, key, nil)
}

// GetInto is Get with optional caller-owned value scratch: when vdst is
// non-nil the returned value is backed by *vdst (grown as needed) and only
// valid until the caller reuses the scratch.
func (d *DB) GetInto(c env.Ctx, key []byte, vdst *[]byte) ([]byte, bool) {
	c.CPU(costs.LockUncontended)
	d.mu.Lock(c)
	d.stats.Gets++
	l := d.residentLeaf(c, key)
	var val []byte
	i, found := l.Search(key)
	if found {
		val = kv.CopyValue(l.Ents[i].Value, vdst)
		c.CPU(costs.MemBytes(len(val)))
	}
	d.mu.Unlock(c)
	return val, found
}

// Delete removes key if present.
func (d *DB) Delete(c env.Ctx, key []byte) bool {
	d.logRecord(c, walog.OpDelete, key, nil)
	c.CPU(costs.LockUncontended)
	d.mu.Lock(c)
	found := d.t.Remove(d.residentLeaf(c, key), key)
	d.mu.Unlock(c)
	return found
}

// Scan returns up to count items with key >= start: leaves are chained in
// key order, so sorted data yields several items per 4KB leaf read — the
// design advantage for scans that Figure 10 quantifies.
func (d *DB) Scan(c env.Ctx, start []byte, count int) []kv.Item {
	return d.ScanInto(c, start, count, nil)
}

// ScanInto is Scan with a caller-owned destination: dst's slots (and their
// Key/Value capacity) are reused via kv.AppendItem, so hot-path callers
// that only count the results recycle one buffer across scans.
func (d *DB) ScanInto(c env.Ctx, start []byte, count int, dst []kv.Item) []kv.Item {
	c.CPU(costs.LockUncontended)
	d.mu.Lock(c)
	d.stats.Scans++
	out := dst
	li := d.t.Find(c, start)
	for li < len(d.t.Leaves) && len(out) < count {
		l := d.t.Leaves[li]
		if d.loadLeaf(c, l) {
			// Lock was dropped; re-find the position by the last key we
			// emitted (or start).
			key := start
			if len(out) > 0 {
				key = out[len(out)-1].Key
			}
			li = d.t.Find(c, key)
			continue
		}
		for _, e := range l.Ents {
			if bytes.Compare(e.Key, start) < 0 {
				continue
			}
			if len(out) > 0 && bytes.Compare(e.Key, out[len(out)-1].Key) <= 0 {
				continue
			}
			c.CPU(costs.IterStep)
			out = kv.AppendItem(out, e.Key, e.Value)
			if len(out) >= count {
				break
			}
		}
		li++
	}
	d.mu.Unlock(c)
	return out
}

// BulkLoad implements kv.Engine: builds ~90%-full leaves directly on disk.
// The items are also appended to the log (direct, untimed store writes —
// bulk load precedes the measured run), so post-crash replay reconstructs
// the loaded data without trusting any leaf page.
func (d *DB) BulkLoad(items []kv.Item) error {
	st := d.cfg.Disks[0].Store()
	d.log.AppendBulk(st, items)
	d.t.Build(st, items)
	return nil
}

// ReplayLog rebuilds a freshly-opened DB from the valid prefix of
// its on-disk log: last-writer-wins over the records, then a bulk build of
// the surviving items. Log reads go through the engine's synchronous read
// path and every record pays Put's copy into its leaf, so recovery cost
// lands on virtual time. Returns the number of log records replayed.
func (d *DB) ReplayLog(c env.Ctx) int {
	items, n := d.log.ReplayItems(c, func(_ byte, key, value []byte) {
		c.CPU(costs.MemBytes(len(key) + len(value)))
	})
	d.t.Build(d.cfg.Disks[0].Store(), items)
	return n
}

// ---- background threads ----

// evictLoop writes dirty leaves back when the dirty fraction exceeds the
// trigger, unblocking stalled writers.
func (d *DB) evictLoop(c env.Ctx) {
	var scratch []byte
	for {
		d.mu.Lock(c)
		trigger := int64(float64(d.cfg.CacheBytes) * dirtyTriggerFrac)
		for d.t.DirtyBytes() <= trigger && !d.closing {
			d.cond.Wait(c)
		}
		if d.closing {
			d.mu.Unlock(c)
			return
		}
		victim := d.t.OldestDirty()
		if victim == nil {
			d.mu.Unlock(c)
			continue
		}
		bc := d.cfg.Tracer.BeginBg("evict", c.Now())
		c.SetTrace(bc)
		d.writeLeaf(c, victim, true, &scratch)
		c.SetTrace(nil)
		d.cfg.Tracer.FinishBg(bc, c.Now())
		d.mu.Unlock(c)
		d.cond.Broadcast(c)
	}
}

// writeLeaf reconciles and writes one dirty leaf (mu held; released around
// the I/O). drop releases the leaf's memory after writing. scratch is the
// calling thread's serialization buffer — eviction and checkpoint can
// overlap (mu is dropped around the write), so each keeps its own.
func (d *DB) writeLeaf(c env.Ctx, l *leaf.Leaf, drop bool, scratch *[]byte) {
	c.CPU(costs.PageReconcile + costs.MemBytes(l.Bytes))
	*scratch = d.t.Reconcile(l, *scratch)
	page := l.Page
	d.mu.Unlock(c)
	d.io.Write(c, page, *scratch)
	d.mu.Lock(c)
	d.stats.EvictedLeaves++
	if drop && !l.Dirty && l.Resident() {
		d.t.Drop(l)
	}
}

// checkpointLoop periodically writes all dirty leaves (bounding the log),
// §3.1's checkpointing.
func (d *DB) checkpointLoop(c env.Ctx) {
	var scratch []byte
	for {
		c.Sleep(checkpointEvery)
		d.mu.Lock(c)
		if d.closing {
			d.mu.Unlock(c)
			return
		}
		bc := d.cfg.Tracer.BeginBg("checkpoint", c.Now())
		c.SetTrace(bc)
		for {
			victim := d.t.OldestDirty()
			if victim == nil {
				break
			}
			d.writeLeaf(c, victim, false, &scratch)
			d.stats.CheckpointLeaves++
			if d.closing {
				break
			}
		}
		c.SetTrace(nil)
		d.cfg.Tracer.FinishBg(bc, c.Now())
		d.mu.Unlock(c)
		d.cond.Broadcast(c)
	}
}
