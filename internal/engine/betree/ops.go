package betree

import (
	"bytes"
	"sort"

	"kvell/internal/costs"
	"kvell/internal/device"
	"kvell/internal/engine/leaf"
	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/slab"
	"kvell/internal/trace"
	"kvell/internal/walog"
)

// Submit implements kv.Engine (library model).
func (d *DB) Submit(c env.Ctx, r *kv.Request) { kv.SubmitLibrary(c, d, r) }

// logRecord appends the record to the group-commit log (1MB groups, like
// the configured baselines).
func (d *DB) logRecord(c env.Ctx, op byte, key, value []byte) {
	t0 := c.Now()
	c.CPU(costs.WALBytes(leaf.EntryBytes(len(key), len(value))))
	d.log.Append(c, op, key, value)
	trace.FromCtx(c).Span("wal", t0, c.Now())
}

// Put buffers the write at the root; full buffers cascade down (§3.1:
// ">20% of its time moving data from buffers to their correct location").
func (d *DB) Put(c env.Ctx, key, value []byte) {
	d.write(c, key, value, false)
}

// Delete buffers a delete message.
func (d *DB) Delete(c env.Ctx, key []byte) {
	d.write(c, key, nil, true)
}

func (d *DB) write(c env.Ctx, key, value []byte, del bool) {
	op := byte(walog.OpPut)
	if del {
		op = walog.OpDelete
	}
	d.logRecord(c, op, key, value)
	// Lock and atomic traffic on shared pages (§3.1: up to 30% of TokuMX
	// time in locks or atomic operations).
	c.CPU(costs.LockUncontended * 12)
	d.treeMu.Lock(c)
	d.stats.Puts++
	d.seq++
	m := msg{key: append([]byte(nil), key...), seq: d.seq, del: del}
	if !del {
		m.value = append([]byte(nil), value...)
	}
	c.CPU(rootInsertCost(&m))
	d.rootBytes += upsertMsg(&d.rootMsgs, m)
	if d.rootBytes >= rootBufferBytes {
		d.flushRoot(c)
	}
	d.treeMu.Unlock(c)
	d.maybeStall(c)
}

// rootInsertCost is the CPU of buffering m at the root: the copy plus a
// short descent of the sorted buffer.
func rootInsertCost(m *msg) env.Time {
	return costs.MemBytes(msgBytes(m)) + costs.BTreeNode*2
}

// maybeStall blocks the writer while dirty data exceeds the stall
// threshold (eviction/checkpoint pressure).
func (d *DB) maybeStall(c env.Ctx) {
	limit := int64(float64(d.cfg.CacheBytes) * dirtyStallFrac)
	d.stallMu.Lock(c)
	if d.t.DirtyBytes() > limit/2 {
		d.stallCond.Broadcast(c) // wake the eviction thread early
	}
	for d.t.DirtyBytes() > limit && !d.closing {
		d.stats.WriteStalls++
		t0 := c.Now()
		d.stallCond.Wait(c)
		d.stats.StallTime += c.Now() - t0
		trace.FromCtx(c).Add(trace.CompStall, t0, c.Now())
	}
	d.stallMu.Unlock(c)
}

// evictLoop continuously writes dirty leaves once the dirty fraction
// passes half the stall threshold, keeping writers unblocked when it can
// keep up (and producing the §3.2 stalls when it cannot).
func (d *DB) evictLoop(c env.Ctx) {
	trigger := int64(float64(d.cfg.CacheBytes) * dirtyStallFrac / 2)
	var scratch []byte // this thread's reconcile buffer (dead once written)
	for {
		d.stallMu.Lock(c)
		for d.t.DirtyBytes() <= trigger && !d.closing {
			d.stallCond.Wait(c)
		}
		closing := d.closing
		d.stallMu.Unlock(c)
		if closing {
			return
		}
		d.treeMu.Lock(c)
		victim := d.t.OldestDirty()
		if victim == nil {
			d.treeMu.Unlock(c)
			continue
		}
		bc := d.cfg.Tracer.BeginBg("evict", c.Now())
		c.SetTrace(bc)
		c.CPU(costs.PageReconcile)
		scratch = d.t.Reconcile(victim, scratch)
		page := victim.Page
		d.treeMu.Unlock(c)
		d.io.Write(c, page, scratch)
		c.SetTrace(nil)
		d.cfg.Tracer.FinishBg(bc, c.Now())
		d.stats.EvictedLeaves++
		d.stallCond.Broadcast(c)
	}
}

// flushRoot partitions the root buffer into the group buffers (treeMu
// held). Groups that overflow cascade into their leaves. The cascade runs
// on the writing client's thread, so the maintenance span is overlaid via
// AddBg without switching the proc's trace context — the victim request
// keeps accumulating its own lock/CPU/device components.
func (d *DB) flushRoot(c env.Ctx) {
	t0 := c.Now()
	defer func() { d.cfg.Tracer.AddBg("root-flush", t0, c.Now()) }()
	d.stats.RootFlushes++
	moved := 0
	var overflow []*group
	for _, m := range d.rootMsgs {
		g := d.groups[d.findGroup(m.key)]
		g.bytes += upsertMsg(&g.msgs, m)
		moved += msgBytes(&m)
	}
	d.stats.BufferMovedBytes += int64(moved)
	c.CPU(costs.BufferMoveBytes(moved))
	d.rootMsgs = d.rootMsgs[:0]
	d.rootBytes = 0
	for _, g := range d.groups {
		if g.bytes >= groupBufferBytes {
			overflow = append(overflow, g)
		}
	}
	for _, g := range overflow {
		d.flushGroup(c, g)
	}
}

// flushGroup applies a group's messages to the leaves, holding the tree
// spin lock across any leaf reads (the paper's lock contention source).
func (d *DB) flushGroup(c env.Ctx, g *group) {
	d.stats.GroupFlushes++
	moved := 0
	var minLeaf, maxLeaf int = 1 << 30, -1
	for _, m := range g.msgs {
		moved += msgBytes(&m)
		li := d.t.Find(c, m.key)
		if li < minLeaf {
			minLeaf = li
		}
		if li > maxLeaf {
			maxLeaf = li
		}
		l := d.t.Leaves[li]
		d.loadLeafLocked(c, l)
		d.applyToLeaf(c, l, &m)
	}
	d.stats.BufferMovedBytes += int64(moved)
	c.CPU(costs.BufferMoveBytes(moved))
	g.msgs = g.msgs[:0]
	g.bytes = 0
	// Split the group when its span has grown too wide.
	if maxLeaf >= minLeaf && maxLeaf-minLeaf+1 > splitSpan {
		d.splitGroup(g)
	}
}

func (d *DB) splitGroup(g *group) {
	gi := -1
	for i, gg := range d.groups {
		if gg == g {
			gi = i
			break
		}
	}
	if gi < 0 {
		return
	}
	// Find the middle leaf within g's range.
	leaves := d.t.Leaves
	lo := 0
	if g.firstKey != nil {
		lo = sort.Search(len(leaves), func(i int) bool {
			return bytes.Compare(leaves[i].FirstKey, g.firstKey) >= 0
		})
	}
	hi := len(leaves)
	if gi+1 < len(d.groups) {
		hi = sort.Search(len(leaves), func(i int) bool {
			return bytes.Compare(leaves[i].FirstKey, d.groups[gi+1].firstKey) >= 0
		})
	}
	mid := (lo + hi) / 2
	if mid <= lo || mid >= hi || leaves[mid].FirstKey == nil {
		return
	}
	ng := &group{firstKey: bytes.Clone(leaves[mid].FirstKey)}
	// Move messages >= boundary (none right after a flush, but be safe).
	split := sort.Search(len(g.msgs), func(i int) bool {
		return bytes.Compare(g.msgs[i].key, ng.firstKey) >= 0
	})
	ng.msgs = append(ng.msgs, g.msgs[split:]...)
	for i := range ng.msgs {
		ng.bytes += msgBytes(&ng.msgs[i])
	}
	g.msgs = g.msgs[:split]
	g.bytes -= ng.bytes
	d.groups = append(d.groups, nil)
	copy(d.groups[gi+2:], d.groups[gi+1:])
	d.groups[gi+1] = ng
}

// applyToLeaf installs one message into a resident leaf (treeMu held). The
// leaf is dirtied even by a delete that finds nothing: the flush touched it.
func (d *DB) applyToLeaf(c env.Ctx, l *leaf.Leaf, m *msg) {
	d.t.MarkDirty(l)
	if m.del {
		d.t.Remove(l, m.key)
	} else {
		d.t.Upsert(l, m.key, m.value)
	}
	c.CPU(costs.MemBytes(leaf.EntryBytes(len(m.key), len(m.value))))
	d.t.Fit(l)
}

// Get consults the buffers along the "path" (root, then group), then the
// leaf; an ancestor message is always newer than anything below it.
func (d *DB) Get(c env.Ctx, key []byte) ([]byte, bool) {
	return d.GetInto(c, key, nil)
}

// GetInto is Get with optional caller-owned value scratch: when vdst is
// non-nil the returned value is backed by *vdst (grown as needed) and only
// valid until the caller reuses the scratch.
func (d *DB) GetInto(c env.Ctx, key []byte, vdst *[]byte) ([]byte, bool) {
	c.CPU(costs.LockUncontended)
	d.treeMu.Lock(c)
	d.stats.Gets++
	c.CPU(costs.BTreeNode * 3)
	m, ok := findMsg(d.rootMsgs, key)
	if !ok {
		m, ok = findMsg(d.groups[d.findGroup(key)].msgs, key)
	}
	if ok {
		d.treeMu.Unlock(c)
		if m.del {
			return nil, false
		}
		return kv.CopyValue(m.value, vdst), true
	}
	var l *leaf.Leaf
	for {
		l = d.t.Leaves[d.t.Find(c, key)]
		if l.Resident() {
			d.stats.CacheHits++
			d.t.Touch(l)
			break
		}
		// Release the lock for read I/O on the Get path (TokuMX reads do
		// not hold the flush locks), then re-descend.
		d.stats.CacheMisses++
		page := l.Page
		buf := d.t.GetBuf(l.Pages)
		d.treeMu.Unlock(c)
		ents, total := leaf.Fetch(c, d.io, page, buf)
		d.treeMu.Lock(c)
		d.t.PutBuf(buf)
		if !l.Resident() && l.Page == page {
			d.t.Install(l, ents, total)
		}
	}
	var val []byte
	i, found := l.Search(key)
	if found {
		val = kv.CopyValue(l.Ents[i].Value, vdst)
		c.CPU(costs.MemBytes(len(val)))
	}
	d.treeMu.Unlock(c)
	return val, found
}

// Scan merges buffered messages with leaf entries for the range.
func (d *DB) Scan(c env.Ctx, start []byte, count int) []kv.Item {
	return d.ScanInto(c, start, count, nil)
}

// ScanInto is Scan with a caller-owned destination: dst's slots (and their
// Key/Value capacity) are reused via kv.AppendItem, so hot-path callers
// that only count the results recycle one buffer across scans.
func (d *DB) ScanInto(c env.Ctx, start []byte, count int, dst []kv.Item) []kv.Item {
	c.CPU(costs.LockUncontended)
	d.treeMu.Lock(c)
	d.stats.Scans++

	// Collect candidate messages >= start (root + all groups from the
	// containing one on).
	pending := map[string]msg{}
	addMsgs := func(msgs []msg) {
		i := sort.Search(len(msgs), func(i int) bool {
			return bytes.Compare(msgs[i].key, start) >= 0
		})
		for ; i < len(msgs); i++ {
			m := msgs[i]
			if prev, ok := pending[string(m.key)]; !ok || m.seq > prev.seq {
				pending[string(m.key)] = m
			}
			c.CPU(costs.IterStep)
		}
	}
	addMsgs(d.rootMsgs)
	for gi := d.findGroup(start); gi < len(d.groups); gi++ {
		addMsgs(d.groups[gi].msgs)
	}

	out := dst
	emit := func(key, value []byte) {
		out = kv.AppendItem(out, key, value)
	}
	// Sorted pending keys for merge.
	pkeys := make([]string, 0, len(pending))
	for k := range pending {
		pkeys = append(pkeys, k)
	}
	sort.Strings(pkeys)
	pi := 0

	li := d.t.Find(c, start)
	var lastKey []byte
	for li < len(d.t.Leaves) && len(out) < count {
		l := d.t.Leaves[li]
		d.loadLeafLocked(c, l)
		for _, e := range l.Ents {
			if bytes.Compare(e.Key, start) < 0 {
				continue
			}
			if lastKey != nil && bytes.Compare(e.Key, lastKey) <= 0 {
				continue
			}
			// Emit pending message keys that sort before this entry.
			for pi < len(pkeys) && pkeys[pi] < string(e.Key) && len(out) < count {
				m := pending[pkeys[pi]]
				pi++
				if !m.del {
					emit(m.key, m.value)
				}
			}
			if len(out) >= count {
				break
			}
			c.CPU(costs.IterStep)
			if pi < len(pkeys) && pkeys[pi] == string(e.Key) {
				m := pending[pkeys[pi]]
				pi++
				if !m.del {
					emit(m.key, m.value)
				}
			} else {
				emit(e.Key, e.Value)
			}
			lastKey = append(lastKey[:0], e.Key...)
			if len(out) >= count {
				break
			}
		}
		li++
	}
	// Trailing pending keys past the last leaf entry.
	for pi < len(pkeys) && len(out) < count {
		m := pending[pkeys[pi]]
		pi++
		if lastKey != nil && string(m.key) <= string(lastKey) {
			continue
		}
		if !m.del {
			emit(m.key, m.value)
		}
	}
	d.treeMu.Unlock(c)
	return out
}

// BulkLoad builds full leaves directly and sizes the group table. The
// items are also appended to the log (direct, untimed store writes — bulk
// load precedes the measured run), so post-crash replay reconstructs the
// loaded data without trusting any leaf page.
func (d *DB) BulkLoad(items []kv.Item) error {
	d.log.AppendBulk(d.cfg.Disks[0].Store(), items)
	d.buildLeaves(items)
	return nil
}

// ReplayLog rebuilds a freshly-opened DB from the valid prefix of
// its on-disk log: last-writer-wins over the records, then a bulk build of
// the surviving items. Log reads go through the engine's synchronous read
// path and every record pays the write path's root-buffer insert, so
// recovery cost lands on virtual time. Returns the number of log records
// replayed.
func (d *DB) ReplayLog(c env.Ctx) int {
	items, n := d.log.ReplayItems(c, func(_ byte, key, value []byte) {
		c.CPU(rootInsertCost(&msg{key: key, value: value}))
	})
	d.buildLeaves(items)
	return n
}

// buildLeaves replaces the tree with bulk-built leaves for items (sorted by
// key) and sizes the group table to them: one group per splitSpan/2 leaves.
func (d *DB) buildLeaves(items []kv.Item) {
	if !d.t.Build(d.cfg.Disks[0].Store(), items) {
		return
	}
	d.groups = d.groups[:0]
	const step = splitSpan / 2
	for i := 0; i < len(d.t.Leaves); i += step {
		// Leaves[0].FirstKey is nil: the first group owns -inf too.
		d.groups = append(d.groups, &group{firstKey: bytes.Clone(d.t.Leaves[i].FirstKey)})
	}
}

// checkpointLoop periodically writes dirty leaves and wakes stalled
// writers.
func (d *DB) checkpointLoop(c env.Ctx) {
	// All job images live until the write loop below finishes, so they come
	// from a per-checkpoint arena rather than a single scratch buffer.
	arena := slab.NewArena(1 << 20)
	type job struct {
		page int64
		buf  []byte
	}
	var jobs []job
	var dirty []*leaf.Leaf
	for {
		c.Sleep(checkpointEvery)
		bc := d.cfg.Tracer.BeginBg("checkpoint", c.Now())
		c.SetTrace(bc)
		d.treeMu.Lock(c)
		if d.closing {
			d.treeMu.Unlock(c)
			c.SetTrace(nil)
			d.cfg.Tracer.FinishBg(bc, c.Now())
			return
		}
		// Collect dirty leaves, then write them without the tree lock.
		jobs = jobs[:0]
		dirty = d.t.DirtyLeaves(dirty[:0])
		for _, l := range dirty {
			c.CPU(costs.PageReconcile)
			img := d.t.Reconcile(l, arena.Alloc(int(leaf.RunPages(l.Bytes))*device.PageSize))
			jobs = append(jobs, job{page: l.Page, buf: img})
		}
		clear(dirty) // drop leaf references
		d.treeMu.Unlock(c)
		for _, j := range jobs {
			d.io.Write(c, j.page, j.buf)
			d.stats.EvictedLeaves++
		}
		clear(jobs)   // drop image references
		arena.Reset() // every image has been written out
		c.SetTrace(nil)
		d.cfg.Tracer.FinishBg(bc, c.Now())
		d.stallCond.Broadcast(c)
	}
}
