package lsm

import (
	"slices"

	"kvell/internal/costs"
	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/walog"
)

// The write-ahead log lives in the reserved region at the start of disk 0.
// In durable mode it is a walog.Log: one checksummed chunk per record,
// written and completed before the operation returns, which ReplayLog reads
// back after a crash. Otherwise it is timing-only, like the tree baselines'
// commit logs: it counts the bytes a framed record would take (an
// entryHeader per record, a walGroupHdr per group) and, once WALBufferBytes
// have gathered, writes that many pages of zeros sequentially, wrapping
// around the region — RocksDB's buffered log as the paper configures it
// (§6.2), whose content nothing reads.
const (
	walGroupHdr   = 8
	walRegionSize = 1 << 20 // pages reserved in New()
)

// walAppend logs one record (writeMu held, so a timing-only group write is
// issued by the writer that filled it, with the write lock held — the log
// bottleneck §3.1 describes).
func (d *DB) walAppend(c env.Ctx, key, value []byte, tombstone bool) {
	rec := entryHeader + len(key) + len(value)
	c.CPU(costs.WALBytes(rec))
	if d.cfg.Durable {
		op := byte(walog.OpPut)
		if tombstone {
			op = walog.OpDelete
		}
		d.log.Append(c, op, key, value)
		return
	}
	d.walBytes += int64(rec)
	if d.walBytes < d.cfg.WALBufferBytes {
		return
	}
	pages := (walGroupHdr + d.walBytes + device.PageSize - 1) / device.PageSize
	d.walBytes = 0
	// One zeroed image serves every group write: nothing ever writes into it.
	need := int(pages) * device.PageSize
	d.walBuf = slices.Grow(d.walBuf[:0], need)[:need]
	page := d.walPage % walRegionSize
	d.walPage += pages
	d.writePagesTimed(c, d.cfg.Disks[0], page, d.walBuf)
}

// walIO is the durable log's page I/O: the engine's own pread/pwrite path on
// disk 0.
type walIO struct{ d *DB }

func (w walIO) Read(c env.Ctx, page int64, buf []byte) {
	w.d.readPagesSync(c, w.d.cfg.Disks[0], page, buf)
}

func (w walIO) Write(c env.Ctx, page int64, buf []byte) {
	w.d.writePagesTimed(c, w.d.cfg.Disks[0], page, buf)
}

// ReplayLog rebuilds a freshly opened durable DB from the valid prefix of its
// log, as crash recovery does: every record is re-inserted into the memtable
// at the write path's cost, and each full memtable is flushed to L0. Sequence
// numbers follow replay order, which is sound because the log holds the
// whole store, bulk load included. It returns the number of records
// replayed. Call before Start.
func (d *DB) ReplayLog(c env.Ctx) int {
	if !d.cfg.Durable {
		panic("lsm: ReplayLog on a non-durable DB")
	}
	return d.log.Replay(c, func(op byte, key, value []byte) {
		d.seq++
		e := entry{key: append([]byte(nil), key...), seq: d.seq, tombstone: op == walog.OpDelete}
		if !e.tombstone {
			e.value = append([]byte(nil), value...)
		}
		c.CPU(d.mem.lookupCost() + costs.MemBytes(e.bytes()))
		d.mem.put(e)
		if d.mem.bytes >= d.cfg.MemtableBytes {
			d.flushMemtableSync(c)
		}
	})
}

// flushMemtableSync builds an L0 table from the current memtable inline
// (used during replay, when background threads are not running).
func (d *DB) flushMemtableSync(c env.Ctx) {
	if d.mem.len() == 0 {
		return
	}
	b := d.newBuilder(d.nextDisk())
	d.mem.each(func(e entry) { b.add(&e) })
	c.CPU(costs.MemBytes(int(d.mem.bytes)))
	if t := b.finish(c); t != nil {
		d.levels[0] = append(d.levels[0], t)
	}
	d.mem = newMemtable()
	d.stats.Flushes++
}
