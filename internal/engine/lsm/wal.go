package lsm

import (
	"kvell/internal/costs"
	"kvell/internal/env"
	"kvell/internal/walog"
)

// walAppend logs one record in the write-ahead log, a walog.Log in the
// reserved region at the start of disk 0 grouped WALBufferBytes at a time.
// writeMu is held, so the writer whose record fills a group writes its chunk
// with the write lock held — RocksDB's buffered log as the paper configures
// it (§6.2), and the log bottleneck §3.1 describes. ReplayLog reads the log
// back after a crash.
func (d *DB) walAppend(c env.Ctx, key, value []byte, tombstone bool) {
	c.CPU(costs.WALBytes(entryHeader + len(key) + len(value)))
	op := byte(walog.OpPut)
	if tombstone {
		op = walog.OpDelete
	}
	d.log.Append(c, op, key, value)
}

// ReplayLog rebuilds a freshly opened DB from the valid prefix of its
// log, as crash recovery does: every record is re-inserted into the memtable
// at the write path's cost, and each full memtable is flushed to L0. Sequence
// numbers follow replay order, which is sound because the log holds the
// whole store, bulk load included. It returns the number of records
// replayed. Call before Start.
func (d *DB) ReplayLog(c env.Ctx) int {
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
