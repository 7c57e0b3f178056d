package lsm

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"

	"kvell/internal/costs"
	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/kv"
)

// The write-ahead log is a sequence of page-aligned chunks in the reserved
// region at the start of disk 0. Each chunk is:
//
//	magic (4B) | payload length (4B) | records...
//
// and each record is:
//
//	klen (2B) | vlen (4B) | seq (8B) | tombstone (1B) | key | value
//
// Replay scans chunks from page 0 until the magic stops matching — exactly
// what a crashed RocksDB does with its log files.
// Durable mode (Config.Durable) uses an extended header,
//
//	magicDur (4B) | payload length (4B) | fnv64a(payload) (8B) | records...
//
// whose checksum lets replay distinguish a torn chunk (some pages of the
// chunk persisted across a crash, some did not) from the end of the log.
// The base format is untouched — golden schedule digests are recorded with
// it — and ReplayWAL accepts both.
const (
	walMagic       = 0x4B56574C // "KVWL"
	walMagicDur    = 0x4B56574D // "KVWM"
	walChunkHdr    = 8
	walChunkHdrDur = 16
	walRegionPage  = 0
	walRegionSize  = 1 << 20 // pages reserved in New()
)

// walAppend buffers a framed record (writeMu held). When the buffer
// exceeds the configured WAL group size, it is written sequentially to the
// log region while the write lock is held (the group leader behavior).
func (d *DB) walAppend(c env.Ctx, key, value []byte, tombstone bool) {
	rec := entryHeader + len(key) + len(value)
	c.CPU(costs.WALBytes(rec))
	var hdr [15]byte
	binary.LittleEndian.PutUint16(hdr[0:2], uint16(len(key)))
	binary.LittleEndian.PutUint32(hdr[2:6], uint32(len(value)))
	binary.LittleEndian.PutUint64(hdr[6:14], d.seq)
	if tombstone {
		hdr[14] = 1
	}
	d.walRecs = append(d.walRecs, hdr[:]...)
	d.walRecs = append(d.walRecs, key...)
	d.walRecs = append(d.walRecs, value...)
	// Durable mode flushes every record before the write is acknowledged
	// (writeMu is held through the flush, so at most one log write is in
	// flight — the property torn-tail detection relies on).
	if d.cfg.Durable || int64(len(d.walRecs)) >= d.cfg.WALBufferBytes {
		d.walFlush(c)
	}
}

// walFlush writes the buffered records as one chunk (writeMu held).
func (d *DB) walFlush(c env.Ctx) {
	if len(d.walRecs) == 0 {
		return
	}
	buf := d.walChunk(d.walRecs)
	pages := int64(len(buf) / device.PageSize)
	page := walRegionPage + d.walPage%walRegionSize
	if d.cfg.Durable {
		if d.walPage+pages > walRegionSize {
			panic("lsm: durable WAL region overflow")
		}
		page = walRegionPage + d.walPage // no wrap: the log is the recovery source
	}
	d.walPage += pages
	d.walRecs = d.walRecs[:0]
	d.writePagesTimed(c, d.cfg.Disks[0], page, buf)
}

// walChunk frames payload as one page-aligned chunk in the configured format
// (see the top of this file). The image lives in d.walBuf, one buffer for
// every chunk: the device consumes a write's buffer at submission, and the
// writers are serialized — writeMu is held through a flush, and bulk load
// runs before anything else — so a chunk is dead before the next is framed.
func (d *DB) walChunk(payload []byte) []byte {
	hdr := walChunkHdr
	if d.cfg.Durable {
		hdr = walChunkHdrDur
	}
	need := (hdr + len(payload) + device.PageSize - 1) / device.PageSize * device.PageSize
	buf := slices.Grow(d.walBuf[:0], need)[:need]
	d.walBuf = buf
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(payload)))
	if d.cfg.Durable {
		binary.LittleEndian.PutUint32(buf[0:4], walMagicDur)
		h := fnv.New64a()
		h.Write(payload)
		binary.LittleEndian.PutUint64(buf[8:16], h.Sum64())
	} else {
		binary.LittleEndian.PutUint32(buf[0:4], walMagic)
	}
	n := copy(buf[hdr:], payload)
	clear(buf[hdr+n:]) // recycled image: stale bytes must not reach the device
	return buf
}

// logBulkItems appends items as durable WAL chunks via direct (untimed)
// store writes — bulk load precedes the measured run — so ReplayWAL on a
// fresh DB reconstructs the loaded data without trusting any table page.
// Durable mode only.
func (d *DB) logBulkItems(items []kv.Item) {
	st := device.StoreOf(d.cfg.Disks[0])
	var payload []byte
	flush := func() {
		if len(payload) == 0 {
			return
		}
		buf := d.walChunk(payload)
		if err := st.WritePages(walRegionPage+d.walPage, buf); err != nil {
			panic(err)
		}
		d.walPage += int64(len(buf) / device.PageSize)
		if d.walPage > walRegionSize {
			panic("lsm: durable WAL region overflow during bulk load")
		}
		payload = payload[:0]
	}
	var hdr [entryHeader]byte
	for _, it := range items {
		binary.LittleEndian.PutUint16(hdr[0:2], uint16(len(it.Key)))
		binary.LittleEndian.PutUint32(hdr[2:6], uint32(len(it.Value)))
		binary.LittleEndian.PutUint64(hdr[6:14], 0) // seq 0, like bulk-built tables
		hdr[14] = 0
		payload = append(payload, hdr[:]...)
		payload = append(payload, it.Key...)
		payload = append(payload, it.Value...)
		if len(payload) >= 256<<10 {
			flush()
		}
	}
	flush()
}

// ReplayWAL rebuilds the memtable from the log region, as crash recovery
// does: chunks are read sequentially with large reads, records are decoded
// and re-inserted (paying the same memtable costs as the write path), and
// full memtables are flushed to L0. It returns the number of records
// replayed. Call on a freshly opened DB before Start.
func (d *DB) ReplayWAL(c env.Ctx) (int, error) {
	disk := d.cfg.Disks[0]
	const readChunk = 256 // pages per sequential read
	var page int64 = walRegionPage
	buf := make([]byte, readChunk*device.PageSize)
	records := 0
	for {
		d.readPagesSync(c, disk, page, buf)
		hdr := walChunkHdr
		switch binary.LittleEndian.Uint32(buf[0:4]) {
		case walMagic:
		case walMagicDur:
			hdr = walChunkHdrDur
		default:
			hdr = 0 // end of log
		}
		if hdr == 0 {
			break
		}
		payloadLen := int(binary.LittleEndian.Uint32(buf[4:8]))
		chunkPages := (int64(hdr+payloadLen) + device.PageSize - 1) / device.PageSize
		if payloadLen <= 0 || chunkPages > walRegionSize {
			break // impossible length: treat as end of log
		}
		payload := make([]byte, payloadLen)
		if chunkPages <= readChunk {
			copy(payload, buf[hdr:hdr+payloadLen])
		} else {
			big := make([]byte, chunkPages*device.PageSize)
			d.readPagesSync(c, disk, page, big)
			copy(payload, big[hdr:hdr+payloadLen])
		}
		if hdr == walChunkHdrDur {
			// Checksummed chunk: a mismatch is the torn tail a crash left
			// behind — the log's valid prefix ends here.
			h := fnv.New64a()
			h.Write(payload)
			if h.Sum64() != binary.LittleEndian.Uint64(buf[8:16]) {
				break
			}
		}
		off := 0
		for off+entryHeader <= len(payload) {
			klen := int(binary.LittleEndian.Uint16(payload[off : off+2]))
			vlen := int(binary.LittleEndian.Uint32(payload[off+2 : off+6]))
			if klen == 0 || off+entryHeader+klen+vlen > len(payload) {
				return records, fmt.Errorf("lsm: corrupt WAL record at page %d off %d", page, off)
			}
			e := entry{
				seq:       binary.LittleEndian.Uint64(payload[off+6 : off+14]),
				tombstone: payload[off+14] == 1,
				key:       append([]byte(nil), payload[off+entryHeader:off+entryHeader+klen]...),
			}
			if !e.tombstone {
				e.value = append([]byte(nil), payload[off+entryHeader+klen:off+entryHeader+klen+vlen]...)
			}
			// Same costs as the live write path: descent plus copy.
			c.CPU(d.mem.lookupCost() + costs.MemBytes(e.bytes()))
			d.mem.put(e)
			if e.seq > d.seq {
				d.seq = e.seq
			}
			records++
			off += entryHeader + klen + vlen
			if d.mem.bytes >= d.cfg.MemtableBytes {
				d.flushMemtableSync(c)
			}
		}
		page += chunkPages
	}
	d.walPage = page - walRegionPage
	return records, nil
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
