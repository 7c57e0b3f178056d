// Package lsm implements a leveled log-structured merge key-value store in
// the mold of RocksDB (§3.1 of the KVell paper): an in-memory memtable pair
// absorbing writes behind a write-ahead log (walog.Log, grouped
// WALBufferBytes at a time; see wal.go), sorted immutable SSTables
// arranged in levels on disk, background flush and compaction threads, a
// shared block cache, and the write stalls that appear when compaction
// cannot keep up. A "fragmented" mode approximates PebblesDB: compactions
// move tables down without rewriting the destination level (except the last
// level), trading read/scan amplification for less compaction work.
//
// The engine is a baseline for the paper's evaluation: its design decisions
// (sorted order on disk, sequential I/O, one pread per uncached block read)
// are exactly the ones KVell abandons.
package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"kvell/internal/costs"
	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/slab"
)

// entryHeader: klen(2) vlen(4) seq(8) flags(1).
const entryHeader = 15

const flagTombstone = 1

// entry is one key-value record inside memtables and SSTables.
type entry struct {
	key       []byte
	value     []byte
	seq       uint64
	tombstone bool
}

func (e *entry) bytes() int { return entryHeader + len(e.key) + len(e.value) }

// bloom is a simple split double-hash Bloom filter (k=7).
type bloom struct {
	bits []uint64
	k    uint32
}

func newBloom(n int) *bloom {
	if n < 1 {
		n = 1
	}
	nbits := n * bloomBitsPerKey
	if nbits < 64 {
		nbits = 64
	}
	return &bloom{bits: make([]uint64, (nbits+63)/64), k: 7}
}

func (b *bloom) nbits() uint64 { return uint64(len(b.bits)) * 64 }

func (b *bloom) add(key []byte) { b.addHash(kv.Hash64(key)) }

// addHash inserts a precomputed kv.Hash64 key hash, letting builders defer
// filter construction without retaining key copies.
func (b *bloom) addHash(h uint64) {
	d := h>>33 | h<<31
	for i := uint32(0); i < b.k; i++ {
		bit := h % b.nbits()
		b.bits[bit/64] |= 1 << (bit % 64)
		h += d
	}
}

func (b *bloom) mayContain(key []byte) bool {
	h := kv.Hash64(key)
	d := h>>33 | h<<31
	for i := uint32(0); i < b.k; i++ {
		bit := h % b.nbits()
		if b.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
		h += d
	}
	return true
}

// block describes one data block of an SSTable: a page-aligned span holding
// whole entries (an entry larger than one page gets a dedicated block).
type block struct {
	firstKey []byte
	page     int64 // absolute device page
	pages    int32
	length   int32 // payload bytes
}

// sstable is an immutable sorted table. The block index, bloom filter and
// key range live in memory (as in RocksDB with pinned index/filter blocks);
// entry data lives on the device.
type sstable struct {
	id       int64
	disk     int // index into the engine's disks
	basePage int64
	pages    int64
	blocks   []block
	filter   *bloom
	min, max []byte
	dataLen  int64
	refs     int // guarded by the engine's version mutex
	freed    bool
	zombie   bool // dropped from the version while still referenced
}

func (t *sstable) overlaps(min, max []byte) bool {
	return bytes.Compare(t.min, max) <= 0 && bytes.Compare(min, t.max) <= 0
}

func (t *sstable) containsKey(key []byte) bool {
	return bytes.Compare(t.min, key) <= 0 && bytes.Compare(key, t.max) <= 0
}

// tableBuilder accumulates sorted entries and writes an SSTable. When arena
// is set, transient page images are arena-allocated: they are dead once
// finish has written them, so the owning thread can Reset the arena after
// the job and rebuild tables without churning the heap. Long-lived state
// (block firstKeys, min/max, the filter) never comes from the arena.
type tableBuilder struct {
	db           *DB
	disk         int // index into the engine's disks
	arena        *slab.Arena
	buf          []byte // current block payload
	blocks       []block
	pageCur      int64 // next relative page
	pagesData    [][]byte
	filterHashes []uint64
	min, max     []byte
	entries      int64
	dataLen      int64
}

func (d *DB) newBuilder(disk int) *tableBuilder {
	return &tableBuilder{db: d, disk: disk}
}

func encodeEntry(dst []byte, e *entry) {
	binary.LittleEndian.PutUint16(dst[0:2], uint16(len(e.key)))
	binary.LittleEndian.PutUint32(dst[2:6], uint32(len(e.value)))
	binary.LittleEndian.PutUint64(dst[6:14], e.seq)
	dst[14] = 0
	if e.tombstone {
		dst[14] = flagTombstone
	}
	copy(dst[entryHeader:], e.key)
	copy(dst[entryHeader+len(e.key):], e.value)
}

// decodeEntry parses the entry at off in data, returning it and the next
// offset (ok=false at end or on a short buffer).
func decodeEntry(data []byte, off int) (e entry, next int, ok bool) {
	if off+entryHeader > len(data) {
		return entry{}, 0, false
	}
	klen := int(binary.LittleEndian.Uint16(data[off : off+2]))
	vlen := int(binary.LittleEndian.Uint32(data[off+2 : off+6]))
	if klen == 0 {
		return entry{}, 0, false // padding
	}
	end := off + entryHeader + klen + vlen
	if end > len(data) {
		return entry{}, 0, false
	}
	e.seq = binary.LittleEndian.Uint64(data[off+6 : off+14])
	e.tombstone = data[off+14]&flagTombstone != 0
	e.key = data[off+entryHeader : off+entryHeader+klen]
	e.value = data[off+entryHeader+klen : end]
	return e, end, true
}

// add appends an entry (keys must arrive in sorted order).
func (b *tableBuilder) add(e *entry) {
	n := e.bytes()
	if len(b.buf) > 0 && len(b.buf)+n > device.PageSize {
		b.finishBlock()
	}
	if len(b.buf) == 0 {
		b.blocks = append(b.blocks, block{firstKey: append([]byte(nil), e.key...), page: b.pageCur})
	}
	off := len(b.buf)
	b.buf = append(b.buf, make([]byte, n)...)
	encodeEntry(b.buf[off:], e)
	b.filterHashes = append(b.filterHashes, kv.Hash64(e.key))
	if b.min == nil {
		b.min = append([]byte(nil), e.key...)
	}
	b.max = append(b.max[:0], e.key...)
	b.entries++
	b.dataLen += int64(n)
}

func (b *tableBuilder) finishBlock() {
	if len(b.buf) == 0 {
		return
	}
	pages := (len(b.buf) + device.PageSize - 1) / device.PageSize
	var padded []byte
	if b.arena != nil {
		padded = b.arena.Alloc(pages * device.PageSize)
		n := copy(padded, b.buf)
		clear(padded[n:]) // tail must decode as padding
	} else {
		padded = make([]byte, pages*device.PageSize)
		copy(padded, b.buf)
	}
	b.pagesData = append(b.pagesData, padded)
	blk := &b.blocks[len(b.blocks)-1]
	blk.pages = int32(pages)
	blk.length = int32(len(b.buf))
	b.pageCur += int64(pages)
	b.buf = b.buf[:0]
}

// estimatedBytes returns how much data the builder holds.
func (b *tableBuilder) estimatedBytes() int64 { return b.dataLen }

// finish writes the table to disk. When c is non-nil the write is timed:
// CPU is charged for index/filter construction and the pages go through the
// device as large sequential writes. When c is nil (bulk load) pages are
// installed directly into the backing store.
func (b *tableBuilder) finish(c env.Ctx) *sstable {
	b.finishBlock()
	if b.entries == 0 {
		return nil
	}
	t := &sstable{
		id:      b.db.nextTableID(),
		disk:    b.disk,
		pages:   b.pageCur,
		blocks:  b.blocks,
		min:     b.min,
		max:     append([]byte(nil), b.max...),
		dataLen: b.dataLen,
	}
	t.filter = newBloom(len(b.filterHashes))
	for _, h := range b.filterHashes {
		t.filter.addHash(h)
	}
	t.basePage = b.db.allocs[b.disk].Alloc(b.pageCur)
	for i := range t.blocks {
		t.blocks[i].page += t.basePage
	}
	if c != nil {
		c.CPU(costs.IndexBuildBytes(int(b.dataLen)))
	}
	// Write out sequentially.
	page := t.basePage
	for _, pd := range b.pagesData {
		if c != nil {
			b.db.io[b.disk].Write(c, page, pd)
		} else {
			if err := b.db.cfg.Disks[b.disk].Store().WritePages(page, pd); err != nil {
				panic(err)
			}
		}
		page += int64(len(pd) / device.PageSize)
	}
	return t
}

// findBlock returns the index of the block that may contain key.
func (t *sstable) findBlock(key []byte) int {
	i := sort.Search(len(t.blocks), func(i int) bool {
		return bytes.Compare(t.blocks[i].firstKey, key) > 0
	})
	return i - 1
}

func (t *sstable) String() string {
	return fmt.Sprintf("table-%d[%s..%s %dB]", t.id, t.min, t.max, t.dataLen)
}
