// Package leaf is the leaf-page layer under the two tree baselines (wtree,
// the B+ tree, and betree, the Bε tree): everything the two engines decide
// identically lives here once — the on-disk leaf format, the sorted leaf
// table with its charged descent, which leaves are resident and which are
// dirty, record upsert/remove with split and page-run resize, the bulk
// build, and Fetch, a leaf read through the engine's buffered pread/pwrite
// path (device.BufferedIO, which the commit log and the LSM use too).
//
// What the paper's §3 profiles is deliberately NOT here and never selected
// by a flag in this package: which lock is held across a leaf read, the
// commit-log timing model, message buffers, stall thresholds, and whether
// dirty leaves are written back one at a time or collected first. Those stay
// in each engine as straight-line code (see DESIGN.md, "Baseline engines:
// what is shared and what is deliberately not").
//
// Nothing in this package locks: a Tree is guarded by its engine's tree lock,
// which every method expects to be held; Fetch holds no tree state and is
// called wherever the engine's policy drops the lock.
package leaf

import (
	"bytes"
	"encoding/binary"
	"sort"

	"kvell/internal/device"
)

// Entry is one record in a leaf.
type Entry struct {
	Key   []byte
	Value []byte
}

// entryHeader is klen(2) | vlen(4); countHeader the leading record count.
const (
	entryHeader = 6
	countHeader = 4
)

// leafBytes is the leaf page size (4KB in the paper's setup): a leaf splits
// when its image outgrows it, and a bulk build fills leaves to 90% of it.
const leafBytes = device.PageSize

// EntryBytes is the serialized size of a record, which is also what the
// engines charge and log per record.
func EntryBytes(klen, vlen int) int { return entryHeader + klen + vlen }

// RunPages is the length of the page run that holds a leaf of n serialized
// record bytes: a leaf is one page until a large value makes it a run.
func RunPages(n int) int64 {
	return int64((n + countHeader + device.PageSize - 1) / device.PageSize)
}

// Leaf is one on-disk page run of sorted records plus its cached in-memory
// form. Engines read the fields; only Tree writes them.
type Leaf struct {
	FirstKey []byte // nil on the leftmost leaf, which owns -inf
	Page     int64
	Pages    int64
	Ents     []Entry // nil when not resident
	Bytes    int     // serialized record bytes
	Dirty    bool
	lruIdx   int // position in Tree.lru, -1 when absent
}

// Resident reports whether l's records are in memory.
func (l *Leaf) Resident() bool { return l.Ents != nil }

// Search returns the position of key in resident leaf l, or where it would
// be inserted.
func (l *Leaf) Search(key []byte) (int, bool) {
	i := sort.Search(len(l.Ents), func(i int) bool {
		return bytes.Compare(l.Ents[i].Key, key) >= 0
	})
	return i, i < len(l.Ents) && bytes.Equal(l.Ents[i].Key, key)
}

// Encode reconciles l into its page-aligned image
//
//	count(4) | { klen(2) | vlen(4) | key | value }... | zero padding
//
// reusing dst when it has the capacity (a per-thread scratch buffer or an
// arena allocation; nil allocates). The image is dead once its write
// completes.
func Encode(l *Leaf, dst []byte) []byte {
	need := int(RunPages(l.Bytes)) * device.PageSize
	if cap(dst) < need {
		dst = make([]byte, need)
	}
	buf := dst[:need]
	binary.LittleEndian.PutUint32(buf, uint32(len(l.Ents)))
	off := countHeader
	for _, e := range l.Ents {
		binary.LittleEndian.PutUint16(buf[off:], uint16(len(e.Key)))
		binary.LittleEndian.PutUint32(buf[off+2:], uint32(len(e.Value)))
		copy(buf[off+entryHeader:], e.Key)
		copy(buf[off+entryHeader+len(e.Key):], e.Value)
		off += EntryBytes(len(e.Key), len(e.Value))
	}
	clear(buf[off:]) // reused scratch: keep the on-disk tail deterministic
	return buf
}

// Decode parses a leaf image into records and their serialized size. It
// trusts nothing in buf: ok is false when the record count or any length
// runs past the image, and nothing larger than the image is allocated.
func Decode(buf []byte) (ents []Entry, total int, ok bool) {
	if len(buf) < countHeader {
		return nil, 0, false
	}
	count := binary.LittleEndian.Uint32(buf)
	if uint64(count) > uint64((len(buf)-countHeader)/entryHeader) {
		return nil, 0, false
	}
	n := int(count)
	// Size pass: one backing blob for every key and value turns 2n copies
	// into 2 allocations per leaf. Mutation replaces whole slices and
	// eviction drops Ents, so per-entry backing buys nothing.
	blobLen := 0
	off := countHeader
	for i := 0; i < n; i++ {
		klen, vlen, ok := entryAt(buf, off)
		if !ok {
			return nil, 0, false
		}
		blobLen += klen + vlen
		off += EntryBytes(klen, vlen)
	}
	total = off - countHeader
	ents = make([]Entry, 0, n)
	blob := make([]byte, blobLen)
	off, bo := countHeader, 0
	for i := 0; i < n; i++ {
		klen, vlen, _ := entryAt(buf, off) // checked by the size pass
		k := blob[bo : bo+klen : bo+klen]
		copy(k, buf[off+entryHeader:])
		v := blob[bo+klen : bo+klen+vlen : bo+klen+vlen]
		copy(v, buf[off+entryHeader+klen:])
		bo += klen + vlen
		ents = append(ents, Entry{Key: k, Value: v})
		off += EntryBytes(klen, vlen)
	}
	return ents, total, true
}

// entryAt reads the record header at off; ok is false when the header or
// the key and value it announces run past buf.
func entryAt(buf []byte, off int) (klen, vlen int, ok bool) {
	if len(buf)-off < entryHeader {
		return 0, 0, false
	}
	k := binary.LittleEndian.Uint16(buf[off:])
	v := binary.LittleEndian.Uint32(buf[off+2:])
	if uint64(k)+uint64(v) > uint64(len(buf)-off-entryHeader) {
		return 0, 0, false
	}
	return int(k), int(v), true
}
