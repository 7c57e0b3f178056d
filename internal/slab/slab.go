// Package slab implements KVell's on-disk layout (§5.2): items of similar
// size share a file (a "slab") made of fixed-stride slots, accessed at 4KB
// page granularity. Items at most one page large are updated in place; each
// record carries a timestamp, key size and value size so that slabs can be
// scanned to rebuild the in-memory index after a crash. Deleted slots hold
// tombstones which may chain to further free slots (see package freelist).
//
// This package is pure layout: encoding, decoding and slot-to-page
// arithmetic. All I/O is done by the engine that owns the slab. It is also
// the only reader and writer of slot bytes: callers locate a slot in a page
// with SlotBytes, a tombstone's chain pointer with TombstoneChain and a live
// item's value with ValueIn, and never compute an offset inside a slot.
// Every header is read by one function (parseHeader), and DecodeSlot and
// DecodeSlotView are one parser (decode), with and without copying out.
package slab

import (
	"encoding/binary"
	"errors"
	"fmt"

	"kvell/internal/device"
	"kvell/internal/freelist"
)

// Record flags.
const (
	flagEmpty     = 0x00
	flagLive      = 0x01
	flagTombstone = 0x02
	flagCont      = 0x03 // continuation page of a multi-page item
)

// HeaderSize is the per-record (and, for multi-page items, per-page)
// header: flags(1) + timestamp(8) + ksize(2) + vsize(4).
const HeaderSize = 15

// tombstone records additionally carry a chain pointer after the header.
const tombstoneSize = HeaderSize + 8

// PagePayload is the usable bytes per page of a multi-page slot.
const PagePayload = device.PageSize - HeaderSize

// DefaultClasses are the slot strides (bytes) of the standard size classes.
// Sub-page strides divide the page size exactly so slots never straddle
// pages; larger strides are whole numbers of pages.
var DefaultClasses = []int{64, 128, 256, 512, 1024, 2048, 4096, 2 * 4096, 4 * 4096, 8 * 4096}

// ClassFor returns the index in classes of the smallest stride that fits an
// item with the given key and value lengths, or -1 if none fits.
func ClassFor(classes []int, klen, vlen int) int {
	need := HeaderSize + klen + vlen
	for i, stride := range classes {
		if stride <= device.PageSize {
			if need <= stride {
				return i
			}
			continue
		}
		pages := stride / device.PageSize
		if klen+vlen <= pages*PagePayload {
			return i
		}
	}
	return -1
}

// Item is a decoded live record.
type Item struct {
	Timestamp uint64
	Key       []byte
	Value     []byte
}

// Slab manages slot allocation and layout for one size class of one worker.
type Slab struct {
	Stride     int
	ClassIndex int

	slotsPerPage int   // 0 for multi-page strides
	pagesPerSlot int64 // 1 for sub-page strides

	alloc       *device.Allocator
	extentPages int64
	extents     []int64 // base page of each extent

	nextSlot uint64 // append cursor
	Free     *freelist.List
}

// New returns a slab of the given stride drawing space from alloc in
// extents of extentPages pages. freeHeads is the free list's N.
func New(classIndex, stride int, alloc *device.Allocator, extentPages int64, freeHeads int) *Slab {
	if stride < tombstoneSize {
		panic(fmt.Sprintf("slab: stride %d below minimum %d", stride, tombstoneSize))
	}
	s := &Slab{
		Stride:      stride,
		ClassIndex:  classIndex,
		alloc:       alloc,
		extentPages: extentPages,
		Free:        freelist.New(freeHeads),
	}
	if stride <= device.PageSize {
		if device.PageSize%stride != 0 {
			panic(fmt.Sprintf("slab: stride %d does not divide page size", stride))
		}
		s.slotsPerPage = device.PageSize / stride
		s.pagesPerSlot = 1
	} else {
		if stride%device.PageSize != 0 {
			panic(fmt.Sprintf("slab: multi-page stride %d not page-aligned", stride))
		}
		s.pagesPerSlot = int64(stride / device.PageSize)
		if s.extentPages%s.pagesPerSlot != 0 {
			s.extentPages += s.pagesPerSlot - s.extentPages%s.pagesPerSlot
		}
	}
	return s
}

// MultiPage reports whether slots span multiple pages (append-only update
// discipline per §5.2).
func (s *Slab) MultiPage() bool { return s.pagesPerSlot > 1 }

// PagesPerSlot returns the number of pages a slot occupies.
func (s *Slab) PagesPerSlot() int64 { return s.pagesPerSlot }

// Slots returns the append cursor (total slots ever allocated fresh).
func (s *Slab) Slots() uint64 { return s.nextSlot }

// SlotsPerExtent returns how many slots fit in one extent.
func (s *Slab) SlotsPerExtent() uint64 {
	if s.slotsPerPage > 0 {
		return uint64(s.extentPages) * uint64(s.slotsPerPage)
	}
	return uint64(s.extentPages / s.pagesPerSlot)
}

// SlotPage returns the first disk page of slot, growing the slab if the
// slot lies in an extent not yet allocated.
func (s *Slab) SlotPage(slot uint64) int64 {
	spe := s.SlotsPerExtent()
	ext := int(slot / spe)
	for ext >= len(s.extents) {
		s.extents = append(s.extents, s.alloc.Alloc(s.extentPages))
	}
	within := int64(slot % spe)
	if s.slotsPerPage > 0 {
		return s.extents[ext] + within/int64(s.slotsPerPage)
	}
	return s.extents[ext] + within*s.pagesPerSlot
}

// SlotBytes returns slot's bytes in img: for a sub-page class img is the
// image of the slot's page and the result the slot's stride in it; for a
// multi-page class img is the slot's image (or its first page) and is
// returned whole.
func (s *Slab) SlotBytes(img []byte, slot uint64) []byte {
	if s.slotsPerPage == 0 {
		return img
	}
	off := int(slot%uint64(s.slotsPerPage)) * s.Stride
	return img[off : off+s.Stride]
}

// Alloc returns a slot to store a new item: a freed slot when one is known,
// otherwise a fresh append slot. reused reports which.
func (s *Slab) Alloc() (slot uint64, reused bool) {
	if slot, ok := s.Free.Pop(); ok {
		return slot, true
	}
	slot = s.nextSlot
	s.nextSlot++
	return slot, false
}

// AppendPageFresh reports whether page p (a first page of slot) had never
// been written before this slot was appended — i.e. whether the engine may
// skip the read of a read-modify-write because every byte of the page is
// new. True only when slot is the first slot of its page.
func (s *Slab) AppendPageFresh(slot uint64) bool {
	if s.slotsPerPage <= 1 {
		return true
	}
	return slot%uint64(s.slotsPerPage) == 0
}

// EncodeItem writes a live record for (key, value) with timestamp ts into
// buf, which must be exactly one stride long (sub-page classes) or
// PagesPerSlot whole pages (multi-page classes).
func (s *Slab) EncodeItem(buf []byte, ts uint64, key, value []byte) error {
	if s.slotsPerPage > 0 {
		if len(buf) != s.Stride {
			return fmt.Errorf("slab: encode buffer %d, want stride %d", len(buf), s.Stride)
		}
		if HeaderSize+len(key)+len(value) > s.Stride {
			return fmt.Errorf("slab: item %dB too large for stride %d", HeaderSize+len(key)+len(value), s.Stride)
		}
		putHeader(buf, flagLive, ts, len(key), len(value))
		copy(buf[HeaderSize:], key)
		copy(buf[HeaderSize+len(key):], value)
		// Zero the tail so stale bytes never masquerade as data.
		clear(buf[HeaderSize+len(key)+len(value):])
		return nil
	}
	if int64(len(buf)) != s.pagesPerSlot*device.PageSize {
		return fmt.Errorf("slab: encode buffer %d, want %d pages", len(buf), s.pagesPerSlot)
	}
	if len(key)+len(value) > int(s.pagesPerSlot)*PagePayload {
		return fmt.Errorf("slab: item too large for %d-page slot", s.pagesPerSlot)
	}
	// Each page carries the next PagePayload bytes of key then value.
	klen, vlen := len(key), len(value)
	for p := int64(0); p < s.pagesPerSlot; p++ {
		pg := buf[p*device.PageSize : (p+1)*device.PageSize]
		flag := byte(flagCont)
		if p == 0 {
			flag = flagLive
		}
		putHeader(pg, flag, ts, klen, vlen)
		n := HeaderSize + copy(pg[HeaderSize:], key)
		key = key[n-HeaderSize:]
		c := copy(pg[n:], value)
		value = value[c:]
		clear(pg[n+c:])
	}
	return nil
}

// EncodeTombstone writes a tombstone with timestamp ts into the slot's
// first stride/page in buf. chainTo is the next free slot in this slot's
// on-disk stack (freelist.NoSlot for none).
func (s *Slab) EncodeTombstone(buf []byte, ts uint64, chainTo uint64) {
	putHeader(buf, flagTombstone, ts, 0, 0)
	binary.LittleEndian.PutUint64(buf[HeaderSize:], chainTo)
}

func putHeader(buf []byte, flag byte, ts uint64, klen, vlen int) {
	buf[0] = flag
	binary.LittleEndian.PutUint64(buf[1:9], ts)
	binary.LittleEndian.PutUint16(buf[9:11], uint16(klen))
	binary.LittleEndian.PutUint32(buf[11:15], uint32(vlen))
}

// header is one page's record header.
type header struct {
	flag       byte
	ts         uint64
	klen, vlen int
}

// parseHeader reads the header at the start of b, which holds at least
// HeaderSize bytes: the one reader of header bytes.
func parseHeader(b []byte) header {
	return header{
		flag: b[0],
		ts:   binary.LittleEndian.Uint64(b[1:9]),
		klen: int(binary.LittleEndian.Uint16(b[9:11])),
		vlen: int(binary.LittleEndian.Uint32(b[11:15])),
	}
}

// TombstoneChain reads the chain pointer of the tombstone heading head, a
// slot's first HeaderSize+8 bytes or more (freelist.NoSlot when unchained).
// ok is false when head holds no tombstone.
func TombstoneChain(head []byte) (next uint64, ok bool) {
	if parseHeader(head).flag != flagTombstone {
		return 0, false
	}
	return binary.LittleEndian.Uint64(head[HeaderSize:tombstoneSize]), true
}

// ValueIn returns the bytes of the live item's value that lie in head — a
// slot's bytes, or a multi-page slot's first page, whose value may continue
// on the next pages — or nil when head holds no live item. Writing them
// writes the slot.
func ValueIn(head []byte) []byte {
	h := parseHeader(head)
	start := HeaderSize + h.klen
	if h.flag != flagLive || start > len(head) {
		return nil
	}
	return head[start:min(start+h.vlen, len(head))]
}

// Decoded is the result of decoding one slot.
type Decoded struct {
	Kind    Kind
	Item    Item   // Kind == Live
	ChainTo uint64 // Kind == Tombstone; freelist.NoSlot when unchained
}

// Kind classifies a slot's content.
type Kind uint8

// Slot content kinds.
const (
	Empty Kind = iota
	Live
	Tombstone
	Corrupt // partial multi-page write (timestamp mismatch across pages)
)

// ErrBuf is returned for malformed buffers.
var ErrBuf = errors.New("slab: bad decode buffer")

// DecodeSlot decodes the slot contents from buf (one stride; for a
// multi-page class, PagesPerSlot pages). A live item's key and value are
// copied out, into one allocation.
func (s *Slab) DecodeSlot(buf []byte) (Decoded, error) { return s.decode(buf, false) }

// DecodeSlotView is DecodeSlot without the copy: a live item's Key and Value
// alias buf wherever they are contiguous in it (always for sub-page classes;
// for multi-page items only when the payload fits the first page — longer
// values are assembled into a fresh buffer, exactly like DecodeSlot). The
// views are valid only as long as buf's contents are; callers that retain
// the item must copy.
func (s *Slab) DecodeSlotView(buf []byte) (Decoded, error) { return s.decode(buf, true) }

// decode is the one slot parser behind DecodeSlot (view false) and
// DecodeSlotView (view true).
func (s *Slab) decode(buf []byte, view bool) (Decoded, error) {
	if len(buf) != s.Stride {
		return Decoded{}, ErrBuf
	}
	h := parseHeader(buf)
	switch h.flag {
	case flagEmpty:
		return Decoded{Kind: Empty}, nil
	case flagTombstone:
		chain, _ := TombstoneChain(buf)
		return Decoded{Kind: Tombstone, ChainTo: chain}, nil
	case flagLive:
	default:
		return Decoded{Kind: Corrupt}, nil
	}
	// Each page of the slot, header included, is pl bytes long: a sub-page
	// slot is one page of stride length.
	total, pl := h.klen+h.vlen, min(s.Stride, device.PageSize)
	if total > int(s.pagesPerSlot)*(pl-HeaderSize) {
		return Decoded{Kind: Corrupt}, nil
	}
	var data []byte
	if HeaderSize+total <= pl {
		data = buf[HeaderSize : HeaderSize+total : HeaderSize+total]
		if !view {
			data = append([]byte(nil), data...)
		}
	} else {
		data = make([]byte, 0, total)
		for p := 0; len(data) < total; p += pl {
			pg := buf[p : p+pl]
			if p > 0 {
				// A multi-page item is only valid if every continuation
				// page carries the same timestamp (§5.6: partial writes
				// after a crash are discarded via these headers).
				if c := parseHeader(pg); c.flag != flagCont || c.ts != h.ts {
					return Decoded{Kind: Corrupt}, nil
				}
			}
			n := min(total-len(data), pl-HeaderSize)
			data = append(data, pg[HeaderSize:HeaderSize+n]...)
		}
	}
	return Decoded{Kind: Live, Item: Item{Timestamp: h.ts, Key: data[:h.klen:h.klen], Value: data[h.klen:]}}, nil
}

// ExtentCount returns how many extents are allocated.
func (s *Slab) ExtentCount() int { return len(s.extents) }

// ExtentPages returns the size of each extent in pages.
func (s *Slab) ExtentPages() int64 { return s.extentPages }

// RestoreAppendCursor sets the append cursor (used by recovery after
// scanning existing extents).
func (s *Slab) RestoreAppendCursor(next uint64) { s.nextSlot = next }
