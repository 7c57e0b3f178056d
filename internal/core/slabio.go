package core

// The slab I/O layer: the only code that turns a location into slot bytes,
// through the page cache or the device. It knows slots, pages, free lists
// and the index — never what a payload means, nor where anything lies inside
// a slot (package slab reads and writes those bytes) — so the plain and the
// versioned request paths, the absorb flush and the transaction handlers all
// sit on the same four primitives:
//
//	readSlot   read a slot's payload (cachedSlot is its no-I/O arm)
//	placeItem  store an item in a newly allocated slot
//	freeSlot   tombstone a slot, which joins its free list right there
//	patchSlot  modify a slot's bytes in place
//
// The simulator is deterministic, so the order in which these functions
// charge CPU, draw timestamps, touch the free lists and emit I/Os is part of
// their contract (DESIGN.md §16): reordering any of it moves every golden
// digest.

import (
	"bytes"

	"kvell/internal/aio"
	"kvell/internal/costs"
	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/freelist"
	"kvell/internal/mvcc"
	"kvell/internal/slab"
)

// slotReader receives a slot's payload: nil when the slot holds no live
// item, or one whose key differs from the reader's expected key (freed and
// reused since the caller learned the location); non-nil, even when empty,
// otherwise. The payload aliases a cached page or an I/O buffer: it is valid
// only for the duration of the call. Implementations are pooled records
// (*locReq, *opRec), so a read in flight allocates nothing.
type slotReader interface {
	slot(c env.Ctx, payload []byte, out *[]*aio.IO)
}

// slotPayload decodes one slot image (a stride, or a multi-page slot's whole
// buffer), charging the copy-out of its payload.
func (w *worker) slotPayload(c env.Ctx, sl *slab.Slab, expect, buf []byte) []byte {
	d, err := sl.DecodeSlotView(buf)
	if err != nil || d.Kind != slab.Live || (expect != nil && !bytes.Equal(d.Item.Key, expect)) {
		return nil
	}
	c.CPU(costs.MemBytes(len(d.Item.Value)))
	return d.Item.Value
}

// cachedSlot is readSlot's no-I/O arm, split out so a page-cache hit
// completes without taking a continuation record (the Get fast path). hit is false when the slot needs a device read — the caller then
// continues with fetchSlot, which does not charge the cache lookup again.
func (w *worker) cachedSlot(c env.Ctx, l location, expect []byte) (payload []byte, hit bool) {
	sl := w.slabs[l.class()]
	if sl.MultiPage() {
		return nil, false
	}
	c.CPU(w.cache.LookupCost())
	data := w.cache.Get(sl.SlotPage(l.slot()))
	if data == nil {
		return nil, false
	}
	return w.slotPayload(c, sl, expect, sl.SlotBytes(data, l.slot())), true
}

// fetchSlot is readSlot's device arm.
func (w *worker) fetchSlot(c env.Ctx, l location, expect []byte, sr slotReader, out *[]*aio.IO) {
	sl := w.slabs[l.class()]
	page := sl.SlotPage(l.slot())
	j := prJoiner{slot: sr, l: l, expect: expect}
	if sl.MultiPage() {
		// Multi-page items bypass the page cache (they would monopolize it)
		// and are read in one large request into an unpooled buffer.
		w.privateRead(c, page, make([]byte, sl.PagesPerSlot()*device.PageSize), j, out)
		return
	}
	w.joinRead(c, page, j, out)
}

// readSlot delivers the payload of the slot at l to sr: synchronously on a
// page-cache hit, from the read's completion otherwise.
func (w *worker) readSlot(c env.Ctx, l location, expect []byte, sr slotReader, out *[]*aio.IO) {
	if payload, hit := w.cachedSlot(c, l, expect); hit {
		sr.slot(c, payload, out)
		return
	}
	w.fetchSlot(c, l, expect, sr, out)
}

// edit is what patchSlot does to a slot's bytes. A patch carries its edit by
// value — in a pending read's joiner when the page must be read first — so
// an in-place write needs no closure.
type edit struct {
	op      editOp
	ts      uint64 // the slab timestamp; editFlip: the commit timestamp
	key     []byte // editItem
	payload []byte // editItem; editImage: the slot's whole encoded image
	reused  bool   // editItem: recover the free-list chain first
}

type editOp uint8

const (
	// editItem encodes (key, payload) stamped ts, first reinstating the
	// free-list chain a reused slot's tombstone displaced.
	editItem editOp = iota
	// editTombstone writes a tombstone, and the slot joins its free list
	// there (tombstone).
	editTombstone
	// editFlip commits an intent in place (mvcc.CommitIntent on the value
	// bytes slab.ValueIn locates): the slab header — including the per-page
	// timestamps a multi-page tear check validates — is untouched.
	editFlip
	// editImage reuses a multi-page slot: the chain is recovered from the
	// first page, then the pre-encoded image is written over the slot.
	editImage
)

// apply performs ed on slot, the bytes of the slot at l (a multi-page slot's
// first page).
func (w *worker) apply(l location, ed *edit, slot []byte) {
	sl := w.slabs[l.class()]
	switch ed.op {
	case editItem:
		if ed.reused {
			recoverChain(sl, slot)
		}
		if err := sl.EncodeItem(slot, ed.ts, ed.key, ed.payload); err != nil {
			panic(err)
		}
	case editTombstone:
		tombstone(sl, l.slot(), ed.ts, slot)
	case editFlip:
		// The envelope heads the value; in a multi-page slot its header must
		// lie in the first page, so the flip is one single-page write.
		mvcc.CommitIntent(slab.ValueIn(slot), ed.ts)
	}
}

// patchPage applies ed to l's slot in data and writes the page back; done
// runs once the write is durable. data is the slot's page as writable
// returned it or, for a multi-page slot, a private image of its first page,
// held until its write is submitted.
func (w *worker) patchPage(c env.Ctx, l location, ed *edit, data []byte, done cont, out *[]*aio.IO) {
	sl := w.slabs[l.class()]
	page := sl.SlotPage(l.slot())
	if ed.op == editImage {
		recoverChain(sl, data)
		w.writePage(c, page, ed.payload, done, out)
	} else {
		w.apply(l, ed, sl.SlotBytes(data, l.slot()))
		w.writePage(c, page, data, done, out)
	}
	if sl.MultiPage() {
		w.hold(-1, data)
	}
}

// patchSlot applies ed to the slot at l in place and writes the page back;
// done (optional) runs once the write is durable. This is the
// read-modify-write at the heart of in-place slab updates: cached pages cost
// 1 I/O, uncached 2 (§6.3.1's accounting). ed sees the slot's stride; for a
// multi-page slot it sees the first page only, read and rewritten privately
// (such slots never enter the page cache), so the patch is still one atomic
// single-page write.
func (w *worker) patchSlot(c env.Ctx, l location, ed edit, done cont, out *[]*aio.IO) {
	sl := w.slabs[l.class()]
	page := sl.SlotPage(l.slot())
	if sl.MultiPage() {
		w.privateRead(c, page, w.pageBuf(), prJoiner{l: l, ed: ed, done: done}, out)
		return
	}
	c.CPU(w.cache.LookupCost())
	if data := w.cache.Get(page); data != nil {
		w.patchPage(c, l, &ed, w.writable(page, data), done, out)
		return
	}
	w.joinRead(c, page, prJoiner{l: l, ed: ed, done: done}, out)
}

// placeItem stores (key, payload), stamped ts, in a newly allocated slot of
// class cls and returns its location; done runs once the item is durable
// there. It covers the allocating §5.2 cases: fresh append (no read: every
// byte of the page is new), free-slot reuse (with free-list chain recovery)
// and multi-page slots. With index set the new location is installed in the
// index before the write is issued; callers that pass false own the index
// update. payload must stay valid until done.
func (w *worker) placeItem(c env.Ctx, cls int, key, payload []byte, ts uint64, index bool, done cont, out *[]*aio.IO) location {
	sl := w.slabs[cls]
	slot, reused := sl.Alloc()
	l := loc(cls, slot)
	if index {
		w.indexPut(c, key, l)
	}
	page := sl.SlotPage(slot)
	if sl.MultiPage() {
		buf := make([]byte, sl.PagesPerSlot()*device.PageSize)
		if err := sl.EncodeItem(buf, ts, key, payload); err != nil {
			panic(err)
		}
		if !reused {
			w.writePage(c, page, buf, done, out)
			return l
		}
		// Recover the free-list chain from the old tombstone before
		// overwriting it.
		w.privateRead(c, page, w.pageBuf(), prJoiner{l: l, ed: edit{op: editImage, payload: buf}, done: done}, out)
		return l
	}
	if !reused && sl.AppendPageFresh(slot) {
		data := w.zeroPageBuf()
		if err := sl.EncodeItem(sl.SlotBytes(data, slot), ts, key, payload); err != nil {
			panic(err)
		}
		w.cacheInsert(c, page, data)
		// Pin the new tail page so subsequent appends hit the cache; unpin
		// the previous tail.
		if prev, ok := w.tailPage[cls]; ok {
			w.cache.Unpin(prev)
		}
		w.cache.Pin(page)
		w.tailPage[cls] = page
		w.writePage(c, page, data, done, out)
		if w.shared {
			w.hold(page, data)
		}
		return l
	}
	w.patchSlot(c, l, edit{op: editItem, ts: ts, key: key, payload: payload, reused: reused}, done, out)
	return l
}

// recoverChain reads a displaced free-list chain pointer out of the
// tombstone heading slot (a slot's bytes, or a multi-page slot's first page)
// and reinstates it as an in-memory head.
func recoverChain(sl *slab.Slab, slot []byte) {
	if next, ok := slab.TombstoneChain(slot); ok && next != freelist.NoSlot {
		sl.Free.PushHead(next)
	}
}

// tombstone encodes the tombstone of slot, stamped ts, into buf (the slot's
// stride, or a multi-page slot's first page) and pushes the slot on sl's
// free list, chaining per §5.3 to the head the push displaced. It is the one
// place a slot becomes reusable: an allocation can never pop a slot whose
// tombstone is still to be written over the item it places there.
func tombstone(sl *slab.Slab, slot, ts uint64, buf []byte) {
	sl.EncodeTombstone(buf, ts, sl.Free.Push(slot))
}

// freeSlot marks the slot at l deleted on disk; the slot joins its free list
// where its tombstone is encoded (tombstone), so after any pending read of its
// page. done (optional) runs once the tombstone is durable.
func (w *worker) freeSlot(c env.Ctx, l location, done cont, out *[]*aio.IO) {
	sl := w.slabs[l.class()]
	ts := w.nextTS()
	if sl.MultiPage() {
		// The slot owns whole pages; writing the first page alone is enough
		// (decode stops at the tombstone flag). The page image is one-shot:
		// once the batch submits it can be recycled.
		data := w.zeroPageBuf()
		tombstone(sl, l.slot(), ts, data)
		w.writePage(c, sl.SlotPage(l.slot()), data, done, out)
		w.hold(-1, data)
		return
	}
	w.patchSlot(c, l, edit{op: editTombstone, ts: ts}, done, out)
}
