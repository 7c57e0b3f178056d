package core

import (
	"fmt"
	"sort"

	"kvell/internal/aio"
	"kvell/internal/costs"
	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/freelist"
	"kvell/internal/slab"
)

// Recover rebuilds the in-memory indexes and free lists by scanning every
// slab (§5.6). The scan issues large sequential reads and runs all workers
// in parallel, maximizing device bandwidth as the paper describes. It must
// be called after Open and before Start.
//
// Rules applied during the scan, per the paper:
//   - live items keep only the most recent timestamp per key; the older
//     copy's slot is put on the free list (no disk write needed: recovery
//     would pick the newer timestamp again after another crash);
//   - tombstones become free slots; a tombstone that no other tombstone
//     points to is a stack head (in-memory), the rest remain reachable
//     through their on-disk chain pointers;
//   - multi-page items with mismatched per-block timestamps (partial
//     writes) are discarded.
func (s *Store) Recover(c env.Ctx) error {
	if s.started {
		return fmt.Errorf("core: Recover must precede Start")
	}
	scans := env.NewLatch(s.env)
	scans.Add(c, len(s.workers))
	errs := make([]error, len(s.workers)) // by worker; the first non-nil is returned
	for i, w := range s.workers {
		s.env.Go(fmt.Sprintf("kvell-recover-%d", w.id), func(c env.Ctx) {
			errs[i] = w.recover(c)
			scans.Done(c)
		})
	}
	scans.Wait(c)
	if s.oracle != nil {
		// Re-floor the oracle above every commit/start timestamp found on
		// disk so post-crash timestamps sort after all pre-crash ones.
		for _, w := range s.workers {
			s.oracle.Observe(w.maxCommitTS)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// recover scans this worker's slabs.
func (w *worker) recover(c env.Ctx) error {
	w.liveTS = make(map[string]uint64)
	defer func() { w.liveTS = nil }() // only needed to arbitrate duplicates
	if w.mv != nil {
		w.recMVCC = make(map[string][]recVer)
	}
	for _, sl := range w.slabs {
		if err := w.recoverSlab(c, sl); err != nil {
			return err
		}
	}
	if w.mv != nil {
		w.mvccFinishRecovery()
	}
	return nil
}

// recoverSlab sequentially scans one slab until it finds a fully-empty
// extent (the deterministic layout means extent k always lives at the same
// pages, so no manifest is needed).
func (w *worker) recoverSlab(c env.Ctx, sl *slab.Slab) error {
	slotBytes := int64(sl.Stride)
	extPages := sl.ExtentPages()
	slotsPerExtent := sl.SlotsPerExtent()

	tombs := make(map[uint64]uint64)   // free slot -> chainTo
	pointedTo := make(map[uint64]bool) // slots referenced by some chain
	var maxUsed int64 = -1             // highest non-empty slot index
	var maxTS uint64

	for ext := 0; ; ext++ {
		firstSlot := uint64(ext) * slotsPerExtent
		base := sl.SlotPage(firstSlot)
		buf := w.readExtent(c, base, extPages)
		c.CPU(costs.MemBytes(len(buf)) / 2) // header parsing while scanning

		empty := true
		for i := uint64(0); i < slotsPerExtent; i++ {
			slotIdx := firstSlot + i
			off := int64(i) * slotBytes
			// View decode: the key is only used synchronously (index Put and
			// the liveTS map both copy), so no per-slot alloc while scanning.
			d, err := sl.DecodeSlotView(buf[off : off+slotBytes])
			if err != nil {
				return err
			}
			switch d.Kind {
			case slab.Empty:
				continue
			case slab.Corrupt:
				// Partially written item: treat the slot as free space.
				empty = false
				maxUsed = int64(slotIdx)
				tombs[slotIdx] = freelist.NoSlot
			case slab.Tombstone:
				empty = false
				maxUsed = int64(slotIdx)
				tombs[slotIdx] = d.ChainTo
				if d.ChainTo != freelist.NoSlot {
					pointedTo[d.ChainTo] = true
				}
			case slab.Live:
				empty = false
				maxUsed = int64(slotIdx)
				if d.Item.Timestamp > maxTS {
					maxTS = d.Item.Timestamp
				}
				if w.mv != nil {
					if !w.mvccRecoverSlot(sl, slotIdx, d) {
						// Not an envelope (torn payload): free space.
						tombs[slotIdx] = freelist.NoSlot
					}
				} else {
					w.recoverLive(c, sl, slotIdx, d)
				}
			}
		}
		if empty {
			break
		}
	}

	sl.RestoreAppendCursor(uint64(maxUsed + 1))
	if w.ts <= maxTS {
		w.ts = maxTS + 1
	}
	// Free-list heads: tombstones nobody points to. A chain pointer to a
	// slot that is no longer a tombstone (reused after its chain was
	// recorded) is stale; such targets were handled when they were
	// overwritten, so only existing tombstones count. Heads are pushed in
	// slot order: map iteration order would leak into the post-recovery
	// allocation order, which must be reproducible (a promoted cluster
	// replica keeps serving inside a live deterministic simulation).
	heads := make([]uint64, 0, len(tombs))
	for slot := range tombs {
		if !pointedTo[slot] {
			heads = append(heads, slot)
		}
	}
	sort.Slice(heads, func(i, j int) bool { return heads[i] < heads[j] })
	for _, slot := range heads {
		sl.Free.PushHead(slot)
	}
	return nil
}

// recoverLive installs a scanned live item, keeping only the newest version
// of each key.
func (w *worker) recoverLive(c env.Ctx, sl *slab.Slab, slotIdx uint64, d slab.Decoded) {
	c.CPU(env.Time(w.idx.Depth()) * costs.BTreeNode)
	newLoc := loc(sl.ClassIndex, slotIdx)
	prev, ok := w.idx.Get(d.Item.Key)
	if !ok {
		w.idx.Put(d.Item.Key, uint64(newLoc))
		w.liveTS[string(d.Item.Key)] = d.Item.Timestamp
		return
	}
	// Duplicate key (crash mid-migration, §5.6): keep the newer timestamp.
	prevLoc := location(prev)
	prevTS := w.liveTS[string(d.Item.Key)]
	if d.Item.Timestamp > prevTS {
		w.idx.Put(d.Item.Key, uint64(newLoc))
		w.liveTS[string(d.Item.Key)] = d.Item.Timestamp
		w.slabs[prevLoc.class()].Free.PushHead(prevLoc.slot())
	} else {
		sl.Free.PushHead(slotIdx)
	}
}

// readExtent reads extPages pages starting at base using a handful of
// parallel chunked requests (sequential on disk, deep enough to use the
// device's channels).
func (w *worker) readExtent(c env.Ctx, base int64, extPages int64) []byte {
	buf := make([]byte, extPages*device.PageSize)
	const chunks = 8
	per := extPages / chunks
	if per == 0 {
		per = extPages
	}
	var ios []*aio.IO
	for off := int64(0); off < extPages; off += per {
		n := per
		if off+n > extPages {
			n = extPages - off
		}
		ios = append(ios, &aio.IO{Request: device.Request{
			Op:   device.Read,
			Page: base + off,
			Buf:  buf[off*device.PageSize : (off+n)*device.PageSize],
		}})
	}
	w.threads[0].Submit(c, ios)
	for done := 0; done < len(ios); {
		evs := w.threads[0].GetEvents(c, 1)
		done += len(evs)
	}
	return buf
}
