package core

import (
	"bytes"
	"fmt"

	"kvell/internal/device"
	"kvell/internal/slab"
)

// CheckConsistency audits the store's in-memory metadata against the disk
// image. It is a host-side debugging aid for the crash harness: call it
// after the simulation has stopped (post-Recover, no workers running), when
// no locks are needed.
//
// Invariants checked, per worker:
//   - every index entry points at a slot that decodes as Live and whose
//     stored key matches the indexed key;
//   - every free-list head lies below the slab's append cursor;
//   - no free-list head aliases an indexed slot of the same class (a slot
//     cannot be simultaneously allocated and free);
//   - every page the page cache holds is byte-equal to the device store's
//     image of it (the cache never holds data the disk does not).
//
// The first violation found is returned as an error with enough context to
// reproduce; nil means the audit passed.
func (s *Store) CheckConsistency() error {
	for _, w := range s.workers {
		if err := w.checkConsistency(); err != nil {
			return fmt.Errorf("worker %d: %w", w.id, err)
		}
	}
	return nil
}

// hostSlot reads and decodes one slot straight from the device store — the
// host-side (no simulation, no page cache) reader both audits use.
func hostSlot(st device.Store, sl *slab.Slab, slot uint64) (slab.Decoded, error) {
	buf := make([]byte, sl.PagesPerSlot()*device.PageSize)
	if err := st.ReadPages(sl.SlotPage(slot), buf); err != nil {
		return slab.Decoded{}, fmt.Errorf("read: %w", err)
	}
	return sl.DecodeSlot(sl.SlotBytes(buf, slot))
}

func (w *worker) checkConsistency() error {
	st := w.dev.Store()
	// Per-class set of slots the index claims are live.
	indexed := make([]map[uint64]bool, len(w.slabs))
	for i := range indexed {
		indexed[i] = make(map[uint64]bool)
	}
	var verr error
	w.idx.AscendFrom(nil, func(key []byte, v uint64) bool {
		l := location(v)
		if l.class() >= len(w.slabs) {
			verr = fmt.Errorf("key %q: location class %d out of range", key, l.class())
			return false
		}
		sl := w.slabs[l.class()]
		slot := l.slot()
		if slot >= sl.Slots() {
			verr = fmt.Errorf("key %q: slot %d beyond append cursor %d (class %d)",
				key, slot, sl.Slots(), l.class())
			return false
		}
		indexed[l.class()][slot] = true
		d, err := hostSlot(st, sl, slot)
		if err != nil {
			verr = fmt.Errorf("key %q: slot %d (class %d): %w", key, slot, l.class(), err)
			return false
		}
		if d.Kind != slab.Live {
			verr = fmt.Errorf("key %q: indexed slot %d (class %d) decodes as %v, want Live",
				key, slot, l.class(), d.Kind)
			return false
		}
		if !bytes.Equal(d.Item.Key, key) {
			verr = fmt.Errorf("key %q: indexed slot %d (class %d) holds key %q",
				key, slot, l.class(), d.Item.Key)
			return false
		}
		return true
	})
	if verr != nil {
		return verr
	}
	buf := make([]byte, device.PageSize)
	w.cache.Each(func(page int64, data []byte) bool {
		if err := st.ReadPages(page, buf); err != nil {
			verr = fmt.Errorf("cached page %d: read: %w", page, err)
		} else if !bytes.Equal(data, buf) {
			verr = fmt.Errorf("cached page %d differs from the device image", page)
		}
		return verr == nil
	})
	if verr != nil {
		return verr
	}
	for cls, sl := range w.slabs {
		for _, head := range sl.Free.Heads() {
			if head >= sl.Slots() {
				return fmt.Errorf("class %d: free head %d beyond append cursor %d",
					cls, head, sl.Slots())
			}
			if indexed[cls][head] {
				return fmt.Errorf("class %d: slot %d is both free-list head and indexed",
					cls, head)
			}
		}
	}
	return nil
}
