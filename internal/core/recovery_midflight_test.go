package core

import (
	"bytes"
	"testing"

	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/sim"
	"kvell/internal/slab"
)

// midflightStore builds a single-worker store, runs put inside the
// simulation, and returns the surviving MemStore plus the (closed) store
// for geometry inspection. The returned state models the disk at a crash:
// whatever put acknowledged is durable, nothing was shut down cleanly.
func midflightStore(t *testing.T, put func(c env.Ctx, st *Store)) (*device.MemStore, *Store) {
	t.Helper()
	s := sim.New(1)
	e := sim.NewEnv(s, 4)
	ms := device.NewMemStore()
	disk := device.NewSimDisk(s, device.Optane(), ms)
	cfg := DefaultConfig(disk)
	cfg.Workers = 1
	st, err := Open(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.Start()
	e.Go("client", func(c env.Ctx) {
		put(c, st)
		st.Stop(c)
	})
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	return ms, st
}

// reopen recovers a fresh store over ms and runs check in the simulation.
func reopen(t *testing.T, ms *device.MemStore, check func(c env.Ctx, st *Store)) *Store {
	t.Helper()
	s := sim.New(2)
	e := sim.NewEnv(s, 4)
	disk := device.NewSimDisk(s, device.Optane(), ms)
	cfg := DefaultConfig(disk)
	cfg.Workers = 1
	st, err := Open(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Go("client", func(c env.Ctx) {
		if err := st.Recover(c); err != nil {
			t.Error(err)
			return
		}
		st.Start()
		check(c, st)
		st.Stop(c)
	})
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := st.CheckConsistency(); err != nil {
		t.Errorf("post-recovery consistency: %v", err)
	}
	return st
}

// plantLive encodes a live (ts, key, value) image directly into a sub-page
// slot — the surgical equivalent of a write that persisted right before
// power loss, without the bookkeeping that normally follows it.
func plantLive(t *testing.T, ms *device.MemStore, sl *slab.Slab, slot uint64, ts uint64, key, val []byte) {
	t.Helper()
	page := sl.SlotPage(slot)
	buf := make([]byte, device.PageSize)
	if err := ms.ReadPages(page, buf); err != nil {
		t.Fatal(err)
	}
	if err := sl.EncodeItem(sl.SlotBytes(buf, slot), ts, key, val); err != nil {
		t.Fatal(err)
	}
	if err := ms.WritePages(page, buf); err != nil {
		t.Fatal(err)
	}
}

func classOf(t *testing.T, st *Store, valLen int) int {
	t.Helper()
	cls := slab.ClassFor(slab.DefaultClasses, kv.KeyLen, valLen)
	if cls < 0 {
		t.Fatalf("no class for %dB values", valLen)
	}
	return cls
}

func freeHeadsContain(sl *slab.Slab, slot uint64) bool {
	for _, h := range sl.Free.Heads() {
		if h == slot {
			return true
		}
	}
	return false
}

// TestRecoveryCrashBeforeTombstone models a crash between an update's two
// writes (§5.2 migration order: new slot first, tombstone second): the new
// version persisted in its new class, but the power failed before the old
// slot's tombstone was written. Recovery must keep the newer version and
// turn the stale older copy into free space — with no disk write, exactly
// as the paper prescribes.
func TestRecoveryCrashBeforeTombstone(t *testing.T) {
	key := kv.Key(1)
	newVal := kv.Value(1, 2, 200)
	oldVal := kv.Value(1, 1, 600)
	ms, st := midflightStore(t, func(c env.Ctx, st *Store) {
		st.Put(c, key, newVal) // the "new slot" write, acknowledged
	})
	// Plant the pre-migration copy with an older timestamp in the class a
	// 600B value would have lived in; its tombstone never made it to disk.
	oldCls := classOf(t, st, len(oldVal))
	plantLive(t, ms, st.workers[0].slabs[oldCls], 0, 1, key, oldVal)

	reopen(t, ms, func(c env.Ctx, st2 *Store) {
		got, ok := st2.Get(c, key)
		if !ok || !bytes.Equal(got, newVal) {
			t.Errorf("recovery kept the stale pre-migration copy (found=%v, %dB)", ok, len(got))
		}
	}).withFreed(t, oldCls, 0)
}

// withFreed asserts the slot is an in-memory free head after recovery.
func (s *Store) withFreed(t *testing.T, cls int, slot uint64) {
	t.Helper()
	if !freeHeadsContain(s.workers[0].slabs[cls], slot) {
		t.Errorf("slot %d of class %d not freed by recovery", slot, cls)
	}
}

// TestRecoveryTornTailPage models a torn append: the tail page of a slab
// holds one fully-persisted slot and one slot of garbage bytes (the write
// that was in flight when the power failed). Recovery must keep the good
// slot, reclaim the garbage slot as free space, and not panic.
func TestRecoveryTornTailPage(t *testing.T) {
	key := kv.Key(1)
	val := kv.Value(1, 1, 200)
	ms, st := midflightStore(t, func(c env.Ctx, st *Store) {
		st.Put(c, key, val)
	})
	cls := classOf(t, st, len(val))
	sl := st.workers[0].slabs[cls]
	// Fill the next slot of the same (tail) page with garbage: a flag byte
	// no codec ever writes, then junk.
	page := sl.SlotPage(1)
	buf := make([]byte, device.PageSize)
	if err := ms.ReadPages(page, buf); err != nil {
		t.Fatal(err)
	}
	torn := sl.SlotBytes(buf, 1)
	for i := range torn {
		torn[i] = byte(0xA5 ^ i)
	}
	if err := ms.WritePages(page, buf); err != nil {
		t.Fatal(err)
	}

	reopen(t, ms, func(c env.Ctx, st2 *Store) {
		got, ok := st2.Get(c, key)
		if !ok || !bytes.Equal(got, val) {
			t.Error("intact slot lost next to torn slot")
		}
		// The garbage slot must be reusable storage now.
		st2.Put(c, kv.Key(2), kv.Value(2, 1, 200))
		if v, ok := st2.Get(c, kv.Key(2)); !ok || !bytes.Equal(v, kv.Value(2, 1, 200)) {
			t.Error("write into reclaimed torn slot failed")
		}
	}).withFreedCheck(t, cls)
}

// withFreedCheck asserts the append cursor advanced past the torn slot (it
// was scanned, not ignored) — slot 1 is either a free head or was reused.
func (s *Store) withFreedCheck(t *testing.T, cls int) {
	t.Helper()
	if got := s.workers[0].slabs[cls].Slots(); got < 2 {
		t.Errorf("append cursor %d: torn slot was not scanned", got)
	}
}

// TestRecoveryDuplicateKeyLastWriterWins models the other half of a
// mid-migration crash: both copies of a key survive in different slabs and
// the NEWER one is the planted copy (its index update was lost with RAM).
// Recovery must arbitrate by timestamp — last writer wins — whichever slab
// order the scan visits them in.
func TestRecoveryDuplicateKeyLastWriterWins(t *testing.T) {
	key := kv.Key(1)
	oldVal := kv.Value(1, 1, 200) // written through the store, older ts
	newVal := kv.Value(1, 2, 600) // planted with a huge ts, newer
	ms, st := midflightStore(t, func(c env.Ctx, st *Store) {
		st.Put(c, key, oldVal)
	})
	oldCls := classOf(t, st, len(oldVal))
	newCls := classOf(t, st, len(newVal))
	if oldCls == newCls {
		t.Fatalf("test needs distinct classes, both were %d", oldCls)
	}
	plantLive(t, ms, st.workers[0].slabs[newCls], 0, 1<<50, key, newVal)

	reopen(t, ms, func(c env.Ctx, st2 *Store) {
		got, ok := st2.Get(c, key)
		if !ok || !bytes.Equal(got, newVal) {
			t.Errorf("last writer did not win (found=%v, %dB, want %dB)", ok, len(got), len(newVal))
		}
	}).withFreed(t, oldCls, 0)
}
