package core

import (
	"bytes"
	"testing"

	"kvell/internal/aio"
	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/sim"
)

// slabLayerHarness opens a one-worker store without starting its worker
// thread and runs fn on a simulated thread that drives the worker's slab
// layer directly.
func slabLayerHarness(t *testing.T, cfg func(*Config), fn func(c env.Ctx, w *worker)) {
	t.Helper()
	s := sim.New(1)
	e := sim.NewEnv(s, 2)
	conf := DefaultConfig(device.NewSimDisk(s, device.Optane(), device.NewMemStore()))
	conf.Workers = 1
	cfg(&conf)
	st, err := Open(e, conf)
	if err != nil {
		t.Fatal(err)
	}
	e.Go("driver", func(c env.Ctx) { fn(c, st.workers[0]) })
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// settle plays the worker loop's part for a test that calls the slab layer
// directly: submit the batch, run completions (which may emit follow-up
// I/Os), repeat until nothing is queued or in flight.
func settle(c env.Ctx, w *worker, out *[]*aio.IO) {
	for len(*out) > 0 || w.threads[0].Inflight() > 0 {
		w.threads[0].Submit(c, *out)
		w.release()
		*out = (*out)[:0]
		if w.threads[0].Inflight() == 0 {
			continue
		}
		for _, io := range w.threads[0].GetEvents(c, 1) {
			io.Tag.(cont).complete(c, io, out)
			w.putIO(io)
		}
	}
}

// durable is a done that records that it ran.
type durable bool

func (d *durable) complete(env.Ctx, *aio.IO, *[]*aio.IO) { *d = true }

// place stores (key, value) through placeItem and waits for durability.
func place(t *testing.T, c env.Ctx, w *worker, key, value []byte, index bool) location {
	t.Helper()
	var out []*aio.IO
	var done durable
	l := w.placeItem(c, w.classFor(key, value), key, value, w.nextTS(), index, &done, &out)
	settle(c, w, &out)
	if !done {
		t.Fatalf("placeItem(%q): done never ran", key)
	}
	return l
}

func free(t *testing.T, c env.Ctx, w *worker, l location) {
	t.Helper()
	var out []*aio.IO
	var done durable
	w.freeSlot(c, l, &done, &out)
	settle(c, w, &out)
	if !done {
		t.Fatalf("freeSlot(%d/%d): done never ran", l.class(), l.slot())
	}
}

// payloadCopy is a slotReader that keeps a copy of the payload it receives.
type payloadCopy struct{ got []byte }

func (p *payloadCopy) slot(_ env.Ctx, payload []byte, _ *[]*aio.IO) {
	if payload != nil {
		p.got = append([]byte{}, payload...)
	}
}

// payloadAt reads the slot at l through readSlot (nil: no live item for key).
func payloadAt(c env.Ctx, w *worker, l location, key []byte) []byte {
	var out []*aio.IO
	var p payloadCopy
	w.readSlot(c, l, key, &p, &out)
	settle(c, w, &out)
	return p.got
}

// TestSlabLayerReuseReinstatesChain frees one slot more than the free list
// has in-memory heads, so the last tombstone chains to the head it displaces;
// the placement that reuses it must read that pointer back and reinstate the
// head before overwriting the tombstone — sub-page and multi-page. A
// multi-page slot's pages never enter the page cache: on a full two-page
// cache, its reuses must evict nothing.
func TestSlabLayerReuseReinstatesChain(t *testing.T) {
	for _, tc := range []struct {
		name       string
		vlen       int
		cachePages int
	}{{"subpage", 40, 8192}, {"multipage", 5000, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			slabLayerHarness(t, func(c *Config) { c.PageCachePages = tc.cachePages }, func(c env.Ctx, w *worker) {
				var locs []location
				for i := int64(0); i <= freelistHeads; i++ {
					locs = append(locs, place(t, c, w, kv.Key(i), kv.Value(i, 1, tc.vlen), true))
				}
				sl := w.slabs[locs[0].class()]
				if sl.MultiPage() != (tc.name == "multipage") {
					t.Fatalf("%dB value landed in class %d", tc.vlen, locs[0].class())
				}
				for _, l := range locs {
					free(t, c, w, l)
				}
				// The last free displaced the first head and chains to it.
				chained := locs[freelistHeads]
				if h := sl.Free.Heads(); len(h) != freelistHeads || h[0] != chained.slot() {
					t.Fatalf("heads after %d frees = %v, want %d heads led by %d", len(locs), h, freelistHeads, chained.slot())
				}
				if got := payloadAt(c, w, chained, kv.Key(freelistHeads)); got != nil {
					t.Fatal("freed slot still reads as live")
				}
				// Pages of no slab: for the multi-page row, they fill the cache.
				sentinels := []int64{1 << 40, 1<<40 + 1}
				for _, p := range sentinels {
					w.cacheInsert(c, p, w.pageBuf())
				}
				// Heads are reused newest first: every unchained one goes
				// before the chained slot.
				for i := freelistHeads - 1; i > 0; i-- {
					k := int64(100 + i)
					if l := place(t, c, w, kv.Key(k), kv.Value(k, 1, tc.vlen), true); l != locs[i] {
						t.Fatalf("reuse %d placed at slot %d, want %d", i, l.slot(), locs[i].slot())
					}
				}

				// Not indexed by the layer: the caller owns the index update.
				l := place(t, c, w, kv.Key(200), kv.Value(200, 1, tc.vlen), false)
				if l != chained {
					t.Fatalf("reuse placed at %d/%d, want the chained slot %d/%d", l.class(), l.slot(), chained.class(), chained.slot())
				}
				if _, ok := w.idx.Get(kv.Key(200)); ok {
					t.Fatal("placeItem(index=false) touched the index")
				}
				if h := sl.Free.Heads(); len(h) != 1 || h[0] != locs[0].slot() {
					t.Fatalf("heads after reuse = %v, want the chained slot [%d] reinstated", h, locs[0].slot())
				}
				if got := payloadAt(c, w, l, kv.Key(200)); !bytes.Equal(got, kv.Value(200, 1, tc.vlen)) {
					t.Fatal("reused slot does not read back the placed item")
				}
				if sl.MultiPage() && w.cache.Contains(sl.SlotPage(l.slot())) {
					t.Fatal("a multi-page slot's stale first page was left in the page cache")
				}
				for _, p := range sentinels {
					if !w.cache.Contains(p) {
						t.Fatalf("page %d was evicted by %d slot reuses", p, freelistHeads)
					}
				}

				// The reinstated head is reused next, then appends resume.
				if l := place(t, c, w, kv.Key(201), kv.Value(201, 1, tc.vlen), true); l != locs[0] {
					t.Fatalf("second reuse placed at slot %d, want %d", l.slot(), locs[0].slot())
				}
				if v, ok := w.idx.Get(kv.Key(201)); !ok || location(v) != locs[0] {
					t.Fatal("placeItem(index=true) did not install the location")
				}
				next := sl.Slots()
				if l := place(t, c, w, kv.Key(202), kv.Value(202, 1, tc.vlen), true); l.slot() != next {
					t.Fatalf("with no free slot left, placed at %d, want append slot %d", l.slot(), next)
				}
			})
		})
	}
}

// TestSlabLayerTailPins checks the fresh-append path: each class pins its own
// append-tail page, and moving to the next page of a class unpins the old
// tail — seen through what a full page cache may and may not evict.
func TestSlabLayerTailPins(t *testing.T) {
	slabLayerHarness(t, func(c *Config) { c.PageCachePages = 4 }, func(c env.Ctx, w *worker) {
		small := place(t, c, w, kv.Key(0), kv.Value(0, 1, 40), true)  // class A, new page
		other := place(t, c, w, kv.Key(1), kv.Value(1, 1, 200), true) // class B, new page
		if small.class() == other.class() {
			t.Fatal("test values must land in two classes")
		}
		slA, slB := w.slabs[small.class()], w.slabs[other.class()]
		first, tailB := slA.SlotPage(small.slot()), slB.SlotPage(other.slot())
		// Fill class A's first page and spill onto its second.
		last := small
		for i := int64(2); slA.SlotPage(last.slot()) == first; i++ {
			last = place(t, c, w, kv.Key(i), kv.Value(i, 1, 40), true)
		}
		tailA := slA.SlotPage(last.slot())
		if w.tailPage[small.class()] != tailA || w.tailPage[other.class()] != tailB {
			t.Fatalf("tail pages = %v, want class %d -> %d and class %d -> %d",
				w.tailPage, small.class(), tailA, other.class(), tailB)
		}
		// Push unrelated pages through the cache: everything unpinned goes.
		for p := int64(0); p < 8; p++ {
			w.cacheInsert(c, 1<<40+p, w.pageBuf())
		}
		if !w.cache.Contains(tailA) || !w.cache.Contains(tailB) {
			t.Fatal("an append-tail page was evicted: not pinned")
		}
		if w.cache.Contains(first) {
			t.Fatal("class A's previous tail page survived a full cache turnover: still pinned")
		}
		// The evicted page's slots still read back through the device.
		if got := payloadAt(c, w, small, kv.Key(0)); !bytes.Equal(got, kv.Value(0, 1, 40)) {
			t.Fatal("item on the unpinned page lost")
		}
	})
}

// TestAllocBudgetInPlaceUpdate pins a warm in-place update — the request's
// record, the slot patch, the page write and the ack — at zero allocations:
// a closure per continuation (the ack, the patch, writePage's tag) fails it.
func TestAllocBudgetInPlaceUpdate(t *testing.T) {
	slabLayerHarness(t, func(*Config) {}, func(c env.Ctx, w *worker) {
		acks := 0
		r := &kv.Request{Op: kv.OpUpdate, Key: kv.Key(3), Value: kv.Value(3, 1, 100),
			Done: func(res kv.Result) {
				if res.Found {
					acks++
				}
			}}
		var out []*aio.IO
		update := func() {
			w.start(c, r, &out)
			settle(c, w, &out)
		}
		update() // an append
		update() // in place: the pools are warm
		if n := testing.AllocsPerRun(100, update); n != 0 {
			t.Errorf("warm in-place update allocates %.1f/op, want 0", n)
		}
		if want := 2 + 101; acks != want {
			t.Fatalf("%d updates acknowledged, want %d", acks, want)
		}
	})
}
