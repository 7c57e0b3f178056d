package device

import (
	"bytes"
	"sync"
	"testing"

	"kvell/internal/sim"
)

// simRead submits a buffer-less read of pg to d and runs the simulation
// until it completes, returning the image it completed with.
func simRead(t *testing.T, s *sim.Sim, d *SimDisk, pg int64) []byte {
	t.Helper()
	r := &Request{Op: Read, Page: pg}
	done := false
	r.Done = func() { done = true }
	s.Go("read", func(*sim.Proc) { d.Submit(r) })
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	if !done || len(r.Buf) != PageSize {
		t.Fatalf("buffer-less read of page %d: done=%v, %d bytes", pg, done, len(r.Buf))
	}
	return r.Buf
}

func same(a, b []byte) bool { return &a[0] == &b[0] }

// A buffer-less read completes with the store's own array, counted as one
// page, and a later in-place write of the page shows through it.
func TestSharedImageRead(t *testing.T) {
	s := sim.New(1)
	ms := NewMemStore()
	d := NewSimDisk(s, Optane(), ms)
	if err := ms.WritePages(5, page(0x11)); err != nil {
		t.Fatal(err)
	}
	img := simRead(t, s, d, 5)
	if !same(img, ms.pages[5].p[:]) || !same(img, d.Image(5)) {
		t.Fatal("buffer-less read did not complete with the store's array")
	}
	if c := d.Counters(); c.ReadOps != 1 || c.ReadBytes != PageSize {
		t.Fatalf("counters = %+v, want one page read", c)
	}
	if err := ms.WritePages(5, page(0x22)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, page(0x22)) {
		t.Fatal("a later write of the page does not show through the shared array")
	}
	// A read that passes a buffer still gets a copy.
	buf := make([]byte, PageSize)
	if err := ms.ReadPages(5, buf); err != nil {
		t.Fatal(err)
	}
	if same(buf, img) || !bytes.Equal(buf, img) {
		t.Fatal("a read with a buffer was not filled by copying")
	}
}

// Once a snapshot shares the array, a write moves the store to a fresh one:
// the array read earlier stays the snapshot's image, the old bytes.
func TestSharedImageSnapshot(t *testing.T) {
	s := sim.New(1)
	ms := NewMemStore()
	d := NewSimDisk(s, Optane(), ms)
	if err := ms.WritePages(2, page(0x33)); err != nil {
		t.Fatal(err)
	}
	img := simRead(t, s, d, 2)
	snap := ms.Snapshot()
	if err := ms.WritePages(2, page(0x44)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, page(0x33)) || !same(img, snap.Image(2)) {
		t.Fatal("the snapshot's image changed under a write to its original")
	}
	if same(img, ms.Image(2)) || !bytes.Equal(ms.Image(2), page(0x44)) {
		t.Fatal("the original did not move to a fresh array for its write")
	}
	if got := simRead(t, s, d, 2); !same(got, ms.Image(2)) {
		t.Fatal("a read after the write did not share the original's new array")
	}
}

// Never-written MemStore pages share one zero page, and no write lands in
// it. A NullStore disk offers no image, not even the zero page, so a read
// without a buffer panics there.
func TestSharedImageZeroPage(t *testing.T) {
	s := sim.New(1)
	ms := NewMemStore()
	d := NewSimDisk(s, Optane(), ms)
	a, b := simRead(t, s, d, 7), simRead(t, s, d, 8)
	if !same(a, zeroPage[:]) || !same(b, zeroPage[:]) {
		t.Fatal("never-written pages do not share the zero page")
	}
	if err := ms.WritePages(7, page(0x55)); err != nil {
		t.Fatal(err)
	}
	if same(ms.Image(7), zeroPage[:]) || !bytes.Equal(ms.Image(7), page(0x55)) {
		t.Fatal("a write of a never-written page did not take an array of its own")
	}
	if !bytes.Equal(zeroPage[:], make([]byte, PageSize)) {
		t.Fatal("something wrote into the shared zero page")
	}

	nd := NewSimDisk(sim.New(1), Optane(), NullStore{})
	if nd.Image(3) != nil {
		t.Fatal("a NullStore disk offers an image of what it discards")
	}
	mustPanic(t, "a buffer-less read on a NullStore disk", func() { nd.Submit(&Request{Op: Read, Page: 3}) })
}

// mustPanic fails unless submit panics.
func mustPanic(t *testing.T, what string, submit func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	submit()
}

// A RealDisk never shares: its executors write the store concurrently, so
// it offers no image and a read without a buffer panics. A read with one is
// a copy, which later writes do not reach.
func TestSharedImageRealDiskCopies(t *testing.T) {
	ms := NewMemStore()
	d := NewRealDisk(ms, 2, false)
	defer d.Close()
	if d.Image(1) != nil {
		t.Fatal("RealDisk offers a shared image")
	}
	mustPanic(t, "a buffer-less read on a RealDisk", func() { d.Submit(&Request{Op: Read, Page: 1}) })
	var wg sync.WaitGroup
	submit := func(r *Request) {
		wg.Add(1)
		r.Done = wg.Done
		d.Submit(r)
		wg.Wait()
	}
	submit(&Request{Op: Write, Page: 1, Buf: page(0x77)})
	r := &Request{Op: Read, Page: 1, Buf: make([]byte, PageSize)}
	submit(r)
	if !bytes.Equal(r.Buf, page(0x77)) || same(r.Buf, ms.Image(1)) {
		t.Fatal("RealDisk's read is not a copy of the page")
	}
	submit(&Request{Op: Write, Page: 1, Buf: page(0x78)})
	if !bytes.Equal(r.Buf, page(0x77)) {
		t.Fatal("a later write showed through a RealDisk read")
	}
}
