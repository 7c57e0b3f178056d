package device

import (
	"bytes"
	"testing"
)

// page returns one page filled with b.
func page(b byte) []byte { return bytes.Repeat([]byte{b}, PageSize) }

// readPage returns page pg of ms.
func readPage(t *testing.T, ms *MemStore, pg int64) []byte {
	t.Helper()
	buf := make([]byte, PageSize)
	if err := ms.ReadPages(pg, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// A snapshot and its original share no page: writes, frees and the reuse of
// freed page arrays on either side never show on the other. Enough pages are
// written to span several chunks, so a page array handed out twice from one
// chunk would show here too.
func TestMemStoreSnapshotIsolation(t *testing.T) {
	const n = 3*memChunkPages + 5
	orig := NewMemStore()
	for pg := int64(0); pg < n; pg++ {
		if err := orig.WritePages(pg, page(byte(pg))); err != nil {
			t.Fatal(err)
		}
	}
	snap := orig.Snapshot()
	if pg, differ := snap.FirstDiff(orig); differ || snap.Pages() != n {
		t.Fatalf("snapshot of %d pages holds %d, first difference at page %d", n, snap.Pages(), pg)
	}

	// The original moves on: overwrite, free, then reuse the freed arrays
	// for pages neither store held, and fresh chunk pages past them.
	for pg := int64(0); pg < n; pg += 3 {
		if err := orig.WritePages(pg, page(0xAA)); err != nil {
			t.Fatal(err)
		}
	}
	orig.Free(1, 40)
	for pg := int64(n); pg < n+100; pg++ {
		if err := orig.WritePages(pg, page(0xBB)); err != nil {
			t.Fatal(err)
		}
	}
	for pg := int64(0); pg < n; pg++ {
		if got := readPage(t, snap, pg); !bytes.Equal(got, page(byte(pg))) {
			t.Fatalf("snapshot page %d changed after writes to the original", pg)
		}
	}
	if got := readPage(t, snap, n+1); !bytes.Equal(got, page(0)) {
		t.Fatalf("snapshot shows a page written to the original after it was taken")
	}
	if pg, differ := orig.FirstDiff(snap); !differ || pg != 0 {
		t.Fatalf("FirstDiff = %d, %v after page 0 was overwritten", pg, differ)
	}

	// And the reverse: the snapshot's writes and frees leave the original be.
	before := make([][]byte, n+100)
	for pg := range before {
		before[pg] = readPage(t, orig, int64(pg))
	}
	snap.Free(0, 20)
	for pg := int64(0); pg < n+100; pg += 2 {
		if err := snap.WritePages(pg, page(0xCC)); err != nil {
			t.Fatal(err)
		}
	}
	for pg := range before {
		if got := readPage(t, orig, int64(pg)); !bytes.Equal(got, before[pg]) {
			t.Fatalf("original page %d changed after writes to its snapshot", pg)
		}
	}
	for pg := int64(1); pg < 20; pg += 2 {
		if got := readPage(t, snap, pg); !bytes.Equal(got, page(0)) {
			t.Fatalf("freed snapshot page %d reads nonzero", pg)
		}
	}
}

// TestAllocBudgetMemStoreFreshWrites bounds what fresh pages cost: 64 writes
// of page numbers the store never held, into a map already grown for them,
// allocate one chunk. With an array per page they were 64 objects.
func TestAllocBudgetMemStoreFreshWrites(t *testing.T) {
	const runs = 20
	ms := &MemStore{pages: make(map[int64]*[PageSize]byte, (runs+1)*memChunkPages)}
	buf := page(7)
	next := int64(0)
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < memChunkPages; i++ {
			if err := ms.WritePages(next, buf); err != nil {
				t.Fatal(err)
			}
			next++
		}
	})
	if allocs > 1 {
		t.Errorf("%d fresh page writes allocate %.1f objects, budget 1", memChunkPages, allocs)
	}
}

// BenchmarkMemStoreWriteFresh writes page numbers the store never held. Every
// 16 MB it starts over on an empty store whose map is grown in advance, so
// the benchmark holds no more than that and does not time map growth.
func BenchmarkMemStoreWriteFresh(b *testing.B) {
	const perStore = 4096
	buf := page(7)
	var ms *MemStore
	b.SetBytes(PageSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%perStore == 0 {
			b.StopTimer()
			ms = &MemStore{pages: make(map[int64]*[PageSize]byte, perStore)}
			b.StartTimer()
		}
		if err := ms.WritePages(int64(i%perStore), buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemStoreSnapshot copies a 4 MB image, the way a replica disk is
// seeded from its leader's post-load image.
func BenchmarkMemStoreSnapshot(b *testing.B) {
	const pages = 1024
	ms := NewMemStore()
	for pg := int64(0); pg < pages; pg++ {
		if err := ms.WritePages(pg, page(byte(pg))); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(pages * PageSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ms.Snapshot().Pages() != pages {
			b.Fatal("short snapshot")
		}
	}
}
