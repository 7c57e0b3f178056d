package device

import (
	"bytes"
	"maps"
	"runtime"
	"slices"
	"sync"
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

// fills is a model of a MemStore: the fill byte of every page it holds.
type fills map[int64]byte

// checkImages reads pages [0, n) of every store and compares them with its
// model; a page the model lacks must read as zeros.
func checkImages(t *testing.T, step string, n int64, stores []*MemStore, want []fills) {
	t.Helper()
	for i, ms := range stores {
		for pg := int64(0); pg < n; pg++ {
			if got := readPage(t, ms, pg); !bytes.Equal(got, page(want[i][pg])) {
				t.Fatalf("%s: store %d page %d reads %#x, want %#x", step, i, pg, got[0], want[i][pg])
			}
		}
		if ms.Pages() != len(want[i]) {
			t.Fatalf("%s: store %d holds %d pages, want %d", step, i, ms.Pages(), len(want[i]))
		}
	}
}

// A snapshot shares every page array with its original, and a snapshot of
// the snapshot makes three holders of one array. Writes, frees and the reuse
// of freed arrays on any of the three never show on the other two. Enough
// pages are written to span several chunks, so a page array handed out twice
// from one chunk would show here too.
func TestMemStoreSnapshotIsolation(t *testing.T) {
	const n = 3*memChunkPages + 5
	const span = n + 100 // the pages the checks read
	orig := NewMemStore()
	want := []fills{{}, {}, {}}
	for pg := int64(0); pg < n; pg++ {
		if err := orig.WritePages(pg, page(byte(pg))); err != nil {
			t.Fatal(err)
		}
		want[0][pg] = byte(pg)
	}
	snap := orig.Snapshot()
	snap2 := snap.Snapshot()
	stores := []*MemStore{orig, snap, snap2}
	maps.Copy(want[1], want[0])
	maps.Copy(want[2], want[0])
	for pg := int64(0); pg < n; pg++ {
		mp := orig.pages[pg]
		if snap.pages[pg] != mp || snap2.pages[pg] != mp || mp.holders.Load() != 3 {
			t.Fatalf("page %d: the three stores do not hold one array with a count of 3", pg)
		}
	}
	if pg, differ := snap2.FirstDiff(orig); differ {
		t.Fatalf("snapshot of a snapshot differs from the original at page %d", pg)
	}
	checkImages(t, "snapshots taken", span, stores, want)

	write := func(i int, from, to, step int64, b byte) {
		for pg := from; pg < to; pg += step {
			if err := stores[i].WritePages(pg, page(b)); err != nil {
				t.Fatal(err)
			}
			want[i][pg] = b
		}
	}
	free := func(i int, from, count int64) {
		stores[i].Free(from, count)
		for pg := from; pg < from+count; pg++ {
			delete(want[i], pg)
		}
	}
	// Each store in turn overwrites some shared pages (fresh arrays), frees
	// a range holding both shared pages and its own fresh ones (only the
	// latter reach its free list), then writes pages no store held, which
	// reuse those arrays before carving new chunk pages.
	write(0, 0, n-1, 3, 0xAA)
	free(0, 1, 40)
	if len(orig.free) == 0 {
		t.Fatal("the original freed none of its own arrays: reuse goes unexercised")
	}
	write(0, n, n+100, 1, 0xBB)
	if pg, differ := orig.FirstDiff(snap); !differ || pg != 0 {
		t.Fatalf("FirstDiff = %d, %v after page 0 was overwritten", pg, differ)
	}
	checkImages(t, "the original moved on", span, stores, want)

	write(1, 1, n-1, 2, 0xCC)
	free(1, 0, 20)
	free(1, 40, 20)
	write(1, n, n+50, 1, 0xDD)
	checkImages(t, "the snapshot moved on", span, stores, want)

	write(2, 0, n-1, 5, 0xEE)
	free(2, 60, 30)
	write(2, n+20, n+80, 1, 0x11)
	checkImages(t, "the snapshot's snapshot moved on", span, stores, want)

	// Page n-1 is one array all three still hold. Two let go of it; the
	// last holder then writes it in place and allocates nothing.
	const last = n - 1
	arr := orig.pages[last].p
	if snap.pages[last].p != arr || snap2.pages[last].p != arr || orig.pages[last].holders.Load() != 3 {
		t.Fatalf("page %d is not shared by all three stores", last)
	}
	free(0, last, 1)
	free(2, last, 1)
	if slices.Contains(orig.free, arr) || slices.Contains(snap2.free, arr) {
		t.Fatal("an array another store still holds went on a free list")
	}
	buf := page(0x77)
	if allocs := testing.AllocsPerRun(10, func() {
		if err := snap.WritePages(last, buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("the last holder's write allocates %.1f objects, want 0", allocs)
	}
	want[1][last] = 0x77
	if snap.pages[last].p != arr {
		t.Fatal("the last holder's write took a fresh array")
	}
	checkImages(t, "the last holder wrote in place", span, stores, want)
}

// An original and its snapshot written, read and freed from two goroutines
// at once, the way RealDisk's executors reach one store. Under -race this
// checks that the holder counts order a last holder's in-place write after
// the other store's reads of the array it let go of.
func TestMemStoreSnapshotConcurrentWriters(t *testing.T) {
	const n = 2 * memChunkPages
	orig := NewMemStore()
	for pg := int64(0); pg < n; pg++ {
		if err := orig.WritePages(pg, page(1)); err != nil {
			t.Fatal(err)
		}
	}
	stores := []*MemStore{orig, orig.Snapshot()}
	var wg sync.WaitGroup
	for i, ms := range stores {
		wg.Add(1)
		go func(ms *MemStore, b byte) {
			defer wg.Done()
			buf, got := page(b), make([]byte, PageSize)
			for round := 0; round < 4; round++ {
				for pg := int64(0); pg < n; pg++ {
					if err := ms.ReadPages(pg, got); err != nil {
						t.Error(err)
						return
					}
					if got[0] != 0 && got[0] != 1 && got[0] != b {
						t.Errorf("store %#x page %d reads %#x", b, pg, got[0])
						return
					}
					if err := ms.WritePages(pg, buf); err != nil {
						t.Error(err)
						return
					}
					if pg%4 == 0 {
						ms.Free(pg, 1)
					}
				}
			}
		}(ms, byte(0xA0+i))
	}
	wg.Wait()
	for i, ms := range stores {
		for pg := int64(0); pg < n; pg++ {
			w := page(byte(0xA0 + i))
			if pg%4 == 0 {
				w = page(0)
			}
			if got := readPage(t, ms, pg); !bytes.Equal(got, w) {
				t.Fatalf("store %d page %d reads %#x after the writers finished", i, pg, got[0])
			}
		}
	}
}

// TestAllocBudgetMemStoreSnapshot bounds what a snapshot of a 1024-page
// (4 MB) store allocates: its page map and one batch of holder counts, no
// page bytes.
func TestAllocBudgetMemStoreSnapshot(t *testing.T) {
	const pages = 1024
	ms := NewMemStore()
	for pg := int64(0); pg < pages; pg++ {
		if err := ms.WritePages(pg, page(byte(pg))); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snap := ms.Snapshot()
	runtime.ReadMemStats(&after)
	if snap.Pages() != pages {
		t.Fatalf("snapshot holds %d pages, want %d", snap.Pages(), pages)
	}
	// A map of 1024 16-byte entries and 1024 4-byte counts come to tens of
	// KB; one copied page array per page would be 4 MB.
	const budget = 128 << 10
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("a snapshot of %d pages allocates %d bytes", pages, got)
	if got > budget {
		t.Errorf("a snapshot of %d pages allocates %d bytes, budget %d", pages, got, budget)
	}
}

// TestAllocBudgetMemStoreFreshWrites bounds what fresh pages cost: 64 writes
// of page numbers the store never held, into a map already grown for them,
// allocate one chunk. With an array per page they were 64 objects.
func TestAllocBudgetMemStoreFreshWrites(t *testing.T) {
	const runs = 20
	ms := &MemStore{pages: make(map[int64]memPage, (runs+1)*memChunkPages)}
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
			ms = &MemStore{pages: make(map[int64]memPage, perStore)}
			b.StartTimer()
		}
		if err := ms.WritePages(int64(i%perStore), buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemStoreSnapshot snapshots a 4 MB image, the way a replica disk
// is seeded from its leader's post-load image: it copies the page map and
// takes one more hold on each page array, copying no page bytes. Only the
// first snapshot also allocates the holder counts.
func BenchmarkMemStoreSnapshot(b *testing.B) {
	const pages = 1024
	ms := NewMemStore()
	for pg := int64(0); pg < pages; pg++ {
		if err := ms.WritePages(pg, page(byte(pg))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ms.Snapshot().Pages() != pages {
			b.Fatal("short snapshot")
		}
	}
}
