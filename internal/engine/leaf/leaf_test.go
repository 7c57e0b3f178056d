package leaf

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"kvell/internal/device"
	"kvell/internal/kv"
)

// testLeaf builds a detached leaf holding records first..first+n-1.
func testLeaf(first, n int64, vlen int) *Leaf {
	l := &Leaf{lruIdx: -1}
	for i := first; i < first+n; i++ {
		e := Entry{Key: kv.Key(i), Value: kv.Value(i, 0, vlen)}
		l.Ents = append(l.Ents, e)
		l.Bytes += EntryBytes(len(e.Key), len(e.Value))
	}
	return l
}

func TestCodecRoundtrip(t *testing.T) {
	l := testLeaf(0, 5, 300)
	buf := Encode(l, nil)
	if len(buf)%device.PageSize != 0 {
		t.Fatal("leaf image not page aligned")
	}
	ents, total, ok := Decode(buf)
	if !ok || len(ents) != 5 || total != l.Bytes {
		t.Fatalf("roundtrip: ok=%v, %d ents, %d bytes (want %d)", ok, len(ents), total, l.Bytes)
	}
	for i, e := range ents {
		if !bytes.Equal(e.Key, kv.Key(int64(i))) || !bytes.Equal(e.Value, kv.Value(int64(i), 0, 300)) {
			t.Fatalf("entry %d corrupted", i)
		}
	}
	// A reused destination must come out identical, stale tail included.
	dirty := bytes.Repeat([]byte{0xEE}, 2*len(buf))
	if again := Encode(l, dirty); !bytes.Equal(again, buf) {
		t.Fatal("Encode into dirty scratch differs from a fresh image")
	}
	// An empty leaf decodes as resident (non-nil) with no records.
	ents, total, ok = Decode(Encode(&Leaf{}, nil))
	if !ok || ents == nil || len(ents) != 0 || total != 0 {
		t.Fatalf("empty leaf: ok=%v ents=%v total=%d", ok, ents, total)
	}
}

// TestDecodeRejectsDamage: the two hand-corrupted images of the issue. The
// unchecked decoder sized a slice from the count (gigabytes) and indexed past
// the image on the length (a panic).
func TestDecodeRejectsDamage(t *testing.T) {
	img := Encode(testLeaf(0, 5, 300), nil)

	count := bytes.Clone(img)
	binary.LittleEndian.PutUint32(count, 1<<32-1)
	if _, _, ok := Decode(count); ok {
		t.Error("count = 2^32-1 accepted")
	}

	klen := bytes.Clone(img)
	binary.LittleEndian.PutUint16(klen[countHeader:], 0xFFFF)
	if _, _, ok := Decode(klen); ok {
		t.Error("klen past the page accepted")
	}

	vlen := bytes.Clone(img)
	binary.LittleEndian.PutUint32(vlen[countHeader+2:], 1<<32-1)
	if _, _, ok := Decode(vlen); ok {
		t.Error("vlen = 2^32-1 accepted")
	}

	for _, short := range [][]byte{nil, {1}, {1, 0, 0, 0}, {1, 0, 0, 0, 9, 0, 0}} {
		if _, _, ok := Decode(short); ok {
			t.Errorf("truncated image %v accepted", short)
		}
	}
}

// TestRunPagesAtThePageEdge: the count header belongs to the image, so the
// last record byte that still fits one page is PageSize-countHeader.
func TestRunPagesAtThePageEdge(t *testing.T) {
	edge := device.PageSize - countHeader
	for _, tc := range []struct {
		bytes int
		want  int64
	}{
		{0, 1}, {1, 1}, {edge - 1, 1}, {edge, 1}, {edge + 1, 2},
		{edge + device.PageSize, 2}, {edge + device.PageSize + 1, 3},
	} {
		if got := RunPages(tc.bytes); got != tc.want {
			t.Errorf("RunPages(%d) = %d, want %d", tc.bytes, got, tc.want)
		}
	}
	// Encode agrees with RunPages exactly at the edge.
	vlen := edge - EntryBytes(kv.KeyLen, 0)
	for d := -1; d <= 1; d++ {
		l := testLeaf(7, 1, vlen+d)
		if got, want := len(Encode(l, nil)), int(RunPages(l.Bytes))*device.PageSize; got != want {
			t.Errorf("record bytes %d: image %d bytes, RunPages says %d", l.Bytes, got, want)
		}
	}
}

// newTestTree returns a tree over a fresh store, with the allocator starting
// at page 100 so a stray write to page 0 would show.
func newTestTree(cacheBytes int64) (*Tree, *device.MemStore) {
	return NewTree(device.NewAllocator(100), cacheBytes), device.NewMemStore()
}

func check(t *testing.T, tr *Tree, when string) {
	t.Helper()
	if err := tr.Check(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// TestLargeRecord sends one 10KB record through every path that sizes a
// page run: Upsert+Fit (Resize), Split around it, and the bulk build.
func TestLargeRecord(t *testing.T) {
	big := kv.Value(5, 1, 10_000)
	wantPages := RunPages(EntryBytes(kv.KeyLen, len(big)))
	if wantPages != 3 {
		t.Fatalf("a 10KB record should need 3 pages, RunPages says %d", wantPages)
	}

	// Resize: alone in the leaf it cannot split, so its run grows.
	tr, st := newTestTree(1 << 20)
	l := tr.Leaves[0]
	first := l.Page
	tr.Upsert(l, kv.Key(5), big)
	tr.Fit(l)
	check(t, tr, "after the large upsert")
	if len(tr.Leaves) != 1 || l.Pages != wantPages || l.Page == first {
		t.Fatalf("large record: %d leaves, run of %d pages at %d (was 1 page at %d)", len(tr.Leaves), l.Pages, l.Page, first)
	}

	// Split: small neighbours on both sides; the halves are sized to fit.
	for _, i := range []int64{1, 2, 8, 9} {
		tr.Upsert(l, kv.Key(i), kv.Value(i, 1, 100))
		tr.Fit(l)
		check(t, tr, "after a small neighbour")
	}
	if len(tr.Leaves) < 2 {
		t.Fatal("leaf holding 10KB + neighbours never split")
	}
	for i, l := range tr.Leaves {
		if l.Pages < RunPages(l.Bytes) {
			t.Fatalf("leaf %d: %d record bytes in a run of %d pages", i, l.Bytes, l.Pages)
		}
	}

	// Every leaf round-trips through its own run.
	for _, l := range tr.Leaves {
		img := tr.Reconcile(l, nil)
		if int64(len(img)) > l.Pages*device.PageSize {
			t.Fatalf("image of %d bytes overflows a run of %d pages", len(img), l.Pages)
		}
		if err := st.WritePages(l.Page, img); err != nil {
			t.Fatal(err)
		}
		tr.Drop(l)
		buf := tr.GetBuf(l.Pages)
		if err := st.ReadPages(l.Page, buf); err != nil {
			t.Fatal(err)
		}
		ents, total, ok := Decode(buf)
		if !ok {
			t.Fatal("written leaf does not decode")
		}
		tr.PutBuf(buf)
		tr.Install(l, ents, total)
		check(t, tr, "after reload")
	}
	l = tr.Leaves[tr.search(kv.Key(5))]
	if i, found := l.Search(kv.Key(5)); !found || !bytes.Equal(l.Ents[i].Value, big) {
		t.Fatal("large record lost across split and reload")
	}

	// Bulk build: the large record gets a leaf (and a run) of its own size.
	tr, st = newTestTree(1 << 20)
	items := []kv.Item{
		{Key: kv.Key(1), Value: kv.Value(1, 0, 100)},
		{Key: kv.Key(5), Value: big},
		{Key: kv.Key(9), Value: kv.Value(9, 0, 100)},
	}
	if !tr.Build(st, items) {
		t.Fatal("Build refused a non-empty load")
	}
	check(t, tr, "after bulk build")
	l = tr.Leaves[tr.search(kv.Key(5))]
	if l.Pages != wantPages {
		t.Fatalf("bulk-built large record sits in a run of %d pages, want %d", l.Pages, wantPages)
	}
	buf := make([]byte, l.Pages*device.PageSize)
	if err := st.ReadPages(l.Page, buf); err != nil {
		t.Fatal(err)
	}
	ents, _, ok := Decode(buf)
	if !ok || len(ents) != 1 || !bytes.Equal(ents[0].Value, big) {
		t.Fatalf("bulk-built large leaf: ok=%v, %d records", ok, len(ents))
	}
	if tr.Build(st, nil) {
		t.Fatal("Build replaced the tree with nothing")
	}
}

// TestAccountingInvariant drives a seeded mix of every state change the
// engines make — upsert, remove, split, write-back, eviction by budget and
// reload — against a map, checking the invariants after every step.
func TestAccountingInvariant(t *testing.T) {
	tr, st := newTestTree(24 << 10) // a handful of leaves fit
	r := rand.New(rand.NewSource(5))
	model := map[string][]byte{}
	// resident makes the owner of key resident the way an engine's miss
	// path does, evicting clean leaves over budget as a side effect.
	resident := func(key []byte) *Leaf {
		l := tr.Leaves[tr.search(key)]
		if l.Resident() {
			tr.Touch(l)
			return l
		}
		buf := tr.GetBuf(l.Pages)
		if err := st.ReadPages(l.Page, buf); err != nil {
			t.Fatal(err)
		}
		ents, total, ok := Decode(buf)
		if !ok {
			t.Fatalf("leaf at page %d does not decode", l.Page)
		}
		tr.PutBuf(buf)
		tr.Install(l, ents, total)
		return l
	}
	for step := 0; step < 6000; step++ {
		key := kv.Key(int64(r.Intn(300)))
		switch op := r.Intn(10); {
		case op < 5:
			val := kv.Value(int64(step), 1, 50+r.Intn(900))
			l := resident(key)
			tr.Upsert(l, key, val)
			tr.Fit(l)
			model[string(key)] = val
		case op < 7:
			_, want := model[string(key)]
			if got := tr.Remove(resident(key), key); got != want {
				t.Fatalf("step %d: Remove reported %v, model says %v", step, got, want)
			}
			delete(model, string(key))
		case op < 9:
			// Write back the oldest dirty leaf, as the eviction threads do.
			if l := tr.OldestDirty(); l != nil {
				if err := st.WritePages(l.Page, tr.Reconcile(l, nil)); err != nil {
					t.Fatal(err)
				}
				if r.Intn(2) == 0 {
					tr.Drop(l)
				}
			}
		default:
			l := resident(key)
			i, found := l.Search(key)
			want, ok := model[string(key)]
			if found != ok || (found && !bytes.Equal(l.Ents[i].Value, want)) {
				t.Fatalf("step %d: lookup of %s found=%v, model has it=%v", step, key, found, ok)
			}
		}
		if err := tr.Check(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if len(tr.Leaves) < 10 {
		t.Fatalf("only %d leaves: the sequence never split", len(tr.Leaves))
	}
	if n := len(tr.DirtyLeaves(nil)); n == 0 || tr.DirtyBytes() == 0 {
		t.Fatal("nothing dirty at the end: the write-back arm ran too often to test anything")
	}
	// Clean leaves over budget must have been evicted: whatever is resident
	// beyond the budget is dirty.
	if over := tr.CachedBytes() - tr.DirtyBytes(); over > 24<<10 {
		t.Fatalf("%d clean resident bytes, budget %d", over, 24<<10)
	}
}

// FuzzLeafDecode: Decode never panics, never allocates more than the image
// could hold, and what it accepts re-encodes to an image that decodes to the
// same records. The corpus is built here: valid images, then bit flips in the
// header bytes and truncations of them.
func FuzzLeafDecode(f *testing.F) {
	for _, l := range []*Leaf{{}, testLeaf(0, 1, 0), testLeaf(0, 5, 300), testLeaf(3, 1, 10_000)} {
		img := Encode(l, nil)
		f.Add(img)
		for _, cut := range []int{0, 3, 4, 9, 10, len(img) / 2, len(img) - 1} {
			f.Add(img[:cut])
		}
		for bit := 0; bit < 8*(countHeader+entryHeader); bit++ {
			flipped := bytes.Clone(img)
			flipped[bit/8] ^= 1 << (bit % 8)
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		ents, total, ok := Decode(img)
		if !ok {
			if ents != nil || total != 0 {
				t.Fatalf("rejected image still returned %d records, %d bytes", len(ents), total)
			}
			return
		}
		if total+countHeader > len(img) || cap(ents)*entryHeader > len(img) {
			t.Fatalf("%d records of %d bytes out of a %d-byte image", cap(ents), total, len(img))
		}
		sum := 0
		for _, e := range ents {
			sum += EntryBytes(len(e.Key), len(e.Value))
		}
		if sum != total {
			t.Fatalf("records hold %d bytes, Decode reported %d", sum, total)
		}
		again, total2, ok := Decode(Encode(&Leaf{Ents: ents, Bytes: total}, nil))
		if !ok || total2 != total || len(again) != len(ents) {
			t.Fatalf("re-encoded image: ok=%v, %d records of %d bytes, want %d of %d", ok, len(again), total2, len(ents), total)
		}
		for i := range ents {
			if !bytes.Equal(again[i].Key, ents[i].Key) || !bytes.Equal(again[i].Value, ents[i].Value) {
				t.Fatalf("record %d changed across a round trip", i)
			}
		}
	})
}
