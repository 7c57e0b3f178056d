package slab

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"kvell/internal/device"
	"kvell/internal/freelist"
)

func newSlab(stride int) *Slab {
	return New(0, stride, device.NewAllocator(0), 256, 64)
}

func TestClassFor(t *testing.T) {
	cases := []struct {
		klen, vlen int
		want       int // stride
	}{
		{10, 20, 64},
		{10, 40, 128},
		{19, 1024 - HeaderSize - 19, 1024}, // exactly a 1KB record
		{19, 1024, 2048},
		{19, 4000, 4096},
		{19, 5000, 2 * 4096},
		{19, 15000, 4 * 4096},
	}
	for _, c := range cases {
		i := ClassFor(DefaultClasses, c.klen, c.vlen)
		if i < 0 || DefaultClasses[i] != c.want {
			t.Errorf("ClassFor(%d,%d) stride = %d, want %d", c.klen, c.vlen, DefaultClasses[i], c.want)
		}
	}
	if i := ClassFor(DefaultClasses, 10, 1<<20); i != -1 {
		t.Errorf("oversized item got class %d", i)
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	s := newSlab(1024)
	buf := make([]byte, 1024)
	key := []byte("user-000042")
	val := bytes.Repeat([]byte{0xAB}, 900)
	if err := s.EncodeItem(buf, 77, key, val); err != nil {
		t.Fatal(err)
	}
	d, err := s.DecodeSlot(buf)
	if err != nil || d.Kind != Live {
		t.Fatalf("decode: %v kind=%v", err, d.Kind)
	}
	if d.Item.Timestamp != 77 || !bytes.Equal(d.Item.Key, key) || !bytes.Equal(d.Item.Value, val) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestEncodeRejectsOversized(t *testing.T) {
	s := newSlab(128)
	buf := make([]byte, 128)
	if err := s.EncodeItem(buf, 1, []byte("k"), make([]byte, 200)); err == nil {
		t.Fatal("oversized encode succeeded")
	}
}

func TestTombstoneRoundtrip(t *testing.T) {
	s := newSlab(256)
	buf := make([]byte, 256)
	s.EncodeTombstone(buf, 5, 1234)
	d, err := s.DecodeSlot(buf)
	if err != nil || d.Kind != Tombstone || d.ChainTo != 1234 {
		t.Fatalf("decode tombstone: %+v err=%v", d, err)
	}
	s.EncodeTombstone(buf, 5, freelist.NoSlot)
	d, _ = s.DecodeSlot(buf)
	if d.ChainTo != freelist.NoSlot {
		t.Fatal("unchained tombstone lost NoSlot")
	}
}

// TombstoneChain reads a chain pointer from a tombstone's head alone, and
// only from a tombstone; ValueIn finds a live item's value, and nothing in
// any other slot.
func TestSlotHeadReaders(t *testing.T) {
	s := newSlab(256)
	buf := make([]byte, 256)
	for _, chain := range []uint64{1234, freelist.NoSlot} {
		s.EncodeTombstone(buf, 5, chain)
		if next, ok := TombstoneChain(buf[:HeaderSize+8]); !ok || next != chain {
			t.Fatalf("tombstone chained to %d: TombstoneChain gives (%d, %v)", chain, next, ok)
		}
		if v := ValueIn(buf); v != nil {
			t.Fatalf("ValueIn found %d bytes in a tombstone", len(v))
		}
	}
	if err := s.EncodeItem(buf, 6, []byte("key"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	if next, ok := TombstoneChain(buf[:HeaderSize+8]); ok {
		t.Fatalf("TombstoneChain read chain %d from a live slot", next)
	}
	if v := ValueIn(buf); string(v) != "value" || &v[0] != &buf[HeaderSize+3] {
		t.Fatalf("ValueIn gives %q", v)
	}
	if _, ok := TombstoneChain(make([]byte, HeaderSize+8)); ok {
		t.Fatal("TombstoneChain read a chain from an empty slot")
	}
}

func TestEmptySlotDecodes(t *testing.T) {
	s := newSlab(512)
	d, err := s.DecodeSlot(make([]byte, 512))
	if err != nil || d.Kind != Empty {
		t.Fatalf("zero slot: kind=%v err=%v", d.Kind, err)
	}
}

func TestMultiPageRoundtrip(t *testing.T) {
	s := newSlab(2 * device.PageSize)
	if !s.MultiPage() || s.PagesPerSlot() != 2 {
		t.Fatal("expected 2-page slot")
	}
	buf := make([]byte, 2*device.PageSize)
	key := []byte("bigkey")
	val := make([]byte, 6000)
	rand.New(rand.NewSource(1)).Read(val)
	if err := s.EncodeItem(buf, 99, key, val); err != nil {
		t.Fatal(err)
	}
	d, err := s.DecodeSlot(buf)
	if err != nil || d.Kind != Live {
		t.Fatalf("decode: %v kind=%v", err, d.Kind)
	}
	if d.Item.Timestamp != 99 || !bytes.Equal(d.Item.Key, key) || !bytes.Equal(d.Item.Value, val) {
		t.Fatal("multi-page roundtrip mismatch")
	}
}

func TestMultiPagePartialWriteDetected(t *testing.T) {
	// §5.6: timestamp headers detect partially written multi-page items.
	s := newSlab(2 * device.PageSize)
	buf := make([]byte, 2*device.PageSize)
	if err := s.EncodeItem(buf, 100, []byte("k"), make([]byte, 6000)); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash where only the first page of a newer version made
	// it to disk: overwrite page 0 with timestamp 101.
	newer := make([]byte, 2*device.PageSize)
	if err := s.EncodeItem(newer, 101, []byte("k"), make([]byte, 6000)); err != nil {
		t.Fatal(err)
	}
	copy(buf[:device.PageSize], newer[:device.PageSize])
	d, err := s.DecodeSlot(buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != Corrupt {
		t.Fatalf("partial write decoded as %v, want Corrupt", d.Kind)
	}
}

func TestSlotGeometry(t *testing.T) {
	s := newSlab(1024) // 4 slots/page
	if p := s.SlotPage(0); p != 0 {
		t.Fatalf("slot 0 page = %d", p)
	}
	page := make([]byte, device.PageSize)
	if b := s.SlotBytes(page, 2); &b[0] != &page[2048] || len(b) != 1024 {
		t.Fatalf("slot 2 bytes at offset %d, length %d", len(page)-cap(b), len(b))
	}
	if p := s.SlotPage(5); p != 1 {
		t.Fatalf("slot 5 page = %d", p)
	}
	// Extents are 256 pages = 1024 slots; slot 1024 begins extent 1.
	p0 := s.SlotPage(1023)
	p1 := s.SlotPage(1024)
	if s.ExtentCount() != 2 {
		t.Fatalf("extents = %d", s.ExtentCount())
	}
	if p1 == p0+1 {
		t.Log("extents happen to be contiguous (fine)")
	}
}

func TestMultiPageGeometry(t *testing.T) {
	s := New(0, 2*device.PageSize, device.NewAllocator(100), 256, 64)
	p0 := s.SlotPage(0)
	p1 := s.SlotPage(1)
	if p1 != p0+2 {
		t.Fatalf("2-page slots: slot1 at %d, slot0 at %d", p1, p0)
	}
	img := make([]byte, 2*device.PageSize)
	if b := s.SlotBytes(img, 1); &b[0] != &img[0] || len(b) != len(img) {
		t.Fatal("a multi-page slot's bytes must be its whole image")
	}
}

func TestAllocPrefersFreeList(t *testing.T) {
	s := newSlab(1024)
	a, reused := s.Alloc()
	if reused || a != 0 {
		t.Fatalf("first alloc = %d reused=%v", a, reused)
	}
	s.Free.Push(a)
	b, reused := s.Alloc()
	if !reused || b != a {
		t.Fatalf("alloc after free = %d reused=%v", b, reused)
	}
	c, reused := s.Alloc()
	if reused || c != 1 {
		t.Fatalf("fresh alloc = %d reused=%v", c, reused)
	}
}

func TestAppendPageFresh(t *testing.T) {
	s := newSlab(1024) // 4 slots/page
	fresh := []bool{true, false, false, false, true, false}
	for i, want := range fresh {
		if got := s.AppendPageFresh(uint64(i)); got != want {
			t.Errorf("AppendPageFresh(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestEncodeDecodePropertyAllClasses(t *testing.T) {
	f := func(seed int64, classIdx uint8) bool {
		stride := DefaultClasses[int(classIdx)%len(DefaultClasses)]
		s := newSlab(stride)
		r := rand.New(rand.NewSource(seed))
		klen := 1 + r.Intn(24)
		var capacity int
		if stride <= device.PageSize {
			capacity = stride - HeaderSize - klen
		} else {
			capacity = (stride/device.PageSize)*PagePayload - klen
		}
		if capacity <= 0 {
			return true
		}
		vlen := r.Intn(capacity)
		key := make([]byte, klen)
		val := make([]byte, vlen)
		r.Read(key)
		r.Read(val)
		var buf []byte
		if stride <= device.PageSize {
			buf = make([]byte, stride)
		} else {
			buf = make([]byte, stride)
		}
		ts := r.Uint64()
		if err := s.EncodeItem(buf, ts, key, val); err != nil {
			return false
		}
		d, err := s.DecodeSlot(buf)
		if err != nil || d.Kind != Live {
			return false
		}
		return d.Item.Timestamp == ts && bytes.Equal(d.Item.Key, key) && bytes.Equal(d.Item.Value, val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// encodeRef is EncodeItem as it was before it zeroed with clear and copied
// across pages without staging key and value in one slice: the byte-level
// oracle for TestEncodeItemMatchesReference.
func encodeRef(s *Slab, buf []byte, ts uint64, key, value []byte) {
	if s.slotsPerPage > 0 {
		putHeader(buf, flagLive, ts, len(key), len(value))
		copy(buf[HeaderSize:], key)
		copy(buf[HeaderSize+len(key):], value)
		for i := HeaderSize + len(key) + len(value); i < s.Stride; i++ {
			buf[i] = 0
		}
		return
	}
	data := append(append([]byte(nil), key...), value...)
	for p := int64(0); p < s.pagesPerSlot; p++ {
		pg := buf[p*device.PageSize : (p+1)*device.PageSize]
		flag := byte(flagCont)
		if p == 0 {
			flag = flagLive
		}
		putHeader(pg, flag, ts, len(key), len(value))
		chunk := data
		if len(chunk) > PagePayload {
			chunk = chunk[:PagePayload]
		}
		copy(pg[HeaderSize:], chunk)
		for i := HeaderSize + len(chunk); i < device.PageSize; i++ {
			pg[i] = 0
		}
		data = data[len(chunk):]
	}
}

// EncodeItem writes exactly the bytes the reference encoder does into a
// buffer full of stale 0xFF, for sub-page and multi-page classes, items that
// fill their slot and items far short of it, values that end on and off a
// page boundary.
func TestEncodeItemMatchesReference(t *testing.T) {
	key := []byte("user000000000000042")
	for _, stride := range DefaultClasses {
		s := newSlab(stride)
		size := stride
		if s.pagesPerSlot > 1 {
			size = int(s.pagesPerSlot) * device.PageSize
		}
		payload := stride - HeaderSize
		if s.pagesPerSlot > 1 {
			payload = int(s.pagesPerSlot) * PagePayload
		}
		for _, vlen := range []int{0, 1, payload / 2, payload - len(key) - 1, payload - len(key), PagePayload - len(key), PagePayload} {
			if vlen < 0 || len(key)+vlen > payload {
				continue
			}
			val := make([]byte, vlen)
			for i := range val {
				val[i] = byte(i*7 + 1)
			}
			got, want := bytes.Repeat([]byte{0xFF}, size), bytes.Repeat([]byte{0xFF}, size)
			if err := s.EncodeItem(got, 9, key, val); err != nil {
				t.Fatalf("stride %d, %dB value: %v", stride, vlen, err)
			}
			encodeRef(s, want, 9, key, val)
			if !bytes.Equal(got, want) {
				t.Errorf("stride %d, %dB value: encoding differs from the reference", stride, vlen)
			}
		}
	}
}

// FuzzSlabDecode: over arbitrary slot bytes, for one sub-page and one
// multi-page class, DecodeSlot and DecodeSlotView never panic, agree on the
// slot's kind and error, and on a live slot agree on timestamp, key and
// value. DecodeSlot's item must not alias the slot buffer. The readers core
// uses on part of a slot agree with DecodeSlot: TombstoneChain on the slot's
// first HeaderSize+8 bytes finds a tombstone, and its chain pointer, exactly
// when DecodeSlot does, and ValueIn on the first page of a live slot gives
// the part of its value that lies there. The corpus is EncodeItem and
// EncodeTombstone output of both classes (a multi-page key spilling past the
// first page among them), a torn multi-page item and an empty slot.
func FuzzSlabDecode(f *testing.F) {
	sub, multi := newSlab(256), New(0, 2*device.PageSize, device.NewAllocator(0), 256, 64)
	for _, tc := range []struct {
		s    *Slab
		klen int
		vlen int
	}{{sub, 10, 40}, {sub, 16, 256 - HeaderSize - 16}, {multi, 20, 100}, {multi, 20, 6000}, {multi, 4100, 100}} {
		buf := make([]byte, tc.s.Stride)
		val := bytes.Repeat([]byte{0xA5}, tc.vlen)
		if err := tc.s.EncodeItem(buf, 7, bytes.Repeat([]byte{'k'}, tc.klen), val); err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		if tc.s == multi && tc.vlen > PagePayload {
			torn := bytes.Clone(buf)
			torn[device.PageSize+1] ^= 1 // the continuation page's timestamp
			f.Add(torn)
		}
	}
	for _, s := range []*Slab{sub, multi} {
		buf := make([]byte, s.Stride)
		s.EncodeTombstone(buf, 9, 12345)
		f.Add(buf)
	}
	f.Add(make([]byte, 256))
	f.Add([]byte{flagLive})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, s := range []*Slab{sub, multi} {
			sized := make([]byte, s.Stride)
			copy(sized, data)
			for _, buf := range [][]byte{data, sized} {
				d, err := s.DecodeSlot(buf)
				v, verr := s.DecodeSlotView(buf)
				if err != verr || d.Kind != v.Kind || d.ChainTo != v.ChainTo {
					t.Fatalf("stride %d: DecodeSlot gives (%v, kind %d, chain %d), DecodeSlotView (%v, kind %d, chain %d)",
						s.Stride, err, d.Kind, d.ChainTo, verr, v.Kind, v.ChainTo)
				}
				if err != nil {
					continue
				}
				if next, ok := TombstoneChain(buf[:HeaderSize+8]); ok != (d.Kind == Tombstone) || ok && next != d.ChainTo {
					t.Fatalf("stride %d: TombstoneChain gives (%d, %v), DecodeSlot kind %d, chain %d", s.Stride, next, ok, d.Kind, d.ChainTo)
				}
				if d.Kind != Live {
					continue
				}
				head := buf[:min(len(buf), device.PageSize)]
				n := min(max(len(head)-HeaderSize-len(d.Item.Key), 0), len(d.Item.Value))
				if val := ValueIn(head); !bytes.Equal(val, d.Item.Value[:n]) {
					t.Fatalf("stride %d: ValueIn gives %d bytes of a %dB value, want its first %d", s.Stride, len(val), len(d.Item.Value), n)
				}
				if d.Item.Timestamp != v.Item.Timestamp || !bytes.Equal(d.Item.Key, v.Item.Key) || !bytes.Equal(d.Item.Value, v.Item.Value) {
					t.Fatalf("stride %d: DecodeSlot and DecodeSlotView disagree on a live slot", s.Stride)
				}
				key, val := bytes.Clone(d.Item.Key), bytes.Clone(d.Item.Value)
				for i := range buf {
					buf[i] ^= 0xFF
				}
				if !bytes.Equal(d.Item.Key, key) || !bytes.Equal(d.Item.Value, val) {
					t.Fatalf("stride %d: DecodeSlot's item aliases the slot buffer", s.Stride)
				}
				for i := range buf {
					buf[i] ^= 0xFF
				}
			}
		}
	})
}
