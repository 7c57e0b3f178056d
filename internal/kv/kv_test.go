package kv

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestKeyRoundtrip(t *testing.T) {
	for _, i := range []int64{0, 1, 42, 999_999, 99_999_999_999} {
		k := Key(i)
		if len(k) != KeyLen {
			t.Fatalf("Key(%d) length %d", i, len(k))
		}
		if got := KeyNum(k); got != i {
			t.Fatalf("KeyNum(Key(%d)) = %d", i, got)
		}
	}
	if KeyNum([]byte("not-a-key")) != -1 {
		t.Fatal("foreign key parsed")
	}
	if KeyNum([]byte("userXXXXXXXXXXXXXXX")) != -1 {
		t.Fatal("non-digit key parsed")
	}
}

func TestKeyOrderMatchesNumericOrder(t *testing.T) {
	f := func(a, b uint32) bool {
		ka, kb := Key(int64(a)), Key(int64(b))
		cmp := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValueDeterministic(t *testing.T) {
	a := Value(7, 3, 100)
	b := Value(7, 3, 100)
	if !bytes.Equal(a, b) {
		t.Fatal("Value not deterministic")
	}
	c := Value(7, 4, 100)
	if bytes.Equal(a, c) {
		t.Fatal("different versions produced identical values")
	}
	d := Value(8, 3, 100)
	if bytes.Equal(a, d) {
		t.Fatal("different records produced identical values")
	}
	if len(Value(1, 1, 0)) != 0 {
		t.Fatal("zero-length value")
	}
}

func TestHash64Spreads(t *testing.T) {
	buckets := make([]int, 8)
	for i := int64(0); i < 8000; i++ {
		buckets[Hash64(Key(i))%8]++
	}
	for w, n := range buckets {
		if n < 800 || n > 1200 {
			t.Fatalf("worker %d got %d/8000 keys; hash skewed", w, n)
		}
	}
}

func TestOpTypeString(t *testing.T) {
	for op, want := range map[OpType]string{
		OpGet: "get", OpUpdate: "update", OpDelete: "delete", OpScan: "scan", OpRMW: "rmw",
	} {
		if op.String() != want {
			t.Fatalf("%d.String() = %q", op, op.String())
		}
	}
}

func TestAppendItemReusesSlots(t *testing.T) {
	items := AppendItem(nil, []byte("alpha"), []byte("one"))
	items = AppendItem(items, []byte("beta"), []byte("two"))
	if len(items) != 2 || string(items[0].Key) != "alpha" || string(items[1].Value) != "two" {
		t.Fatalf("appended items wrong: %v", items)
	}
	// Recycle: reslice to zero and refill; the slots' buffers must be reused.
	k0, v0 := &items[0].Key[0], &items[0].Value[0]
	items = items[:0]
	items = AppendItem(items, []byte("gamma"), []byte("ten"))
	if string(items[0].Key) != "gamma" || string(items[0].Value) != "ten" {
		t.Fatalf("refilled item wrong: %v", items[0])
	}
	if &items[0].Key[0] != k0 || &items[0].Value[0] != v0 {
		t.Fatal("refill did not reuse the recycled slot's buffers")
	}
	// Growing past a slot's capacity must still copy correctly.
	items = AppendItem(items[:0], []byte("a-much-longer-key-than-before"), []byte("a-much-longer-value-than-before"))
	if string(items[0].Key) != "a-much-longer-key-than-before" {
		t.Fatalf("grown key wrong: %q", items[0].Key)
	}
	if n := testing.AllocsPerRun(100, func() {
		items = AppendItem(items[:0], []byte("alpha"), []byte("one"))
	}); n != 0 {
		t.Errorf("steady-state AppendItem allocates %v per call, want 0", n)
	}
}

// TestFillValueProperties pins what callers may rely on: a value is a pure
// function of (record, version), a shorter value is a prefix of a longer one,
// and distinct records or versions differ from their first word on.
func TestFillValueProperties(t *testing.T) {
	lens := []int{1000, 1024}
	for n := 0; n <= 40; n++ { // 0: nothing to write; 1–7: the tail alone
		lens = append(lens, n)
	}
	long := Value(12345, 6, 1024)
	for _, n := range lens {
		got := make([]byte, n)
		FillValue(got, 12345, 6)
		if !bytes.Equal(got, long[:n]) {
			t.Errorf("length %d is not a prefix of length 1024", n)
		}
		if !bytes.Equal(got, Value(12345, 6, n)) {
			t.Errorf("length %d: FillValue and Value disagree", n)
		}
	}

	buf := make([]byte, 1024)
	if n := testing.AllocsPerRun(100, func() { FillValue(buf, 7, 3) }); n != 0 {
		t.Errorf("FillValue allocates %v per call, want 0", n)
	}

	word := func(i int64, v uint64) [8]byte {
		var w [8]byte
		FillValue(w[:], i, v)
		return w
	}
	for d := int64(0); d < 10_000; d++ {
		i, v := d*7919%1_000_003, uint64(d%97)
		if word(i, v) == word(i, v+1) {
			t.Fatalf("record %d: versions %d and %d share their first 8 bytes", i, v, v+1)
		}
		if word(i, v) == word(i+1, v) {
			t.Fatalf("version %d: records %d and %d share their first 8 bytes", v, i, i+1)
		}
	}
}

// TestArenaAlloc checks the three things a dataset builder needs of an arena:
// allocations do not overlap, an append cannot reach the neighbour, and a
// request of a block or more still succeeds.
func TestArenaAlloc(t *testing.T) {
	var a Arena
	x, y := a.Key(1), a.Value(1, 0, 1000)
	if !bytes.Equal(x, Key(1)) || !bytes.Equal(y, Value(1, 0, 1000)) {
		t.Fatal("the arena's Key and Value differ from the allocating forms")
	}
	x = append(x, "overflow"...)
	if !bytes.Equal(y, Value(1, 0, 1000)) {
		t.Fatal("append to one allocation wrote into the next")
	}
	for i := 0; i < 3000; i++ { // crosses two block boundaries
		if b := a.Alloc(1000); len(b) != 1000 || cap(b) != 1000 || b[0] != 0 || b[999] != 0 {
			t.Fatalf("allocation %d: len %d cap %d, or not zeroed", i, len(b), cap(b))
		}
	}
	if b := a.Alloc(3 * arenaBlock); len(b) != 3*arenaBlock {
		t.Fatalf("oversized allocation has length %d", len(b))
	}
	if n := testing.AllocsPerRun(1, func() {
		var a Arena
		for i := 0; i < 1000; i++ {
			a.Alloc(1000)
		}
	}); n > 2 {
		t.Errorf("1000 allocations of 1000 B made %v heap objects, want one per block", n)
	}
}

var sinkByte byte

func BenchmarkFillValue1K(b *testing.B) {
	buf := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		FillValue(buf, int64(i), 1)
	}
	sinkByte = buf[0]
}
