package mvcc

import (
	"bytes"
	"slices"
	"testing"

	"kvell/internal/env"
)

func TestEnvelopeRoundtrip(t *testing.T) {
	cases := []Envelope{
		{Kind: KindCommitPut, StartTS: 7, CommitTS: 9, PrevLoc: NoLoc, Value: []byte("v1")},
		{Kind: KindIntentPut, StartTS: 12, PrevLoc: 0x01000000_00000002, Primary: []byte("pk"), Value: []byte("v2")},
		{Kind: KindIntentDelete, StartTS: 44, PrevLoc: NoLoc, Primary: []byte("pk")},
		{Kind: KindCommitDelete, StartTS: 44, CommitTS: 45, PrevLoc: 3},
		{Kind: KindCommitPut, StartTS: 1, CommitTS: 1, PrevLoc: NoLoc}, // empty value
	}
	for i, e := range cases {
		b := AppendEncode(nil, &e)
		if want := HeaderSize + len(e.Primary) + len(e.Value); len(b) != want {
			t.Fatalf("case %d: encoded %d bytes, want %d", i, len(b), want)
		}
		d, ok := Decode(b)
		if !ok {
			t.Fatalf("case %d: decode failed", i)
		}
		if d.Kind != e.Kind || d.StartTS != e.StartTS || d.CommitTS != e.CommitTS || d.PrevLoc != e.PrevLoc {
			t.Fatalf("case %d: header mismatch: %+v vs %+v", i, d, e)
		}
		if !bytes.Equal(d.Primary, e.Primary) || !bytes.Equal(d.Value, e.Value) {
			t.Fatalf("case %d: payload mismatch", i)
		}
		if d.Committed() != (e.Kind == KindCommitPut || e.Kind == KindCommitDelete) {
			t.Fatalf("case %d: Committed() wrong", i)
		}
		if d.Intent() == d.Committed() {
			t.Fatalf("case %d: Intent/Committed not exclusive", i)
		}
	}
}

func TestEnvelopeDecodeRejectsGarbage(t *testing.T) {
	if _, ok := Decode(nil); ok {
		t.Fatal("decoded nil")
	}
	if _, ok := Decode(make([]byte, HeaderSize-1)); ok {
		t.Fatal("decoded short buffer")
	}
	b := AppendEncode(nil, &Envelope{Kind: KindCommitPut, StartTS: 1, CommitTS: 1, PrevLoc: NoLoc, Value: []byte("x")})
	b[0] = 0x7F
	if _, ok := Decode(b); ok {
		t.Fatal("decoded unknown kind")
	}
	// Primary length pointing past the buffer.
	b2 := AppendEncode(nil, &Envelope{Kind: KindIntentPut, StartTS: 1, PrevLoc: NoLoc, Primary: []byte("pp")})
	b2[25] = 0xFF
	b2[26] = 0xFF
	if _, ok := Decode(b2); ok {
		t.Fatal("decoded oversized primary length")
	}
}

func TestOracleMonotone(t *testing.T) {
	var o Oracle
	last := uint64(0)
	for _, now := range []env.Time{0, 0, 5, 5, 5, 3, 100} {
		ts := o.Next(now)
		if ts <= last {
			t.Fatalf("Next(%d) = %d not > %d", now, ts, last)
		}
		last = ts
	}
	if o.Last() != last {
		t.Fatalf("Last() = %d, want %d", o.Last(), last)
	}
	o.Observe(last + 50)
	if ts := o.Next(0); ts != last+51 {
		t.Fatalf("Next after Observe = %d, want %d", ts, last+51)
	}
	o.Observe(3) // lower than last: no effect
	if o.Last() != last+51 {
		t.Fatal("Observe lowered the floor")
	}
}

func TestKeyStateInsertKeepsOrder(t *testing.T) {
	ks := &KeyState{}
	for _, cts := range []uint64{10, 30, 20, 40, 25} {
		ks.Insert(Version{CommitTS: cts, StartTS: cts - 1, Loc: cts})
	}
	want := []uint64{40, 30, 25, 20, 10}
	for i, v := range ks.Versions {
		if v.CommitTS != want[i] {
			t.Fatalf("Versions[%d].CommitTS = %d, want %d", i, v.CommitTS, want[i])
		}
	}
	if v, ok := ks.VisibleAt(27); !ok || v.CommitTS != 25 {
		t.Fatalf("VisibleAt(27) = %+v, %v", v, ok)
	}
	if _, ok := ks.VisibleAt(5); ok {
		t.Fatal("VisibleAt(5) found a version")
	}
	if v, ok := ks.VersionAt(19); !ok || v.CommitTS != 20 {
		t.Fatalf("VersionAt(19) = %+v, %v", v, ok)
	}
	if _, ok := ks.VersionAt(999); ok {
		t.Fatal("VersionAt found a phantom")
	}
}

func TestTableBasics(t *testing.T) {
	tb := NewTable()
	if tb.Get([]byte("a")) != nil {
		t.Fatal("empty table returned state")
	}
	ks := tb.Ensure([]byte("a"))
	if ks == nil || tb.Ensure([]byte("a")) != ks {
		t.Fatal("Ensure not idempotent")
	}
	tb.Ensure([]byte("c"))
	tb.Ensure([]byte("b"))
	keys := tb.Keys(nil)
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "c" {
		t.Fatalf("Keys = %v", keys)
	}
	tb.Delete([]byte("b"))
	if tb.Len() != 2 || tb.Get([]byte("b")) != nil {
		t.Fatal("Delete failed")
	}
}

// TestTableWalkOrderAndRecycling checks At's order — insertion, with a
// deleted state's place taken by the last — and that a recycled state
// carries nothing of its previous key.
func TestTableWalkOrderAndRecycling(t *testing.T) {
	tb := NewTable()
	for _, k := range []string{"a", "b", "c", "d"} {
		tb.Ensure([]byte(k))
	}
	a := tb.Get([]byte("a"))
	a.SetLock(7, []byte("primary"), 3, false)
	a.Insert(Version{CommitTS: 5, Loc: 1})
	tb.Delete([]byte("d")) // the last state: nothing moves
	tb.Delete([]byte("a")) // "c", now the last, takes its place
	walk := func() (keys []string) {
		for i := 0; i < tb.Len(); i++ {
			keys = append(keys, string(tb.At(i).Key()))
		}
		return keys
	}
	if got := walk(); !slices.Equal(got, []string{"c", "b"}) {
		t.Fatalf("walk order after deletes = %q, want [c b]", got)
	}
	e := tb.Ensure([]byte("e"))
	if e != a {
		t.Fatal("Ensure did not recycle the last deleted state")
	}
	if e.Lock != nil || len(e.Versions) != 0 || string(e.Key()) != "e" {
		t.Fatalf("recycled state carries its past: lock %v, versions %v, key %q", e.Lock, e.Versions, e.Key())
	}
	if got := walk(); !slices.Equal(got, []string{"c", "b", "e"}) {
		t.Fatalf("walk order after Ensure = %q, want [c b e]", got)
	}
	if lk := e.SetLock(9, []byte("p"), 4, true); e.Lock != lk || string(lk.Primary) != "p" || lk.StartTS != 9 || lk.MaxReadTS != 0 {
		t.Fatalf("SetLock on a recycled state = %+v", lk)
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	a := MakeBackoff(42, 2*env.Microsecond, 64*env.Microsecond)
	b := MakeBackoff(42, 2*env.Microsecond, 64*env.Microsecond)
	other := MakeBackoff(43, 2*env.Microsecond, 64*env.Microsecond)
	same, diff := true, false
	for i := 0; i < 20; i++ {
		da, db, dc := a.Next(), b.Next(), other.Next()
		if da != db {
			same = false
		}
		if da != dc {
			diff = true
		}
		if da <= 0 || da > 64*env.Microsecond {
			t.Fatalf("step %d: delay %d out of (0, cap]", i, da)
		}
	}
	if !same {
		t.Fatal("same seed produced different sleep streams")
	}
	if !diff {
		t.Fatal("different seeds produced identical sleep streams")
	}
	if a.Attempts() != 20 {
		t.Fatalf("Attempts = %d", a.Attempts())
	}
	a.Reset()
	if a.Attempts() != 0 {
		t.Fatal("Reset did not clear attempts")
	}
	if d := a.Next(); d > 2*env.Microsecond {
		t.Fatalf("post-Reset delay %d did not restart the ramp", d)
	}
}

func BenchmarkEnvelopeEncodeDecode(b *testing.B) {
	e := Envelope{Kind: KindCommitPut, StartTS: 77, CommitTS: 99, PrevLoc: NoLoc, Value: make([]byte, 256)}
	buf := AppendEncode(nil, &e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendEncode(buf[:0], &e)
		if _, ok := Decode(buf); !ok {
			b.Fatal("decode failed")
		}
	}
}

// CommitIntent turns an intent into the committed envelope of the same
// operation at the new commit timestamp, every other byte unchanged, even
// when it is given only the envelope's header; it refuses a committed
// envelope and bytes too short for a header.
func TestCommitIntent(t *testing.T) {
	for _, tc := range []struct {
		e    Envelope
		want byte
	}{
		{Envelope{Kind: KindIntentPut, StartTS: 5, PrevLoc: NoLoc, Primary: []byte("pk"), Value: []byte("value")}, KindCommitPut},
		{Envelope{Kind: KindIntentDelete, StartTS: 6, PrevLoc: 3, Primary: []byte("primary")}, KindCommitDelete},
	} {
		for _, headOnly := range []bool{false, true} {
			b := AppendEncode(nil, &tc.e)
			orig := bytes.Clone(b)
			head := b
			if headOnly {
				head = b[:HeaderSize]
			}
			CommitIntent(head, 77)
			d, ok := Decode(b)
			if !ok || d.Kind != tc.want || d.CommitTS != 77 || d.StartTS != tc.e.StartTS || d.PrevLoc != tc.e.PrevLoc ||
				!bytes.Equal(d.Primary, tc.e.Primary) || !bytes.Equal(d.Value, tc.e.Value) {
				t.Fatalf("kind %#x: committed envelope decodes as %+v (ok %v)", tc.e.Kind, d, ok)
			}
			for i := range b {
				if b[i] != orig[i] && i != 0 && (i < 9 || i >= 17) {
					t.Fatalf("kind %#x: byte %d changed outside the kind and commit timestamp", tc.e.Kind, i)
				}
			}
		}
	}
	for name, b := range map[string][]byte{
		"committed": AppendEncode(nil, &Envelope{Kind: KindCommitPut, StartTS: 1, CommitTS: 2, PrevLoc: NoLoc}),
		"short":     AppendEncode(nil, &Envelope{Kind: KindIntentPut, StartTS: 1, PrevLoc: NoLoc})[:HeaderSize-1],
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CommitIntent accepted a %s envelope", name)
				}
			}()
			CommitIntent(b, 3)
		}()
	}
}

// FuzzMVCCDecode: Decode never panics on arbitrary bytes, and whenever it
// accepts them, re-encoding the envelope reproduces them exactly. An
// accepted intent, committed in place, decodes as the committed envelope of
// the same operation at the new commit timestamp with every other field
// unchanged. The corpus is AppendEncode output of every kind.
func FuzzMVCCDecode(f *testing.F) {
	for _, e := range []Envelope{
		{Kind: KindIntentPut, StartTS: 5, PrevLoc: NoLoc, Primary: []byte("pk"), Value: []byte("v")},
		{Kind: KindIntentDelete, StartTS: 6, PrevLoc: 3, Primary: []byte("primary")},
		{Kind: KindCommitPut, StartTS: 7, CommitTS: 9, PrevLoc: 1 << 40, Value: bytes.Repeat([]byte{'x'}, 300)},
		{Kind: KindCommitDelete, StartTS: 8, CommitTS: 10, PrevLoc: NoLoc},
	} {
		f.Add(AppendEncode(nil, &e))
	}
	f.Add([]byte{})
	f.Add([]byte{KindCommitPut})

	f.Fuzz(func(t *testing.T, b []byte) {
		e, ok := Decode(b)
		if !ok {
			return
		}
		if got := AppendEncode(nil, &e); !bytes.Equal(got, b) {
			t.Fatalf("Decode accepted %x, which re-encodes as %x", b, got)
		}
		if !e.Intent() {
			return
		}
		want := e
		want.Kind += KindCommitPut - KindIntentPut
		want.CommitTS = e.CommitTS ^ 0x5A5A
		c := bytes.Clone(b)
		CommitIntent(c, want.CommitTS)
		if got := AppendEncode(nil, &want); !bytes.Equal(got, c) {
			t.Fatalf("intent %x committed in place gives %x, want %x", b, c, got)
		}
	})
}
