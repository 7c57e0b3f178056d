package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func key(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }

func TestPutGet(t *testing.T) {
	tr := New()
	for i := 0; i < 10_000; i++ {
		if !tr.Put(key(i), uint64(i)) {
			t.Fatalf("Put(%d) reported replace on fresh key", i)
		}
	}
	if tr.Len() != 10_000 {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := 0; i < 10_000; i++ {
		v, ok := tr.Get(key(i))
		if !ok || v != uint64(i) {
			t.Fatalf("Get(%d) = %d, %v", i, v, ok)
		}
	}
	if _, ok := tr.Get([]byte("missing")); ok {
		t.Fatal("found missing key")
	}
}

func TestPutReplaces(t *testing.T) {
	tr := New()
	tr.Put([]byte("k"), 1)
	if tr.Put([]byte("k"), 2) {
		t.Fatal("replace reported as insert")
	}
	if v, _ := tr.Get([]byte("k")); v != 2 {
		t.Fatalf("v = %d", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("len = %d", tr.Len())
	}
}

func TestKeyBytesCopied(t *testing.T) {
	tr := New()
	k := []byte("abc")
	tr.Put(k, 1)
	k[0] = 'z'
	if _, ok := tr.Get([]byte("abc")); !ok {
		t.Fatal("mutating caller's key corrupted the tree")
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i++ {
		tr.Put(key(i), uint64(i))
	}
	for i := 0; i < 1000; i += 2 {
		if !tr.Delete(key(i)) {
			t.Fatalf("Delete(%d) = false", i)
		}
	}
	if tr.Delete(key(0)) {
		t.Fatal("double delete succeeded")
	}
	if tr.Len() != 500 {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := 0; i < 1000; i++ {
		_, ok := tr.Get(key(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%d) present=%v, want %v", i, ok, want)
		}
	}
}

func TestRandomOrderInsertSortedIteration(t *testing.T) {
	tr := New()
	r := rand.New(rand.NewSource(1))
	perm := r.Perm(5000)
	for _, i := range perm {
		tr.Put(key(i), uint64(i))
	}
	var got []int
	tr.AscendFrom(nil, func(k []byte, v uint64) bool {
		got = append(got, int(v))
		return true
	})
	if len(got) != 5000 {
		t.Fatalf("iterated %d keys", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("iteration out of order at %d: %d", i, v)
		}
	}
}

func TestRangeBounds(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Put(key(i), uint64(i))
	}
	var got []int
	tr.Range(key(10), key(20), func(k []byte, v uint64) bool {
		got = append(got, int(v))
		return true
	})
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("range [10,20) = %v", got)
	}
	// Start between keys.
	got = nil
	tr.Range([]byte("key-00000010x"), key(13), func(k []byte, v uint64) bool {
		got = append(got, int(v))
		return true
	})
	if len(got) != 2 || got[0] != 11 {
		t.Fatalf("range from between-keys = %v", got)
	}
}

func TestFirstN(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Put(key(i), uint64(i))
	}
	keys, vals := tr.FirstN(key(90), 50, nil, nil)
	if len(keys) != 10 || len(vals) != 10 {
		t.Fatalf("FirstN near end returned %d", len(keys))
	}
	keys, vals = tr.FirstN(key(5), 3, keys[:0], vals[:0])
	if len(keys) != 3 || !bytes.Equal(keys[0], key(5)) || vals[2] != 7 {
		t.Fatalf("FirstN = %q %v", keys, vals)
	}
	// It appends: what the buffers already hold stays in front.
	keys, vals = tr.FirstN(key(50), 2, keys, vals)
	if len(keys) != 5 || !bytes.Equal(keys[0], key(5)) || !bytes.Equal(keys[4], key(51)) || vals[4] != 51 {
		t.Fatalf("FirstN appending = %q %v", keys, vals)
	}
}

func TestDepthGrowsLogarithmically(t *testing.T) {
	tr := New()
	for i := 0; i < 200_000; i++ {
		tr.Put(key(i), uint64(i))
	}
	if tr.Depth() < 3 || tr.Depth() > 5 {
		t.Fatalf("depth = %d for 200K keys (fanout %d)", tr.Depth(), maxKeys)
	}
}

func TestMemBytesScalesWithItems(t *testing.T) {
	tr := New()
	for i := 0; i < 10_000; i++ {
		tr.Put(key(i), uint64(i))
	}
	per := tr.MemBytes() / int64(tr.Len())
	// 12B keys + ~19B structure overhead.
	if per < 20 || per > 64 {
		t.Fatalf("bytes/item = %d, want ~31", per)
	}
}

func TestMinSkipsEmptiedLeaves(t *testing.T) {
	tr := New()
	for i := 0; i < 500; i++ {
		tr.Put(key(i), uint64(i))
	}
	for i := 0; i < 200; i++ {
		tr.Delete(key(i))
	}
	if m := tr.Min(); !bytes.Equal(m, key(200)) {
		t.Fatalf("Min = %q, want %q", m, key(200))
	}
	tr2 := New()
	if tr2.Min() != nil {
		t.Fatal("Min of empty tree should be nil")
	}
}

// TestOracleProperty drives the tree with random Put/Delete/Get/Range
// against a map+sort oracle.
func TestOracleProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := New()
		oracle := map[string]uint64{}
		for op := 0; op < 3000; op++ {
			k := key(r.Intn(800))
			switch r.Intn(10) {
			case 0, 1, 2, 3, 4: // put
				v := r.Uint64()
				tr.Put(k, v)
				oracle[string(k)] = v
			case 5: // delete
				got := tr.Delete(k)
				_, want := oracle[string(k)]
				if got != want {
					return false
				}
				delete(oracle, string(k))
			default: // get
				v, ok := tr.Get(k)
				wv, wok := oracle[string(k)]
				if ok != wok || (ok && v != wv) {
					return false
				}
			}
		}
		if tr.Len() != len(oracle) {
			return false
		}
		// Full iteration must equal the sorted oracle.
		var wantKeys []string
		for k := range oracle {
			wantKeys = append(wantKeys, k)
		}
		sort.Strings(wantKeys)
		i := 0
		good := true
		tr.AscendFrom(nil, func(k []byte, v uint64) bool {
			if i >= len(wantKeys) || string(k) != wantKeys[i] || v != oracle[wantKeys[i]] {
				good = false
				return false
			}
			i++
			return true
		})
		return good && i == len(wantKeys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestUint64KeyEncoding checks the big-endian encoding used by the page
// cache preserves numeric order.
func TestUint64KeyEncoding(t *testing.T) {
	tr := New()
	var k [8]byte
	vals := []uint64{0, 1, 255, 256, 1 << 20, 1<<40 + 3, ^uint64(0)}
	for _, v := range vals {
		binary.BigEndian.PutUint64(k[:], v)
		tr.Put(k[:], v)
	}
	var got []uint64
	tr.AscendFrom(nil, func(_ []byte, v uint64) bool { got = append(got, v); return true })
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("order broken: %v", got)
		}
	}
}

func BenchmarkTreePut(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Put(key(i), uint64(i))
	}
}

func BenchmarkTreeGet(b *testing.B) {
	tr := New()
	for i := 0; i < 1_000_000; i++ {
		tr.Put(key(i), uint64(i))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Get(key(i % 1_000_000))
	}
}
