package betree

import (
	"bytes"
	"math/rand"
	"testing"

	"kvell/internal/env"
	"kvell/internal/kv"
)

func TestScanAcrossGroupBoundaries(t *testing.T) {
	harness(t, nil, func(c env.Ctx, d *DB) {
		const n, from, count = 6000, 100, 5000
		r := rand.New(rand.NewSource(4))
		for _, i := range r.Perm(n) {
			d.Put(c, kv.Key(int64(i)), kv.Value(int64(i), 1, 400))
		}
		inside := 0
		for _, g := range d.groups[1:] {
			if bytes.Compare(g.firstKey, kv.Key(from)) > 0 && bytes.Compare(g.firstKey, kv.Key(from+count-1)) <= 0 {
				inside++
			}
		}
		if inside < 2 {
			t.Fatalf("%d group boundaries inside the scanned range, want at least 2", inside)
		}
		// A scan spanning several groups must stay ordered and complete.
		items := d.Scan(c, kv.Key(from), count)
		if len(items) != count {
			t.Fatalf("scan returned %d", len(items))
		}
		for j, it := range items {
			if !bytes.Equal(it.Key, kv.Key(from+int64(j))) {
				t.Fatalf("scan[%d] = %q", j, it.Key)
			}
		}
	})
}

func TestScanTrailingBufferedKeys(t *testing.T) {
	harness(t, nil, func(c env.Ctx, d *DB) {
		loaded := make([]kv.Item, 50)
		for i := range loaded {
			loaded[i] = kv.Item{Key: kv.Key(int64(i)), Value: kv.Value(int64(i), 1, 300)}
		}
		if err := d.BulkLoad(loaded); err != nil {
			t.Fatal(err)
		}
		// Keys beyond every leaf entry, still in the root buffer.
		d.Put(c, kv.Key(900), kv.Value(900, 1, 300))
		d.Put(c, kv.Key(901), kv.Value(901, 1, 300))
		items := d.Scan(c, kv.Key(45), 10)
		want := []int64{45, 46, 47, 48, 49, 900, 901}
		if len(items) != len(want) {
			t.Fatalf("scan returned %d items, want %d", len(items), len(want))
		}
		for j, it := range items {
			if !bytes.Equal(it.Key, kv.Key(want[j])) {
				t.Fatalf("scan[%d] = %q want key %d", j, it.Key, want[j])
			}
		}
	})
}
