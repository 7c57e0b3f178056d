package betree

import (
	"bytes"
	"testing"

	"kvell/internal/env"
	"kvell/internal/kv"
)

func TestScanAcrossGroupBoundaries(t *testing.T) {
	harness(t, func(cfg *Config) { cfg.SplitSpan = 6 }, func(c env.Ctx, d *DB) {
		for i := int64(0); i < 1500; i++ {
			d.Put(c, kv.Key(i), kv.Value(i, 1, 400))
		}
		if len(d.groups) < 3 {
			t.Skipf("groups did not split (%d); adjust workload", len(d.groups))
		}
		// A scan spanning several groups must stay ordered and complete.
		items := d.Scan(c, kv.Key(100), 800)
		if len(items) != 800 {
			t.Fatalf("scan returned %d", len(items))
		}
		for j, it := range items {
			if !bytes.Equal(it.Key, kv.Key(100+int64(j))) {
				t.Fatalf("scan[%d] = %q", j, it.Key)
			}
		}
	})
}

func TestScanTrailingBufferedKeys(t *testing.T) {
	harness(t, nil, func(c env.Ctx, d *DB) {
		for i := int64(0); i < 50; i++ {
			d.Put(c, kv.Key(i), kv.Value(i, 1, 300))
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
