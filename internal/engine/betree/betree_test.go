package betree

import (
	"bytes"
	"math/rand"
	"testing"

	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/sim"
)

func harness(t *testing.T, tweak func(*Config), fn func(c env.Ctx, d *DB)) *DB {
	t.Helper()
	s := sim.New(1)
	e := sim.NewEnv(s, 8)
	disk := device.NewSimDisk(s, device.Optane(), nil)
	cfg := DefaultConfig(disk)
	cfg.CacheBytes = 256 << 10
	if tweak != nil {
		tweak(&cfg)
	}
	d := New(e, cfg)
	d.Start()
	e.Go("client", func(c env.Ctx) {
		fn(c, d)
		d.Stop(c)
	})
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return d
}

// buffered reports whether key has a message in the root buffer or in its
// group's buffer.
func buffered(d *DB, key []byte) bool {
	_, inRoot := findMsg(d.rootMsgs, key)
	_, inGroup := findMsg(d.groups[d.findGroup(key)].msgs, key)
	return inRoot || inGroup
}

func TestPutGetThroughBuffers(t *testing.T) {
	d := harness(t, nil, func(c env.Ctx, d *DB) {
		for i := int64(0); i < 800; i++ {
			d.Put(c, kv.Key(i), kv.Value(i, 1, 400))
		}
		// Reads must see values regardless of where they sit (root
		// buffer, group buffer, or leaf).
		for i := int64(0); i < 800; i++ {
			v, ok := d.Get(c, kv.Key(i))
			if !ok || !bytes.Equal(v, kv.Value(i, 1, 400)) {
				t.Fatalf("Get(%d) ok=%v", i, ok)
			}
		}
	})
	if d.stats.RootFlushes == 0 {
		t.Fatal("root buffer never flushed")
	}
	if d.stats.BufferMovedBytes == 0 {
		t.Fatal("no buffer movement accounted")
	}
}

func TestNewestWinsAcrossLevels(t *testing.T) {
	harness(t, nil, func(c env.Ctx, d *DB) {
		k := kv.Key(5)
		// Version 1 driven all the way to the leaf by subsequent traffic.
		d.Put(c, k, kv.Value(5, 1, 300))
		for i := int64(100); i < 1100; i++ {
			d.Put(c, kv.Key(i), kv.Value(i, 1, 300))
		}
		if buffered(d, k) {
			t.Fatal("version 1 is still buffered")
		}
		// Version 2 still in an upper buffer.
		d.Put(c, k, kv.Value(5, 2, 300))
		v, ok := d.Get(c, k)
		if !ok || !bytes.Equal(v, kv.Value(5, 2, 300)) {
			t.Fatal("read did not return newest buffered version")
		}
	})
}

func TestDeleteMessages(t *testing.T) {
	harness(t, nil, func(c env.Ctx, d *DB) {
		for i := int64(0); i < 300; i++ {
			d.Put(c, kv.Key(i), kv.Value(i, 1, 300))
		}
		d.Delete(c, kv.Key(7))
		if _, ok := d.Get(c, kv.Key(7)); ok {
			t.Fatal("deleted key visible (buffered delete)")
		}
		// Push the delete down with more traffic.
		for i := int64(300); i < 1300; i++ {
			d.Put(c, kv.Key(i), kv.Value(i, 1, 300))
		}
		if buffered(d, kv.Key(7)) {
			t.Fatal("the delete is still buffered")
		}
		if _, ok := d.Get(c, kv.Key(7)); ok {
			t.Fatal("deleted key resurrected after flush-down")
		}
	})
}

func TestScanMergesBuffersAndLeaves(t *testing.T) {
	harness(t, nil, func(c env.Ctx, d *DB) {
		for i := int64(0); i < 1000; i++ {
			d.Put(c, kv.Key(i), kv.Value(i, 1, 400))
		}
		if buffered(d, kv.Key(118)) {
			t.Fatal("the scanned keys are still buffered")
		}
		// Fresh overwrites still buffered.
		d.Put(c, kv.Key(120), kv.Value(120, 2, 400))
		d.Delete(c, kv.Key(121))
		items := d.Scan(c, kv.Key(118), 6)
		if len(items) != 6 {
			t.Fatalf("scan returned %d", len(items))
		}
		want := []int64{118, 119, 120, 122, 123, 124}
		for j, it := range items {
			if !bytes.Equal(it.Key, kv.Key(want[j])) {
				t.Fatalf("scan[%d] = %q, want key %d", j, it.Key, want[j])
			}
		}
		if !bytes.Equal(items[2].Value, kv.Value(120, 2, 400)) {
			t.Fatal("scan returned stale buffered value")
		}
	})
}

func TestGroupSplitsKeepCorrectness(t *testing.T) {
	d := harness(t, nil, func(c env.Ctx, d *DB) {
		r := rand.New(rand.NewSource(4))
		for _, i := range r.Perm(6000) {
			d.Put(c, kv.Key(int64(i)), kv.Value(int64(i), 1, 400))
		}
		for i := int64(0); i < 6000; i += 41 {
			v, ok := d.Get(c, kv.Key(i))
			if !ok || !bytes.Equal(v, kv.Value(i, 1, 400)) {
				t.Fatalf("Get(%d) ok=%v", i, ok)
			}
		}
	})
	if len(d.groups) < 3 {
		t.Fatalf("groups never split: %d", len(d.groups))
	}
	for i := 2; i < len(d.groups); i++ {
		if bytes.Compare(d.groups[i-1].firstKey, d.groups[i].firstKey) >= 0 {
			t.Fatal("group table out of order")
		}
	}
}

func TestBulkLoadAndEviction(t *testing.T) {
	items := make([]kv.Item, 2500)
	for i := range items {
		items[i] = kv.Item{Key: kv.Key(int64(i)), Value: kv.Value(int64(i), 0, 600)}
	}
	d := harness(t, func(cfg *Config) { cfg.CacheBytes = 64 << 10 }, func(c env.Ctx, d *DB) {
		if err := d.BulkLoad(items); err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 2500; i += 59 {
			v, ok := d.Get(c, kv.Key(i))
			if !ok || !bytes.Equal(v, kv.Value(i, 0, 600)) {
				t.Fatalf("Get(%d) after bulk load ok=%v", i, ok)
			}
		}
		got := d.Scan(c, kv.Key(700), 30)
		if len(got) != 30 || !bytes.Equal(got[0].Key, kv.Key(700)) {
			t.Fatalf("scan after bulk load: %d items", len(got))
		}
	})
	if d.stats.CacheMisses == 0 {
		t.Fatal("no leaf reads despite tiny cache")
	}
}

func TestOracleRandomized(t *testing.T) {
	d := harness(t, func(cfg *Config) { cfg.CacheBytes = 96 << 10 }, func(c env.Ctx, d *DB) {
		r := rand.New(rand.NewSource(21))
		oracle := map[int64]uint64{}
		var ver uint64
		for op := 0; op < 6000; op++ {
			i := int64(r.Intn(350))
			switch r.Intn(8) {
			case 0:
				d.Delete(c, kv.Key(i))
				delete(oracle, i)
			case 1, 2, 3, 4:
				ver++
				d.Put(c, kv.Key(i), kv.Value(i, ver, 450))
				oracle[i] = ver
			default:
				v, ok := d.Get(c, kv.Key(i))
				wv, wok := oracle[i]
				if ok != wok || (ok && !bytes.Equal(v, kv.Value(i, wv, 450))) {
					t.Fatalf("op %d key %d: ok=%v want %v", op, i, ok, wok)
				}
			}
		}
		for i, wv := range oracle {
			v, ok := d.Get(c, kv.Key(i))
			if !ok || !bytes.Equal(v, kv.Value(i, wv, 450)) {
				t.Fatalf("final key %d ok=%v", i, ok)
			}
		}
	})
	if err := d.t.Check(); err != nil {
		t.Fatalf("leaf accounting after the run: %v", err)
	}
}

func TestSpinLockContentionAccounted(t *testing.T) {
	s := sim.New(1)
	e := sim.NewEnv(s, 8)
	disk := device.NewSimDisk(s, device.Optane(), nil)
	cfg := DefaultConfig(disk)
	d := New(e, cfg)
	d.Start()
	done := 0
	for w := 0; w < 8; w++ {
		w := w
		e.Go("writer", func(c env.Ctx) {
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 400; i++ {
				k := int64(r.Intn(3000))
				d.Put(c, kv.Key(k), kv.Value(k, 1, 500))
			}
			done++
			if done == 8 {
				d.Stop(c)
			}
		})
	}
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// The spin lock is sim-internal; verify via its counters.
	sm := d.treeMu.(interface{ Unlock(env.Ctx) })
	_ = sm
	if d.stats.GroupFlushes == 0 {
		t.Fatal("group buffers never flushed under load")
	}
}
