package wtree

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/sim"
	"kvell/internal/walog"
)

func harness(t *testing.T, tweak func(*Config), fn func(c env.Ctx, d *DB)) *DB {
	t.Helper()
	s := sim.New(1)
	e := sim.NewEnv(s, 8)
	disk := device.NewSimDisk(s, device.Optane(), nil)
	cfg := DefaultConfig(disk)
	cfg.CacheBytes = 256 << 10 // small, to exercise eviction
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

func TestPutGetDelete(t *testing.T) {
	harness(t, nil, func(c env.Ctx, d *DB) {
		for i := int64(0); i < 600; i++ {
			d.Put(c, kv.Key(i), kv.Value(i, 1, 500))
		}
		for i := int64(0); i < 600; i++ {
			v, ok := d.Get(c, kv.Key(i))
			if !ok || !bytes.Equal(v, kv.Value(i, 1, 500)) {
				t.Fatalf("Get(%d) ok=%v", i, ok)
			}
		}
		if !d.Delete(c, kv.Key(9)) {
			t.Fatal("delete failed")
		}
		if _, ok := d.Get(c, kv.Key(9)); ok {
			t.Fatal("deleted key visible")
		}
		if d.Delete(c, kv.Key(9)) {
			t.Fatal("double delete")
		}
	})
}

func TestLeafSplitsKeepOrder(t *testing.T) {
	d := harness(t, nil, func(c env.Ctx, d *DB) {
		r := rand.New(rand.NewSource(3))
		for _, i := range r.Perm(2000) {
			d.Put(c, kv.Key(int64(i)), kv.Value(int64(i), 1, 400))
		}
		items := d.Scan(c, kv.Key(0), 2000)
		if len(items) != 2000 {
			t.Fatalf("scan returned %d", len(items))
		}
		for j, it := range items {
			if !bytes.Equal(it.Key, kv.Key(int64(j))) {
				t.Fatalf("scan[%d] = %q", j, it.Key)
			}
		}
	})
	if n := len(d.t.Leaves); n < 100 {
		t.Fatalf("only %d leaves after 2000 ~400B inserts; splits broken", n)
	}
	// Leaf table must be sorted with the leftmost leaf owning -inf.
	if err := d.t.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestEvictionAndReload(t *testing.T) {
	d := harness(t, func(cfg *Config) { cfg.CacheBytes = 64 << 10 }, func(c env.Ctx, d *DB) {
		// Data far exceeds the cache; leaves must round-trip disk.
		for i := int64(0); i < 1500; i++ {
			d.Put(c, kv.Key(i), kv.Value(i, 1, 600))
		}
		for i := int64(0); i < 1500; i += 7 {
			v, ok := d.Get(c, kv.Key(i))
			if !ok || !bytes.Equal(v, kv.Value(i, 1, 600)) {
				t.Fatalf("Get(%d) after eviction pressure ok=%v", i, ok)
			}
		}
	})
	if d.stats.CacheMisses == 0 {
		t.Fatal("no cache misses despite tiny cache")
	}
	if d.stats.EvictedLeaves == 0 {
		t.Fatal("eviction thread never ran")
	}
	if d.t.CachedBytes() > d.cfg.CacheBytes*2 {
		t.Fatalf("resident bytes %d far above budget %d", d.t.CachedBytes(), d.cfg.CacheBytes)
	}
}

func TestUpdatesSurviveEvictionRoundTrip(t *testing.T) {
	harness(t, func(cfg *Config) { cfg.CacheBytes = 32 << 10 }, func(c env.Ctx, d *DB) {
		for i := int64(0); i < 400; i++ {
			d.Put(c, kv.Key(i), kv.Value(i, 1, 600))
		}
		for i := int64(0); i < 400; i++ {
			d.Put(c, kv.Key(i), kv.Value(i, 2, 600))
		}
		// Push everything through the cache multiple times.
		for i := int64(400); i < 1200; i++ {
			d.Put(c, kv.Key(i), kv.Value(i, 1, 600))
		}
		for i := int64(0); i < 400; i += 11 {
			v, ok := d.Get(c, kv.Key(i))
			if !ok || !bytes.Equal(v, kv.Value(i, 2, 600)) {
				t.Fatalf("updated key %d lost its new value", i)
			}
		}
	})
}

// TestLogSlotContention: many concurrent writers produce slot writes and
// spin time, and LogSlotWrites counts chunks: one per slot the log wrote,
// each holding at least LogSlotBytes of payload, with fewer than a slot's
// worth of records left in the open slot.
func TestLogSlotContention(t *testing.T) {
	s := sim.New(1)
	e := sim.NewEnv(s, 8)
	disk := device.NewSimDisk(s, device.Optane(), nil)
	cfg := DefaultConfig(disk)
	d := New(e, cfg)
	d.Start()
	const writers, puts, valueLen = 16, 300, 900
	doneCount := 0
	for w := 0; w < writers; w++ {
		w := w
		e.Go("writer", func(c env.Ctx) {
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < puts; i++ {
				k := int64(r.Intn(5000))
				d.Put(c, kv.Key(k), kv.Value(k, 1, valueLen))
			}
			doneCount++
			if doneCount == writers {
				d.Stop(c)
			}
		})
	}
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if d.stats.LogSpinTime == 0 {
		t.Fatal("no busy-wait time recorded — contention model dead")
	}

	st := disk.Store()
	hdr := make([]byte, device.PageSize)
	var chunks, records int64
	for page := int64(0); ; {
		if err := st.ReadPages(page, hdr); err != nil {
			t.Fatal(err)
		}
		if binary.LittleEndian.Uint64(hdr[0:8]) != walog.Magic {
			break
		}
		payload := int(binary.LittleEndian.Uint32(hdr[8:12]))
		if payload < int(cfg.LogSlotBytes) {
			t.Fatalf("chunk at page %d carries %d bytes, below the %d-byte slot", page, payload, cfg.LogSlotBytes)
		}
		chunks++
		records += int64(binary.LittleEndian.Uint32(hdr[12:16]))
		page += walog.ChunkPages(payload)
	}
	if chunks == 0 || d.stats.LogSlotWrites != chunks {
		t.Fatalf("LogSlotWrites = %d, the log holds %d chunks", d.stats.LogSlotWrites, chunks)
	}
	rec := int64(walog.RecordHeader + kv.KeyLen + valueLen)
	if open := writers*puts - records; open < 0 || open*rec >= cfg.LogSlotBytes {
		t.Fatalf("%d records acknowledged outside every chunk; an open slot holds at most %d", open, cfg.LogSlotBytes/rec)
	}
}

func TestWriteStallsUnderDirtyPressure(t *testing.T) {
	d := harness(t, func(cfg *Config) {
		cfg.CacheBytes = 16 << 10
	}, func(c env.Ctx, d *DB) {
		for i := int64(0); i < 2000; i++ {
			d.Put(c, kv.Key(i%100), kv.Value(i, uint64(i), 900))
		}
	})
	if d.stats.WriteStalls == 0 {
		t.Fatal("no write stalls despite tiny dirty budget")
	}
}

func TestBulkLoadReadbackAndScan(t *testing.T) {
	items := make([]kv.Item, 3000)
	for i := range items {
		items[i] = kv.Item{Key: kv.Key(int64(i)), Value: kv.Value(int64(i), 0, 700)}
	}
	harness(t, nil, func(c env.Ctx, d *DB) {
		if err := d.BulkLoad(items); err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 3000; i += 101 {
			v, ok := d.Get(c, kv.Key(i))
			if !ok || !bytes.Equal(v, kv.Value(i, 0, 700)) {
				t.Fatalf("Get(%d) after bulk load ok=%v", i, ok)
			}
		}
		got := d.Scan(c, kv.Key(1234), 40)
		if len(got) != 40 || !bytes.Equal(got[0].Key, kv.Key(1234)) {
			t.Fatalf("scan after bulk load: %d items", len(got))
		}
		// Mutations after bulk load.
		d.Put(c, kv.Key(1234), kv.Value(1234, 5, 700))
		v, _ := d.Get(c, kv.Key(1234))
		if !bytes.Equal(v, kv.Value(1234, 5, 700)) {
			t.Fatal("update after bulk load lost")
		}
	})
}

func TestLargeValues(t *testing.T) {
	harness(t, nil, func(c env.Ctx, d *DB) {
		big := kv.Value(1, 1, 20_000)
		d.Put(c, kv.Key(1), big)
		for i := int64(10); i < 400; i++ {
			d.Put(c, kv.Key(i), kv.Value(i, 1, 500))
		}
		v, ok := d.Get(c, kv.Key(1))
		if !ok || !bytes.Equal(v, big) {
			t.Fatal("large value corrupted")
		}
	})
}

func TestOracleRandomized(t *testing.T) {
	d := harness(t, func(cfg *Config) { cfg.CacheBytes = 48 << 10 }, func(c env.Ctx, d *DB) {
		r := rand.New(rand.NewSource(11))
		oracle := map[int64]uint64{}
		var ver uint64
		for op := 0; op < 5000; op++ {
			i := int64(r.Intn(400))
			switch r.Intn(8) {
			case 0:
				d.Delete(c, kv.Key(i))
				delete(oracle, i)
			case 1, 2, 3, 4:
				ver++
				d.Put(c, kv.Key(i), kv.Value(i, ver, 500))
				oracle[i] = ver
			default:
				v, ok := d.Get(c, kv.Key(i))
				wv, wok := oracle[i]
				if ok != wok || (ok && !bytes.Equal(v, kv.Value(i, wv, 500))) {
					t.Fatalf("op %d key %d: ok=%v want %v", op, i, ok, wok)
				}
			}
		}
	})
	if err := d.t.Check(); err != nil {
		t.Fatalf("leaf accounting after the run: %v", err)
	}
}
