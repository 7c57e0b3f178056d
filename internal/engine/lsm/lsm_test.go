package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/sim"
	"kvell/internal/trace"
	"kvell/internal/walog"
)

// harness runs fn as a client against a fresh LSM DB in a simulation.
func harness(t *testing.T, frag bool, tweak func(*Config), fn func(c env.Ctx, d *DB)) *DB {
	t.Helper()
	s := sim.New(1)
	e := sim.NewEnv(s, 8)
	disk := device.NewSimDisk(s, device.Optane(), nil)
	cfg := DefaultConfig(disk)
	cfg.Fragmented = frag
	// Small components so compactions/flushes happen in-test.
	cfg.MemtableBytes = 64 << 10
	cfg.BaseLevelBytes = 256 << 10
	cfg.TableTargetBytes = 64 << 10
	cfg.BlockCacheBytes = 1 << 20
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

func TestPutGet(t *testing.T) {
	harness(t, false, nil, func(c env.Ctx, d *DB) {
		for i := int64(0); i < 500; i++ {
			d.Put(c, kv.Key(i), kv.Value(i, 1, 500))
		}
		for i := int64(0); i < 500; i++ {
			v, ok := d.Get(c, kv.Key(i))
			if !ok || !bytes.Equal(v, kv.Value(i, 1, 500)) {
				t.Fatalf("Get(%d) ok=%v", i, ok)
			}
		}
		if _, ok := d.Get(c, []byte("missing")); ok {
			t.Fatal("found missing key")
		}
	})
}

func TestOverwriteAndDeleteAcrossFlushes(t *testing.T) {
	d := harness(t, false, nil, func(c env.Ctx, d *DB) {
		val := func(i int64, ver uint64) []byte { return kv.Value(i, ver, 800) }
		for round := uint64(1); round <= 4; round++ {
			for i := int64(0); i < 300; i++ {
				d.Put(c, kv.Key(i), val(i, round))
			}
		}
		for i := int64(0); i < 300; i += 2 {
			d.Delete(c, kv.Key(i))
		}
		// Force more flushes so deletes reach tables.
		for i := int64(1000); i < 1300; i++ {
			d.Put(c, kv.Key(i), val(i, 1))
		}
		for i := int64(0); i < 300; i++ {
			v, ok := d.Get(c, kv.Key(i))
			if i%2 == 0 {
				if ok {
					t.Fatalf("deleted key %d still visible", i)
				}
				continue
			}
			if !ok || !bytes.Equal(v, val(i, 4)) {
				t.Fatalf("key %d: ok=%v (want round-4 value)", i, ok)
			}
		}
	})
	if d.stats.Flushes == 0 {
		t.Fatal("test never flushed; sizes too large")
	}
	if d.stats.Compactions == 0 {
		t.Fatal("test never compacted")
	}
}

func TestScanMergesAllSources(t *testing.T) {
	harness(t, false, nil, func(c env.Ctx, d *DB) {
		for i := int64(0); i < 400; i++ {
			d.Put(c, kv.Key(i), kv.Value(i, 1, 700))
		}
		// Overwrite a band (newer versions in memtable/L0).
		for i := int64(100); i < 120; i++ {
			d.Put(c, kv.Key(i), kv.Value(i, 2, 700))
		}
		d.Delete(c, kv.Key(105))
		items := d.Scan(c, kv.Key(95), 20)
		if len(items) != 20 {
			t.Fatalf("scan returned %d items", len(items))
		}
		want := int64(95)
		for _, it := range items {
			if want == 105 {
				want++ // deleted
			}
			if !bytes.Equal(it.Key, kv.Key(want)) {
				t.Fatalf("scan got %q, want %q", it.Key, kv.Key(want))
			}
			ver := uint64(1)
			if want >= 100 && want < 120 {
				ver = 2
			}
			if !bytes.Equal(it.Value, kv.Value(want, ver, 700)) {
				t.Fatalf("scan value for %d stale (want ver %d)", want, ver)
			}
			want++
		}
	})
}

func TestBulkLoadReadback(t *testing.T) {
	items := make([]kv.Item, 3000)
	for i := range items {
		items[i] = kv.Item{Key: kv.Key(int64(i)), Value: kv.Value(int64(i), 0, 900)}
	}
	harness(t, false, func(cfg *Config) {}, func(c env.Ctx, d *DB) {
		if err := d.BulkLoad(items); err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 3000; i += 37 {
			v, ok := d.Get(c, kv.Key(i))
			if !ok || !bytes.Equal(v, kv.Value(i, 0, 900)) {
				t.Fatalf("Get(%d) after bulk load: ok=%v", i, ok)
			}
		}
		got := d.Scan(c, kv.Key(500), 100)
		if len(got) != 100 || !bytes.Equal(got[0].Key, kv.Key(500)) {
			t.Fatalf("scan after bulk load: %d items", len(got))
		}
	})
}

func TestFragmentedModeCorrectAndCheaper(t *testing.T) {
	run := func(frag bool) *DB {
		return harness(t, frag, nil, func(c env.Ctx, d *DB) {
			// Distinct keys in random order: leveled compaction must
			// repeatedly rewrite overlapping target tables, fragmented
			// mode only re-partitions what moves down.
			r := rand.New(rand.NewSource(5))
			perm := r.Perm(6000)
			for _, i := range perm {
				d.Put(c, kv.Key(int64(i)), kv.Value(int64(i), 1, 700))
			}
		})
	}
	leveled := run(false)
	frag := run(true)
	if frag.stats.Compactions == 0 {
		t.Fatal("fragmented mode never compacted")
	}
	// PebblesDB's point: less compaction I/O for the same ingest.
	if frag.stats.CompactionBytesWritten >= leveled.stats.CompactionBytesWritten {
		t.Fatalf("fragmented compaction wrote %d bytes, leveled %d; expected less",
			frag.stats.CompactionBytesWritten, leveled.stats.CompactionBytesWritten)
	}
}

func TestFragmentedCorrectness(t *testing.T) {
	harness(t, true, nil, func(c env.Ctx, d *DB) {
		r := rand.New(rand.NewSource(9))
		oracle := map[int64]uint64{}
		var ver uint64
		for op := 0; op < 5000; op++ {
			i := int64(r.Intn(300))
			if r.Intn(4) == 0 {
				v, ok := d.Get(c, kv.Key(i))
				wv, wok := oracle[i]
				if ok != wok {
					t.Fatalf("op %d: present=%v want %v", op, ok, wok)
				}
				if ok && !bytes.Equal(v, kv.Value(i, wv, 700)) {
					t.Fatalf("op %d: stale value for %d", op, i)
				}
			} else {
				ver++
				d.Put(c, kv.Key(i), kv.Value(i, ver, 700))
				oracle[i] = ver
			}
		}
		for i, wv := range oracle {
			v, ok := d.Get(c, kv.Key(i))
			if !ok || !bytes.Equal(v, kv.Value(i, wv, 700)) {
				t.Fatalf("final: key %d ok=%v", i, ok)
			}
		}
	})
}

// TestWriteStallsHappenUnderPressure drives eight concurrent writers with a
// tiny memtable: their slowdown sleeps overlap, so flushes outpace the L0
// compaction and L0 reaches the hard stall trigger.
func TestWriteStallsHappenUnderPressure(t *testing.T) {
	const writers, puts = 8, 500
	peakL0 := 0
	d := harness(t, false, func(cfg *Config) {
		cfg.MemtableBytes = 16 << 10
	}, func(c env.Ctx, d *DB) {
		done := 0
		for w := int64(0); w < writers; w++ {
			d.env.Go("writer", func(c env.Ctx) {
				for i := int64(0); i < puts; i++ {
					k := w*puts + i
					d.Put(c, kv.Key(k%2000), kv.Value(k, uint64(k), 900))
				}
				done++
			})
		}
		for done < writers {
			c.Sleep(100 * env.Microsecond)
			peakL0 = max(peakL0, d.l0Count())
		}
	})
	if d.stats.WriteStalls == 0 {
		t.Fatal("no write stalls under heavy ingest — stall machinery dead")
	}
	if d.stats.StallTime == 0 {
		t.Fatal("stall time not accounted")
	}
	if peakL0 < l0StallTrigger {
		t.Fatalf("L0 peaked at %d tables, below the %d-table stall trigger", peakL0, l0StallTrigger)
	}
}

// TestSlowdownBandDelaysWithoutStall runs only the flush thread, so every
// memtable adds an L0 table, until L0 is in the slowdown band; one traced
// write there sleeps a millisecond booked as stall time but is not counted
// as a write stall.
func TestSlowdownBandDelaysWithoutStall(t *testing.T) {
	s := sim.New(1)
	e := sim.NewEnv(s, 8)
	cfg := DefaultConfig(device.NewSimDisk(s, device.Optane(), nil))
	cfg.MemtableBytes = 16 << 10
	d := New(e, cfg)
	e.Go("flush", d.flushLoop)
	tr := trace.NewTracer(0)
	e.Go("client", func(c env.Ctx) {
		var i int64
		put := func() {
			d.Put(c, kv.Key(i), kv.Value(i, 1, 900))
			i++
		}
		for d.l0Count() < l0SlowdownTrigger {
			put()
		}
		c.Sleep(10 * env.Millisecond) // the last flush completes
		stalls := d.stats.WriteStalls
		tc := tr.Begin(0, c.Now())
		c.SetTrace(tc)
		put()
		c.SetTrace(nil)
		tr.Finish(tc, c.Now())
		if n := d.l0Count(); n < l0SlowdownTrigger || n >= l0StallTrigger {
			t.Errorf("L0 has %d tables, outside the slowdown band [%d, %d)", n, l0SlowdownTrigger, l0StallTrigger)
		}
		if got := tr.Breakdown().Sum(trace.CompStall); got < float64(env.Millisecond) {
			t.Errorf("stall time of a write in the slowdown band = %vns, want at least 1ms", got)
		}
		if d.stats.WriteStalls != stalls {
			t.Errorf("the slowdown band counted %d write stalls", d.stats.WriteStalls-stalls)
		}
		d.Stop(c)
	})
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBloomFilter(t *testing.T) {
	b := newBloom(1000)
	for i := 0; i < 1000; i++ {
		b.add(kv.Key(int64(i)))
	}
	for i := 0; i < 1000; i++ {
		if !b.mayContain(kv.Key(int64(i))) {
			t.Fatalf("false negative for %d", i)
		}
	}
	fp := 0
	for i := 10_000; i < 20_000; i++ {
		if b.mayContain(kv.Key(int64(i))) {
			fp++
		}
	}
	if fp > 300 { // ~1% expected at 10 bits/key; allow slack
		t.Fatalf("false positive rate %d/10000 too high", fp)
	}
}

func TestEntryCodec(t *testing.T) {
	e := entry{key: []byte("k1"), value: []byte("hello"), seq: 42}
	buf := make([]byte, e.bytes())
	encodeEntry(buf, &e)
	got, next, ok := decodeEntry(buf, 0)
	if !ok || next != len(buf) || !bytes.Equal(got.key, e.key) || !bytes.Equal(got.value, e.value) || got.seq != 42 || got.tombstone {
		t.Fatalf("roundtrip: %+v", got)
	}
	tomb := entry{key: []byte("k2"), seq: 7, tombstone: true}
	buf2 := make([]byte, tomb.bytes())
	encodeEntry(buf2, &tomb)
	got2, _, ok := decodeEntry(buf2, 0)
	if !ok || !got2.tombstone {
		t.Fatal("tombstone flag lost")
	}
	// Decoding zero padding ends the block.
	if _, _, ok := decodeEntry(make([]byte, 64), 0); ok {
		t.Fatal("padding decoded as entry")
	}
}

func TestTableBuilderBlockLayout(t *testing.T) {
	s := sim.New(1)
	e := sim.NewEnv(s, 2)
	disk := device.NewSimDisk(s, device.Optane(), nil)
	d := New(e, DefaultConfig(disk))
	b := d.newBuilder(0)
	for i := int64(0); i < 100; i++ {
		b.add(&entry{key: kv.Key(i), value: kv.Value(i, 0, 1000), seq: 1})
	}
	tab := b.finish(nil)
	if tab == nil {
		t.Fatal("nil table")
	}
	// ~1KB entries: expect ~4 entries per 4K block => ~25 blocks.
	if len(tab.blocks) < 20 || len(tab.blocks) > 40 {
		t.Fatalf("blocks = %d for 100 1KB entries", len(tab.blocks))
	}
	if !bytes.Equal(tab.min, kv.Key(0)) || !bytes.Equal(tab.max, kv.Key(99)) {
		t.Fatalf("range [%s,%s]", tab.min, tab.max)
	}
	// findBlock sanity across all keys.
	for i := int64(0); i < 100; i++ {
		bi := tab.findBlock(kv.Key(i))
		if bi < 0 || bi >= len(tab.blocks) {
			t.Fatalf("findBlock(%d) = %d", i, bi)
		}
		if bytes.Compare(tab.blocks[bi].firstKey, kv.Key(i)) > 0 {
			t.Fatalf("block %d firstKey %s > key %s", bi, tab.blocks[bi].firstKey, kv.Key(i))
		}
	}
}

func TestLargeValuesSpanBlocks(t *testing.T) {
	harness(t, false, nil, func(c env.Ctx, d *DB) {
		big := kv.Value(1, 1, 9000) // > 2 pages
		d.Put(c, kv.Key(1), big)
		d.Put(c, kv.Key(2), kv.Value(2, 1, 100))
		// Push through a flush.
		for i := int64(10); i < 200; i++ {
			d.Put(c, kv.Key(i), kv.Value(i, 1, 800))
		}
		v, ok := d.Get(c, kv.Key(1))
		if !ok || !bytes.Equal(v, big) {
			t.Fatal("large value corrupted")
		}
	})
}

func TestCompactionReducesL0(t *testing.T) {
	d := harness(t, false, nil, func(c env.Ctx, d *DB) {
		for i := int64(0); i < 4000; i++ {
			d.Put(c, kv.Key(i), kv.Value(i, 1, 800))
		}
		// Let background threads quiesce: issue a few slow ops.
		for i := 0; i < 50; i++ {
			c.Sleep(10 * env.Millisecond)
		}
	})
	if l0 := len(d.levels[0]); l0 >= l0StallTrigger {
		t.Fatalf("L0 has %d tables after quiesce", l0)
	}
	var total int
	for _, lvl := range d.levels {
		total += len(lvl)
	}
	if total == 0 {
		t.Fatal("no tables at all")
	}
	// Deeper levels must hold data.
	deeper := 0
	for _, lvl := range d.levels[1:] {
		deeper += len(lvl)
	}
	if deeper == 0 {
		t.Fatal("compaction never moved data past L0")
	}
}

func TestMultiDiskStriping(t *testing.T) {
	s := sim.New(1)
	e := sim.NewEnv(s, 8)
	var disks []device.Disk
	var sims []*device.SimDisk
	for i := 0; i < 4; i++ {
		dd := device.NewSimDisk(s, device.Optane(), nil)
		disks = append(disks, dd)
		sims = append(sims, dd)
	}
	cfg := DefaultConfig(disks...)
	cfg.MemtableBytes = 64 << 10
	cfg.TableTargetBytes = 32 << 10
	d := New(e, cfg)
	d.Start()
	e.Go("client", func(c env.Ctx) {
		for i := int64(0); i < 2000; i++ {
			d.Put(c, kv.Key(i), kv.Value(i, 1, 800))
		}
		d.Stop(c)
	})
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	used := 0
	for _, dd := range sims {
		if dd.Counters().WriteOps > 0 {
			used++
		}
	}
	if used < 3 {
		t.Fatalf("only %d/4 disks used; striping broken", used)
	}
}

func TestStatsString(t *testing.T) {
	d := harness(t, false, nil, func(c env.Ctx, d *DB) {
		d.Put(c, kv.Key(1), kv.Value(1, 1, 100))
		d.Get(c, kv.Key(1))
	})
	st := d.Stats()
	if st.Puts != 1 || st.Gets != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if d.Name() == "" {
		t.Fatal("empty name")
	}
	_ = fmt.Sprintf("%+v", st)
}

// durableLife runs fn as a client against a fresh durable DB on a new
// simulated machine whose disk is backed by ms, so a later life sees what an
// earlier one left on "disk". It returns the life's disk, for its counters.
func durableLife(t *testing.T, ms *device.MemStore, seed int64, fn func(c env.Ctx, d *DB)) *device.SimDisk {
	t.Helper()
	s := sim.New(seed)
	e := sim.NewEnv(s, 8)
	disk := device.NewSimDisk(s, device.Optane(), ms)
	cfg := DefaultConfig(disk)
	cfg.MemtableBytes = 64 << 10 // replay flushes several times
	cfg.WALBufferBytes = 0
	d := New(e, cfg)
	e.Go("client", func(c env.Ctx) { fn(c, d) })
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return disk
}

// TestWALReplayRebuildsState: every acknowledged write of a durable DB —
// puts, overwrites, a delete — is back after a replay on a fresh DB, at its
// newest version, across the memtable flushes the replay makes.
func TestWALReplayRebuildsState(t *testing.T) {
	ms := device.NewMemStore()
	durableLife(t, ms, 1, func(c env.Ctx, d *DB) {
		d.Start()
		for i := int64(0); i < 500; i++ {
			d.Put(c, kv.Key(i), kv.Value(i, 1, 300))
		}
		for i := int64(0); i < 500; i += 5 {
			d.Put(c, kv.Key(i), kv.Value(i, 2, 300))
		}
		d.Delete(c, kv.Key(123))
		d.Stop(c)
	})

	var replayed int
	durableLife(t, ms, 2, func(c env.Ctx, d *DB) {
		replayed = d.ReplayLog(c)
		if d.Stats().Flushes == 0 {
			t.Error("replay never flushed its memtable")
		}
		d.Start()
		for i := int64(0); i < 500; i++ {
			want := kv.Value(i, 1, 300)
			if i%5 == 0 {
				want = kv.Value(i, 2, 300)
			}
			v, ok := d.Get(c, kv.Key(i))
			switch {
			case i == 123 && ok:
				t.Error("deleted key 123 is back after replay")
			case i != 123 && (!ok || !bytes.Equal(v, want)):
				t.Errorf("key %d after replay: found=%v, not its newest acknowledged version", i, ok)
			}
		}
		d.Stop(c)
	})
	if replayed != 500+100+1 {
		t.Fatalf("replayed %d records, the log holds %d", replayed, 500+100+1)
	}
}

// TestWALReplayReadBound: replay reads the log about once. Single-record
// chunks are one page each, so a replay that reads a fixed large extent per
// chunk reads hundreds of times more than the log holds.
func TestWALReplayReadBound(t *testing.T) {
	ms := device.NewMemStore()
	durableLife(t, ms, 1, func(c env.Ctx, d *DB) {
		for i := int64(0); i < 200; i++ {
			d.Put(c, kv.Key(i), kv.Value(i, 1, 200))
		}
	})
	used := walog.Scan(ms, 0, walog.RegionPages, func(byte, []byte, []byte) {})
	var n int
	disk := durableLife(t, ms, 2, func(c env.Ctx, d *DB) {
		n = d.ReplayLog(c)
	})
	if n != 200 {
		t.Fatalf("replayed %d records, want 200", n)
	}
	if read, bound := disk.Counters().ReadBytes, 2*used*device.PageSize; read > bound {
		t.Fatalf("replay read %d bytes of a %d-page log (bound %d)", read, used, bound)
	}
}

func TestWALReplayEmptyLog(t *testing.T) {
	durableLife(t, device.NewMemStore(), 1, func(c env.Ctx, d *DB) {
		if n := d.ReplayLog(c); n != 0 {
			t.Errorf("empty log replay: n=%d", n)
		}
	})
}
