package core

import (
	"bytes"
	"testing"

	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/sim"
)

func TestRMWReadsThenWrites(t *testing.T) {
	simHarness(t, nil, func(c env.Ctx, st *Store) {
		st.Put(c, kv.Key(1), kv.Value(1, 1, 500))
		res := st.Do(c, &kv.Request{Op: kv.OpRMW, Key: kv.Key(1), Value: kv.Value(1, 2, 500)})
		if !res.Found {
			t.Fatal("RMW on existing key not found")
		}
		v, _ := st.Get(c, kv.Key(1))
		if !bytes.Equal(v, kv.Value(1, 2, 500)) {
			t.Fatal("RMW did not install new value")
		}
		// RMW on a missing key reports not-found without writing.
		res = st.Do(c, &kv.Request{Op: kv.OpRMW, Key: kv.Key(99), Value: kv.Value(99, 1, 500)})
		if res.Found {
			t.Fatal("RMW on missing key reported found")
		}
		if _, ok := st.Get(c, kv.Key(99)); ok {
			t.Fatal("RMW on missing key wrote a value")
		}
	})
}

func TestAsyncPipelinedSubmissions(t *testing.T) {
	// Many requests in flight at once per client (the callback interface
	// of Algorithm 1), interleaving reads and writes on the same keys.
	simHarness(t, nil, func(c env.Ctx, st *Store) {
		const n = 300
		for i := int64(0); i < n; i++ {
			st.Put(c, kv.Key(i), kv.Value(i, 0, 700))
		}
		done := 0
		for i := int64(0); i < n; i++ {
			i := i
			st.Submit(c, &kv.Request{Op: kv.OpUpdate, Key: kv.Key(i), Value: kv.Value(i, 1, 700),
				Done: func(kv.Result) { done++ }})
			st.Submit(c, &kv.Request{Op: kv.OpGet, Key: kv.Key(i),
				Done: func(r kv.Result) { done++ }})
		}
		// Wait for all callbacks by polling virtual time.
		for done < int(2*n) {
			c.Sleep(env.Millisecond)
		}
		for i := int64(0); i < n; i++ {
			v, ok := st.Get(c, kv.Key(i))
			if !ok || !bytes.Equal(v, kv.Value(i, 1, 700)) {
				t.Fatalf("pipelined update %d lost", i)
			}
		}
	})
}

func TestPendingReadDeduplication(t *testing.T) {
	// Concurrent GETs to the same uncached page must issue one device
	// read (the pending-read join in worker.joinRead).
	st, _ := simHarness(t, func(cfg *Config) {
		cfg.Workers = 1
		cfg.PageCachePages = 2 // effectively no cache
	}, func(c env.Ctx, st *Store) {
		for i := int64(0); i < 16; i++ {
			st.Put(c, kv.Key(i), kv.Value(i, 0, 200)) // several items share pages
		}
		before := st.workers[0].dev.Counters().ReadOps
		done := 0
		for rep := 0; rep < 20; rep++ {
			st.Submit(c, &kv.Request{Op: kv.OpGet, Key: kv.Key(3),
				Done: func(kv.Result) { done++ }})
		}
		for done < 20 {
			c.Sleep(env.Millisecond)
		}
		reads := st.workers[0].dev.Counters().ReadOps - before
		if reads > 3 {
			t.Fatalf("20 concurrent gets of one page issued %d reads; dedup broken", reads)
		}
	})
	_ = st
}

func TestCommitLogVariantDoublesWrites(t *testing.T) {
	writeOps := func(withLog bool) int64 {
		st, _ := simHarness(t, func(cfg *Config) {
			cfg.WithCommitLog = withLog
		}, func(c env.Ctx, st *Store) {
			for i := int64(0); i < 200; i++ {
				st.Put(c, kv.Key(i), kv.Value(i, 1, 700))
			}
		})
		var w int64
		for _, wk := range st.workers {
			w += wk.dev.Counters().WriteOps
		}
		return w
	}
	plain, logged := writeOps(false), writeOps(true)
	if logged < plain+150 {
		t.Fatalf("commit-log variant wrote %d pages vs %d plain; log writes missing", logged, plain)
	}
}

func TestHashCacheIndexVariantWorks(t *testing.T) {
	simHarness(t, func(cfg *Config) {
		cfg.CacheIndex = 1 // pagecache.IndexHash
	}, func(c env.Ctx, st *Store) {
		for i := int64(0); i < 300; i++ {
			st.Put(c, kv.Key(i), kv.Value(i, 1, 600))
		}
		for i := int64(0); i < 300; i += 17 {
			v, ok := st.Get(c, kv.Key(i))
			if !ok || !bytes.Equal(v, kv.Value(i, 1, 600)) {
				t.Fatalf("hash-index cache variant lost key %d", i)
			}
		}
	})
}

func TestScanEdgeCases(t *testing.T) {
	simHarness(t, nil, func(c env.Ctx, st *Store) {
		// Empty store.
		if items := st.ScanN(c, kv.Key(0), 10); len(items) != 0 {
			t.Fatalf("scan of empty store returned %d", len(items))
		}
		for i := int64(0); i < 20; i++ {
			st.Put(c, kv.Key(i), kv.Value(i, 1, 500))
		}
		// Start past the last key.
		if items := st.ScanN(c, kv.Key(1000), 10); len(items) != 0 {
			t.Fatalf("scan past end returned %d", len(items))
		}
		// Count larger than the store.
		if items := st.ScanN(c, kv.Key(0), 100); len(items) != 20 {
			t.Fatalf("over-long scan returned %d", len(items))
		}
		// Empty range.
		if items := st.ScanRange(c, kv.Key(5), kv.Key(5)); len(items) != 0 {
			t.Fatalf("empty range returned %d", len(items))
		}
	})
}

func TestZeroAndTinyValues(t *testing.T) {
	simHarness(t, nil, func(c env.Ctx, st *Store) {
		st.Put(c, kv.Key(1), []byte{})
		v, ok := st.Get(c, kv.Key(1))
		if !ok || len(v) != 0 {
			t.Fatalf("empty value: ok=%v len=%d", ok, len(v))
		}
		st.Put(c, kv.Key(2), []byte{0xFF})
		v, ok = st.Get(c, kv.Key(2))
		if !ok || len(v) != 1 || v[0] != 0xFF {
			t.Fatal("1-byte value roundtrip failed")
		}
	})
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, env.Time) {
		s := sim.New(123)
		e := sim.NewEnv(s, 4)
		disk := device.NewSimDisk(s, device.Optane(), nil)
		st, err := Open(e, DefaultConfig(disk))
		if err != nil {
			t.Fatal(err)
		}
		st.Start()
		e.Go("client", func(c env.Ctx) {
			for i := int64(0); i < 500; i++ {
				st.Put(c, kv.Key(i%50), kv.Value(i, uint64(i), 700))
			}
			st.Stop(c)
		})
		if err := s.Run(-1); err != nil {
			t.Fatal(err)
		}
		now := s.Now()
		s.Close()
		return st.Stats().IOsSubmitted, now
	}
	io1, t1 := run()
	io2, t2 := run()
	if io1 != io2 || t1 != t2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", io1, t1, io2, t2)
	}
}

func TestMultiDiskPartitioning(t *testing.T) {
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
	cfg.Workers = 8 // two workers per disk
	st, err := Open(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.Start()
	e.Go("client", func(c env.Ctx) {
		for i := int64(0); i < 800; i++ {
			st.Put(c, kv.Key(i), kv.Value(i, 1, 700))
		}
		for i := int64(0); i < 800; i += 7 {
			if _, ok := st.Get(c, kv.Key(i)); !ok {
				t.Errorf("key %d missing in multi-disk store", i)
				return
			}
		}
		st.Stop(c)
	})
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	for di, dd := range sims {
		if dd.Counters().WriteOps == 0 {
			t.Fatalf("disk %d received no writes; partitioning broken", di)
		}
	}
}

func TestNoInPlaceVariantNeverOverwritesLive(t *testing.T) {
	st, _ := simHarness(t, func(cfg *Config) { cfg.NoInPlaceUpdates = true }, func(c env.Ctx, st *Store) {
		k := kv.Key(1)
		for v := uint64(1); v <= 30; v++ {
			st.Put(c, k, kv.Value(1, v, 700))
			got, ok := st.Get(c, k)
			if !ok || !bytes.Equal(got, kv.Value(1, v, 700)) {
				t.Fatalf("version %d lost in no-in-place mode", v)
			}
		}
	})
	// Every overwrite must have allocated a new slot or reused a freed
	// one, and tombstoned the old (29 frees for 30 versions).
	var freed int64
	for _, w := range st.workers {
		for _, sl := range w.slabs {
			freed += sl.Free.Freed()
		}
	}
	if freed < 29 {
		t.Fatalf("no-in-place mode freed only %d slots for 29 overwrites", freed)
	}
}

func TestNoInPlaceRecovery(t *testing.T) {
	// The append+tombstone discipline must recover to the newest version.
	_, ms := simHarness(t, func(cfg *Config) { cfg.NoInPlaceUpdates = true; cfg.Workers = 2 }, func(c env.Ctx, st *Store) {
		for i := int64(0); i < 100; i++ {
			st.Put(c, kv.Key(i), kv.Value(i, 1, 600))
		}
		for i := int64(0); i < 100; i += 2 {
			st.Put(c, kv.Key(i), kv.Value(i, 2, 600))
		}
	})
	s2 := sim.New(9)
	e2 := sim.NewEnv(s2, 8)
	disk2 := device.NewSimDisk(s2, device.Optane(), ms)
	cfg := DefaultConfig(disk2)
	cfg.Workers = 2
	cfg.NoInPlaceUpdates = true
	st2, err := Open(e2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2.Go("client", func(c env.Ctx) {
		if err := st2.Recover(c); err != nil {
			t.Error(err)
			return
		}
		st2.Start()
		for i := int64(0); i < 100; i++ {
			want := uint64(1)
			if i%2 == 0 {
				want = 2
			}
			v, ok := st2.Get(c, kv.Key(i))
			if !ok || !bytes.Equal(v, kv.Value(i, want, 600)) {
				t.Errorf("key %d: wrong version after no-in-place recovery", i)
				return
			}
		}
		st2.Stop(c)
	})
	if err := s2.Run(-1); err != nil {
		t.Fatal(err)
	}
	s2.Close()
}

func TestSharedEverythingVariant(t *testing.T) {
	st, _ := simHarness(t, func(cfg *Config) {
		cfg.SharedEverything = true
		cfg.Workers = 4
	}, func(c env.Ctx, st *Store) {
		for i := int64(0); i < 400; i++ {
			st.Put(c, kv.Key(i), kv.Value(i, 1, 600))
		}
		for i := int64(0); i < 400; i += 7 {
			v, ok := st.Get(c, kv.Key(i))
			if !ok || !bytes.Equal(v, kv.Value(i, 1, 600)) {
				t.Fatalf("shared-mode key %d lost", i)
			}
		}
		items := st.ScanN(c, kv.Key(50), 30)
		if len(items) != 30 {
			t.Fatalf("shared-mode scan returned %d", len(items))
		}
		if !st.Delete(c, kv.Key(3)) {
			t.Fatal("shared-mode delete failed")
		}
	})
	if st.Stats().Items != 399 {
		t.Fatalf("items = %d", st.Stats().Items)
	}
}

// wakeHarness runs fn on a one-worker store over a disk whose reads take a
// millisecond on each of channels channels. Keys 0..n-1 are bulk loaded one
// item per page, so none of them is cached.
func wakeHarness(t *testing.T, channels, n int, fn func(c env.Ctx, st *Store)) {
	t.Helper()
	s := sim.New(1)
	e := sim.NewEnv(s, 8)
	p := device.Optane()
	p.Name, p.Channels, p.ReadSvc, p.SpikeEvery = "slow", channels, env.Millisecond, 0
	cfg := DefaultConfig(device.NewSimDisk(s, p, nil))
	cfg.Workers = 1
	st, err := Open(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]kv.Item, n)
	for i := range items {
		items[i] = kv.Item{Key: kv.Key(int64(i)), Value: kv.Value(int64(i), 0, 3000)}
	}
	if err := st.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	st.Start()
	e.Go("client", func(c env.Ctx) {
		fn(c, st)
		st.Stop(c)
	})
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	s.Close()
}

// A request that reaches a worker waiting on its I/O is served at once while
// the disk has an idle channel: a cache hit overtakes the read in flight.
func TestWakeServesHitDuringRead(t *testing.T) {
	wakeHarness(t, 6, 2, func(c env.Ctx, st *Store) {
		st.Get(c, kv.Key(1)) // key 1's page is now cached
		var missAt, hitAt env.Time
		st.Submit(c, &kv.Request{Op: kv.OpGet, Key: kv.Key(0), Done: func(kv.Result) { missAt = c.Now() }})
		c.Sleep(50 * env.Microsecond) // the worker has issued the read and sleeps
		st.Submit(c, &kv.Request{Op: kv.OpGet, Key: kv.Key(1), Done: func(kv.Result) { hitAt = c.Now() }})
		for missAt == 0 || hitAt == 0 {
			c.Sleep(100 * env.Microsecond)
		}
		if hitAt >= missAt {
			t.Fatalf("cache hit completed at %dns, after the read in flight (%dns)", hitAt, missAt)
		}
	})
}

// While every channel of the disk is busy a worker keeps sleeping through
// arrivals, so the misses that arrive meanwhile leave in one io_submit after
// the completion (§5.4's batching).
func TestWakeKeepsBatchingOnBusyDisk(t *testing.T) {
	wakeHarness(t, 1, 4, func(c env.Ctx, st *Store) {
		a := st.workers[0].aio
		sys0, sub0 := a.Syscalls, a.Submitted
		done := 0
		get := func(k int64) {
			st.Submit(c, &kv.Request{Op: kv.OpGet, Key: kv.Key(k), Done: func(kv.Result) { done++ }})
		}
		get(0)
		c.Sleep(50 * env.Microsecond) // key 0's read is in service
		get(1)
		get(2)
		get(3)
		for done < 4 {
			c.Sleep(100 * env.Microsecond)
		}
		if sys, sub := a.Syscalls-sys0, a.Submitted-sub0; sys != 2 || sub != 4 {
			t.Fatalf("%d io_submit calls for %d reads, want 2 for 4", sys, sub)
		}
	})
}
