package core

import (
	"bytes"
	"sync"
	"sync/atomic"
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
	if logged != 2*plain {
		t.Fatalf("commit-log variant wrote %d pages vs %d plain, want exactly twice", logged, plain)
	}
}

// recDisk records the writes that reach the disk below a shard's logDisk,
// and whether each has completed. It holds each log append back until the
// data write after it is submitted: on a one-channel disk the append then
// completes last, so a write acknowledged on its data write alone shows.
type recDisk struct {
	device.Disk
	held   *device.Request
	writes []*recWrite
}

type recWrite struct {
	page int64
	buf  []byte
	done bool
}

func (d *recDisk) Submit(r *device.Request) {
	if r.Op != device.Write {
		d.Disk.Submit(r)
		return
	}
	w := &recWrite{page: r.Page, buf: r.Buf}
	d.writes = append(d.writes, w)
	done := r.Done
	r.Done = func() { w.done = true; done() }
	if d.held == nil {
		d.held = r
		return
	}
	d.Disk.Submit(r)
	d.Disk.Submit(d.held)
	d.held = nil
}

// pairs checks that the writes come as (log append, data write) pairs: the
// append inside the shard's log region, the data write outside it, both of
// the same bytes. It returns the number of pairs.
func (d *recDisk) pairs(t *testing.T, ld *logDisk) int {
	t.Helper()
	in := func(p int64) bool { return p >= ld.base && p < ld.base+ld.pages }
	if len(d.writes)%2 != 0 {
		t.Fatalf("%d writes reached the disk, not a whole number of pairs", len(d.writes))
	}
	for i := 0; i < len(d.writes); i += 2 {
		lw, dw := d.writes[i], d.writes[i+1]
		if !in(lw.page) || in(dw.page) {
			t.Fatalf("pair %d: log append at page %d, data write at page %d; log region [%d, %d)",
				i/2, lw.page, dw.page, ld.base, ld.base+ld.pages)
		}
		if len(lw.buf) != len(dw.buf) || &lw.buf[0] != &dw.buf[0] {
			t.Fatalf("pair %d: the log append does not carry the data write's bytes", i/2)
		}
	}
	return len(d.writes) / 2
}

// logHarness runs fn on a one-shard store with the commit log on, over a
// one-channel disk seen through a recDisk.
func logHarness(t *testing.T, mvcc bool, fn func(c env.Ctx, st *Store, rd *recDisk)) {
	t.Helper()
	s := sim.New(1)
	e := sim.NewEnv(s, 8)
	prof := device.Optane()
	prof.Channels = 1
	rd := &recDisk{Disk: device.NewSimDisk(s, prof, nil)}
	cfg := DefaultConfig(rd)
	cfg.Workers = 1
	cfg.WithCommitLog = true
	cfg.MVCC = mvcc
	st, err := Open(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.Start()
	e.Go("client", func(c env.Ctx) {
		fn(c, st, rd)
		st.Stop(c)
	})
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rd.pairs(t, st.workers[0].dev.(*logDisk))
}

// Every page write — items, tombstones — gets one log append of the same
// bytes in the shard's log region, and a put is acknowledged only once both
// writes have completed.
func TestCommitLogDiskLogsEveryWrite(t *testing.T) {
	logHarness(t, false, func(c env.Ctx, st *Store, rd *recDisk) {
		ld := st.workers[0].dev.(*logDisk)
		put := func(i int64, ver uint64, size int) {
			all := env.NewLatch(st.env)
			all.Add(c, 1)
			st.Submit(c, &kv.Request{Op: kv.OpUpdate, Key: kv.Key(i), Value: kv.Value(i, ver, size), Done: func(kv.Result) {
				for j, w := range rd.writes {
					if !w.done {
						t.Errorf("put %d (v%d) acknowledged before write %d (page %d) completed", i, ver, j, w.page)
					}
				}
				all.Done(nil)
			}})
			all.Wait(c)
		}
		for i := int64(0); i < 40; i++ {
			put(i, 1, 300) // appends
		}
		for i := int64(0); i < 40; i += 3 {
			put(i, 2, 300) // in-place updates
		}
		n := rd.pairs(t, ld)
		if n < 40+14 {
			t.Fatalf("%d logged writes for 54 puts", n)
		}
		// Moves and deletes write tombstones, which are logged too.
		for i := int64(0); i < 40; i += 5 {
			st.Put(c, kv.Key(i), kv.Value(i, 3, 3000))
			st.Delete(c, kv.Key(i+1))
		}
		if got := rd.pairs(t, ld) - n; got < 3*8 {
			t.Fatalf("%d logged writes for 8 moves and 8 deletes, want at least %d", got, 3*8)
		}
	})
}

// Over a RealDisk the two writes of one record complete on two executors at
// once; each caller's Done still runs exactly once, after both, and the log
// region wraps.
func TestCommitLogDiskOverRealDisk(t *testing.T) {
	ms := device.NewMemStore()
	rd := device.NewRealDisk(ms, 4, false)
	defer rd.Close()
	ld := &logDisk{Disk: rd, base: 1000, pages: 8, mu: env.NewReal().NewMutex()}
	fill := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, device.PageSize) }
	var wg sync.WaitGroup
	var dones atomic.Int32
	reqs := make([]device.Request, 64)
	for i := range reqs {
		wg.Add(1)
		reqs[i] = device.Request{Op: device.Write, Page: int64(i), Buf: fill(i), Done: func() { dones.Add(1); wg.Done() }}
		ld.Submit(&reqs[i])
	}
	wg.Wait()
	if n := dones.Load(); n != 64 {
		t.Fatalf("%d completions for 64 writes", n)
	}
	if c := rd.Counters(); c.WriteOps != 128 {
		t.Fatalf("%d device writes for 64 logged writes, want 128", c.WriteOps)
	}
	buf := make([]byte, device.PageSize)
	for i := range reqs {
		if err := ms.ReadPages(int64(i), buf); err != nil || !bytes.Equal(buf, fill(i)) {
			t.Fatalf("data page %d does not hold its write (err %v)", i, err)
		}
	}
	// Writes to one page run in submission order, so each log page holds
	// the last of the eight rounds that wrote it.
	for k := 0; k < 8; k++ {
		if err := ms.ReadPages(1000+int64(k), buf); err != nil || !bytes.Equal(buf, fill(56+k)) {
			t.Fatalf("log page %d does not hold write %d (err %v)", k, 56+k, err)
		}
	}
}

// Under MVCC the intent a prewrite writes and the flip a commit writes are
// logged like any other page write.
func TestCommitLogDiskLogsIntentsAndFlips(t *testing.T) {
	logHarness(t, true, func(c env.Ctx, st *Store, rd *recDisk) {
		ld := st.workers[0].dev.(*logDisk)
		key := kv.Key(5)
		st.Put(c, key, kv.Value(5, 1, 200))
		n := rd.pairs(t, ld)
		start := st.NextTS(c)
		if res := st.Do(c, &kv.Request{Op: kv.OpTxnPrewrite, Key: key, Value: kv.Value(5, 2, 200), TS: start, Aux: key}); res.Txn != kv.TxnOK {
			t.Fatalf("prewrite: txn status %d", res.Txn)
		}
		intents := rd.pairs(t, ld) - n
		for {
			res := st.Do(c, &kv.Request{Op: kv.OpTxnCommit, Key: key, TS: start, TS2: st.NextTS(c)})
			if res.Txn == kv.TxnOK {
				break
			}
			if res.Txn != kv.TxnRetry {
				t.Fatalf("commit: txn status %d", res.Txn)
			}
		}
		flips := rd.pairs(t, ld) - n - intents
		if intents < 1 || flips < 1 {
			t.Fatalf("logged %d intent writes and %d flip writes, want at least one of each", intents, flips)
		}
		if v, ok := st.Get(c, key); !ok || !bytes.Equal(v, kv.Value(5, 2, 200)) {
			t.Fatalf("Get after the commit: found=%v", ok)
		}
	})
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

// TestQueuedTombstoneSparesReusedSlot is the regression test of a lost
// acknowledged write (ROADMAP item 1(a)). An RMW's read and a delete's
// tombstone patch wait on one uncached page. When the read completes, the
// RMW's no-in-place write allocates a slot before the tombstone joiner runs;
// if the deleted slot were already on the free list, the RMW would take it
// and the queued tombstone would then overwrite the RMW's item.
func TestQueuedTombstoneSparesReusedSlot(t *testing.T) {
	cfg := func(c *Config) {
		c.Workers = 1
		c.PageCachePages = 1
		c.NoInPlaceUpdates = true
	}
	v := kv.Value(1, 2, 200)
	st, _ := simHarness(t, cfg, func(c env.Ctx, st *Store) {
		for i := int64(0); i < 64; i++ {
			st.Put(c, kv.Key(i), kv.Value(i, 1, 200))
		}
		w := st.workers[0]
		l0, _ := w.idx.Get(kv.Key(0))
		l1, _ := w.idx.Get(kv.Key(1))
		sl := w.slabs[location(l0).class()]
		page := sl.SlotPage(location(l0).slot())
		if location(l1).class() != location(l0).class() || sl.SlotPage(location(l1).slot()) != page || w.cache.Contains(page) {
			t.Fatal("keys 0 and 1 must share one uncached page")
		}
		res := burst(c, st, []*kv.Request{
			{Op: kv.OpRMW, Key: kv.Key(1), Value: v},
			{Op: kv.OpDelete, Key: kv.Key(0)},
		})
		if !res[0].Found || !res[1].Found {
			t.Fatalf("RMW found=%v, delete found=%v; want both", res[0].Found, res[1].Found)
		}
		if got, ok := st.Get(c, kv.Key(1)); !ok || !bytes.Equal(got, v) {
			t.Errorf("RMW'd key lost: Get(1) found=%v (%d B)", ok, len(got))
		}
		if _, ok := st.Get(c, kv.Key(0)); ok {
			t.Error("deleted key 0 still found")
		}
	})
	if err := st.CheckConsistency(); err != nil {
		t.Error(err)
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
	stats := st.Stats()
	if stats.Items != 399 {
		t.Fatalf("items = %d", stats.Items)
	}
	// Every request reaches the one shard, whichever thread serves it: 400
	// puts, 58 gets, the scan's 30 location-direct reads and one delete.
	if want := int64(400 + 58 + 30 + 1); stats.Requests != want {
		t.Fatalf("requests = %d, want %d", stats.Requests, want)
	}
	// The client waits for each write, so every put and the delete is at
	// least one syscall of its own, on whichever thread's engine served it.
	if stats.Syscalls < 401 || stats.IOsSubmitted < stats.Syscalls {
		t.Fatalf("syscalls = %d, I/Os = %d: want every thread's counted", stats.Syscalls, stats.IOsSubmitted)
	}
}

// The shared shard gets the whole page-cache budget, as §4.1's conventional
// design has one full-size cache; shared-nothing splits it among shards.
func TestSharedEverythingCacheCapacity(t *testing.T) {
	for _, shared := range []bool{false, true} {
		cfg := DefaultConfig(device.NewSimDisk(sim.New(1), device.Optane(), nil))
		cfg.Workers, cfg.PageCachePages, cfg.SharedEverything = 4, 8192, shared
		st, err := Open(sim.NewEnv(sim.New(1), 1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		shards, want := 4, 2048
		if shared {
			shards, want = 1, 8192
		}
		if st.Shards() != shards {
			t.Fatalf("shared=%v: %d shards, want %d", shared, st.Shards(), shards)
		}
		for _, w := range st.workers {
			if got := w.cache.Capacity(); got != want {
				t.Errorf("shared=%v: shard %d cache holds %d pages, want %d", shared, w.id, got, want)
			}
		}
	}
}

// A SharedEverything store recovers its one shard: the disk reads exactly the
// bytes, in exactly the time, that a one-worker store over the same items
// reads, and every item reads back.
func TestSharedEverythingRecovery(t *testing.T) {
	items := make([]kv.Item, 20_000)
	for i := range items {
		items[i] = kv.Item{Key: kv.Key(int64(i)), Value: kv.Value(int64(i), 0, 100+i%900)}
	}
	ms := device.NewMemStore()
	cfg := DefaultConfig(device.NewSimDisk(sim.New(1), device.Optane(), ms))
	cfg.Workers = 1
	st, err := Open(sim.NewEnv(sim.New(1), 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	recoverRead := func(threads int, shared bool) (read int64, took env.Time) {
		s := sim.New(2)
		e := sim.NewEnv(s, 8)
		disk := device.NewSimDisk(s, device.Optane(), ms)
		cfg := DefaultConfig(disk)
		cfg.Workers, cfg.SharedEverything = threads, shared
		st, err := Open(e, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Go("recover-client", func(c env.Ctx) {
			if err := st.Recover(c); err != nil {
				t.Errorf("recover: %v", err)
				return
			}
			read, took = disk.Counters().ReadBytes, c.Now()
			st.Start()
			for _, it := range items {
				if v, ok := st.Get(c, it.Key); !ok || !bytes.Equal(v, it.Value) {
					t.Errorf("%d threads: key %q lost after recovery", threads, it.Key)
					break
				}
			}
			st.Stop(c)
		})
		if err := s.Run(-1); err != nil {
			t.Fatal(err)
		}
		s.Close()
		return read, took
	}
	sharedRead, sharedTook := recoverRead(8, true)
	oneRead, oneTook := recoverRead(1, false)
	if sharedRead != oneRead || sharedTook != oneTook {
		t.Fatalf("8-thread shared recovery read %d B in %v, one worker %d B in %v",
			sharedRead, sharedTook, oneRead, oneTook)
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
		a := st.workers[0].threads[0]
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

// privateFrames counts the cached pages of st whose frame holds something
// other than the device's own image of the page.
func privateFrames(st *Store) int {
	n := 0
	for _, w := range st.workers {
		w.cache.Each(func(page int64, data []byte) bool {
			if img := w.dev.Image(page); img == nil || &img[0] != &data[0] {
				n++
			}
			return true
		})
	}
	return n
}

// TestCacheFramesShareDeviceImages pins the one-image rule: once the worker
// has drained a burst, every cached frame holds the device's array of its
// page — after cache fills, and after updates, RMWs and deletes that patched
// cached and uncached pages, two keys of one page in the same batch among
// them — and the cache equals the device image.
func TestCacheFramesShareDeviceImages(t *testing.T) {
	const n = 96
	cfg := func(c *Config) {
		c.Workers = 1
		c.PageCachePages = 3
	}
	simHarness(t, cfg, func(c env.Ctx, st *Store) {
		model := make(map[int64][]byte)
		for i := int64(0); i < n; i++ {
			model[i] = kv.Value(i, 1, 200)
			st.Put(c, kv.Key(i), model[i])
		}
		check := func(step string) {
			t.Helper()
			c.Sleep(env.Millisecond) // the worker drains the burst's I/O
			if k := privateFrames(st); k != 0 {
				t.Errorf("%s: %d cached frames hold a private buffer", step, k)
			}
			if err := st.CheckConsistency(); err != nil {
				t.Errorf("%s: %v", step, err)
			}
		}
		check("loads")

		var reads []*kv.Request
		for i := int64(0); i < n; i += 3 {
			reads = append(reads, &kv.Request{Op: kv.OpGet, Key: kv.Key(i)})
		}
		for i, res := range burst(c, st, reads) {
			if !res.Found || !bytes.Equal(res.Value, model[int64(3*i)]) {
				t.Fatalf("read of key %d: found=%v", 3*i, res.Found)
			}
		}
		check("read-only burst")

		// Keys 0-1 and 93-94 share a page each; the second pair's page was
		// read last above, so it is cached, and the first pair's is not.
		w := st.workers[0]
		pageOf := func(i int64) int64 {
			v, _ := w.idx.Get(kv.Key(i))
			return w.slabs[location(v).class()].SlotPage(location(v).slot())
		}
		if pageOf(0) != pageOf(1) || pageOf(93) != pageOf(94) || w.cache.Contains(pageOf(0)) || !w.cache.Contains(pageOf(93)) {
			t.Fatal("keys 0-1 must share an uncached page, keys 93-94 a cached one")
		}
		var writes []*kv.Request
		for _, i := range []int64{0, 1, 93, 94} {
			model[i] = kv.Value(i, 2, 200)
			writes = append(writes, &kv.Request{Op: kv.OpUpdate, Key: kv.Key(i), Value: model[i]})
		}
		model[2] = kv.Value(2, 3, 200)
		writes = append(writes,
			&kv.Request{Op: kv.OpRMW, Key: kv.Key(2), Value: model[2]},
			&kv.Request{Op: kv.OpDelete, Key: kv.Key(42)},
			&kv.Request{Op: kv.OpUpdate, Key: kv.Key(n), Value: kv.Value(n, 1, 200)})
		delete(model, 42)
		model[n] = kv.Value(n, 1, 200)
		for i, res := range burst(c, st, writes) {
			if !res.Found {
				t.Fatalf("write %d of the burst not acknowledged Found", i)
			}
		}
		check("update/delete/RMW burst")

		for i := int64(0); i <= n; i++ {
			got, ok := st.Get(c, kv.Key(i))
			if want, live := model[i]; ok != live || !bytes.Equal(got, want) {
				t.Fatalf("key %d: found=%v, want %v", i, ok, live)
			}
		}
		check("read-back")
	})
}
