package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/sim"
)

// simHarness runs fn as a client proc against a fresh KVell store inside a
// simulation and returns the store for post-run inspection.
func simHarness(t testing.TB, cfg func(*Config), fn func(c env.Ctx, st *Store)) (*Store, *device.MemStore) {
	t.Helper()
	s := sim.New(1)
	e := sim.NewEnv(s, 8)
	ms := device.NewMemStore()
	disk := device.NewSimDisk(s, device.Optane(), ms)
	c := DefaultConfig(disk)
	if cfg != nil {
		cfg(&c)
	}
	st, err := Open(e, c)
	if err != nil {
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
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return st, ms
}

func TestPutGetDeleteSim(t *testing.T) {
	simHarness(t, nil, func(c env.Ctx, st *Store) {
		for i := int64(0); i < 500; i++ {
			st.Put(c, kv.Key(i), kv.Value(i, 1, 500))
		}
		for i := int64(0); i < 500; i++ {
			v, ok := st.Get(c, kv.Key(i))
			if !ok || !bytes.Equal(v, kv.Value(i, 1, 500)) {
				t.Fatalf("Get(%d): ok=%v", i, ok)
			}
		}
		if _, ok := st.Get(c, []byte("nope")); ok {
			t.Fatal("found missing key")
		}
		if !st.Delete(c, kv.Key(7)) {
			t.Fatal("delete existing returned false")
		}
		if st.Delete(c, kv.Key(7)) {
			t.Fatal("double delete returned true")
		}
		if _, ok := st.Get(c, kv.Key(7)); ok {
			t.Fatal("deleted key still readable")
		}
	})
}

func TestOverwriteReturnsLatest(t *testing.T) {
	simHarness(t, nil, func(c env.Ctx, st *Store) {
		k := kv.Key(1)
		for v := uint64(1); v <= 20; v++ {
			st.Put(c, k, kv.Value(1, v, 700))
			got, ok := st.Get(c, k)
			if !ok || !bytes.Equal(got, kv.Value(1, v, 700)) {
				t.Fatalf("version %d lost", v)
			}
		}
	})
}

func TestSizeClassMigration(t *testing.T) {
	st, _ := simHarness(t, nil, func(c env.Ctx, st *Store) {
		k := kv.Key(42)
		sizes := []int{40, 400, 1500, 40, 6000, 100, 20000, 333}
		for v, n := range sizes {
			st.Put(c, k, kv.Value(42, uint64(v), n))
			got, ok := st.Get(c, k)
			if !ok || len(got) != n {
				t.Fatalf("after resize to %d: ok=%v len=%d", n, ok, len(got))
			}
			if !bytes.Equal(got, kv.Value(42, uint64(v), n)) {
				t.Fatalf("value mismatch at size %d", n)
			}
		}
	})
	// Migrations must free old slots back to free lists eventually.
	var freed int64
	for _, w := range st.workers {
		for _, sl := range w.slabs {
			freed += sl.Free.Freed()
		}
	}
	if freed == 0 {
		t.Fatal("class migration never freed a slot")
	}
}

func TestScanReturnsSortedWindow(t *testing.T) {
	simHarness(t, nil, func(c env.Ctx, st *Store) {
		for i := int64(0); i < 300; i++ {
			st.Put(c, kv.Key(i), kv.Value(i, 1, 600))
		}
		items := st.ScanN(c, kv.Key(100), 50)
		if len(items) != 50 {
			t.Fatalf("scan returned %d items", len(items))
		}
		for j, it := range items {
			want := kv.Key(100 + int64(j))
			if !bytes.Equal(it.Key, want) {
				t.Fatalf("scan[%d] key = %q, want %q", j, it.Key, want)
			}
			if !bytes.Equal(it.Value, kv.Value(100+int64(j), 1, 600)) {
				t.Fatalf("scan[%d] wrong value", j)
			}
		}
		// Range form.
		items = st.ScanRange(c, kv.Key(10), kv.Key(15))
		if len(items) != 5 {
			t.Fatalf("range scan returned %d", len(items))
		}
	})
}

func TestScanSeesLatestValues(t *testing.T) {
	simHarness(t, nil, func(c env.Ctx, st *Store) {
		for i := int64(0); i < 50; i++ {
			st.Put(c, kv.Key(i), kv.Value(i, 1, 500))
		}
		st.Put(c, kv.Key(25), kv.Value(25, 2, 500))
		items := st.ScanN(c, kv.Key(25), 1)
		if len(items) != 1 || !bytes.Equal(items[0].Value, kv.Value(25, 2, 500)) {
			t.Fatal("scan did not observe latest value")
		}
	})
}

func TestFreeSlotReuseBoundsGrowth(t *testing.T) {
	st, _ := simHarness(t, nil, func(c env.Ctx, st *Store) {
		// Insert, delete, reinsert repeatedly into one class.
		for round := 0; round < 5; round++ {
			for i := int64(0); i < 100; i++ {
				st.Put(c, kv.Key(i), kv.Value(i, uint64(round), 600))
			}
			if round < 4 {
				for i := int64(0); i < 100; i++ {
					st.Delete(c, kv.Key(i))
				}
			}
		}
	})
	stats := st.Stats()
	if stats.FreeReused == 0 {
		t.Fatal("free slots never reused")
	}
	// Appends bounded: 1024-stride slots, 100 live items, 5 rounds. With
	// reuse (N=64 heads per slab), total fresh slots must be far below
	// 500.
	var fresh uint64
	for _, w := range st.workers {
		for _, sl := range w.slabs {
			fresh += sl.Slots()
		}
	}
	if fresh > 320 {
		t.Fatalf("%d fresh slots allocated for 100 live items over 5 rounds; free-list reuse ineffective", fresh)
	}
}

// The simHarness doesn't expose a pre-Start hook, so bulk-load coverage
// lives in its own test with explicit assembly.
func TestBulkLoadExplicit(t *testing.T) {
	s := sim.New(1)
	e := sim.NewEnv(s, 8)
	disk := device.NewSimDisk(s, device.Optane(), nil)
	st, err := Open(e, DefaultConfig(disk))
	if err != nil {
		t.Fatal(err)
	}
	items := make([]kv.Item, 2000)
	for i := range items {
		items[i] = kv.Item{Key: kv.Key(int64(i)), Value: kv.Value(int64(i), 0, 900)}
	}
	if err := st.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	st.Start()
	e.Go("client", func(c env.Ctx) {
		for i := int64(0); i < 2000; i += 13 {
			v, ok := st.Get(c, kv.Key(i))
			if !ok || !bytes.Equal(v, kv.Value(i, 0, 900)) {
				t.Errorf("Get(%d) after bulk load: ok=%v", i, ok)
				return
			}
		}
		items := st.ScanN(c, kv.Key(0), 100)
		if len(items) != 100 {
			t.Errorf("scan after bulk load: %d items", len(items))
		}
		st.Stop(c)
	})
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if got := st.Stats().Items; got != 2000 {
		t.Fatalf("Items = %d", got)
	}
}

// TestRandomizedOracle drives mixed operations of many sizes against a
// model map, then validates every key, exercising in-place updates, class
// migration, deletes, reuse and multi-page items together.
func TestRandomizedOracle(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	type val struct {
		ver  uint64
		size int
	}
	oracle := map[int64]val{}
	st, ms := simHarness(t, func(c *Config) { c.Workers = 3; c.PageCachePages = 64 }, func(c env.Ctx, st *Store) {
		var ver uint64
		for op := 0; op < 4000; op++ {
			i := int64(r.Intn(200))
			switch r.Intn(10) {
			case 0, 1:
				if _, ok := oracle[i]; ok {
					st.Delete(c, kv.Key(i))
					delete(oracle, i)
				}
			case 2, 3, 4, 5:
				ver++
				size := []int{30, 200, 700, 1800, 5000, 12000}[r.Intn(6)]
				st.Put(c, kv.Key(i), kv.Value(i, ver, size))
				oracle[i] = val{ver, size}
			default:
				v, ok := st.Get(c, kv.Key(i))
				w, wok := oracle[i]
				if ok != wok {
					t.Fatalf("op %d: Get(%d) present=%v want %v", op, i, ok, wok)
				}
				if ok && !bytes.Equal(v, kv.Value(i, w.ver, w.size)) {
					t.Fatalf("op %d: Get(%d) wrong bytes (ver %d size %d)", op, i, w.ver, w.size)
				}
			}
		}
		for i, w := range oracle {
			v, ok := st.Get(c, kv.Key(i))
			if !ok || !bytes.Equal(v, kv.Value(i, w.ver, w.size)) {
				t.Fatalf("final check: key %d ok=%v", i, ok)
			}
		}
	})
	_ = st
	_ = ms
}

func TestRecoveryRebuildsEverything(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	type val struct {
		ver  uint64
		size int
	}
	oracle := map[int64]val{}
	var ver uint64
	// Phase 1: run a workload, then stop cleanly.
	_, ms := simHarness(t, func(c *Config) { c.Workers = 2 }, func(c env.Ctx, st *Store) {
		for op := 0; op < 1500; op++ {
			i := int64(r.Intn(120))
			switch r.Intn(6) {
			case 0:
				if _, ok := oracle[i]; ok {
					st.Delete(c, kv.Key(i))
					delete(oracle, i)
				}
			default:
				ver++
				size := []int{100, 700, 1600, 9000}[r.Intn(4)]
				st.Put(c, kv.Key(i), kv.Value(i, ver, size))
				oracle[i] = val{ver, size}
			}
		}
	})

	// Phase 2: open a brand-new store over the same backing bytes (as
	// after a crash: all in-memory state lost) and recover.
	s2 := sim.New(2)
	e2 := sim.NewEnv(s2, 8)
	disk2 := device.NewSimDisk(s2, device.Optane(), ms)
	cfg := DefaultConfig(disk2)
	cfg.Workers = 2
	st2, err := Open(e2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2.Go("recover-client", func(c env.Ctx) {
		if err := st2.Recover(c); err != nil {
			t.Errorf("recover: %v", err)
			return
		}
		st2.Start()
		for i, w := range oracle {
			v, ok := st2.Get(c, kv.Key(i))
			if !ok {
				t.Errorf("key %d missing after recovery", i)
				return
			}
			if !bytes.Equal(v, kv.Value(i, w.ver, w.size)) {
				t.Errorf("key %d wrong bytes after recovery", i)
				return
			}
		}
		// Deleted keys must stay deleted.
		for i := int64(0); i < 120; i++ {
			if _, ok := oracle[i]; ok {
				continue
			}
			if _, found := st2.Get(c, kv.Key(i)); found {
				t.Errorf("deleted key %d resurrected by recovery", i)
				return
			}
		}
		// New writes must keep working (append cursors restored).
		st2.Put(c, kv.Key(500), kv.Value(500, 1, 900))
		if v, ok := st2.Get(c, kv.Key(500)); !ok || !bytes.Equal(v, kv.Value(500, 1, 900)) {
			t.Error("write after recovery failed")
		}
		st2.Stop(c)
	})
	if err := s2.Run(-1); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if st2.Stats().Items != int64(len(oracle))+1 {
		t.Fatalf("recovered item count %d, want %d", st2.Stats().Items, len(oracle)+1)
	}
}

func TestRealEnvEndToEnd(t *testing.T) {
	e := env.NewReal()
	ms := device.NewMemStore()
	disk := device.NewRealDisk(ms, 4, false)
	cfg := DefaultConfig(disk)
	cfg.Workers = 3
	st, err := Open(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.Start()
	errCh := make(chan error, 1)
	e.Go("client", func(c env.Ctx) {
		defer close(errCh)
		for i := int64(0); i < 300; i++ {
			st.Put(c, kv.Key(i), kv.Value(i, 1, 500))
		}
		for i := int64(0); i < 300; i++ {
			v, ok := st.Get(c, kv.Key(i))
			if !ok || !bytes.Equal(v, kv.Value(i, 1, 500)) {
				errCh <- fmt.Errorf("get %d failed", i)
				return
			}
		}
		items := st.ScanN(c, kv.Key(50), 20)
		if len(items) != 20 {
			errCh <- fmt.Errorf("scan returned %d", len(items))
			return
		}
		st.Stop(c)
	})
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	e.Wait()
	disk.Close()
}

func TestRealEnvFileBackedRecovery(t *testing.T) {
	dir := t.TempDir()
	fs, err := device.OpenFileStore(dir + "/kvell.dat")
	if err != nil {
		t.Fatal(err)
	}
	// Session 1: write, stop.
	{
		e := env.NewReal()
		disk := device.NewRealDisk(fs, 2, false)
		cfg := DefaultConfig(disk)
		cfg.Workers = 2
		cfg.WorkerRegionPages = 1 << 18 // keep file offsets modest
		st, err := Open(e, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st.Start()
		done := make(chan struct{})
		e.Go("client", func(c env.Ctx) {
			defer close(done)
			for i := int64(0); i < 200; i++ {
				st.Put(c, kv.Key(i), kv.Value(i, 3, 700))
			}
			st.Delete(c, kv.Key(5))
			st.Stop(c)
		})
		<-done
		e.Wait()
		disk.Close()
	}
	// Session 2: recover from the file and verify.
	{
		e := env.NewReal()
		disk := device.NewRealDisk(fs, 2, false)
		cfg := DefaultConfig(disk)
		cfg.Workers = 2
		cfg.WorkerRegionPages = 1 << 18
		st, err := Open(e, cfg)
		if err != nil {
			t.Fatal(err)
		}
		errCh := make(chan error, 1)
		e.Go("client", func(c env.Ctx) {
			defer close(errCh)
			if err := st.Recover(c); err != nil {
				errCh <- err
				return
			}
			st.Start()
			for i := int64(0); i < 200; i++ {
				v, ok := st.Get(c, kv.Key(i))
				if i == 5 {
					if ok {
						errCh <- fmt.Errorf("deleted key 5 resurrected")
					}
					continue
				}
				if !ok || !bytes.Equal(v, kv.Value(i, 3, 700)) {
					errCh <- fmt.Errorf("key %d wrong after file recovery", i)
					return
				}
			}
			st.Stop(c)
		})
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
		e.Wait()
		disk.Close()
	}
	fs.Close()
}

func TestLocationEncoding(t *testing.T) {
	for _, c := range []struct {
		class int
		slot  uint64
	}{{0, 0}, {5, 12345}, {8, 1<<56 - 1}, {255, 42}} {
		l := loc(c.class, c.slot)
		if l.class() != c.class || l.slot() != c.slot {
			t.Fatalf("loc(%d,%d) roundtrip = (%d,%d)", c.class, c.slot, l.class(), l.slot())
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Open(env.NewReal(), Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	bad := DefaultConfig(device.NewRealDisk(device.NewMemStore(), 1, false))
	bad.WorkerRegionPages = 16
	if _, err := Open(env.NewReal(), bad); err == nil {
		t.Fatal("tiny region accepted")
	}
}
