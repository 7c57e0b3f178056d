package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"kvell/internal/btree"
	"kvell/internal/core"
	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/hotcache"
	"kvell/internal/kv"
	"kvell/internal/mvcc"
	"kvell/internal/pagecache"
	"kvell/internal/sim"
	"kvell/internal/slab"
	"kvell/internal/stats"
	"kvell/internal/trace"
	"kvell/internal/ycsb"
)

// A probe times one public function of one layer in a tight loop: the
// layer's own cost with nothing else in the way. prep builds the state for n
// operations and returns the stretch to time, plus an optional clean-up.
type probe struct {
	name string
	unit string // "ns" per op (allocations per op are reported too), "us" per op, or "s" for a one-shot over n records
	n    int
	prep func(n int) (loop, done func())
}

func allocsName(probe string) string { return probe[:len(probe)-len("_ns")] + "_allocs" }

var sink uint64 // keeps probed results alive

var probes = []probe{
	{"sim.event_ns", "ns", 100_000, func(n int) (func(), func()) {
		// Two procs alternate, so every wake-up is a real scheduler event
		// and not the kernel's lone-sleeper shortcut.
		s := sim.New(1)
		for w := 0; w < 2; w++ {
			s.Go("sleeper", func(p *sim.Proc) {
				for i := 0; i < n/2; i++ {
					p.Sleep(2)
				}
			})
		}
		return simLoop(s)
	}},
	{"sim.proc_switch_ns", "ns", 100_000, func(n int) (func(), func()) {
		s := sim.New(1)
		m := sim.NewMutex(s)
		left := n
		for w := 0; w < 2; w++ {
			s.Go("worker", func(p *sim.Proc) {
				for left > 0 {
					m.Lock(p)
					left--
					p.Sleep(0) // force the other proc to queue on m
					m.Unlock(p)
				}
			})
		}
		return simLoop(s)
	}},
	{"sim.pool_use_ns", "ns", 100_000, func(n int) (func(), func()) {
		s := sim.New(1)
		pool := sim.NewPool(s, 4)
		for w := 0; w < 2; w++ {
			s.Go("worker", func(p *sim.Proc) {
				for i := 0; i < n/2; i++ {
					pool.Use(p, 3_000)
				}
			})
		}
		return simLoop(s)
	}},
	{"device.simdisk_submit_ns", "ns", 100_000, func(n int) (func(), func()) {
		s := sim.New(1)
		d := device.NewSimDisk(s, device.Optane(), device.NullStore{})
		issued := 0
		r := &device.Request{Op: device.Read, Buf: make([]byte, device.PageSize)}
		r.Done = func() {
			if issued < n {
				issued++
				r.Page = int64(issued * 7919 % 100_000)
				d.Submit(r)
			}
		}
		s.At(0, r.Done)
		return simLoop(s)
	}},
	{"btree.get_ns", "ns", 100_000, func(n int) (func(), func()) {
		t, keys := probeTree()
		return func() {
			for i := 0; i < n; i++ {
				v, _ := t.Get(keys[i*7919%len(keys)])
				sink += v
			}
		}, nil
	}},
	{"btree.put_ns", "ns", 100_000, func(n int) (func(), func()) {
		t, keys := probeTree()
		return func() {
			for i := 0; i < n; i++ {
				t.Put(keys[i*7919%len(keys)], uint64(i))
			}
		}, nil
	}},
	{"btree.scan100_ns", "ns", 20_000, func(n int) (func(), func()) {
		t, keys := probeTree()
		return func() {
			for i := 0; i < n; i++ {
				left := 100
				t.AscendFrom(keys[i*7919%(len(keys)-100)], func(_ []byte, v uint64) bool {
					sink += v
					left--
					return left > 0
				})
			}
		}, nil
	}},
	{"pagecache.hit_ns", "ns", 400_000, func(n int) (func(), func()) {
		c := pagecache.New(10_000, pagecache.IndexBTree)
		data := pagecache.PageBuf()
		for i := int64(0); i < 10_000; i++ {
			c.Insert(i, data)
		}
		return func() {
			for i := 0; i < n; i++ {
				sink += uint64(len(c.Get(int64(i * 7919 % 10_000))))
			}
		}, nil
	}},
	{"pagecache.miss_evict_ns", "ns", 100_000, func(n int) (func(), func()) {
		c := pagecache.New(4096, pagecache.IndexBTree)
		data := pagecache.PageBuf()
		return func() {
			for i := 0; i < n; i++ {
				if c.Get(int64(i)) == nil {
					c.Insert(int64(i), data)
				}
			}
		}, nil
	}},
	{"slab.encode_1k_ns", "ns", 100_000, func(n int) (func(), func()) {
		s, buf, key, val := probeSlab()
		return func() {
			for i := 0; i < n; i++ {
				if err := s.EncodeItem(buf, uint64(i), key, val); err != nil {
					panic(err)
				}
			}
		}, nil
	}},
	{"slab.decode_1k_ns", "ns", 100_000, func(n int) (func(), func()) {
		s, buf, key, val := probeSlab()
		if err := s.EncodeItem(buf, 1, key, val); err != nil {
			panic(err)
		}
		return func() {
			for i := 0; i < n; i++ {
				d, err := s.DecodeSlot(buf)
				if err != nil {
					panic(err)
				}
				sink += uint64(d.Kind)
			}
		}, nil
	}},
	{"hotcache.hit_ns", "ns", 100_000, func(n int) (func(), func()) {
		const resident = 4096
		h := hotcache.New(hotcache.Config{CapBytes: resident * 1024, SlotBytes: 1024, PromoteAfter: 1})
		val := make([]byte, 1024-kv.KeyLen)
		vdst := make([]byte, 1024)
		var keys [][]byte
		for i := int64(0); i < resident/2; i++ {
			k := kv.Key(i)
			h.Get(k, 0, &vdst) // the miss is the evidence Admit asks for
			if promoted, _ := h.Admit(k, val, 0); promoted {
				keys = append(keys, k)
			}
		}
		return func() {
			for i := 0; i < n; i++ {
				if _, ok := h.Get(keys[i*7919%len(keys)], int64(i), &vdst); !ok {
					panic("hotcache probe: resident key missed")
				}
			}
		}, nil
	}},
	{"mvcc.envelope_ns", "ns", 400_000, func(n int) (func(), func()) {
		e := mvcc.Envelope{Kind: mvcc.KindCommitPut, StartTS: 7, CommitTS: 9, PrevLoc: mvcc.NoLoc,
			Primary: kv.Key(1), Value: make([]byte, 64)}
		var buf []byte
		return func() {
			for i := 0; i < n; i++ {
				e.StartTS = uint64(i)
				buf = mvcc.AppendEncode(buf[:0], &e)
				d, ok := mvcc.Decode(buf)
				if !ok {
					panic("mvcc probe: decode failed")
				}
				sink += d.StartTS
			}
		}, nil
	}},
	{"ycsb.next_zipf_ns", "ns", 400_000, func(n int) (func(), func()) {
		g := ycsb.NewGeneratorTheta(ycsb.Core('C'), ycsb.Zipfian, records, itemSize, 1, ycsb.DefaultTheta)
		r := &kv.Request{}
		return func() {
			for i := 0; i < n; i++ {
				g.FillNext(r)
			}
		}, nil
	}},
	{"stats.hist_add_ns", "ns", 1_000_000, func(n int) (func(), func()) {
		h := stats.NewHist()
		return func() {
			for i := 0; i < n; i++ {
				h.Add(int64(1000 + i*7919%1_000_000))
			}
		}, nil
	}},
	{"trace.begin_finish_ns", "ns", 400_000, func(n int) (func(), func()) {
		tr := trace.NewTracer(16)
		return func() {
			for i := 0; i < n; i++ {
				now := int64(i) * 1000
				c := tr.Begin(0, now)
				c.Add(trace.CompQueue, now, now+100)
				c.AddDev(0, 0, now+100, now+200, now+900)
				tr.Finish(c, now+1000)
			}
		}, nil
	}},

	// The store on the real runtime: a file in a temporary directory, two
	// worker goroutines, two client goroutines.
	{"kvell.put_us", "us", 10_000, func(n int) (func(), func()) {
		db, done := realDB(0)
		return func() {
			realClients(n, func(i int) { db.Put(kv.Key(int64(i)), realValue) })
		}, done
	}},
	{"kvell.get_us", "us", 10_000, func(n int) (func(), func()) {
		db, done := realDB(n)
		return func() {
			realClients(n, func(i int) {
				if _, ok := db.Get(kv.Key(int64(i))); !ok {
					panic(fmt.Sprintf("kvell probe: key %d is missing", i))
				}
			})
		}, done
	}},
	{"kvell.scan100_us", "us", 1_000, func(n int) (func(), func()) {
		db, done := realDB(10*n + 100)
		return func() {
			realClients(n, func(i int) {
				if items := db.Scan(kv.Key(int64(i*7919%(10*n))), 100); len(items) != 100 {
					panic(fmt.Sprintf("kvell probe: scan returned %d items", len(items)))
				}
			})
		}, done
	}},
	{"kvell.reopen_s", "s", 10_000, func(n int) (func(), func()) {
		db, done := realDB(n)
		db.Close()
		return db.reopen, done // runs the recovery scan
	}},
}

// simLoop times a prepared simulation from first event to quiescence.
func simLoop(s *sim.Sim) (loop, done func()) {
	return func() {
			if err := s.Run(-1); err != nil {
				panic(err)
			}
		}, func() {
			if err := s.Close(); err != nil {
				panic(err)
			}
		}
}

func probeTree() (*btree.Tree, [][]byte) {
	const n = 100_000
	t := btree.New()
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = kv.Key(int64(i))
		t.Put(keys[i], uint64(i))
	}
	return t, keys
}

func probeSlab() (s *slab.Slab, buf, key, val []byte) {
	s = slab.New(0, 1024, device.NewAllocator(0), 256, 64)
	key = kv.Key(1)
	return s, make([]byte, 1024), key, make([]byte, 1024-slab.HeaderSize-len(key))
}

var realValue = make([]byte, 1000)

// realStore is a KVell store on the real runtime: worker goroutines, the
// wall clock and a file. It is put together from the same pieces, in the same
// order, as the root package's kvell.Open, with one difference. kvell.Open
// spaces the workers' regions 16 GB apart, so even a store of a few records is
// a sparse file with offsets of tens of GB, and a write to it fails ("file too
// large") wherever a file-size limit is set or files cannot have holes. Here a
// region is 256 MB, which still holds every probe's records many times over.
type realStore struct {
	path string
	e    *env.RealEnv
	st   *core.Store
	disk *device.RealDisk
	file *device.FileStore
}

const realRegionPages = 1 << 16 // 256 MB per worker

// realCtx is the calling goroutine acting as a client thread.
type realCtx struct{ e *env.RealEnv }

func (c realCtx) Now() env.Time { return c.e.Now() }
func (realCtx) CPU(env.Time)    {}
func (realCtx) Sleep(env.Time)  {}
func (realCtx) SetTrace(any)    {}
func (realCtx) Trace() any      { return nil }

// reopen opens the store from its file alone: a full recovery scan, then the
// workers start.
func (db *realStore) reopen() {
	file, err := device.OpenFileStore(db.path)
	if err != nil {
		panic(err)
	}
	db.file = file
	db.e = env.NewReal()
	const workers = 2
	db.disk = device.NewRealDisk(file, 2*workers, false)
	cfg := core.DefaultConfig(db.disk)
	cfg.Workers = workers
	cfg.PageCachePages = 64 << 20 / device.PageSize
	cfg.WorkerRegionPages = realRegionPages
	if db.st, err = core.Open(db.e, cfg); err != nil {
		panic(err)
	}
	recovered := make(chan error, 1)
	db.e.Go("recovery", func(c env.Ctx) { recovered <- db.st.Recover(c) })
	if err := <-recovered; err != nil {
		panic(err)
	}
	db.st.Start()
}

func (db *realStore) Put(key, value []byte) { db.st.Put(realCtx{db.e}, key, value) }

func (db *realStore) Get(key []byte) ([]byte, bool) { return db.st.Get(realCtx{db.e}, key) }

func (db *realStore) Delete(key []byte) bool { return db.st.Delete(realCtx{db.e}, key) }

func (db *realStore) Scan(start []byte, count int) []kv.Item {
	return db.st.ScanN(realCtx{db.e}, start, count)
}

// Close lets pending operations complete, stops the workers and closes the
// file. A closed store may be closed again.
func (db *realStore) Close() {
	if db.st == nil {
		return
	}
	db.st.Stop(realCtx{db.e})
	db.e.Wait()
	db.disk.Close()
	if err := db.file.Close(); err != nil {
		panic(err)
	}
	db.st = nil
}

// realDB opens a store in a fresh temporary directory and loads it with the
// given number of records; done closes it and removes the directory.
func realDB(records int) (*realStore, func()) {
	dir, err := os.MkdirTemp("", "kvell-e2e-")
	if err != nil {
		panic(err)
	}
	db := &realStore{path: filepath.Join(dir, "data.kvell")}
	db.reopen()
	for i := 0; i < records; i++ {
		db.Put(kv.Key(int64(i)), realValue)
	}
	return db, func() {
		db.Close()
		os.RemoveAll(dir)
	}
}

// realClients splits n operations between two client goroutines and waits
// for both.
func realClients(n int, op func(i int)) {
	done := make(chan struct{})
	for c := 0; c < 2; c++ {
		go func(c int) {
			for i := c; i < n; i += 2 {
				op(i)
			}
			done <- struct{}{}
		}(c)
	}
	<-done
	<-done
}

// runProbes runs every probe: a tenth-length warm-up, then the fastest of
// three timed runs (noise on a busy host only ever adds time). div > 1 is
// the smoke test's: one short run each, for the names and not the numbers.
func runProbes(div int) map[string]float64 {
	// The real-runtime probes need their worker and client goroutines side
	// by side; the simulator passes run on one P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	out := map[string]float64{}
	for _, p := range probes {
		p.n = max(p.n/div, 20)
		reps, warm := 3, p.n/10
		if p.unit == "s" || div > 1 {
			reps, warm = 1, 0
		}
		if warm > 0 {
			timeProbe(p, warm)
		}
		best, mallocs := timeProbe(p, p.n)
		for rep := 1; rep < reps; rep++ {
			if d, m := timeProbe(p, p.n); d < best {
				best, mallocs = d, m
			}
		}
		per := best.Seconds() / float64(p.n)
		switch p.unit {
		case "ns":
			per *= 1e9
		case "us":
			per *= 1e6
		case "s": // a one-shot over n records, reported whole
			per = best.Seconds()
		}
		out[p.name] = per
		if p.unit == "ns" {
			out[allocsName(p.name)] = float64(mallocs) / float64(p.n)
		}
	}
	return out
}

func timeProbe(p probe, n int) (time.Duration, uint64) {
	loop, done := p.prep(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	loop()
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	if done != nil {
		done()
	}
	return d, after.Mallocs - before.Mallocs
}
