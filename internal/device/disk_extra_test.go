package device

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"kvell/internal/env"
	"kvell/internal/sim"
)

func TestSpikesAreDeterministic(t *testing.T) {
	run := func() env.Time {
		s := sim.New(42)
		prof := AmazonNVMe()
		prof.SpikeEvery = 50 * env.Millisecond
		prof.SpikeJitter = 5 * env.Millisecond
		d := NewSimDisk(s, prof, NullStore{})
		r := rand.New(rand.NewSource(1))
		var worst env.Time
		buf := make([]byte, PageSize)
		var submit func()
		submit = func() {
			start := s.Now()
			d.Submit(&Request{Op: Write, Page: r.Int63n(1 << 30), Buf: buf, Done: func() {
				if lat := s.Now() - start; lat > worst {
					worst = lat
				}
				if s.Now() < env.Second/2 {
					submit()
				}
			}})
		}
		s.Go("gen", func(p *sim.Proc) {
			for i := 0; i < 32; i++ {
				submit()
			}
		})
		if err := s.Run(env.Second / 2); err != nil {
			t.Fatal(err)
		}
		s.Close()
		return worst
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("spike schedule not deterministic: %d vs %d", a, b)
	}
	if a < 3*env.Millisecond {
		t.Fatalf("no spike observed (worst %d)", a)
	}
}

func TestMixPenaltySlowsReadsUnderWrites(t *testing.T) {
	// Config-Amazon-8NVMe: reads slow down substantially when mixed with
	// writes (Table 1: 412K read-only vs 175K mixed).
	readIOPS := func(mixWrites bool) int64 {
		s := sim.New(3)
		prof := AmazonNVMe()
		prof.SpikeEvery = 0
		d := NewSimDisk(s, prof, NullStore{})
		r := rand.New(rand.NewSource(4))
		var reads int64
		buf := make([]byte, PageSize)
		var submit func(i int)
		submit = func(i int) {
			op := Read
			if mixWrites && i%2 == 0 {
				op = Write
			}
			d.Submit(&Request{Op: op, Page: r.Int63n(1 << 30), Buf: buf, Done: func() {
				if op == Read {
					reads++
				}
				if s.Now() < env.Second/4 {
					submit(i + 2)
				}
			}})
		}
		s.Go("gen", func(p *sim.Proc) {
			for i := 0; i < 128; i++ {
				submit(i)
			}
		})
		if err := s.Run(env.Second / 4); err != nil {
			t.Fatal(err)
		}
		s.Close()
		return reads * 4
	}
	pure, mixed := readIOPS(false), readIOPS(true)
	if mixed*2 > pure {
		t.Fatalf("mixed read IOPS %d not penalized vs pure %d", mixed, pure)
	}
}

func TestRealDiskSyncWritesDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sync.dat")
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	d := NewRealDisk(fs, 2, true) // fsync after every write
	var wg sync.WaitGroup
	buf := make([]byte, PageSize)
	buf[7] = 0x77
	wg.Add(1)
	d.Submit(&Request{Op: Write, Page: 3, Buf: buf, Done: wg.Done})
	wg.Wait()
	d.Close()
	// Reopen the file cold and verify.
	fs2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	got := make([]byte, PageSize)
	if err := fs2.ReadPages(3, got); err != nil {
		t.Fatal(err)
	}
	if got[7] != 0x77 {
		t.Fatal("synced write not present after reopen")
	}
}

func TestNullStore(t *testing.T) {
	var n NullStore
	buf := make([]byte, PageSize)
	buf[0] = 0xAA
	if err := n.WritePages(1, buf); err != nil {
		t.Fatal(err)
	}
	if err := n.ReadPages(1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Fatal("NullStore read returned nonzero")
	}
	if err := n.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiPageRequestCountsAllBytes(t *testing.T) {
	s := sim.New(1)
	d := NewSimDisk(s, Optane(), nil)
	buf := make([]byte, 8*PageSize)
	done := false
	s.Go("io", func(p *sim.Proc) {
		d.Submit(&Request{Op: Write, Page: 0, Buf: buf, Done: func() { done = true }})
	})
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if !done {
		t.Fatal("multi-page write never completed")
	}
	if c := d.Counters(); c.WriteBytes != 8*PageSize || c.WriteOps != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestSyncIOBlocksUntilCompletion: Do is a blocking system call — the data is
// there and device time has passed when it returns — on the simulated disk
// from several procs sharing one pool, and on the real disk.
func TestSyncIOBlocksUntilCompletion(t *testing.T) {
	s := sim.New(1)
	e := sim.NewEnv(s, 2)
	d := NewSimDisk(s, Optane(), nil)
	sio := NewSyncIO(e)
	for i := int64(0); i < 3; i++ {
		e.Go("io", func(c env.Ctx) {
			want := bytes.Repeat([]byte{byte(i + 1)}, 2*PageSize)
			got := make([]byte, len(want))
			for round := 0; round < 4; round++ {
				t0 := c.Now()
				sio.Do(c, d, Write, 10*i, want)
				sio.Do(c, d, Read, 10*i, got)
				if !bytes.Equal(got, want) {
					t.Errorf("proc %d round %d: read back something else", i, round)
				}
				if c.Now() == t0 {
					t.Errorf("proc %d round %d: two I/Os took no virtual time", i, round)
				}
				clear(got)
			}
		})
	}
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if c := d.Counters(); c.ReadOps != 12 || c.WriteOps != 12 || c.WriteBytes != 24*PageSize {
		t.Fatalf("counters = %+v", c)
	}
	if n := len(sio.free); n == 0 || n > 3 {
		t.Fatalf("%d pooled waiters after 24 requests from 3 procs, want 1..3", n)
	}

	rd := NewRealDisk(NewMemStore(), 2, false)
	defer rd.Close()
	re := env.NewReal()
	re.Go("io", func(c env.Ctx) {
		rio := NewSyncIO(re) // one pool per real thread
		want := bytes.Repeat([]byte{7}, PageSize)
		got := make([]byte, PageSize)
		rio.Do(c, rd, Write, 5, want)
		rio.Do(c, rd, Read, 5, got)
		if !bytes.Equal(got, want) {
			t.Error("real disk: read back something else")
		}
	})
	re.Wait()
}

func TestDiskStore(t *testing.T) {
	ms := NewMemStore()
	var d Disk = NewSimDisk(sim.New(1), Optane(), ms)
	if d.Store() != Store(ms) {
		t.Fatal("SimDisk: Store is not the backing store")
	}
	rd := NewRealDisk(ms, 1, false)
	defer rd.Close()
	d = rd
	if d.Store() != Store(ms) || d.Busy() || d.Dead() {
		t.Fatal("RealDisk: Store is not the backing store, or it reports a busy or dead disk")
	}
}
