package sim

import (
	"testing"
	"testing/quick"
)

func TestClockAdvances(t *testing.T) {
	s := New(1)
	var times []Time
	s.Go("a", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10)
			times = append(times, p.Now())
		}
	})
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 20, 30, 40, 50}
	for i, w := range want {
		if times[i] != w {
			t.Errorf("wake %d at %d, want %d", i, times[i], w)
		}
	}
	if s.Live() != 0 {
		t.Errorf("live procs after run: %d", s.Live())
	}
}

func TestEventOrderFIFOAtSameInstant(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, func() { order = append(order, i) })
	}
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	s := New(1)
	s.Go("sleeper", func(p *Proc) { p.Sleep(1000) })
	if err := s.Run(300); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 300 {
		t.Fatalf("now = %d, want 300", s.Now())
	}
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 1000 {
		t.Fatalf("now = %d, want 1000", s.Now())
	}
}

func TestCloseUnwindsParkedProcs(t *testing.T) {
	s := New(1)
	q := NewQueue(s)
	for i := 0; i < 4; i++ {
		s.Go("blocked", func(p *Proc) { q.PopWait(p, make([]any, 1)) })
	}
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Live() != 0 {
		t.Errorf("live procs after close: %d", s.Live())
	}
}

func TestProcPanicIsReported(t *testing.T) {
	s := New(1)
	s.Go("bad", func(p *Proc) { panic("boom") })
	if err := s.Run(-1); err == nil {
		t.Fatal("expected error from panicking proc")
	}
}

func TestStationSingleServerSerializes(t *testing.T) {
	st := NewStation(1)
	d1 := st.Assign(0, 10)
	d2 := st.Assign(0, 10)
	d3 := st.Assign(5, 10)
	if d1 != 10 || d2 != 20 || d3 != 30 {
		t.Fatalf("completions = %d,%d,%d; want 10,20,30", d1, d2, d3)
	}
}

func TestStationParallelism(t *testing.T) {
	st := NewStation(4)
	for i := 0; i < 4; i++ {
		if done := st.Assign(0, 10); done != 10 {
			t.Fatalf("parallel op %d done at %d, want 10", i, done)
		}
	}
	if done := st.Assign(0, 10); done != 20 {
		t.Fatalf("queued op done at %d, want 20", done)
	}
}

func TestStationThroughputCap(t *testing.T) {
	// 6 servers, 11us service => ~545K ops/s. Submit 10000 ops at time 0;
	// the last completes at ceil(10000/6)*11us.
	st := NewStation(6)
	var last Time
	for i := 0; i < 10000; i++ {
		last = st.Assign(0, 11000)
	}
	want := Time(1667 * 11000)
	if last != want {
		t.Fatalf("last completion %d, want %d", last, want)
	}
}

func TestStationPause(t *testing.T) {
	st := NewStation(2)
	st.Assign(0, 10) // one server busy until 10
	st.Pause(100)
	if done := st.Assign(0, 5); done != 105 {
		t.Fatalf("post-pause completion %d, want 105", done)
	}
}

func TestStationAssignMonotonicProperty(t *testing.T) {
	// Property: with a single server, completion times are strictly
	// increasing for positive service times, and never precede arrival.
	f := func(durs []uint16) bool {
		st := NewStation(1)
		var now, prev Time
		for _, d := range durs {
			dd := Time(d%1000) + 1
			done := st.Assign(now, dd)
			if done <= prev || done < now+dd {
				return false
			}
			prev = done
			now += Time(d % 7)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPoolQueuesWhenSaturated(t *testing.T) {
	s := New(1)
	pool := NewPool(s, 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		s.Go("w", func(p *Proc) {
			pool.Use(p, 100)
			finish = append(finish, p.Now())
		})
	}
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	// 2 cores, 4 jobs of 100ns: two finish at 100, two at 200.
	if len(finish) != 4 || finish[0] != 100 || finish[1] != 100 || finish[2] != 200 || finish[3] != 200 {
		t.Fatalf("finish times = %v", finish)
	}
	if pool.Station().BusyTime() != 400 {
		t.Fatalf("busy time = %d, want 400", pool.Station().BusyTime())
	}
}

func TestPoolQuantumSplitsLongBursts(t *testing.T) {
	s := New(1)
	pool := NewPool(s, 1)
	pool.Quantum = 100
	var longDone, shortDone Time
	s.Go("long", func(p *Proc) {
		pool.Use(p, 1000)
		longDone = p.Now()
	})
	s.Go("short", func(p *Proc) {
		p.Sleep(50) // arrive while the long burst is running
		pool.Use(p, 100)
		shortDone = p.Now()
	})
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	if longDone != 1100 {
		t.Fatalf("long done at %d, want 1100 (interleaved)", longDone)
	}
	if shortDone >= longDone {
		t.Fatalf("short (done %d) should preempt long (done %d) via quantum", shortDone, longDone)
	}
}

func TestMutexFIFOAndOwnershipTransfer(t *testing.T) {
	s := New(1)
	m := NewMutex(s)
	var order []string
	hold := func(name string, arrive, dur Time) {
		s.Go(name, func(p *Proc) {
			p.Sleep(arrive)
			m.Lock(p)
			order = append(order, name)
			p.Sleep(dur)
			m.Unlock(p)
		})
	}
	hold("a", 0, 100)
	hold("b", 10, 10)
	hold("c", 20, 10)
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v, want [a b c]", order)
	}
	if m.Contended != 2 {
		t.Fatalf("contended = %d, want 2", m.Contended)
	}
}

func TestMutexTryLockCountsFailedAttempts(t *testing.T) {
	s := New(1)
	m := NewMutex(s)
	if !m.TryLock() {
		t.Fatal("TryLock on free mutex failed")
	}
	if m.TryLock() {
		t.Fatal("TryLock on held mutex succeeded")
	}
	if m.TryLock() {
		t.Fatal("TryLock on held mutex succeeded")
	}
	// Lock counts every attempt; TryLock must too, or contention ratios
	// computed as Contended/Acquires are skewed.
	if m.Acquires != 3 {
		t.Errorf("Acquires = %d, want 3 (failed tries must count)", m.Acquires)
	}
	if m.Contended != 2 {
		t.Errorf("Contended = %d, want 2", m.Contended)
	}
	m.Unlock(nil)
	if !m.TryLock() {
		t.Fatal("TryLock after unlock failed")
	}
	if m.Acquires != 4 || m.Contended != 2 {
		t.Errorf("after re-acquire: Acquires=%d Contended=%d, want 4, 2", m.Acquires, m.Contended)
	}
}

func TestCondSignalWakesInOrder(t *testing.T) {
	s := New(1)
	m := NewMutex(s)
	c := NewCond(s)
	ready := 0
	var got []int
	for i := 0; i < 3; i++ {
		i := i
		s.Go("waiter", func(p *Proc) {
			m.Lock(p)
			for ready <= i {
				c.Wait(p, m)
			}
			got = append(got, i)
			m.Unlock(p)
		})
	}
	s.Go("signaler", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			ready++
			c.Broadcast()
		}
	})
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %v, want 3 wakeups", got)
	}
}

func TestQueueFIFOAndBatchedPop(t *testing.T) {
	s := New(1)
	q := NewQueue(s)
	var batches [][]any
	s.Go("consumer", func(p *Proc) {
		for {
			b := q.PopWait(p, make([]any, 3))
			if b == nil {
				return
			}
			batches = append(batches, b)
		}
	})
	s.Go("producer", func(p *Proc) {
		for i := 0; i < 7; i++ {
			q.Push(i)
		}
		p.Sleep(10)
		q.Close()
	})
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	var flat []int
	for _, b := range batches {
		if len(b) > 3 {
			t.Fatalf("batch larger than max: %v", b)
		}
		for _, v := range b {
			flat = append(flat, v.(int))
		}
	}
	if len(flat) != 7 {
		t.Fatalf("consumed %v, want 7 items", flat)
	}
	for i, v := range flat {
		if v != i {
			t.Fatalf("order broken: %v", flat)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := New(42)
		pool := NewPool(s, 2)
		q := NewQueue(s)
		var log []Time
		for w := 0; w < 3; w++ {
			s.Go("worker", func(p *Proc) {
				for {
					b := q.PopWait(p, make([]any, 2))
					if b == nil {
						return
					}
					pool.Use(p, Time(100+s.Rand().Intn(50)))
					log = append(log, p.Now())
				}
			})
		}
		s.Go("gen", func(p *Proc) {
			for i := 0; i < 50; i++ {
				q.Push(i)
				p.Sleep(Time(s.Rand().Intn(30)))
			}
			q.Close()
		})
		if err := s.Run(-1); err != nil {
			t.Fatal(err)
		}
		s.Close()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
