package sim

import "testing"

// BenchmarkEventThroughput measures raw scheduler throughput (events/sec);
// it bounds how much virtual time the harness can simulate per real second.
func BenchmarkEventThroughput(b *testing.B) {
	s := New(1)
	n := 0
	s.Go("spinner", func(p *Proc) {
		for n < b.N {
			n++
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(-1); err != nil {
		b.Fatal(err)
	}
	s.Close()
}

// BenchmarkPoolUse measures charging multi-quantum CPU bursts to a core pool
// (the path compactions and other long CPU work take).
func BenchmarkPoolUse(b *testing.B) {
	s := New(1)
	pool := NewPool(s, 4) // Quantum is 200us, so 1ms bursts split 5 ways
	n := 0
	s.Go("worker", func(p *Proc) {
		for n < b.N {
			n++
			pool.Use(p, 1000*1000)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(-1); err != nil {
		b.Fatal(err)
	}
	s.Close()
}

// BenchmarkQueuePushPop measures FIFO mechanics at a realistic standing depth
// (a worker's request queue), where a slice-backed queue pays an O(depth)
// shift per pop.
func BenchmarkQueuePushPop(b *testing.B) {
	s := New(1)
	q := NewQueue(s)
	for i := 0; i < 1024; i++ {
		q.Push(i)
	}
	var item any = q      // a pointer, like the requests a worker queue carries
	buf := make([]any, 1) // the consumer's batch buffer, as in worker.run
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(item)
		q.TryPop(buf)
	}
}

// BenchmarkMutexHandoff measures contended lock ownership transfer between
// two procs (wake + park per handoff, the engines' hottest sync pattern).
func BenchmarkMutexHandoff(b *testing.B) {
	s := New(1)
	m := NewMutex(s)
	n := 0
	for w := 0; w < 2; w++ {
		s.Go("worker", func(p *Proc) {
			for n < b.N {
				m.Lock(p)
				n++
				p.Sleep(0) // force the other proc to queue on m
				m.Unlock(p)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(-1); err != nil {
		b.Fatal(err)
	}
	s.Close()
}

// BenchmarkCompletionWake measures the aio-completion pattern: a proc parks
// on a condition variable and an At function (scheduler context) wakes it.
// The parked proc dispatches the completion itself and finds its own wake-up
// next, so an iteration costs two events and no goroutine switch.
func BenchmarkCompletionWake(b *testing.B) {
	s := New(1)
	c := NewCond(s)
	complete := c.Signal
	n := 0
	s.Go("waiter", func(p *Proc) {
		for n < b.N {
			n++
			s.At(s.Now()+1, complete)
			c.Wait(p, nil)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(-1); err != nil {
		b.Fatal(err)
	}
	s.Close()
}

// BenchmarkSelfResume measures a sleep that must park — a timer fires inside
// every sleep, so the lone-sleeper shortcut (canFastResume) does not apply —
// but whose own wake-up is the next proc event: the sleeper runs the timer
// from park and resumes itself.
func BenchmarkSelfResume(b *testing.B) {
	s := New(1)
	n := 0
	var timer func()
	timer = func() {
		if n < b.N {
			s.At(s.Now()+2, timer)
		}
	}
	s.At(1, timer)
	s.Go("sleeper", func(p *Proc) {
		for n < b.N {
			n++
			p.Sleep(2)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(-1); err != nil {
		b.Fatal(err)
	}
	s.Close()
}

func BenchmarkStationAssign(b *testing.B) {
	st := NewStation(6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Assign(int64(i), 11_000)
	}
}
