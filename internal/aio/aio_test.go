package aio

import (
	"sync/atomic"
	"testing"

	"kvell/internal/costs"
	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/sim"
)

func TestBatchedSubmitCollectsAll(t *testing.T) {
	s := sim.New(1)
	e := sim.NewEnv(s, 4)
	disk := device.NewSimDisk(s, device.Optane(), nil)
	a := New(e, disk)
	var got int
	e.Go("worker", func(c env.Ctx) {
		var ios []*IO
		for i := 0; i < 10; i++ {
			ios = append(ios, &IO{Request: device.Request{Op: device.Write, Page: int64(i), Buf: make([]byte, device.PageSize)}, Tag: i})
		}
		a.Submit(c, ios)
		if a.Inflight() != 10 {
			t.Errorf("inflight = %d", a.Inflight())
		}
		for got < 10 {
			evs := a.GetEvents(c, 1)
			got += len(evs)
		}
		if a.Inflight() != 0 {
			t.Errorf("inflight after drain = %d", a.Inflight())
		}
	})
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if got != 10 {
		t.Fatalf("collected %d completions", got)
	}
	if a.Syscalls == 0 || a.Submitted != 10 {
		t.Fatalf("stats: syscalls=%d submitted=%d", a.Syscalls, a.Submitted)
	}
}

func TestSubmitChargesOneSyscallPerBatch(t *testing.T) {
	// Batching is the point (§5.4): CPU per I/O must drop with batch size.
	perIO := func(batch int) env.Time {
		s := sim.New(1)
		e := sim.NewEnv(s, 1)
		disk := device.NewSimDisk(s, device.Optane(), nil)
		a := New(e, disk)
		const total = 64
		e.Go("worker", func(c env.Ctx) {
			done := 0
			for done < total {
				var ios []*IO
				for i := 0; i < batch; i++ {
					ios = append(ios, &IO{Request: device.Request{Op: device.Write, Page: int64(i), Buf: make([]byte, device.PageSize)}})
				}
				a.Submit(c, ios)
				for in := batch; in > 0; {
					in -= len(a.GetEvents(c, 1))
				}
				done += batch
			}
		})
		if err := s.Run(-1); err != nil {
			t.Fatal(err)
		}
		s.Close()
		return env.Time(e.CPUs.Station().BusyTime() / total)
	}
	one, sixtyFour := perIO(1), perIO(64)
	if sixtyFour*2 > one {
		t.Fatalf("batching ineffective: per-IO CPU %dns (batch 1) vs %dns (batch 64)", one, sixtyFour)
	}
}

func TestGetEventsMinClamped(t *testing.T) {
	s := sim.New(1)
	e := sim.NewEnv(s, 2)
	disk := device.NewSimDisk(s, device.Optane(), nil)
	a := New(e, disk)
	e.Go("worker", func(c env.Ctx) {
		// Nothing in flight: GetEvents must not block.
		if evs := a.GetEvents(c, 1); evs != nil {
			t.Errorf("GetEvents on idle engine returned %v", evs)
		}
		a.Submit(c, []*IO{{Request: device.Request{Op: device.Write, Page: 1, Buf: make([]byte, device.PageSize)}}})
		// min larger than inflight is clamped.
		evs := a.GetEvents(c, 99)
		if len(evs) != 1 {
			t.Errorf("clamped GetEvents returned %d", len(evs))
		}
	})
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	s.Close()
}

func TestRealEnvAIO(t *testing.T) {
	e := env.NewReal()
	disk := device.NewRealDisk(device.NewMemStore(), 2, false)
	defer disk.Close()
	a := New(e, disk)
	done := make(chan struct{})
	e.Go("worker", func(c env.Ctx) {
		defer close(done)
		buf := make([]byte, device.PageSize)
		buf[0] = 0xEE
		a.Submit(c, []*IO{{Request: device.Request{Op: device.Write, Page: 5, Buf: buf}}})
		for a.Inflight() > 0 {
			a.GetEvents(c, 1)
		}
		rbuf := make([]byte, device.PageSize)
		a.Submit(c, []*IO{{Request: device.Request{Op: device.Read, Page: 5, Buf: rbuf}}})
		evs := a.GetEvents(c, 1)
		if len(evs) != 1 || evs[0].Buf[0] != 0xEE {
			t.Error("real AIO roundtrip failed")
		}
	})
	<-done
}

// slowDisk is a simulated disk whose reads take a millisecond on each of
// channels channels.
func slowDisk(s *sim.Sim, channels int) *device.SimDisk {
	p := device.Optane()
	p.Name, p.Channels, p.ReadSvc, p.SpikeEvery = "slow", channels, env.Millisecond, 0
	return device.NewSimDisk(s, p, nil)
}

// A Kick wakes a GetEvents parked on its engine while the device has an idle
// channel: it returns no events at the kick's instant and charges no CPU. A
// kick with no GetEvents parked, or while every channel is busy, does
// nothing.
func TestKickWakesGetEvents(t *testing.T) {
	for _, tc := range []struct {
		name       string
		channels   int
		parked     bool // kick while GetEvents is parked (else just before)
		wantEvents int
		wantWake   env.Time
	}{
		{"idle-channel", 2, true, 0, 100 * env.Microsecond},
		{"no-waiter", 2, false, 1, env.Millisecond},
		{"busy-device", 1, true, 1, env.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(1)
			e := sim.NewEnv(s, 2)
			a := New(e, slowDisk(s, tc.channels))
			var evs []*IO
			var woke, cpu env.Time
			e.Go("owner", func(c env.Ctx) {
				a.Submit(c, []*IO{{Request: device.Request{Op: device.Read, Page: 1, Buf: make([]byte, device.PageSize)}}})
				// Times run from the instant Submit returns, so its own
				// charge is behind them; the read starts there too.
				sent := c.Now()
				if tc.parked {
					e.Go("kicker", func(c env.Ctx) {
						c.Sleep(100 * env.Microsecond)
						a.Kick(c)
					})
				} else {
					a.Kick(c)
				}
				busy := e.CPUs.Station().BusyTime()
				evs = a.GetEvents(c, 1)
				cpu = e.CPUs.Station().BusyTime() - busy
				woke = c.Now() - cpu - sent
			})
			if err := s.Run(-1); err != nil {
				t.Fatal(err)
			}
			s.Close()
			if len(evs) != tc.wantEvents || woke != tc.wantWake {
				t.Fatalf("GetEvents returned %d events at %dns, want %d at %dns", len(evs), woke, tc.wantEvents, tc.wantWake)
			}
			if wantCPU := env.Time(0); tc.wantEvents > 0 {
				wantCPU = costs.Syscall + costs.SyscallPerReq/4
				if cpu != wantCPU {
					t.Fatalf("GetEvents charged %dns of CPU, want %dns", cpu, wantCPU)
				}
			} else if cpu != 0 {
				t.Fatalf("an empty wake charged %dns of CPU", cpu)
			}
		})
	}
}

// A pooled IO resubmitted on another engine, as the threads of a
// shared-everything shard do, completes on the engine it was last submitted
// on, with the completion bound at its first Submit.
func TestPooledIOMovesEngines(t *testing.T) {
	s := sim.New(1)
	e := sim.NewEnv(s, 2)
	disk := device.NewSimDisk(s, device.Optane(), nil)
	engines := []*Engine{New(e, disk), New(e, disk)}
	io := &IO{Request: device.Request{Op: device.Write, Page: 3, Buf: make([]byte, device.PageSize)}}
	var got []int
	e.Go("owner", func(c env.Ctx) {
		for round := 0; round < 4; round++ {
			a := engines[round%2]
			a.Submit(c, []*IO{io})
			evs := a.GetEvents(c, 1)
			if len(evs) != 1 || evs[0] != io {
				t.Errorf("round %d: GetEvents returned %d events", round, len(evs))
			}
			got = append(got, engines[0].Inflight(), engines[1].Inflight())
		}
	})
	if err := s.Run(-1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if len(got) != 8 {
		t.Fatalf("the owner finished %d of 4 rounds", len(got)/2)
	}
	for i, n := range got {
		if n != 0 {
			t.Fatalf("engine %d has %d I/Os in flight after round %d", i%2, n, i/2)
		}
	}
	if engines[0].Submitted != 2 || engines[1].Submitted != 2 {
		t.Fatalf("submitted %d and %d, want 2 each", engines[0].Submitted, engines[1].Submitted)
	}
}

// Kicks race a parked owner in the real runtime: other goroutines kick while
// the owner collects its completions (run it under -race).
func TestKickRealEnv(t *testing.T) {
	e := env.NewReal()
	disk := device.NewRealDisk(device.NewMemStore(), 2, false)
	defer disk.Close()
	a := New(e, disk)
	var stop atomic.Bool
	const rounds = 200
	collected := 0
	e.Go("owner", func(c env.Ctx) {
		defer stop.Store(true)
		buf := make([]byte, device.PageSize)
		for i := 0; i < rounds; i++ {
			a.Submit(c, []*IO{{Request: device.Request{Op: device.Write, Page: int64(i % 8), Buf: buf}}, {Request: device.Request{Op: device.Read, Page: int64(i % 8), Buf: make([]byte, device.PageSize)}}})
			for a.Inflight() > 0 {
				collected += len(a.GetEvents(c, 2))
			}
		}
	})
	for k := 0; k < 3; k++ {
		e.Go("kicker", func(c env.Ctx) {
			for !stop.Load() {
				a.Kick(c)
			}
		})
	}
	e.Wait()
	if collected != 2*rounds {
		t.Fatalf("collected %d completions, want %d", collected, 2*rounds)
	}
}
