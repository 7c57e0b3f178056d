package harness

import (
	"fmt"
	"io"
	"math/rand"

	"kvell/internal/costs"
	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/sim"
	"kvell/internal/stats"
)

// driveSpec describes a raw-device measurement.
type driveSpec struct {
	prof     device.Profile
	op       device.Op
	mixWrite float64 // fraction of writes in a mixed workload (op ignored if >0)
	seq      bool
	qd       int
	reqPages int
	duration env.Time
	seed     int64
	noSpikes bool
}

// driveResult is what the raw-device driver measures.
type driveResult struct {
	ops      int64
	bytes    int64
	lat      *stats.Hist
	iopsTL   *stats.Timeline
	maxLatTL *stats.MaxTimeline
	iops     float64
	bw       float64 // bytes/s
}

// drive runs a closed-loop generator at fixed queue depth against one
// simulated device.
func drive(ds driveSpec) driveResult {
	def(&ds.reqPages, 1)
	def(&ds.duration, env.Second/2)
	s := sim.New(ds.seed + 7)
	prof := ds.prof
	if ds.noSpikes {
		prof.SpikeEvery = 0
	}
	d := device.NewSimDisk(s, prof, device.NullStore{})
	r := rand.New(rand.NewSource(ds.seed + 13))
	res := driveResult{
		lat:      stats.NewHist(),
		iopsTL:   stats.NewTimeline(env.Second),
		maxLatTL: stats.NewMaxTimeline(env.Second),
	}
	buf := make([]byte, ds.reqPages*device.PageSize)
	var seqCursor int64
	var submit func()
	submit = func() {
		op := ds.op
		if ds.mixWrite > 0 {
			if r.Float64() < ds.mixWrite {
				op = device.Write
			} else {
				op = device.Read
			}
		}
		var page int64
		if ds.seq {
			page = seqCursor
			seqCursor += int64(ds.reqPages)
		} else {
			page = r.Int63n(1 << 31)
		}
		start := s.Now()
		d.Submit(&device.Request{Op: op, Page: page, Buf: buf, Done: func() {
			now := s.Now()
			res.ops++
			res.bytes += int64(len(buf))
			res.lat.Add(now - start)
			res.iopsTL.Add(now, 1)
			res.maxLatTL.Add(now, float64(now-start))
			if now < ds.duration {
				submit()
			}
		}})
	}
	s.Go("gen", func(p *sim.Proc) {
		for i := 0; i < ds.qd; i++ {
			submit()
		}
	})
	must(s.Run(ds.duration))
	s.Close()
	secs := float64(ds.duration) / float64(env.Second)
	res.iops = float64(res.ops) / secs
	res.bw = float64(res.bytes) / secs
	return res
}

var profiles = []device.Profile{device.SSD2013(0), device.AmazonNVMe(), device.Optane()}

// table1 reproduces Table 1: IOPS and bandwidth per device and access mix.
func table1(o Options, w io.Writer) {
	fmt.Fprintf(w, "Table 1: IOPS and bandwidth per device (4K random IOPS; bandwidth with 128K requests)\n\n")
	fmt.Fprintf(w, "%-22s %10s %10s %12s %10s %10s %10s %10s %10s\n",
		"Disk", "ReadIOPS", "WriteIOPS", "Mix50/50", "SeqRd", "RndRd", "SeqWr", "RndWr", "MixRW")
	dur := o.dur(env.Second / 2)
	for _, p := range profiles {
		// Old-SSD IOPS columns reflect sustained (degraded) write rates;
		// give the device a small burst so it reaches steady state fast.
		pIOPS := p
		if p.BurstPages > 0 {
			pIOPS.BurstPages = 5000
		}
		rd := drive(driveSpec{prof: pIOPS, op: device.Read, qd: 256, duration: dur, noSpikes: true, seed: o.Seed})
		wr := drive(driveSpec{prof: pIOPS, op: device.Write, qd: 256, duration: dur, noSpikes: true, seed: o.Seed})
		mix := drive(driveSpec{prof: pIOPS, mixWrite: 0.5, qd: 256, duration: dur, noSpikes: true, seed: o.Seed})
		bw := func(op device.Op, seq bool, mixW float64) float64 {
			return drive(driveSpec{prof: pIOPS, op: op, mixWrite: mixW, seq: seq, qd: 64, reqPages: 32, duration: dur, noSpikes: true, seed: o.Seed}).bw
		}
		fmt.Fprintf(w, "%-22s %10s %10s %12s %10s %10s %10s %10s %10s\n",
			p.Name,
			stats.FmtRate(rd.iops), stats.FmtRate(wr.iops), stats.FmtRate(mix.iops),
			gbs(bw(device.Read, true, 0)), gbs(bw(device.Read, false, 0)),
			gbs(bw(device.Write, true, 0)), gbs(bw(device.Write, false, 0)),
			gbs(bw(0, false, 0.5)))
	}
	fmt.Fprintf(w, "\nPaper: Optane 575K/550K/560K IOPS, 2.6/2.3/2.0/2.0/2.0 GB/s; Amazon(per-drive) 412K/180K/175K;\nSSD-2013 75K/11K/63K with random writes at 0.04GB/s.\n")
}

func gbs(bytesPerSec float64) string {
	return fmt.Sprintf("%.2fGB/s", bytesPerSec/(1<<30))
}

// table2 reproduces Table 2: latency and bandwidth vs queue depth, random
// writes from one submitter.
func table2(o Options, w io.Writer) {
	fmt.Fprintf(w, "Table 2: average latency and bandwidth vs queue depth (4K random writes)\n\n")
	fmt.Fprintf(w, "%-6s", "QD")
	for _, p := range profiles {
		fmt.Fprintf(w, " %14s %12s", p.Name+" lat", "bw")
	}
	fmt.Fprintln(w)
	dur := o.dur(env.Second / 2)
	for _, qd := range []int{1, 16, 32, 64, 256, 512} {
		fmt.Fprintf(w, "%-6d", qd)
		for _, p := range profiles {
			pp := p
			pp.BurstPages = 0 // burst-free for the latency curve
			pp.DegradedWriteSvc = 0
			r := drive(driveSpec{prof: pp, op: device.Write, qd: qd, duration: dur, noSpikes: true, seed: o.Seed})
			fmt.Fprintf(w, " %14s %12s", stats.FmtDur(r.lat.Mean()), fmt.Sprintf("%.0fMB/s", r.bw/(1<<20)))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nPaper (Config-Optane): QD1 11us/370MB/s ... QD256 550us/1585MB/s, QD512 1100us/1622MB/s.\n")
}

// table3 reproduces Table 3: maximum IOPS by disk-access technique on
// Config-Optane (4K random writes, dataset 3x RAM).
func table3(o Options, w io.Writer) {
	dur := o.dur(env.Second / 2)
	s := func(run func(s *sim.Sim, e *sim.Env, d *device.SimDisk, done func())) float64 {
		sm := sim.New(o.Seed + 3)
		e := sim.NewEnv(sm, 8)
		prof := device.Optane()
		prof.SpikeEvery = 0
		d := device.NewSimDisk(sm, prof, device.NullStore{})
		var count int64
		run(sm, e, d, func() { count++ })
		must(sm.Run(dur))
		sm.Close()
		return float64(count) / (float64(dur) / float64(env.Second))
	}

	// mmap: one outstanding fault per thread; a serialized kernel section
	// (page-cache LRU lock + remote TLB shootdowns) plus per-fault CPU.
	mmap := func(threads int) float64 {
		return s(func(sm *sim.Sim, e *sim.Env, d *device.SimDisk, done func()) {
			kernel := e.NewMutex()
			sio := device.NewSyncIO(e)
			for i := 0; i < threads; i++ {
				e.Go("mmap", func(c env.Ctx) {
					r := rand.New(rand.NewSource(o.Seed + int64(threads)*100 + int64(i)))
					buf := make([]byte, device.PageSize)
					for c.Now() < dur {
						kernel.Lock(c)
						c.CPU(16 * env.Microsecond) // LRU lock + TLB IPIs
						kernel.Unlock(c)
						c.CPU(costs.MmapFault - 16*env.Microsecond)
						sio.Do(c, d, device.Write, r.Int63n(1<<31), buf)
						done()
					}
				})
			}
		})
	}
	// Synchronous direct I/O: one syscall + one I/O at a time per thread.
	direct := s(func(sm *sim.Sim, e *sim.Env, d *device.SimDisk, done func()) {
		e.Go("direct", func(c env.Ctx) {
			r := rand.New(rand.NewSource(o.Seed + 5))
			buf := make([]byte, device.PageSize)
			sio := device.NewSyncIO(e)
			for c.Now() < dur {
				c.CPU(costs.Syscall)
				sio.Do(c, d, device.Write, r.Int63n(1<<31), buf)
				done()
			}
		})
	})
	aioQD := func(qd int) float64 {
		return s(func(sm *sim.Sim, e *sim.Env, d *device.SimDisk, done func()) {
			e.Go("aio", func(c env.Ctx) {
				r := rand.New(rand.NewSource(o.Seed + 9))
				buf := make([]byte, device.PageSize)
				win := newWindow(e, qd, func(l lease[*device.Request]) *device.Request {
					return &device.Request{Op: device.Write, Buf: buf, Done: func() {
						l.release()
						done()
					}}
				})
				var batch []*device.Request
				for c.Now() < dur {
					// io_submit for a batch topping the queue back up.
					batch = append(batch[:0], win.acquire(c))
					for win.idle() > 0 {
						batch = append(batch, win.acquire(c))
					}
					c.CPU(costs.Syscall + env.Time(len(batch))*costs.SyscallPerReq)
					for _, rq := range batch {
						rq.Page = r.Int63n(1 << 31)
						d.Submit(rq)
					}
					// io_getevents
					c.CPU(costs.Syscall)
				}
			})
		})
	}

	fmt.Fprintf(w, "Table 3: max IOPS by I/O technique (Config-Optane, 4K random writes)\n\n")
	fmt.Fprintf(w, "%-42s %10s %12s\n", "Technique", "IOPS", "(paper)")
	fmt.Fprintf(w, "%-42s %10s %12s\n", "OS page cache + mmap (1 thread)", stats.FmtRate(mmap(1)), "10K")
	fmt.Fprintf(w, "%-42s %10s %12s\n", "OS page cache + mmap (8 threads)", stats.FmtRate(mmap(8)), "60K")
	fmt.Fprintf(w, "%-42s %10s %12s\n", "read/write direct I/O (1 thread)", stats.FmtRate(direct), "88K")
	fmt.Fprintf(w, "%-42s %10s %12s\n", "async I/O (1 thread, queue depth 1)", stats.FmtRate(aioQD(1)), "91K")
	fmt.Fprintf(w, "%-42s %10s %12s\n", "async I/O (1 thread, queue depth 64)", stats.FmtRate(aioQD(64)), "376K")
}

// fig1 reproduces Figure 1: IOPS over time per device; the old SSD's burst
// budget is scaled down so the burst-to-degraded transition is visible in a
// short run (the paper's device sustains its burst for ~40 minutes).
func fig1(o Options, w io.Writer) {
	dur := o.dur(10 * env.Second)
	fmt.Fprintf(w, "Figure 1: write IOPS over time (QD 32, 4K random writes)\n")
	fmt.Fprintf(w, "(Config-SSD burst budget scaled so the degradation lands mid-run)\n\n")
	for _, p := range profiles {
		pp := p
		if pp.BurstPages > 0 {
			pp.BurstPages = 50_000 * (int64(dur/env.Second) / 3) // degrade ~1/3 in
		}
		r := drive(driveSpec{prof: pp, op: device.Write, qd: 32, duration: dur, seed: o.Seed})
		fmt.Fprintf(w, "%-22s", p.Name)
		for _, v := range r.iopsTL.Rates() {
			fmt.Fprintf(w, " %8s", stats.FmtRate(v))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nPaper: Config-SSD bursts at 50K then degrades to 11K; newer devices stay flat at their max.\n")
}

// fig2 reproduces Figure 2: per-second worst-case 4K write latency (QD 64)
// on the Amazon drive and the Optane drive.
func fig2(o Options, w io.Writer) {
	dur := o.dur(20 * env.Second)
	fmt.Fprintf(w, "Figure 2: max 4K write latency per second (QD 64)\n")
	fmt.Fprintf(w, "(maintenance cadence compressed to fit the run; magnitudes are the calibrated ones)\n\n")
	for _, p := range []device.Profile{device.AmazonNVMe(), device.Optane()} {
		p.SpikeEvery = dur / 5
		p.SpikeJitter = dur / 10
		r := drive(driveSpec{prof: p, op: device.Write, qd: 64, duration: dur, seed: o.Seed})
		fmt.Fprintf(w, "%-22s p99=%s max=%s\n  per-second max:", p.Name,
			stats.FmtDur(r.lat.Percentile(0.99)), stats.FmtDur(r.lat.Max()))
		for _, v := range r.maxLatTL.Buckets() {
			fmt.Fprintf(w, " %7s", stats.FmtDur(env.Time(v)))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nPaper: Amazon spikes to 15ms (p99 3ms); Optane spikes are rarer, usually <1ms, max 3.6ms.\n")
}
