package device

import (
	"sync"
	"sync/atomic"

	"kvell/internal/env"
	"kvell/internal/sim"
	"kvell/internal/stats"
	"kvell/internal/trace"
)

// Op is an I/O operation type.
type Op uint8

// I/O operation types.
const (
	Read Op = iota
	Write
)

// Request is one asynchronous block I/O. Completion is signaled by calling
// Done exactly once. On the simulated disk, Done runs on the simulation
// scheduler and must not block; on the real disk it runs on an executor
// goroutine. Typical implementations append to a completion list under a
// lock and signal a condition variable.
type Request struct {
	Op   Op
	Page int64  // first page
	Buf  []byte // len(Buf) = number of pages * PageSize
	Done func()
	// Submitted is stamped by the disk for latency accounting.
	Submitted env.Time
	// Trace, if set, attributes the device queue wait and service time to a
	// request's trace context (simulated disk only).
	Trace *trace.Ctx
	// Enqueued, if set, backdates the queue wait to when the request entered
	// a software batch (KVell's aio batching); zero means it arrived at
	// Submit time.
	Enqueued env.Time
	// Completed is stamped by the simulated disk with the predicted service
	// completion time, so async callers can attribute the dwell between
	// device completion and completion-queue pickup.
	Completed env.Time
}

// Disk is an asynchronous page-granular block device.
type Disk interface {
	// Submit enqueues the request. For writes, the buffer is consumed
	// (copied or written) before Submit returns and may be reused by the
	// caller; for reads the buffer is filled by completion time.
	Submit(r *Request)
	// Counters returns cumulative operation counters.
	Counters() Counters
}

// Counters is a snapshot of device activity.
type Counters struct {
	ReadOps, WriteOps     int64
	ReadBytes, WriteBytes int64
}

// TotalOps returns reads plus writes.
func (c Counters) TotalOps() int64 { return c.ReadOps + c.WriteOps }

// Sub returns c minus prev (for interval measurements).
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		ReadOps:    c.ReadOps - prev.ReadOps,
		WriteOps:   c.WriteOps - prev.WriteOps,
		ReadBytes:  c.ReadBytes - prev.ReadBytes,
		WriteBytes: c.WriteBytes - prev.WriteBytes,
	}
}

// SimDisk is the simulated device: a Profile-calibrated queueing station in
// front of a Store. All methods must be called from simulation context.
type SimDisk struct {
	s       *sim.Sim
	prof    Profile
	station *sim.Station
	store   Store

	counters Counters
	inflight int

	// sequential detection
	lastPage  int64
	lastPages int64

	// mixed read/write EWMA (fraction of recent ops that were writes)
	writeFrac float64

	// burst budget state
	burstLeft int64
	degraded  bool

	nextSpike env.Time

	// complFree recycles completion records so Submit does not allocate a
	// fresh closure per request; each record's fn is wired once.
	complFree []*simCompl

	// Optional instrumentation.
	LatHist    *stats.Hist     // per-request latency
	BWTimeline *stats.Timeline // bytes completed per bucket
	IOTimeline *stats.Timeline // ops completed per bucket
	Util       *stats.Util     // channel busy intervals
	Tracer     *trace.Tracer   // span tracing (spikes, per-channel service)
	ID         int             // disk index, used to label trace tracks

	// Machine is the sim machine domain the disk is attached to: completion
	// events are addressed to it, so halting the machine (sim.Halt) makes
	// queued completions vanish exactly like the machine's procs. Zero for
	// single-machine simulations.
	Machine int
}

// NewSimDisk returns a simulated disk with the given profile and backing
// store (NewMemStore() if store is nil).
func NewSimDisk(s *sim.Sim, prof Profile, store Store) *SimDisk {
	if store == nil {
		store = NewMemStore()
	}
	d := &SimDisk{
		s:         s,
		prof:      prof,
		station:   sim.NewStation(prof.Channels),
		store:     store,
		burstLeft: prof.BurstPages,
		lastPage:  -1,
	}
	if prof.SpikeEvery > 0 {
		d.nextSpike = d.spikeInterval()
	}
	d.station.OnBusy = func(start, end env.Time) {
		if d.Util != nil {
			d.Util.AddBusy(start, end)
		}
	}
	return d
}

// Profile returns the disk's performance profile.
func (d *SimDisk) Profile() Profile { return d.prof }

// Store returns the backing store.
func (d *SimDisk) Store() Store { return d.store }

// Counters implements Disk.
func (d *SimDisk) Counters() Counters { return d.counters }

// Inflight returns the number of submitted-but-incomplete requests.
func (d *SimDisk) Inflight() int { return d.inflight }

// Busy reports whether every channel is in service, so that a request
// submitted now would queue (aio.BusyDevice).
func (d *SimDisk) Busy() bool { return d.inflight >= d.prof.Channels }

func (d *SimDisk) spikeInterval() env.Time {
	j := d.prof.SpikeJitter
	iv := d.prof.SpikeEvery
	if j > 0 {
		iv += env.Time(d.s.Rand().Int63n(2*j+1)) - j
	}
	return d.s.Now() + iv
}

func (d *SimDisk) maybeSpike(now env.Time) {
	if d.prof.SpikeEvery == 0 || now < d.nextSpike {
		return
	}
	min, max := d.prof.SpikeDurMin, d.prof.SpikeDurMax
	if d.degraded && d.prof.DegradedSpikeDur > 0 {
		min, max = d.prof.DegradedSpikeDur/2, d.prof.DegradedSpikeDur
	}
	dur := min
	if max > min {
		dur += env.Time(d.s.Rand().Int63n(int64(max - min + 1)))
	}
	d.station.Pause(now + dur)
	d.Tracer.AddBg("devspike", now, now+dur)
	d.nextSpike = d.spikeInterval()
}

// service computes the total service time for a request of n pages.
func (d *SimDisk) service(op Op, page int64, n int64) env.Time {
	seq := page == d.lastPage+d.lastPages
	d.lastPage, d.lastPages = page, n

	// Update the write-fraction EWMA (per request, alpha 1/64).
	w := 0.0
	if op == Write {
		w = 1.0
	}
	d.writeFrac += (w - d.writeFrac) / 64

	var per float64
	switch op {
	case Read:
		per = float64(d.prof.ReadSvc)
		if d.prof.MixReadPenalty > 1 {
			per *= 1 + (d.prof.MixReadPenalty-1)*d.writeFrac
		}
		if seq {
			per *= d.prof.SeqReadFactor
		}
	case Write:
		per = float64(d.prof.WriteSvc)
		if seq {
			per *= d.prof.SeqWriteFactor
		} else if d.prof.BurstPages > 0 {
			// Random writes consume the burst budget.
			d.burstLeft -= n
			if d.burstLeft <= 0 {
				d.degraded = true
			}
		}
		if d.degraded && !seq {
			per = float64(d.prof.DegradedWriteSvc)
		}
	}
	return env.Time(per * float64(n))
}

// Submit implements Disk.
func (d *SimDisk) Submit(r *Request) {
	now := d.s.Now()
	r.Submitted = now
	n := int64(len(r.Buf) / PageSize)
	d.maybeSpike(now)
	svc := d.service(r.Op, r.Page, n)
	d.inflight++

	switch r.Op {
	case Write:
		// Data is captured at submission; the caller may reuse the buffer.
		if err := d.store.WritePages(r.Page, r.Buf); err != nil {
			panic("device: sim write failed: " + err.Error())
		}
		d.counters.WriteOps++
		d.counters.WriteBytes += n * PageSize
	case Read:
		d.counters.ReadOps++
		d.counters.ReadBytes += n * PageSize
	}

	done := d.station.Assign(now, svc)
	r.Completed = done
	if r.Trace != nil {
		q0 := r.Enqueued
		if q0 <= 0 || q0 > now {
			q0 = now
		}
		server, start := d.station.LastAssign()
		r.Trace.AddDev(d.ID, server, q0, start, done)
	}
	cp := d.getCompl()
	// The request's fields are copied into the record at submission: the
	// caller may recycle the Request struct once Done has run, and write
	// data already reached the store above.
	cp.buf = r.Buf
	cp.page = r.Page
	cp.op = r.Op
	cp.n = n
	cp.submitted = r.Submitted
	cp.reqDone = r.Done
	d.s.AtOn(d.Machine, done, cp.fn)
}

// simCompl is a pooled completion record; fn is created once per record and
// captures only the record itself.
type simCompl struct {
	d         *SimDisk
	buf       []byte
	page      int64
	op        Op
	n         int64
	submitted env.Time
	reqDone   func()
	fn        func()
}

func (d *SimDisk) getCompl() *simCompl {
	if n := len(d.complFree); n > 0 {
		cp := d.complFree[n-1]
		d.complFree = d.complFree[:n-1]
		return cp
	}
	cp := &simCompl{d: d}
	cp.fn = cp.run
	return cp
}

func (cp *simCompl) run() {
	d := cp.d
	if cp.op == Read {
		if err := d.store.ReadPages(cp.page, cp.buf); err != nil {
			panic("device: sim read failed: " + err.Error())
		}
	}
	d.inflight--
	t := d.s.Now()
	if d.LatHist != nil {
		d.LatHist.Add(t - cp.submitted)
	}
	if d.BWTimeline != nil {
		d.BWTimeline.Add(t, float64(cp.n*PageSize))
	}
	if d.IOTimeline != nil {
		d.IOTimeline.Add(t, 1)
	}
	reqDone := cp.reqDone
	cp.buf = nil
	cp.reqDone = nil
	d.complFree = append(d.complFree, cp)
	if reqDone != nil {
		reqDone()
	}
}

// RealDisk executes I/O against a Store using a pool of goroutines; it is
// the device used when KVell runs in the real environment. Requests are
// routed to executors by page so that operations on the same page execute
// in submission order (read-modify-write flows depend on this).
type RealDisk struct {
	store Store
	reqs  []chan *Request
	//kvell:lint-ignore nogoroutine RealDisk is the real-runtime device; it never runs under the simulator
	wg       sync.WaitGroup
	syncEach bool

	readOps, writeOps     atomic.Int64
	readBytes, writeBytes atomic.Int64
}

// NewRealDisk returns a real disk over store with workers executor
// goroutines. If syncWrites is true every write is followed by a Sync, so
// completion implies durability (KVell's no-commit-log guarantee).
func NewRealDisk(store Store, workers int, syncWrites bool) *RealDisk {
	if workers < 1 {
		workers = 4
	}
	d := &RealDisk{store: store, syncEach: syncWrites}
	d.reqs = make([]chan *Request, workers)
	d.wg.Add(workers)
	for i := 0; i < workers; i++ {
		d.reqs[i] = make(chan *Request, 256)
		//kvell:lint-ignore nogoroutine RealDisk executors are real-runtime I/O threads; never used under the simulator
		go d.run(d.reqs[i])
	}
	return d
}

func (d *RealDisk) run(reqs chan *Request) {
	defer d.wg.Done()
	for r := range reqs {
		n := int64(len(r.Buf) / PageSize)
		var err error
		switch r.Op {
		case Read:
			err = d.store.ReadPages(r.Page, r.Buf)
			d.readOps.Add(1)
			d.readBytes.Add(n * PageSize)
		case Write:
			err = d.store.WritePages(r.Page, r.Buf)
			if err == nil && d.syncEach {
				err = d.store.Sync()
			}
			d.writeOps.Add(1)
			d.writeBytes.Add(n * PageSize)
		}
		if err != nil {
			panic("device: real I/O failed: " + err.Error())
		}
		if r.Done != nil {
			r.Done()
		}
	}
}

// Submit implements Disk. Writes copy the caller's buffer before queueing.
func (d *RealDisk) Submit(r *Request) {
	if r.Op == Write {
		// The executor runs asynchronously; capture the data now so the
		// caller may reuse its buffer, matching SimDisk semantics.
		cp := make([]byte, len(r.Buf))
		copy(cp, r.Buf)
		r = &Request{Op: r.Op, Page: r.Page, Buf: cp, Done: r.Done}
	}
	d.reqs[int(uint64(r.Page)%uint64(len(d.reqs)))] <- r
}

// Counters implements Disk.
func (d *RealDisk) Counters() Counters {
	return Counters{
		ReadOps:    d.readOps.Load(),
		WriteOps:   d.writeOps.Load(),
		ReadBytes:  d.readBytes.Load(),
		WriteBytes: d.writeBytes.Load(),
	}
}

// Store returns the backing store.
func (d *RealDisk) Store() Store { return d.store }

// Close drains pending requests and stops the executors.
func (d *RealDisk) Close() {
	for _, ch := range d.reqs {
		close(ch)
	}
	d.wg.Wait()
}

// Allocator hands out page ranges from a flat page space; engines use one
// per disk to place their files (slabs, SSTables, tree pages, logs).
// It is not safe for concurrent use; in the simulator access is naturally
// serialized, and real-mode KVell partitions allocators per worker.
type Allocator struct {
	next int64
	free map[int64][]int64 // size class (pages) -> freed extents
}

// NewAllocator returns an allocator starting at page start.
func NewAllocator(start int64) *Allocator {
	return &Allocator{next: start, free: make(map[int64][]int64)}
}

// Alloc returns the first page of a fresh extent of n pages.
func (a *Allocator) Alloc(n int64) int64 {
	if lst := a.free[n]; len(lst) > 0 {
		p := lst[len(lst)-1]
		a.free[n] = lst[:len(lst)-1]
		return p
	}
	p := a.next
	a.next += n
	return p
}

// Free returns an extent of n pages starting at page for reuse by
// same-sized allocations.
func (a *Allocator) Free(page, n int64) {
	a.free[n] = append(a.free[n], page)
}
