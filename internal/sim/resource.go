package sim

// Station is an analytic first-come-first-served multi-server queueing
// station. It does not use procs: an arrival is assigned to the server that
// frees up earliest, so assignment order equals arrival order. It is the
// model used for both CPU core pools and device channel queues.
type Station struct {
	free []Time // per-server earliest-free time
	busy Time   // total busy nanoseconds across servers (utilization integral)
	ops  int64
	// OnBusy, if set, is called for each service interval [start, end).
	// Used to build utilization timelines. Callbacks must be additive over
	// interval splits (Pool.Use may report one long contiguous burst as
	// several quantum-sized intervals or vice versa).
	OnBusy func(start, end Time)
	// OnAssign, if set, is called for each service interval with the server
	// it was booked on. Purely observational (tracing); it must not mutate
	// simulation state.
	OnAssign func(server int, start, end Time)
	// lastServer/lastStart record the most recent booking so a caller that
	// just made a single Assign can recover which server served it and when
	// service began (used by the device model's span attribution).
	lastServer int
	lastStart  Time
}

// NewStation returns a station with c servers.
func NewStation(c int) *Station {
	if c < 1 {
		c = 1
	}
	return &Station{free: make([]Time, c)}
}

// Servers returns the number of servers.
func (st *Station) Servers() int { return len(st.free) }

// BusyTime returns the total accumulated service time across all servers.
func (st *Station) BusyTime() Time { return st.busy }

// Ops returns the number of service intervals assigned so far.
func (st *Station) Ops() int64 { return st.ops }

// minFree returns the earliest per-server free time (the start bound for the
// next arrival).
func (st *Station) minFree() Time {
	m := st.free[0]
	for _, f := range st.free[1:] {
		if f < m {
			m = f
		}
	}
	return m
}

// Assign books a service of duration d arriving at time now and returns the
// completion time. The service starts when the earliest-free server is
// available (FCFS).
func (st *Station) Assign(now, d Time) (done Time) {
	best := 0
	for i := 1; i < len(st.free); i++ {
		if st.free[i] < st.free[best] {
			best = i
		}
	}
	start := now
	if st.free[best] > start {
		start = st.free[best]
	}
	done = start + d
	st.free[best] = done
	st.busy += d
	st.ops++
	st.lastServer = best
	st.lastStart = start
	if st.OnBusy != nil {
		st.OnBusy(start, done)
	}
	if st.OnAssign != nil {
		st.OnAssign(best, start, done)
	}
	return done
}

// LastAssign returns the server and service-start time of the most recent
// Assign call.
func (st *Station) LastAssign() (server int, start Time) {
	return st.lastServer, st.lastStart
}

// assignRun books a d-long service as the same sequence of quantum-sized
// Assign calls a proc re-arriving at each burst's completion would make, and
// returns the final completion time. Because each burst arrives exactly when
// the previous one completes, the bursts are contiguous and the resulting
// server state, busy time, op count and OnBusy callbacks are bit-identical
// to the burst-by-burst path — only the park/resume cycles between bursts
// are skipped.
func (st *Station) assignRun(now, d, quantum Time) (done Time) {
	done = now
	for d > 0 {
		burst := d
		if burst > quantum {
			burst = quantum
		}
		done = st.Assign(done, burst)
		d -= burst
	}
	return done
}

// Pause blocks all servers until time t (used for device maintenance
// latency spikes: in-flight and queued requests are delayed).
func (st *Station) Pause(t Time) {
	for i, f := range st.free {
		if f < t {
			st.free[i] = t
		}
	}
}

// Pool is a CPU core pool. Procs charge work against it with Use; when all
// cores are busy the proc queues FCFS behind earlier work, which is how
// engines become CPU-bound in the simulation.
type Pool struct {
	s  *Sim
	st *Station
	// Quantum bounds a single booked burst; longer bursts are split so that
	// long-running work (e.g. compactions) time-shares with short requests
	// instead of monopolizing a core, approximating an OS scheduler.
	Quantum Time
	// OnUse, if set, is called once per Use call after the proc has been
	// charged: arrive is when the proc asked for CPU, done is when the last
	// burst completed, and cpu is the service time actually charged (so
	// done-arrive-cpu is time spent queued behind other procs). Purely
	// observational.
	OnUse func(pr *Proc, arrive, done, cpu Time)
}

// NewPool returns a pool of c cores in simulation s.
func NewPool(s *Sim, c int) *Pool {
	return &Pool{s: s, st: NewStation(c), Quantum: 200 * 1000} // 200us
}

// Station exposes the underlying station (for utilization accounting).
func (p *Pool) Station() *Station { return p.st }

// Use charges d nanoseconds of CPU work to the calling proc, blocking it
// until the work completes.
//
// Fast path: when no pending event fires before the burst would complete,
// the quantum-by-quantum park/resume cycle is provably unobservable — no
// other proc can arrive at the station or watch the clock between bursts —
// so the whole burst is booked analytically (preserving the exact per-burst
// station accounting) and the proc sleeps once. Otherwise it falls back to
// burst-by-burst charging, so schedules with real time-sharing interleavings
// are unchanged.
func (p *Pool) Use(pr *Proc, d Time) {
	if d <= 0 {
		return
	}
	s := p.s
	arrive, cpu := s.now, d
	if p.Quantum > 0 && d > p.Quantum {
		done := p.st.minFree()
		if done < s.now {
			done = s.now
		}
		done += d
		// The closed check keeps teardown exact: a proc charging CPU from a
		// shutdown defer books one burst and then takes the park panic, so
		// the analytic path would over-book the station.
		if !s.closed && s.noEventBefore(done) && (s.until < 0 || done <= s.until) {
			if got := p.st.assignRun(s.now, d, p.Quantum); got != done {
				panic("sim: analytic burst disagrees with FCFS booking")
			}
			pr.SleepUntil(done)
			if p.OnUse != nil {
				p.OnUse(pr, arrive, done, cpu)
			}
			return
		}
	}
	for d > 0 {
		burst := d
		if p.Quantum > 0 && burst > p.Quantum {
			burst = p.Quantum
		}
		done := p.st.Assign(p.s.now, burst)
		pr.SleepUntil(done)
		d -= burst
	}
	if p.OnUse != nil {
		p.OnUse(pr, arrive, s.now, cpu)
	}
}

// popProc removes and returns the front of a waiter list, shifting in place
// so the slice's capacity is reused (no steady-state allocation).
func popProc(ws *[]*Proc) *Proc {
	w := *ws
	p := w[0]
	copy(w, w[1:])
	w[len(w)-1] = nil
	*ws = w[:len(w)-1]
	return p
}

// Mutex is a FIFO mutual-exclusion lock for procs. Ownership transfers
// directly to the longest-waiting proc on unlock.
type Mutex struct {
	s       *Sim
	locked  bool
	waiters []*Proc
	// Acquires counts all acquisition attempts (Lock calls and TryLock
	// calls, successful or not); Contended counts the attempts that did not
	// get the lock immediately (Lock calls that waited, failed TryLocks), so
	// Contended/Acquires is the contention ratio.
	Acquires  int64
	Contended int64
	// onWait, if set, is called after a contended Lock finally acquires the
	// mutex, with the wait interval. Purely observational.
	onWait func(p *Proc, start, end Time)
}

// NewMutex returns an unlocked mutex.
func NewMutex(s *Sim) *Mutex { return &Mutex{s: s} }

// Lock acquires m, blocking the proc if it is held.
func (m *Mutex) Lock(p *Proc) {
	m.Acquires++
	if !m.locked {
		m.locked = true
		return
	}
	m.Contended++
	m.waiters = append(m.waiters, p)
	t0 := m.s.now
	p.park()
	// Ownership was transferred to us by Unlock.
	if m.onWait != nil {
		m.onWait(p, t0, m.s.now)
	}
}

// TryLock acquires m if it is free and reports whether it did. Failed tries
// count as contended acquisition attempts, mirroring Lock's accounting.
func (m *Mutex) TryLock() bool {
	m.Acquires++
	if m.locked {
		m.Contended++
		return false
	}
	m.locked = true
	return true
}

// Unlock releases m. If procs are waiting, ownership passes to the first.
func (m *Mutex) Unlock(p *Proc) {
	if !m.locked {
		panic("sim: unlock of unlocked mutex")
	}
	if len(m.waiters) > 0 {
		m.s.wake(popProc(&m.waiters)) // stays locked; next proc now owns it
		return
	}
	m.locked = false
}

// Cond is a condition variable for procs. The usual discipline applies:
// check the predicate in a loop around Wait. Signal/Broadcast may be called
// from scheduler context (completion callbacks).
type Cond struct {
	s       *Sim
	waiters []*Proc
}

// NewCond returns a condition variable.
func NewCond(s *Sim) *Cond { return &Cond{s: s} }

// Wait parks the proc until a Signal or Broadcast. If m is non-nil it is
// released while waiting and re-acquired before returning.
func (c *Cond) Wait(p *Proc, m *Mutex) {
	c.waiters = append(c.waiters, p)
	if m != nil {
		m.Unlock(p)
	}
	p.park()
	if m != nil {
		m.Lock(p)
	}
}

// Signal wakes the longest-waiting proc, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	c.s.wake(popProc(&c.waiters))
}

// Broadcast wakes all waiting procs.
func (c *Cond) Broadcast() {
	for i, p := range c.waiters {
		c.s.wake(p)
		c.waiters[i] = nil
	}
	c.waiters = c.waiters[:0]
}

// Queue is an unbounded FIFO for passing work between procs. Items live in a
// ring buffer, so pushes and pops are O(1) amortized with no per-item shift.
type Queue struct {
	s       *Sim
	buf     []any // len(buf) is a power of two (or 0)
	head    int
	n       int
	waiters []*Proc
	closed  bool
	// Pushes counts total items ever pushed (for stats).
	Pushes int64
}

// NewQueue returns an empty open queue.
func NewQueue(s *Sim) *Queue { return &Queue{s: s} }

// Len returns the number of queued items.
func (q *Queue) Len() int { return q.n }

// Push appends v and wakes one waiter.
func (q *Queue) Push(v any) {
	if q.closed {
		panic("sim: push to closed queue")
	}
	if q.n == len(q.buf) {
		grown := make([]any, max(64, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
	q.Pushes++
	if len(q.waiters) > 0 {
		q.s.wake(popProc(&q.waiters))
	}
}

// Close marks the queue closed and wakes all waiters. Queued items remain
// poppable; PopWait returns nil once the queue is closed and empty.
func (q *Queue) Close() {
	q.closed = true
	for i, p := range q.waiters {
		q.s.wake(p)
		q.waiters[i] = nil
	}
	q.waiters = q.waiters[:0]
}

// TryPop moves up to len(buf) items into buf without blocking and returns
// the filled prefix. The buffer is the consumer's: several procs may pop one
// queue and park while they still hold a batch, so the queue keeps none.
func (q *Queue) TryPop(buf []any) []any {
	k := min(len(buf), q.n)
	mask := len(q.buf) - 1
	for i := 0; i < k; i++ {
		j := (q.head + i) & mask
		buf[i] = q.buf[j]
		q.buf[j] = nil
	}
	q.head = (q.head + k) & mask
	q.n -= k
	return buf[:k]
}

// PopWait is TryPop that first blocks the proc until at least one item is
// available. It returns nil if the queue is closed and empty.
func (q *Queue) PopWait(p *Proc, buf []any) []any {
	for q.n == 0 {
		if q.closed {
			return nil
		}
		q.waiters = append(q.waiters, p)
		p.park()
	}
	return q.TryPop(buf)
}
