// This file imports iter (Go 1.23). The module line in go.mod stays at go 1.22
// because cmd/kvell-e2e, a module of its own that replaces kvell with this
// tree, declares go 1.22 and may not require a newer one; the constraint
// below raises the language version of this file alone, which is what build
// and vet look at. The repository therefore needs a Go >= 1.23 toolchain.

//go:build go1.23

// Package sim is a deterministic discrete-event simulation kernel.
//
// A Sim owns a virtual clock and an event queue. Simulated threads ("procs")
// are coroutines (iter.Pull): exactly one of them, or the caller of Run, runs
// at any moment, and control moves between them only by coroutine switches —
// so the simulation is sequentially consistent and deterministic, and passes
// the race detector by construction.
//
// Two kinds of events exist: proc wake-ups, and plain functions ("scheduled
// functions": I/O completions, network deliveries, timers; they must not
// block). Scheduled functions run in scheduler context: no proc holds control
// and Running() is nil.
//
// # Control transfer
//
// There is no scheduler. The event loop (dispatch) runs on whichever
// coroutine holds control: on Run's caller until the first proc event, then
// on each proc as it parks or finishes. A parking proc pops events in
// (at, seq) order and runs scheduled functions itself; when it reaches a proc
// event it either just returns from park — the wake-up is its own, no switch
// at all — or names that proc as its successor and yields to Run's caller,
// whose loop (resumeProc) switches straight into the successor: two
// coroutine switches per hand-off, neither through the Go scheduler. A proc
// that returns does the same from its exiting coroutine, before it ends
// (finish-then-dispatch): the events up to the next proc wake-up are
// dispatched by the proc that gave up control in every case, so within one
// Run a scheduled function never runs on Run's caller once a proc has held
// control. Whichever proc finds the run over (queue drained, Run's boundary,
// Stop, a proc failure) names no successor, which ends Run's loop. Close
// unwinds the same way, resuming unfinished procs one at a time in creation
// order.
//
// A scheduled function therefore executes on some proc's coroutine, but never
// in its name: Running() is nil for its duration, and if it panics the panic
// is recovered in dispatch and re-raised by Run on Run's caller — it is not
// recorded as that proc's failure, and the proc stays parked. A panic in a
// proc's own code is returned by Run as an error.
//
// The package also provides the synchronization and queueing primitives the
// engines are built from: FCFS multi-server stations (CPU cores, device
// channels, network links), mutexes, spin-mutexes that burn simulated CPU
// while waiting, condition variables and FIFO queues.
//
// # Machine domains
//
// One Sim can model several machines sharing the virtual clock: every proc
// and scheduled function belongs to a machine domain (0 by default; GoOn and
// AtOn choose one). Halt(m) kills machine m — its queued events are
// discarded at dispatch and its procs never resume — while the rest of the
// simulation keeps running, which is the cluster failure model
// (internal/fault kills a machine, internal/cluster fails over). A
// simulation that never calls GoOn/AtOn/Halt behaves exactly as before:
// everything is machine 0 and the dispatch path only pays a nil check.
//
// # Hot-path design
//
// The kernel processes hundreds of millions of events per harness run, so the
// scheduling path is engineered for throughput (see DESIGN.md "Kernel
// performance model"):
//
//   - control passes from proc to proc by two coroutine switches (above),
//     about a third of the cost of a channel send and receive through the Go
//     scheduler, and by none when a proc's own wake-up is next;
//   - event structs come from a free list, so steady-state scheduling does
//     not allocate;
//   - future events live in a concrete 4-ary min-heap ordered on (at, seq) —
//     no interface boxing, shallower than a binary heap;
//   - events scheduled at exactly the current time (wake-ups, same-instant
//     handoffs, I/O completion fan-out) bypass the heap through a FIFO ring
//     lane, which is ordered by construction;
//   - a proc sleeping past every pending event skips even the event queue
//     and just advances the clock ("fast resume").
//
// Every shortcut is gated on a precondition under which it is provably
// unobservable, so optimized and unoptimized kernels produce bit-identical
// schedules (locked by the golden digests in internal/harness/testdata and
// TestScheduleEquivalenceStress here).
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime/debug"
)

// Time is virtual time in nanoseconds since the start of the simulation.
type Time = int64

type event struct {
	at      Time
	seq     uint64 // tie-breaker: FIFO among simultaneous events
	machine int32  // machine domain for fn events (proc events use proc.machine)
	proc    *Proc  // resume this proc ...
	fn      func() // ... or run this function in scheduler context
}

// eventLess orders events by (at, seq); seq is unique, so the order is total.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// errShutdown unwinds proc coroutines when the simulation is closed.
type shutdownError struct{}

func (shutdownError) Error() string { return "sim: shutdown" }

var errShutdown = shutdownError{}

// Sim is a discrete-event simulation.
type Sim struct {
	now Time
	seq uint64

	// heap is a 4-ary min-heap on (at, seq) holding events strictly in the
	// future. Events at the current instant go to the lane ring instead.
	heap []*event
	// lane is a FIFO ring of events scheduled at exactly the current time.
	// Entries have nondecreasing at and increasing seq (at is clamped to a
	// nondecreasing clock), so front-of-lane is the lane's (at, seq) minimum
	// and no heap discipline is needed.
	lane     []*event // len(lane) is a power of two
	laneHead int
	laneLen  int
	// free is the event free list; steady-state scheduling never allocates.
	free []*event

	until Time // boundary of the Run in progress (< 0: none)
	// successor is the proc that gets control next, named by the proc that
	// just gave it up (see relinquish) and read by resumeProc once that proc
	// has yielded or returned; nil when the run is over.
	successor *Proc
	closed    bool
	stopped   bool // Stop() was called: Run dispatches no further events
	// halted marks dead machine domains (see Halt). nil until the first
	// Halt, so single-machine simulations pay one nil check per dispatch.
	halted  []bool
	failed  error
	fnPanic error // a scheduled function panicked; Run re-raises it on its caller
	rng     *rand.Rand
	live    int     // procs started and not yet finished
	procSeq uint64  // creation order; teardown resumes parked procs in this order
	procs   []*Proc // all tracked procs in creation order (compacted lazily)
	done    int     // finished procs still present in procs
	running *Proc   // the proc currently holding control, nil while dispatching
}

// New returns an empty simulation whose random source is seeded with seed.
func New(seed int64) *Sim {
	return &Sim{
		until: -1,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source. It must only be
// used from simulation context (procs or scheduled functions).
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Live reports the number of procs that have been started and not finished.
func (s *Sim) Live() int { return s.live }

// getEvent pops the free list (or allocates) and initializes the event.
func (s *Sim) getEvent(at Time, p *Proc, fn func()) *event {
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		e = new(event)
	}
	s.seq++
	e.at, e.seq, e.proc, e.fn = at, s.seq, p, fn
	e.machine = 0
	if p != nil {
		e.machine = p.machine
	}
	return e
}

// putEvent recycles a dispatched event, dropping its references.
func (s *Sim) putEvent(e *event) {
	e.proc, e.fn = nil, nil
	s.free = append(s.free, e)
}

func (s *Sim) schedule(at Time, p *Proc, fn func()) {
	if at <= s.now {
		s.lanePush(s.getEvent(s.now, p, fn))
		return
	}
	s.heapPush(s.getEvent(at, p, fn))
}

// scheduleOn is schedule for scheduler functions addressed to a machine
// domain: the event is discarded at dispatch if the machine has been halted.
func (s *Sim) scheduleOn(machine int, at Time, fn func()) {
	e := s.getEvent(at, nil, fn)
	e.machine = int32(machine)
	if e.at <= s.now {
		e.at = s.now
		s.lanePush(e)
		return
	}
	s.heapPush(e)
}

// lanePush appends to the same-instant FIFO ring, growing it as needed.
func (s *Sim) lanePush(e *event) {
	if s.laneLen == len(s.lane) {
		grown := make([]*event, max(64, 2*len(s.lane)))
		for i := 0; i < s.laneLen; i++ {
			grown[i] = s.lane[(s.laneHead+i)&(len(s.lane)-1)]
		}
		s.lane, s.laneHead = grown, 0
	}
	s.lane[(s.laneHead+s.laneLen)&(len(s.lane)-1)] = e
	s.laneLen++
}

func (s *Sim) lanePop() *event {
	e := s.lane[s.laneHead]
	s.lane[s.laneHead] = nil
	s.laneHead = (s.laneHead + 1) & (len(s.lane) - 1)
	s.laneLen--
	return e
}

// heapPush sifts e up a 4-ary heap (parent of i is (i-1)/4).
func (s *Sim) heapPush(e *event) {
	h := append(s.heap, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	s.heap = h
}

// heapPop removes and returns the (at, seq)-minimum (children of i are
// 4i+1..4i+4).
func (s *Sim) heapPop() *event {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if eventLess(h[j], h[best]) {
				best = j
			}
		}
		if !eventLess(h[best], h[i]) {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	s.heap = h
	return top
}

// pending reports the number of undispatched events.
func (s *Sim) pending() int { return s.laneLen + len(s.heap) }

// peek returns the next event in (at, seq) order without removing it.
func (s *Sim) peek() *event {
	if s.laneLen == 0 {
		return s.heap[0]
	}
	le := s.lane[s.laneHead]
	if len(s.heap) == 0 || eventLess(le, s.heap[0]) {
		return le
	}
	return s.heap[0]
}

// pop removes and returns the next event in (at, seq) order.
func (s *Sim) pop() *event {
	if s.laneLen == 0 {
		return s.heapPop()
	}
	if len(s.heap) == 0 || eventLess(s.lane[s.laneHead], s.heap[0]) {
		return s.lanePop()
	}
	return s.heapPop()
}

// noEventBefore reports whether no pending event fires strictly before t.
// The earliest pending (at, seq) is the min of lane front and heap root, so
// the check is O(1).
func (s *Sim) noEventBefore(t Time) bool {
	if s.laneLen > 0 && s.lane[s.laneHead].at < t {
		return false
	}
	if len(s.heap) > 0 && s.heap[0].at < t {
		return false
	}
	return true
}

// canFastResume reports whether a proc sleeping until t may simply advance
// the clock instead of parking: its wake-up would be the very next event
// dispatched (no pending event at or before t — a pending event AT t was
// scheduled earlier and wins the seq tie-break), and Run's boundary does not
// cut the sleep short. Under this precondition the park is unobservable:
// dispatch would pop the proc's own wake-up first and return to it.
func (s *Sim) canFastResume(t Time) bool {
	if s.closed || s.stopped {
		// Teardown or a frozen (crashed) sim: a sleeping proc must park —
		// it is resumed only by Close's shutdown panic.
		return false
	}
	if s.until >= 0 && t > s.until {
		return false
	}
	if s.laneLen > 0 {
		return false
	}
	return len(s.heap) == 0 || s.heap[0].at > t
}

// At schedules fn to run in scheduler context at time at (clamped to now). fn
// must not block or park; it may wake procs and schedule further events.
// It runs on whichever coroutine is dispatching, so it must not end that
// coroutine either (runtime.Goexit, hence t.FailNow; use t.Error).
// The event belongs to machine 0 (see AtOn).
func (s *Sim) At(at Time, fn func()) { s.schedule(at, nil, fn) }

// AtOn is At for a specific machine domain: if the machine is halted by
// dispatch time, fn is silently discarded (an I/O completion or timer on a
// dead machine).
func (s *Sim) AtOn(machine int, at Time, fn func()) { s.scheduleOn(machine, at, fn) }

// Halt marks a machine domain dead. From that instant no event addressed to
// the machine is dispatched: queued I/O completions and timers vanish, and
// its procs are never resumed again (they stay parked until Close unwinds
// them). Unlike Stop, the rest of the simulation keeps running — this is the
// cluster failure model, where one machine dies and the survivors carry on.
// Like Stop, a proc of the halted machine that is currently running keeps
// control until it next parks; with its devices dead and its outbound
// messages dropped it can make no further observable progress.
func (s *Sim) Halt(machine int) {
	for len(s.halted) <= machine {
		s.halted = append(s.halted, false)
	}
	s.halted[machine] = true
}

// Halted reports whether machine's domain has been halted.
func (s *Sim) Halted(machine int) bool {
	return machine < len(s.halted) && s.halted[machine]
}

// machineDead reports whether e is addressed to a halted machine.
func (s *Sim) machineDead(e *event) bool {
	if s.halted == nil {
		return false
	}
	m := e.machine
	if e.proc != nil {
		m = e.proc.machine
	}
	return int(m) < len(s.halted) && s.halted[m]
}

// Stop freezes the simulation at the current instant: the Run in progress
// dispatches no further events (pending events stay queued, parked procs stay
// parked) and later Run calls return immediately. It models a machine dying
// mid-run — the fault injector calls it at a crash point — and is permanent;
// Close still tears the proc coroutines down. Safe to call from scheduled
// functions and from proc context (a proc that calls Stop keeps running until
// it next parks; with its devices dead it can make no further observable
// progress).
func (s *Sim) Stop() { s.stopped = true }

// Go starts a new proc running fn, beginning at the current virtual time.
// The proc belongs to machine 0 (see GoOn).
func (s *Sim) Go(name string, fn func(p *Proc)) *Proc { return s.GoOn(0, name, fn) }

// GoOn starts a new proc on the given machine domain. If the machine is
// halted the proc parks forever at its next sleep or wait and is unwound by
// Close like any other parked proc.
func (s *Sim) GoOn(machine int, name string, fn func(p *Proc)) *Proc {
	s.procSeq++
	p := &Proc{sim: s, name: name, id: s.procSeq, machine: int32(machine)}
	s.live++
	s.trackProc(p)
	// The coroutine starts at the first next(), which is p's first wake-up —
	// or Close's, and then fn never runs.
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			s.live--
			s.done++
			p.done = true
			// A finished proc keeps nothing of its coroutine: next holds fn and
			// all it captured, and the Sim keeps the Proc until it compacts.
			p.next, p.yield = nil, nil
			if r := recover(); r != nil {
				if _, ok := r.(shutdownError); !ok && s.failed == nil {
					s.failed = fmt.Errorf("sim: proc %q panicked: %v\n%s", p.name, r, debug.Stack())
				}
			}
			// Finish-then-dispatch: the exiting coroutine carries the event
			// loop forward until it can name its successor.
			s.relinquish(p)
		}()
		if !s.closed {
			fn(p)
		}
	})
	s.schedule(s.now, p, nil)
	return p
}

// trackProc records p for teardown, compacting finished procs once they
// outnumber live ones so long simulations don't accumulate dead entries.
func (s *Sim) trackProc(p *Proc) {
	if s.done > 64 && s.done > len(s.procs)/2 {
		kept := s.procs[:0]
		for _, q := range s.procs {
			if !q.done {
				kept = append(kept, q)
			}
		}
		for i := len(kept); i < len(s.procs); i++ {
			s.procs[i] = nil
		}
		s.procs, s.done = kept, 0
	}
	s.procs = append(s.procs, p)
}

// ProcNames lists the tracked procs as "machine/name" in creation order (the
// order Close unwinds them in). Before the simulation first runs that is
// every proc created so far, so tests use it to pin a testbed's assembly order.
func (s *Sim) ProcNames() []string {
	names := make([]string, len(s.procs))
	for i, p := range s.procs {
		names[i] = fmt.Sprintf("%d/%s", p.machine, p.name)
	}
	return names
}

// dispatch is the event loop. It runs on whichever coroutine holds control —
// Run's caller at the start of a run, afterwards the proc that just
// parked or finished — popping events in (at, seq) order and running
// scheduled functions inline with Running() == nil, until it pops a proc's
// wake-up, which it returns, or finds the run over (queue drained, boundary
// reached, Stop, a proc failure, Close), when it returns nil.
//
// Scheduled functions are the only foreign code dispatch calls, so a panic
// reaching its recover is theirs: it ends the run and is re-raised by Run on
// Run's caller, whichever coroutine happened to be dispatching.
func (s *Sim) dispatch() (next *Proc) {
	s.running = nil
	defer func() {
		if r := recover(); r != nil {
			s.fnPanic = fmt.Errorf("sim: scheduled function panicked: %v\n%s", r, debug.Stack())
			next = nil
		}
	}()
	for s.pending() > 0 && s.failed == nil && !s.stopped && !s.closed {
		if s.until >= 0 && s.peek().at > s.until {
			s.now = s.until
			break
		}
		e := s.pop()
		s.now = e.at
		if s.machineDead(e) {
			// Events addressed to a halted machine are discarded: its disks'
			// completions never fire and its procs never resume. The clock
			// still advances to e.at — dropping an event cannot move time
			// backwards for the survivors.
			s.putEvent(e)
			continue
		}
		fn, p := e.fn, e.proc
		s.putEvent(e)
		if p != nil {
			return p
		}
		fn()
	}
	return nil
}

// relinquish gives up the control p's coroutine holds because p is parking or
// has finished: the coroutine dispatches events itself, then names the proc
// that gets control next (nil when the run is over) for resumeProc to switch
// to once p has yielded or returned. It reports whether that proc is p itself
// (self-resume: p's own wake-up came first, no switch at all); otherwise a
// parking p must yield.
func (s *Sim) relinquish(p *Proc) (self bool) {
	next := s.dispatch()
	if next == p {
		s.running = p
		return true
	}
	s.successor = next
	return false
}

// resumeProc, on Run's or Close's caller, switches into p and then into each
// successor the procs name in turn, until one finds the run over. Control
// moves only by coroutine switches, so exactly one of them touches the
// simulation at a time.
func (s *Sim) resumeProc(p *Proc) {
	for p != nil {
		s.running = p
		p.next()
		p, s.successor = s.successor, nil
	}
}

// Running returns the proc currently holding control, or nil in scheduler
// context (a scheduled function such as an I/O completion callback is running,
// on whichever coroutine is dispatching) and outside Run. Observability hooks
// use it to attribute resource usage to the thread that incurred it; it has no
// effect on scheduling.
func (s *Sim) Running() *Proc { return s.running }

// wake schedules p to resume at the current time. It is the primitive used
// by resources and completion callbacks.
func (s *Sim) wake(p *Proc) { s.schedule(s.now, p, nil) }

// Run processes events until the queue is empty or virtual time would pass
// until (use until < 0 for no limit). It returns the first proc panic, if
// any, and re-raises a scheduled function's panic on its caller. Run may be
// called repeatedly to advance a simulation in stages.
//
// Run itself dispatches only until the first proc event; from there each proc
// dispatches as it gives up control and names its successor (see relinquish),
// and Run only switches from one to the next until one finds the run over.
func (s *Sim) Run(until Time) error {
	s.until = until
	if p := s.dispatch(); p != nil {
		s.resumeProc(p)
	}
	if err := s.fnPanic; err != nil {
		s.fnPanic = nil
		panic(err)
	}
	if until >= 0 && s.now < until && s.failed == nil && !s.stopped {
		s.now = until
	}
	return s.failed
}

// Close terminates the simulation: every parked proc is resumed with a
// shutdown panic so its coroutine ends. Pending events are discarded.
// It returns the first proc failure observed, if any.
func (s *Sim) Close() error {
	s.closed = true
	// Drain scheduled proc wake-ups first so no proc is resumed twice.
	for s.pending() > 0 {
		e := s.pop()
		p := e.proc
		s.putEvent(e)
		if p != nil {
			s.resumeProc(p)
		}
	}
	// Resume survivors in creation order (s.procs is append-ordered by id):
	// which proc panic is recorded first in s.failed must not depend on
	// anything but creation order. With no run in progress every unfinished
	// proc is suspended in its coroutine — parked, or never started
	// because its machine was halted first.
	for {
		var next *Proc
		for _, p := range s.procs {
			if !p.done {
				next = p
				break
			}
		}
		if next == nil {
			break
		}
		s.resumeProc(next)
	}
	return s.failed
}

// Proc is a simulated thread.
type Proc struct {
	sim     *Sim
	name    string
	id      uint64 // creation order, for deterministic teardown
	machine int32  // machine domain (0 unless started with GoOn)
	// next switches into the proc's coroutine and returns when it yields or
	// finishes; only resumeProc calls it. yield is the other direction, called
	// by park.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	done  bool
	trace any // observability context (a *trace.Ctx), never read by the kernel
}

// Name returns the proc's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Machine returns the machine domain the proc belongs to.
func (p *Proc) Machine() int { return int(p.machine) }

// Sim returns the simulation this proc belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// SetTrace attaches an observability context to the proc (see env.Ctx).
func (p *Proc) SetTrace(v any) { p.trace = v }

// Trace returns the context attached with SetTrace, or nil.
func (p *Proc) Trace() any { return p.trace }

// park suspends the proc until something wakes it. The caller must have
// arranged a wake-up (a scheduled event or registration with a resource).
func (p *Proc) park() {
	s := p.sim
	if !s.relinquish(p) {
		p.yield(struct{}{})
	}
	if s.closed {
		panic(errShutdown)
	}
}

// Sleep suspends the proc for d nanoseconds (d <= 0 yields to simultaneous
// events and resumes at the same virtual time).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.sleepUntil(p.sim.now + d)
}

// SleepUntil suspends the proc until virtual time t.
func (p *Proc) SleepUntil(t Time) { p.sleepUntil(t) }

func (p *Proc) sleepUntil(t Time) {
	s := p.sim
	if t < s.now {
		t = s.now // match schedule's clamp
	}
	if s.halted != nil && s.Halted(int(p.machine)) {
		// The proc's machine died while it was running (it is unwinding
		// after the halt): it must park, and its wake-up event will be
		// discarded at dispatch, so it sleeps until Close tears it down.
		s.schedule(t, p, nil)
		p.park()
		return
	}
	if s.canFastResume(t) {
		s.now = t
		return
	}
	s.schedule(t, p, nil)
	p.park()
}
