// Package fault is the deterministic crash-injection layer. An Injector
// wraps a set of simulated disks and kills the whole simulated machine at a
// chosen virtual instant or at the Nth submitted write. Death is modeled as
// a power loss: every write still in flight at the crash is independently
// dropped, completed, or torn (a prefix-free per-page subset persists) under
// a seeded RNG, the backing stores are snapshotted as "the disk at reboot",
// and the simulation freezes (sim.Stop) so no further event — completions,
// timers, acknowledgements — can run; in cluster mode (Config.HaltMachine)
// only the dead machine's event domain is halted (sim.Halt) and the
// surviving machines keep running, which is the failover model. Everything the injector does consumes
// randomness from one rand.Rand in a fixed order (disks in Wrap order,
// writes in submission order), so a crash schedule is bit-reproducible from
// the seed alone.
//
// Soundness of the power-loss model: SimDisk captures write data into the
// store at submission, so the injector records the pre-image of every
// tracked write before forwarding it. At the crash it walks tracked writes
// newest-submission-first, and each page's fate is decided exactly once, by
// the newest write touching it: a completed write keeps the store content, a
// dropped (or torn-out) page is restored from that write's pre-image — which,
// when writes overlapped, is precisely the data of the next-older write, so
// every reachable outcome equals some real interleaving of per-page persists.
// Older writes never restore a page a newer write settled: the engines here
// build overlapping writes from one shared page buffer (as real engines
// issuing pwrite from a page cache do), so a newer submission's data always
// subsumes the older one's, and completion of the newer write makes the older
// write's fate invisible. Writes whose completion callback already ran (the
// engine may have acknowledged them) always keep their pages: acknowledged
// implies durable, which is exactly the invariant the crash harness verifies
// end to end.
package fault

import (
	"fmt"
	"math/rand"

	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/sim"
)

// Config selects when the machine dies. Exactly one trigger is typically
// set; if both are set, whichever fires first wins.
type Config struct {
	// Seed drives the power-loss coin flips. Same seed (and same workload)
	// ⇒ same crash point, same drop/tear pattern, same post-crash images.
	Seed int64
	// AtTime, if > 0, kills the machine at that virtual instant.
	AtTime env.Time
	// AtWrite, if > 0, kills the machine when the Nth write (1-based,
	// counted across all wrapped disks in submission order) is submitted.
	// The Nth write itself is still in flight at the crash and subject to
	// the power-loss model.
	AtWrite int64

	// HaltMachine scopes death to the sim machine domain Machine: instead
	// of freezing the whole simulation (sim.Stop) the injector halts only
	// that machine's event domain (sim.Halt), so the rest of a simulated
	// cluster keeps running — the failover model. The power-loss settlement
	// and the disk snapshots are identical in both modes.
	HaltMachine bool
	// Machine is the machine domain to halt when HaltMachine is set (the
	// wrapped disks and the engine's procs must all belong to it).
	Machine int
}

// Stats summarizes what the crash did.
type Stats struct {
	// Writes counts writes submitted to wrapped disks before the crash.
	Writes int64
	// InFlight is how many writes were queued but un-completed at the crash.
	InFlight int
	// Completed/Dropped/Torn partition InFlight by power-loss outcome.
	Completed int
	Dropped   int
	Torn      int
	// LostPost counts requests submitted to an already-dead disk (procs
	// still unwinding after the freeze); they vanish.
	LostPost int64
}

// Injector coordinates the crash across every wrapped disk of one machine.
// All methods must be called from simulation context.
type Injector struct {
	s       *sim.Sim
	cfg     Config
	rng     *rand.Rand
	disks   []*Disk
	tripped bool
	crashed env.Time
	stats   Stats
}

// NewInjector returns an injector for the machine simulated by s.
// Wrap each disk, then Arm before (or while) the workload runs.
func NewInjector(s *sim.Sim, cfg Config) *Injector {
	return &Injector{
		s:   s,
		cfg: cfg,
		// Seeded from Config.Seed: the whole point of this RNG is a
		// reproducible crash schedule.
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Wrap interposes the injector on disk, which must be MemStore-backed (the
// snapshot is the MemStore page images). Wrap order is part of the crash
// schedule: keep it deterministic (it always is when disks are created in a
// fixed order, as the harness does).
func (inj *Injector) Wrap(d *device.SimDisk) *Disk {
	ms, ok := d.Store().(*device.MemStore)
	if !ok {
		panic(fmt.Sprintf("fault: Wrap needs a MemStore-backed disk, got %T", d.Store()))
	}
	fd := &Disk{inj: inj, inner: d, store: ms}
	inj.disks = append(inj.disks, fd)
	return fd
}

// Arm schedules the AtTime trigger (no-op if AtTime is unset). The AtWrite
// trigger needs no arming; it fires from Submit.
func (inj *Injector) Arm() {
	if inj.cfg.AtTime > 0 {
		if inj.cfg.HaltMachine {
			inj.s.AtOn(inj.cfg.Machine, inj.cfg.AtTime, inj.trip)
		} else {
			inj.s.At(inj.cfg.AtTime, inj.trip)
		}
	}
}

// Tripped reports whether the machine has died.
func (inj *Injector) Tripped() bool { return inj.tripped }

// CrashTime returns the virtual instant of death (0 if not tripped).
func (inj *Injector) CrashTime() env.Time { return inj.crashed }

// Stats returns the crash summary.
func (inj *Injector) Stats() Stats { return inj.stats }

// Disks returns the wrapped disks in Wrap order.
func (inj *Injector) Disks() []*Disk { return inj.disks }

// Snapshots returns one post-crash store image per wrapped disk, in Wrap
// order. Only valid after the machine has died.
func (inj *Injector) Snapshots() []*device.MemStore {
	if !inj.tripped {
		panic("fault: Snapshots before crash")
	}
	out := make([]*device.MemStore, len(inj.disks))
	for i, d := range inj.disks {
		out[i] = d.snap
	}
	return out
}

func (inj *Injector) countWrite() {
	inj.stats.Writes++
	if inj.cfg.AtWrite > 0 && inj.stats.Writes >= inj.cfg.AtWrite && !inj.tripped {
		inj.trip()
	}
}

// trip kills the machine: applies the power-loss model to each disk's
// in-flight writes, snapshots the stores, and freezes the simulation. A
// snapshot shares page arrays with its live store copy-on-write; a write by
// a still-unwinding proc to a shared page takes a fresh array, so nothing
// written after death reaches the crash image.
// Runs either in scheduler context (AtTime) or in the context of the proc
// that submitted the fatal write (AtWrite); both are safe — Stop only sets
// a flag, and the caller keeps running until it next parks, by which time
// its device is dead and nothing it does is observable.
func (inj *Injector) trip() {
	if inj.tripped {
		return
	}
	inj.tripped = true
	inj.crashed = inj.s.Now()
	for _, d := range inj.disks {
		d.powerLoss(inj)
		d.dead = true
		d.snap = d.store.Snapshot()
	}
	if inj.cfg.HaltMachine {
		inj.s.Halt(inj.cfg.Machine)
	} else {
		inj.s.Stop()
	}
}

// Disk is a fault-wrapped simulated disk. It satisfies device.Disk, exposes
// the backing store (engines' bulk-load paths write it directly — that data
// predates the workload and is durable by construction), and reports death
// to the aio layer via Dead.
type Disk struct {
	inj   *Injector
	inner *device.SimDisk
	store *device.MemStore
	dead  bool
	snap  *device.MemStore

	// inflight holds tracked writes in submission order; done entries are
	// recycled lazily by compact so Submit stays allocation-free in steady
	// state.
	inflight  []*track
	trackFree []*track
}

// track records one in-flight write: where it landed, the pre-image of the
// pages it overwrote, and the engine's completion callback (wrapped so the
// injector observes completion).
type track struct {
	page int64
	n    int
	pre  []byte
	orig func()
	done bool
	fn   func()
}

func (t *track) run() {
	t.done = true
	if t.orig != nil {
		t.orig()
	}
}

// Dead implements device.Disk.
func (d *Disk) Dead() bool { return d.dead }

// Image implements device.Disk by delegation.
func (d *Disk) Image(page int64) []byte { return d.inner.Image(page) }

// Busy implements device.Disk by delegation.
func (d *Disk) Busy() bool { return d.inner.Busy() }

// Store returns the live backing store (used by engine bulk-load fast paths
// and cache bookkeeping).
func (d *Disk) Store() device.Store { return d.store }

// Inner returns the wrapped simulated disk.
func (d *Disk) Inner() *device.SimDisk { return d.inner }

// Snapshot returns the post-crash page images (nil before the crash).
func (d *Disk) Snapshot() *device.MemStore { return d.snap }

// Counters implements device.Disk.
func (d *Disk) Counters() device.Counters { return d.inner.Counters() }

// Submit implements device.Disk. Writes are tracked (pre-image captured
// before the inner disk copies the new data into the store) and counted
// against the AtWrite trigger; on a dead disk every request vanishes.
func (d *Disk) Submit(r *device.Request) {
	if d.dead {
		d.inj.stats.LostPost++
		return
	}
	if r.Op != device.Write {
		d.inner.Submit(r)
		return
	}
	t := d.getTrack()
	t.page = r.Page
	t.n = len(r.Buf) / device.PageSize
	if cap(t.pre) < len(r.Buf) {
		t.pre = make([]byte, len(r.Buf))
	}
	t.pre = t.pre[:len(r.Buf)]
	if err := d.store.ReadPages(r.Page, t.pre); err != nil {
		panic("fault: pre-image read failed: " + err.Error())
	}
	t.orig = r.Done
	t.done = false
	r.Done = t.fn
	d.inner.Submit(r)
	r.Done = t.orig
	d.inflight = append(d.inflight, t)
	if len(d.inflight) >= 128 {
		d.compact()
	}
	d.inj.countWrite()
}

func (d *Disk) getTrack() *track {
	if n := len(d.trackFree); n > 0 {
		t := d.trackFree[n-1]
		d.trackFree = d.trackFree[:n-1]
		return t
	}
	t := &track{}
	t.fn = t.run
	return t
}

// compact recycles the completed prefix of inflight. Only the prefix: a
// completed write submitted after a still-pending one must stay tracked,
// because at a crash it settles its pages against restores by the older
// write (see powerLoss).
func (d *Disk) compact() {
	i := 0
	for i < len(d.inflight) && d.inflight[i].done {
		t := d.inflight[i]
		t.orig = nil
		d.trackFree = append(d.trackFree, t)
		i++
	}
	if i == 0 {
		return
	}
	n := copy(d.inflight, d.inflight[i:])
	for j := n; j < len(d.inflight); j++ {
		d.inflight[j] = nil
	}
	d.inflight = d.inflight[:n]
}

// powerLoss decides the fate of every un-completed write. Tracks are walked
// newest-submission-first and each page is settled exactly once, by the
// newest write touching it; completed writes settle their pages as kept
// (acknowledged implies durable). Single-page writes are atomic: kept or
// dropped. Multi-page writes are kept whole, dropped whole, or torn page by
// page (the paper's model: the device guarantees no atomicity beyond one
// page). The RNG is consumed for every pending write in this fixed walk
// order — even fully-settled ones — so the schedule stays bit-deterministic.
func (d *Disk) powerLoss(inj *Injector) {
	settled := make(map[int64]bool)
	settle := func(t *track, i int) bool { // reports whether page i was ours to decide
		p := t.page + int64(i)
		if settled[p] {
			return false
		}
		settled[p] = true
		return true
	}
	for ti := len(d.inflight) - 1; ti >= 0; ti-- {
		t := d.inflight[ti]
		if t.done {
			for i := 0; i < t.n; i++ {
				settle(t, i)
			}
			continue
		}
		inj.stats.InFlight++
		if t.n == 1 {
			if inj.rng.Intn(2) == 0 {
				inj.stats.Completed++
				settle(t, 0)
			} else {
				if settle(t, 0) {
					d.restore(t, 0, 1)
				}
				inj.stats.Dropped++
			}
			continue
		}
		switch inj.rng.Intn(3) {
		case 0:
			inj.stats.Completed++
			for i := 0; i < t.n; i++ {
				settle(t, i)
			}
		case 1:
			for i := 0; i < t.n; i++ {
				if settle(t, i) {
					d.restore(t, i, i+1)
				}
			}
			inj.stats.Dropped++
		default:
			kept := 0
			for i := 0; i < t.n; i++ {
				if inj.rng.Intn(2) == 0 {
					kept++
					settle(t, i)
				} else if settle(t, i) {
					d.restore(t, i, i+1)
				}
			}
			switch kept {
			case t.n:
				inj.stats.Completed++
			case 0:
				inj.stats.Dropped++
			default:
				inj.stats.Torn++
			}
		}
	}
	d.inflight = d.inflight[:0]
}

// restore rewrites pages [from, to) of t's extent from its pre-image.
func (d *Disk) restore(t *track, from, to int) {
	if err := d.store.WritePages(t.page+int64(from),
		t.pre[from*device.PageSize:to*device.PageSize]); err != nil {
		panic("fault: pre-image restore failed: " + err.Error())
	}
}
