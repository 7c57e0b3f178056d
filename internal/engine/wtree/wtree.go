// Package wtree implements a WiredTiger-like persistent B+ tree engine
// (§3.1 of the KVell paper): 4KB leaf pages on disk with the internal
// structure in memory, a shared page cache with an eviction thread and
// periodic checkpoints, and a slot-based group-commit log whose writers
// busy-wait for earlier slots (the __log_wait_for_earlier_slot /
// sched_yield behaviour the paper profiles at 47% of worker time).
//
// It is a baseline for the evaluation: its losses come from log-slot
// contention, shared-cache locking, and eviction/checkpoint stalls.
//
// The leaf format, the leaf table, residency accounting and page I/O are
// internal/engine/leaf, shared with betree, and the commit log is
// walog.Log with LogSlotBytes as its group size; what this package keeps is
// the policy §3.1 profiles: the tree lock is dropped across every leaf read
// (callers re-find their leaf), the commit log is a slot whose followers
// busy-wait, and dirty leaves are written back one at a time with the lock
// released.
package wtree

import (
	"kvell/internal/device"
	"kvell/internal/engine/leaf"
	"kvell/internal/env"
	"kvell/internal/trace"
	"kvell/internal/walog"
)

// Write-back policy, the same for every instance (the paper's WiredTiger
// setup).
const (
	// dirtyTriggerFrac starts eviction when dirty bytes exceed this
	// fraction of the cache; dirtyStallFrac stalls application writes.
	dirtyTriggerFrac = 0.05
	dirtyStallFrac   = 0.20
	// checkpointEvery is the checkpoint period.
	checkpointEvery = 2 * env.Second
)

// Config describes a wtree engine.
type Config struct {
	Disks []device.Disk
	// CacheBytes is the page-cache budget (the paper gives every system a
	// cache of one third of the dataset).
	CacheBytes int64
	// LogSlotBytes is the commit log's group size: a full slot is written
	// by its leader while later writers busy-wait. 0 writes and completes
	// every record's chunk before its operation returns.
	LogSlotBytes int64
	// Tracer, if set, receives background maintenance spans (eviction,
	// checkpoints). Purely observational.
	Tracer *trace.Tracer
}

// DefaultConfig returns the paper's WiredTiger-like configuration.
func DefaultConfig(disks ...device.Disk) Config {
	return Config{
		Disks:        disks,
		CacheBytes:   64 << 20,
		LogSlotBytes: 16 << 10,
	}
}

// Stats is a snapshot of engine activity.
type Stats struct {
	Gets, Puts, Scans int64
	CacheHits         int64
	CacheMisses       int64
	EvictedLeaves     int64
	CheckpointLeaves  int64
	WriteStalls       int64
	StallTime         env.Time
	LogSlotWrites     int64
	LogSpinTime       env.Time
}

// DB is the wtree engine.
type DB struct {
	env  env.Env
	cfg  Config
	name string

	// The shared cache/tree lock: every operation takes it (briefly), the
	// shared-structure cost §3.1 attributes to B-tree designs. It guards t.
	mu      env.Mutex
	cond    env.Cond // eviction progress / checkpoint wakeups / stalls
	t       *leaf.Tree
	closing bool

	log *walog.Log // the slot-based commit log (see logRecord)

	io *device.BufferedIO

	stats Stats
}

// New returns a wtree engine.
func New(e env.Env, cfg Config) *DB {
	if len(cfg.Disks) == 0 {
		panic("wtree: no disks")
	}
	d := &DB{env: e, cfg: cfg, name: "WiredTiger-like", io: device.NewBufferedIO(e, cfg.Disks[0])}
	d.mu = e.NewMutex()
	d.cond = e.NewCond(d.mu)
	d.log = walog.NewLog(e, d.io, cfg.LogSlotBytes)
	// The first pages are reserved for the log.
	d.t = leaf.NewTree(device.NewAllocator(walog.RegionPages), cfg.CacheBytes)
	return d
}

// Name implements kv.Engine.
func (d *DB) Name() string { return d.name }

// Stats returns a snapshot.
func (d *DB) Stats() Stats { return d.stats }

// Start launches the eviction and checkpoint threads.
func (d *DB) Start() {
	d.env.Go("wtree-evict", d.evictLoop)
	d.env.Go("wtree-checkpoint", d.checkpointLoop)
}

// Stop signals background threads to exit.
func (d *DB) Stop(c env.Ctx) {
	d.mu.Lock(c)
	d.closing = true
	d.mu.Unlock(c)
	d.cond.Broadcast(c)
}

// loadLeaf ensures l's entries are resident, releasing the lock around the
// disk read (one pread system call per miss, §3.1). Because the lock is
// dropped, callers must re-find their leaf afterwards; loadLeaf reports
// whether it had to do I/O.
func (d *DB) loadLeaf(c env.Ctx, l *leaf.Leaf) bool {
	if l.Resident() {
		d.stats.CacheHits++
		d.t.Touch(l)
		return false
	}
	d.stats.CacheMisses++
	page := l.Page
	buf := d.t.GetBuf(l.Pages) // popped while the lock is still held
	d.mu.Unlock(c)
	ents, total := leaf.Fetch(c, d.io, page, buf)
	d.mu.Lock(c)
	d.t.PutBuf(buf)
	if !l.Resident() {
		d.t.Install(l, ents, total)
	}
	return true
}
