// Package betree implements a Bε-tree engine in the mold of TokuMX (§3.1
// of the KVell paper): writes are buffered as messages at the top of the
// tree and trickle down through internal-node buffers to 4KB leaves. The
// paper profiles TokuMX spending >20% of its time moving data between
// buffers and up to 30% in locks protecting shared pages; both behaviours
// are first-class here — buffer moves charge BufferMovePerByte of CPU, and
// the tree lock is a spin lock held across flush-down work (including leaf
// I/O), so waiters burn CPU exactly as the paper describes.
//
// The tree is materialized at depth three (root buffer → group buffers →
// leaves), matching the shallow fan-out of real Bε trees at the harness's
// dataset scales; groups split as the leaf count grows. The simplification
// is recorded in DESIGN.md.
//
// The leaf format, the leaf table, residency accounting and page I/O are
// internal/engine/leaf, shared with wtree, and the commit log is walog.Log
// with WALBufferBytes (1MB) as its group size; what this package keeps is
// the policy §3.1 profiles: message buffers and their cascades, the tree
// lock held through flush-down leaf reads (dropped only on the Get path),
// and checkpoints that collect every dirty leaf first and write them
// afterwards.
package betree

import (
	"bytes"
	"sort"

	"kvell/internal/device"
	"kvell/internal/engine/leaf"
	"kvell/internal/env"
	"kvell/internal/trace"
	"kvell/internal/walog"
)

// Buffer, split and write-back policy, the same for every instance (a
// TokuMX-like setup at the harness's dataset scales).
const (
	// rootBufferBytes and groupBufferBytes bound the message buffers.
	rootBufferBytes  = 256 << 10
	groupBufferBytes = 64 << 10
	// splitSpan splits a group when its range covers more leaves.
	splitSpan = 256
	// checkpointEvery is the period of the dirty-leaf flush.
	checkpointEvery = 2 * env.Second
	// dirtyStallFrac stalls writers when dirty bytes exceed this fraction
	// of the cache; eviction starts at half of it.
	dirtyStallFrac = 0.2
)

// Config describes a betree engine.
type Config struct {
	Disks []device.Disk
	// CacheBytes is the leaf-cache budget.
	CacheBytes int64
	// WALBufferBytes is the commit log's group size: a record is
	// acknowledged at once, and the writer whose record fills a group
	// writes it. 0 writes and completes every record's chunk before its
	// operation returns.
	WALBufferBytes int64
	// Tracer, if set, receives background maintenance spans (eviction,
	// checkpoints, buffer cascades). Purely observational.
	Tracer *trace.Tracer
}

// DefaultConfig returns a TokuMX-like configuration for scaled datasets.
func DefaultConfig(disks ...device.Disk) Config {
	return Config{
		Disks:          disks,
		CacheBytes:     64 << 20,
		WALBufferBytes: 1 << 20,
	}
}

// Stats is a snapshot of engine activity.
type Stats struct {
	Gets, Puts, Scans int64
	BufferMovedBytes  int64
	RootFlushes       int64
	GroupFlushes      int64
	CacheHits         int64
	CacheMisses       int64
	EvictedLeaves     int64
	WriteStalls       int64
	StallTime         env.Time
}

// msg is one buffered write.
type msg struct {
	key   []byte
	value []byte
	seq   uint64
	del   bool
}

func msgBytes(m *msg) int { return 16 + len(m.key) + len(m.value) }

// group is a second-level buffer covering the key range
// [firstKey, next group's firstKey).
type group struct {
	firstKey []byte // nil on the first group
	msgs     []msg  // sorted by key, at most one per key (newest wins)
	bytes    int
}

// DB is the betree engine.
type DB struct {
	env  env.Env
	cfg  Config
	name string

	// The tree lock: held for all tree work including flush-down leaf
	// I/O, so buffer cascades pause every other operation (the TokuMX
	// shared-page contention profile; lock overhead itself is charged as
	// CPU on each acquisition).
	treeMu env.Mutex
	// stall coordination uses a plain mutex+cond (stalled writers should
	// sleep, not burn).
	stallMu   env.Mutex
	stallCond env.Cond

	rootMsgs  []msg
	rootBytes int
	groups    []*group
	t         *leaf.Tree // guarded by treeMu
	seq       uint64
	closing   bool

	log *walog.Log // the group-commit log (see logRecord)

	io *device.BufferedIO

	stats Stats
}

// New returns a betree engine.
func New(e env.Env, cfg Config) *DB {
	if len(cfg.Disks) == 0 {
		panic("betree: no disks")
	}
	d := &DB{env: e, cfg: cfg, name: "TokuMX-like", io: device.NewBufferedIO(e, cfg.Disks[0])}
	d.treeMu = e.NewMutex()
	d.stallMu = e.NewMutex()
	d.stallCond = e.NewCond(d.stallMu)
	d.log = walog.NewLog(e, d.io, cfg.WALBufferBytes)
	// The first pages are reserved for the log.
	d.t = leaf.NewTree(device.NewAllocator(walog.RegionPages), cfg.CacheBytes)
	d.groups = []*group{{}}
	return d
}

// Name implements kv.Engine.
func (d *DB) Name() string { return d.name }

// Stats returns a snapshot.
func (d *DB) Stats() Stats { return d.stats }

// Start launches the eviction and checkpoint threads.
func (d *DB) Start() {
	d.env.Go("betree-evict", d.evictLoop)
	d.env.Go("betree-checkpoint", d.checkpointLoop)
}

// Stop signals background threads.
func (d *DB) Stop(c env.Ctx) {
	d.treeMu.Lock(c)
	d.closing = true
	d.treeMu.Unlock(c)
	d.stallCond.Broadcast(c)
}

func (d *DB) findGroup(key []byte) int {
	i := sort.Search(len(d.groups), func(i int) bool {
		return bytes.Compare(d.groups[i].firstKey, key) > 0
	})
	if i == 0 {
		return 0
	}
	return i - 1
}

// loadLeafLocked makes l resident while HOLDING the tree lock across the
// read I/O (TokuMX-style page latching: concurrent operations burn CPU on
// the spin lock meanwhile).
func (d *DB) loadLeafLocked(c env.Ctx, l *leaf.Leaf) {
	if l.Resident() {
		d.stats.CacheHits++
		d.t.Touch(l)
		return
	}
	d.stats.CacheMisses++
	buf := d.t.GetBuf(l.Pages)
	ents, total := leaf.Fetch(c, d.io, l.Page, buf)
	d.t.PutBuf(buf)
	d.t.Install(l, ents, total)
}

// upsertMsg inserts m into a sorted message slice, replacing an existing
// message for the same key (newest wins). It returns the byte delta.
func upsertMsg(msgs *[]msg, m msg) int {
	s := *msgs
	i := sort.Search(len(s), func(i int) bool {
		return bytes.Compare(s[i].key, m.key) >= 0
	})
	if i < len(s) && bytes.Equal(s[i].key, m.key) {
		delta := msgBytes(&m) - msgBytes(&s[i])
		s[i] = m
		return delta
	}
	s = append(s, msg{})
	copy(s[i+1:], s[i:])
	s[i] = m
	*msgs = s
	return msgBytes(&m)
}

// findMsg looks a key up in a sorted message slice.
func findMsg(msgs []msg, key []byte) (msg, bool) {
	i := sort.Search(len(msgs), func(i int) bool {
		return bytes.Compare(msgs[i].key, key) >= 0
	})
	if i < len(msgs) && bytes.Equal(msgs[i].key, key) {
		return msgs[i], true
	}
	return msg{}, false
}
