package lsm

import (
	"bytes"
	"fmt"
	"sort"

	"kvell/internal/costs"
	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/pagecache"
	"kvell/internal/trace"
	"kvell/internal/walog"
)

// The tree shape, the L0 pressure bands, the Bloom filter density and the
// compaction thread count are the same for every instance (the paper's
// RocksDB setup, §6.2); what scales with the dataset is in Config.
const (
	// Levels is L, the number of levels (L0 included), and LevelMultiplier
	// is T, the size ratio between adjacent levels below L1: the L and T of
	// the leveled and fragmented cost models (PAPERS.md, VAT).
	Levels          = 5
	LevelMultiplier = 10

	// l0CompactionTrigger is the L0 table count that scores 1 for
	// compaction. At l0SlowdownTrigger tables writers are delayed (RocksDB's
	// delayed-write-rate band); at l0StallTrigger they stop entirely.
	l0CompactionTrigger = 4
	l0SlowdownTrigger   = 8
	l0StallTrigger      = 16

	// bloomBitsPerKey sizes each table's filter (~1% false positives).
	bloomBitsPerKey = 10

	// compactionThreads is the number of background compaction threads.
	compactionThreads = 3
)

// Config describes an LSM engine instance. Defaults mirror the paper's
// setup (§6.2) scaled by the harness to the dataset: two memory components,
// a 1MB write-ahead-log buffer, and a block cache sized to a third of the
// data.
type Config struct {
	Disks            []device.Disk
	MemtableBytes    int64
	BaseLevelBytes   int64
	TableTargetBytes int64
	BlockCacheBytes  int64
	// WALBufferBytes is the log's group size: a record is acknowledged at
	// once, and the writer whose record fills a group writes it. 0 writes
	// and completes every record's chunk before its operation returns.
	WALBufferBytes int64
	// Fragmented selects the PebblesDB-like mode: compactions re-partition
	// and move tables down without merging into the destination level
	// (except the last), reducing write amplification at the price of
	// overlapping tables (read and scan amplification).
	Fragmented bool
	// Tracer, if set, receives background maintenance spans (flushes,
	// compactions). Purely observational.
	Tracer *trace.Tracer
}

// DefaultConfig returns a configuration scaled for datasets in the
// hundreds of megabytes (the harness's scaled-down experiments).
func DefaultConfig(disks ...device.Disk) Config {
	return Config{
		Disks:            disks,
		MemtableBytes:    4 << 20,
		BaseLevelBytes:   16 << 20,
		TableTargetBytes: 2 << 20,
		BlockCacheBytes:  64 << 20,
		WALBufferBytes:   1 << 20,
	}
}

// Stats is a snapshot of engine activity.
type Stats struct {
	Gets, Puts, Scans      int64
	Flushes                int64
	Compactions            int64
	CompactionBytesRead    int64
	CompactionBytesWritten int64
	WriteStalls            int64
	StallTime              env.Time
	BlockCacheHits         int64
	BlockCacheMisses       int64
}

// DB is the LSM engine.
type DB struct {
	env  env.Env
	cfg  Config
	name string

	// Write path (single writer lock, like RocksDB's write group leader).
	writeMu   env.Mutex
	writeCond env.Cond // flush/compaction progress wakes stalled writers
	mem       *memtable
	imm       *memtable // immutable memtable being flushed (nil when none)
	seq       uint64
	log       *walog.Log // see wal.go

	// Version state.
	verMu    env.Mutex
	verCond  env.Cond // work signal for background threads
	levels   [][]*sstable
	busy     map[int64]bool // table id -> selected for compaction
	tableID  int64
	closing  bool
	candPool [][]*sstable // recycled candidate slices (guarded by verMu)

	// Block cache (shared; the contended structure §3.1 calls out).
	cacheMu env.Mutex
	cache   *pagecache.Cache

	// allocs and io are per disk, in cfg.Disks order: a table's disk is an
	// index into them.
	allocs   []*device.Allocator
	io       []*device.BufferedIO
	diskNext int

	stats Stats
}

// New returns an LSM engine; mode "rocks" (leveled) or "pebbles"
// (fragmented) only affects the display name — set cfg.Fragmented for the
// behavior itself.
func New(e env.Env, cfg Config) *DB {
	if len(cfg.Disks) == 0 {
		panic("lsm: no disks")
	}
	d := &DB{env: e, cfg: cfg, mem: newMemtable(), seq: 1, busy: map[int64]bool{}}
	d.name = "RocksDB-like"
	if cfg.Fragmented {
		d.name = "PebblesDB-like"
	}
	d.writeMu = e.NewMutex()
	d.writeCond = e.NewCond(d.writeMu)
	d.verMu = e.NewMutex()
	d.verCond = e.NewCond(d.verMu)
	d.cacheMu = e.NewMutex()
	cap := int(cfg.BlockCacheBytes / device.PageSize)
	if cap < 16 {
		cap = 16
	}
	d.cache = pagecache.New(cap, pagecache.IndexHash)
	d.levels = make([][]*sstable, Levels)
	for _, disk := range cfg.Disks {
		// Reserve the first pages for the WAL region.
		d.allocs = append(d.allocs, device.NewAllocator(walog.RegionPages))
		d.io = append(d.io, device.NewBufferedIO(e, disk))
	}
	d.log = walog.NewLog(e, d.io[0], cfg.WALBufferBytes)
	return d
}

// Name implements kv.Engine.
func (d *DB) Name() string { return d.name }

// Stats returns a snapshot of counters.
func (d *DB) Stats() Stats { return d.stats }

func (d *DB) nextTableID() int64 { d.tableID++; return d.tableID }

// cacheKey qualifies a page number with its disk for the shared block
// cache: the per-disk allocators hand out overlapping page numbers, so raw
// pages from different disks would collide (a single-disk DB is unaffected:
// the disk index is 0 and the key equals the page).
func cacheKey(disk int, page int64) int64 { return int64(disk)<<40 | page }

func (d *DB) free(c env.Ctx, t *sstable) {
	if t.freed {
		return
	}
	t.freed = true
	// The allocator may hand these pages to a future table, so any cached
	// blocks at these page numbers must be dropped first.
	d.cacheMu.Lock(c)
	for i := range t.blocks {
		d.cache.Remove(cacheKey(t.disk, t.blocks[i].page))
	}
	d.cacheMu.Unlock(c)
	d.allocs[t.disk].Free(t.basePage, t.pages)
	if ms, ok := d.cfg.Disks[t.disk].Store().(*device.MemStore); ok {
		ms.Free(t.basePage, t.pages)
	}
}

// nextDisk round-robins new tables across disks, returning an index into
// cfg.Disks.
func (d *DB) nextDisk() int {
	disk := d.diskNext % len(d.cfg.Disks)
	d.diskNext++
	return disk
}

// ---- engine lifecycle ----

// Start launches the flush thread and compaction threads.
func (d *DB) Start() {
	d.env.Go(d.name+"-flush", d.flushLoop)
	for i := range compactionThreads {
		d.env.Go(fmt.Sprintf("%s-compact-%d", d.name, i), d.compactLoop)
	}
}

// Stop asks background threads to exit.
func (d *DB) Stop(c env.Ctx) {
	d.writeMu.Lock(c)
	d.verMu.Lock(c)
	d.closing = true
	d.verMu.Unlock(c)
	d.writeMu.Unlock(c)
	d.verCond.Broadcast(c)
	d.writeCond.Broadcast(c)
}

// BulkLoad implements kv.Engine: logs the items (untimed, so a replay
// rebuilds them) and builds last-level tables directly. In fragmented
// (PebblesDB-like) mode the loaded keyspace is striped across several
// overlapping table families, reproducing the fragment overlap a real
// insert-order load leaves behind (scans must merge every family).
func (d *DB) BulkLoad(items []kv.Item) error {
	d.log.AppendBulk(d.cfg.Disks[0].Store(), items)
	last := len(d.levels) - 1
	stripes := 1
	if d.cfg.Fragmented {
		stripes = 4
	}
	builders := make([]*tableBuilder, stripes)
	for i := range builders {
		builders[i] = d.newBuilder(d.nextDisk())
	}
	flush := func(i int) {
		if t := builders[i].finish(nil); t != nil {
			d.levels[last] = append(d.levels[last], t)
		}
		builders[i] = d.newBuilder(d.nextDisk())
	}
	for n, it := range items {
		i := n % stripes
		builders[i].add(&entry{key: it.Key, value: it.Value, seq: 0})
		if builders[i].estimatedBytes() >= d.cfg.TableTargetBytes {
			flush(i)
		}
	}
	for i := range builders {
		flush(i)
	}
	if !d.cfg.Fragmented {
		sort.Slice(d.levels[last], func(i, j int) bool {
			return bytes.Compare(d.levels[last][i].min, d.levels[last][j].min) < 0
		})
	}
	return nil
}

// Submit implements kv.Engine: operations run on the calling thread
// (library model, as with RocksDB under YCSB).
func (d *DB) Submit(c env.Ctx, r *kv.Request) { kv.SubmitLibrary(c, d, r) }

// ---- write path ----

// Put buffers the write: like the configured RocksDB baseline (§6.2), the
// WAL group is 1MB and written once full, so persistence is batched — KVell
// §5.5 contrasts its own guarantee with exactly this.
func (d *DB) Put(c env.Ctx, key, value []byte) {
	d.write(c, key, value, false)
}

// Delete writes a tombstone.
func (d *DB) Delete(c env.Ctx, key []byte) {
	d.write(c, key, nil, true)
}

func (d *DB) write(c env.Ctx, key, value []byte, tombstone bool) {
	c.CPU(costs.LockUncontended)
	d.writeMu.Lock(c)
	d.stats.Puts++

	// WAL append (see wal.go): a group write by whoever fills it.
	d.seq++
	t0 := c.Now()
	d.walAppend(c, key, value, tombstone)
	trace.FromCtx(c).Span("wal", t0, c.Now())

	// Memtable insert.
	rec := int64(entryHeader + len(key) + len(value))
	e := entry{key: append([]byte(nil), key...), seq: d.seq, tombstone: tombstone}
	if !tombstone {
		e.value = append([]byte(nil), value...)
	}
	c.CPU(d.mem.lookupCost() + costs.MemBytes(int(rec)))
	d.mem.put(e)

	// Memtable rotation and stalls.
	for d.mem.bytes >= d.cfg.MemtableBytes {
		if d.imm == nil {
			d.imm = d.mem
			d.mem = newMemtable()
			d.writeCond.Broadcast(c) // wake the flush thread
			break
		}
		// Flush behind: stall the writer (§3.2: "writer threads spend
		// ~22% of their time stalled waiting for the memory component to
		// be flushed").
		d.stall(c)
	}
	// L0 pressure: first a slowdown band (RocksDB's delayed write rate),
	// then a hard stall (§3.2).
	if n := d.l0Count(); n >= l0SlowdownTrigger && n < l0StallTrigger {
		ts := c.Now()
		d.writeMu.Unlock(c)
		c.Sleep(env.Millisecond)
		d.writeMu.Lock(c)
		trace.FromCtx(c).Add(trace.CompStall, ts, c.Now())
	}
	for d.l0Count() >= l0StallTrigger {
		d.stall(c)
	}
	d.writeMu.Unlock(c)
}

// stall blocks the writer until background progress, accounting stall time.
func (d *DB) stall(c env.Ctx) {
	d.stats.WriteStalls++
	t0 := c.Now()
	d.writeCond.Wait(c)
	d.stats.StallTime += c.Now() - t0
	trace.FromCtx(c).Add(trace.CompStall, t0, c.Now())
}

func (d *DB) l0Count() int {
	return len(d.levels[0])
}

// ---- read path ----

// Get returns the newest value for key.
func (d *DB) Get(c env.Ctx, key []byte) ([]byte, bool) {
	return d.GetInto(c, key, nil)
}

// GetInto is Get with optional caller-owned value scratch: when vdst is
// non-nil the returned value is backed by *vdst (grown as needed) and is
// only valid until the caller reuses the scratch.
func (d *DB) GetInto(c env.Ctx, key []byte, vdst *[]byte) ([]byte, bool) {
	d.stats.Gets++
	// Memtables.
	c.CPU(costs.LockUncontended)
	d.writeMu.Lock(c)
	c.CPU(d.mem.lookupCost())
	if e, ok := d.mem.get(key); ok {
		d.writeMu.Unlock(c)
		return copyValInto(e, vdst)
	}
	if d.imm != nil {
		c.CPU(d.imm.lookupCost())
		if e, ok := d.imm.get(key); ok {
			d.writeMu.Unlock(c)
			return copyValInto(e, vdst)
		}
	}
	d.writeMu.Unlock(c)

	// Tables, newest first.
	cands := d.snapshotCandidates(c, key)
	defer d.unref(c, cands)
	if d.cfg.Fragmented {
		// Overlapping fragments: search all, keep newest seq.
		var best entry
		haveBest := false
		for _, t := range cands {
			if e, ok := d.searchTable(c, t, key); ok {
				if !haveBest || e.seq > best.seq {
					best = e
					haveBest = true
				}
			}
		}
		if !haveBest {
			return nil, false
		}
		return copyValInto(best, vdst)
	}
	for _, t := range cands {
		if e, ok := d.searchTable(c, t, key); ok {
			return copyValInto(e, vdst)
		}
	}
	return nil, false
}

func copyValInto(e entry, vdst *[]byte) ([]byte, bool) {
	if e.tombstone {
		return nil, false
	}
	return kv.CopyValue(e.value, vdst), true
}

// snapshotCandidates collects, under the version lock, the tables that may
// contain key, ordered newest-first, with references taken.
func (d *DB) snapshotCandidates(c env.Ctx, key []byte) []*sstable {
	c.CPU(costs.LockUncontended)
	d.verMu.Lock(c)
	var out []*sstable
	if n := len(d.candPool); n > 0 {
		out = d.candPool[n-1]
		d.candPool = d.candPool[:n-1]
	}
	for li, lvl := range d.levels {
		if li == 0 || d.cfg.Fragmented {
			// Overlapping: newest (latest id) first.
			for i := len(lvl) - 1; i >= 0; i-- {
				if lvl[i].containsKey(key) {
					out = append(out, lvl[i])
				}
			}
			continue
		}
		// Disjoint sorted level: binary search.
		i := sort.Search(len(lvl), func(i int) bool {
			return bytes.Compare(lvl[i].max, key) >= 0
		})
		if i < len(lvl) && lvl[i].containsKey(key) {
			out = append(out, lvl[i])
		}
	}
	for _, t := range out {
		t.refs++
	}
	d.verMu.Unlock(c)
	return out
}

func (d *DB) unref(c env.Ctx, tables []*sstable) {
	d.verMu.Lock(c)
	for _, t := range tables {
		t.refs--
		if t.refs == 0 && t.zombie {
			d.free(c, t) // dropped by a compaction while we were reading
		}
	}
	if cap(tables) > 0 {
		clear(tables) // drop table pointers so pooled slices don't pin them
		d.candPool = append(d.candPool, tables[:0])
	}
	d.verMu.Unlock(c)
}

// searchTable probes one table for key.
func (d *DB) searchTable(c env.Ctx, t *sstable, key []byte) (entry, bool) {
	c.CPU(costs.BloomCheck)
	if !t.filter.mayContain(key) {
		return entry{}, false
	}
	bi := t.findBlock(key)
	if bi < 0 {
		return entry{}, false
	}
	c.CPU(costs.BTreeNode * 3) // block index binary search
	data := d.blockData(c, t, bi)
	off := 0
	for {
		e, next, ok := decodeEntry(data, off)
		if !ok {
			return entry{}, false
		}
		c.CPU(costs.IterStep)
		cmp := bytes.Compare(e.key, key)
		if cmp == 0 {
			return e, true
		}
		if cmp > 0 {
			return entry{}, false
		}
		off = next
	}
}

// blockData returns a block's payload via the shared block cache.
func (d *DB) blockData(c env.Ctx, t *sstable, bi int) []byte {
	blk := &t.blocks[bi]
	key := cacheKey(t.disk, blk.page)
	c.CPU(costs.LockUncontended)
	d.cacheMu.Lock(c)
	c.CPU(d.cache.LookupCost())
	if data := d.cache.Get(key); data != nil {
		d.stats.BlockCacheHits++
		d.cacheMu.Unlock(c)
		return data[:blk.length]
	}
	d.stats.BlockCacheMisses++
	d.cacheMu.Unlock(c)

	buf := make([]byte, int(blk.pages)*device.PageSize)
	// pread: the per-block buffered-read path §6.3.1 profiles.
	d.io[t.disk].Read(c, blk.page, buf)

	d.cacheMu.Lock(c)
	d.cache.Insert(key, buf)
	c.CPU(d.cache.InsertCost())
	d.cacheMu.Unlock(c)
	return buf[:blk.length]
}

// ---- scans ----

// Scan returns up to count live items with key >= start in key order,
// merging the memtables and every overlapping table.
func (d *DB) Scan(c env.Ctx, start []byte, count int) []kv.Item {
	return d.ScanInto(c, start, count, nil)
}

// ScanInto is Scan with a caller-owned destination: dst's slots (and their
// Key/Value capacity) are reused via kv.AppendItem, so hot-path callers
// that only count the results recycle one buffer across scans.
func (d *DB) ScanInto(c env.Ctx, start []byte, count int, dst []kv.Item) []kv.Item {
	d.stats.Scans++
	var sources []*scanSource
	c.CPU(costs.LockUncontended)
	d.writeMu.Lock(c)
	sources = append(sources, sliceSource(d.mem.firstN(start, count)))
	if d.imm != nil {
		sources = append(sources, sliceSource(d.imm.firstN(start, count)))
	}
	d.writeMu.Unlock(c)

	// Snapshot overlapping tables (into a recycled candidate slice; unref
	// returns it to the pool).
	d.verMu.Lock(c)
	var tabs []*sstable
	if n := len(d.candPool); n > 0 {
		tabs = d.candPool[n-1]
		d.candPool = d.candPool[:n-1]
	}
	for _, lvl := range d.levels {
		for _, t := range lvl {
			if bytes.Compare(t.max, start) >= 0 {
				t.refs++
				tabs = append(tabs, t)
			}
		}
	}
	d.verMu.Unlock(c)
	defer d.unref(c, tabs)
	for _, t := range tabs {
		sources = append(sources, d.tableSource(c, t, start))
	}

	out := mergeScan(c, sources, count, dst)
	return out
}

// scanSource is a peekable stream of entries in key order. The peeked
// entry is held by value: boxing it would allocate once per entry walked.
type scanSource struct {
	cur  entry
	ok   bool
	eof  bool
	next func() (entry, bool)
}

func (s *scanSource) peek() (entry, bool) {
	if !s.ok && !s.eof {
		if e, got := s.next(); got {
			s.cur, s.ok = e, true
		} else {
			s.eof = true
		}
	}
	return s.cur, s.ok
}

func (s *scanSource) advance() { s.ok = false }

func sliceSource(ents []entry) *scanSource {
	i := 0
	return &scanSource{next: func() (entry, bool) {
		if i >= len(ents) {
			return entry{}, false
		}
		e := ents[i]
		i++
		return e, true
	}}
}

// tableSource streams a table's entries from the first block that may
// contain start, reading blocks through the cache as it advances. Because
// data is sorted on disk, each ~4KB block yields several items — the
// advantage Figure 10 quantifies for small items.
func (d *DB) tableSource(c env.Ctx, t *sstable, start []byte) *scanSource {
	bi := t.findBlock(start)
	if bi < 0 {
		bi = 0
	}
	var data []byte
	off := 0
	return &scanSource{next: func() (entry, bool) {
		for {
			if data == nil {
				if bi >= len(t.blocks) {
					return entry{}, false
				}
				data = d.blockData(c, t, bi)
				off = 0
			}
			e, next, ok := decodeEntry(data, off)
			if !ok {
				data = nil
				bi++
				continue
			}
			off = next
			c.CPU(costs.IterStep)
			if bytes.Compare(e.key, start) < 0 {
				continue
			}
			return e, true
		}
	}}
}

// merger is a k-way merge of sources by (key asc, seq desc): the newest
// version of each key comes first, and the older ones after it are marked
// as superseded.
type merger struct {
	sources  []*scanSource
	lastKey  []byte
	haveLast bool
}

// next takes the smallest key off the sources, the highest seq among equal
// keys. dup reports an older version of the key returned before it; ok is
// false once every source is exhausted.
func (m *merger) next() (e entry, dup, ok bool) {
	var best *scanSource
	for _, s := range m.sources {
		se, ok := s.peek()
		if !ok {
			continue
		}
		if best == nil {
			best, e = s, se
			continue
		}
		cmp := bytes.Compare(se.key, e.key)
		if cmp < 0 || (cmp == 0 && se.seq > e.seq) {
			best, e = s, se
		}
	}
	if best == nil {
		return entry{}, false, false
	}
	best.advance()
	if m.haveLast && bytes.Equal(e.key, m.lastKey) {
		return e, true, true
	}
	m.lastKey = append(m.lastKey[:0], e.key...)
	m.haveLast = true
	return e, false, true
}

// mergeScan merges sources, dropping older versions and tombstones,
// appending up to count items to dst (slot capacity reused, see
// kv.AppendItem).
func mergeScan(c env.Ctx, sources []*scanSource, count int, dst []kv.Item) []kv.Item {
	out := dst
	m := merger{sources: sources}
	for len(out) < count {
		e, dup, ok := m.next()
		if !ok {
			break
		}
		c.CPU(costs.IterStep)
		if dup || e.tombstone {
			continue
		}
		out = kv.AppendItem(out, e.key, e.value)
	}
	return out
}
