package core

import (
	"bytes"
	"fmt"
	"math/rand"

	"kvell/internal/aio"
	"kvell/internal/btree"
	"kvell/internal/costs"
	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/hotcache"
	"kvell/internal/kv"
	"kvell/internal/mvcc"
	"kvell/internal/pagecache"
	"kvell/internal/slab"
	"kvell/internal/trace"
)

// Store is a KVell key-value store.
type Store struct {
	env     env.Env
	cfg     Config
	workers []*worker
	started bool
	// oracle issues commit/snapshot timestamps in MVCC mode (nil otherwise).
	// Single-node stores own it directly; a cluster shares machine 0's
	// through the network layer.
	oracle *mvcc.Oracle
	// poolMu guards the free lists of blocking-call waiters (see
	// acquireWaiter) and scan states (see acquireScan).
	poolMu  env.Mutex
	waiters []*waiter
	scans   []*scanState
}

const (
	// extentPages is the growth increment of each slab, in pages.
	extentPages = 1024
	// tieredHalfLife is the virtual-time half-life of the hot tier's decayed
	// access counters, which drive promotion and eviction.
	tieredHalfLife = 100 * env.Millisecond
)

// Open constructs a store (no I/O happens yet). If the disks contain data
// from a previous run, call Recover before Start; otherwise call Start
// directly.
func Open(e env.Env, cfg Config) (*Store, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Store{env: e, cfg: cfg, poolMu: e.NewMutex()}
	if cfg.MVCC {
		s.oracle = &mvcc.Oracle{}
	}
	// One shard per thread, or every thread on one shard (§4.1's
	// conventional design, see worker).
	shards, threads := cfg.Workers, 1
	if cfg.SharedEverything {
		if len(cfg.Disks) != 1 {
			return nil, fmt.Errorf("core: SharedEverything requires exactly one disk")
		}
		shards, threads = 1, cfg.Workers
	}
	d := len(cfg.Disks)
	perClass := cfg.WorkerRegionPages / int64(len(slab.DefaultClasses)+1)
	cachePer := cfg.PageCachePages / shards
	for i := 0; i < shards; i++ {
		disk := cfg.Disks[i%d]
		ordinal := int64(i / d)
		base := ordinal * cfg.WorkerRegionPages
		if cfg.WithCommitLog {
			// The region's last class-sized share is the shard's log.
			disk = &logDisk{Disk: disk, base: base + int64(len(slab.DefaultClasses))*perClass, pages: perClass, mu: e.NewMutex()}
		}
		w := &worker{
			st:           s,
			id:           i,
			q:            e.NewQueue(),
			dev:          disk,
			idx:          btree.New(),
			idxMu:        e.NewMutex(),
			cache:        pagecache.New(cachePer, cfg.CacheIndex),
			shared:       disk.Image(0) != nil,
			pendingReads: make(map[int64]*pendingRead),
			tailPage:     make(map[int]int64),
			ts:           1,
		}
		for range threads {
			w.threads = append(w.threads, aio.New(e, disk))
		}
		if cfg.SharedEverything {
			w.shMu = e.NewMutex()
		}
		for ci, stride := range slab.DefaultClasses {
			alloc := device.NewAllocator(base + int64(ci)*perClass)
			w.slabs = append(w.slabs, slab.New(ci, stride, alloc, extentPages, freelistHeads))
		}
		if cfg.MVCC {
			w.mv = mvcc.NewTable()
		}
		if cfg.AbsorbInterval > 0 {
			w.ab = newAbsorber()
			w.tick = &flushTick{}
			w.absorbMu = e.NewMutex()
			w.absorbInterval = cfg.AbsorbInterval
		}
		if cfg.TieredHotBytes > 0 {
			w.hot = hotcache.New(hotcache.Config{
				CapBytes:     cfg.TieredHotBytes / int64(shards),
				SlotBytes:    tieredSlotBytes,
				HalfLife:     tieredHalfLife,
				PromoteAfter: uint32(cfg.TieredPromoteAfter),
				Seed:         cfg.TieredSeed + int64(i),
			})
		}
		s.workers = append(s.workers, w)
	}
	return s, nil
}

// logDisk is the §4.4 commit-log ablation (Config.WithCommitLog), what
// KVell's design leaves out: a shard's disk whose Submit first appends every
// page write — an item, a tombstone, an MVCC intent or flip alike — to the
// next pages of the shard's log region, and completes the write only once
// both are durable. The region is reused from its start when full. Reads
// pass through.
type logDisk struct {
	device.Disk
	base, pages int64 // the log region
	next        int64 // the region's next page, relative to base
	// mu guards next, free and the records' counts: a RealDisk completes the
	// two writes of one record on two executors.
	mu   env.Mutex
	free []*logJoin
}

// logJoin is one page write and its log append in flight: r is the
// caller's request, done its completion, run when the later of the two
// writes completes. fn is bound once, to arrive, so a write builds no
// closure.
type logJoin struct {
	d    *logDisk
	r    *device.Request
	done func()
	left int
	log  device.Request
	fn   func()
}

func (d *logDisk) Submit(r *device.Request) {
	if r.Op != device.Write {
		d.Disk.Submit(r)
		return
	}
	n := int64(len(r.Buf) / device.PageSize)
	d.mu.Lock(nil)
	var j *logJoin
	if k := len(d.free); k > 0 {
		j = d.free[k-1]
		d.free = d.free[:k-1]
	} else {
		j = &logJoin{d: d}
		j.fn = j.arrive
	}
	if d.next+n > d.pages {
		d.next = 0
	}
	page := d.base + d.next
	d.next += n
	d.mu.Unlock(nil)
	j.r, j.done, j.left = r, r.Done, 2
	j.log = device.Request{Op: device.Write, Page: page, Buf: r.Buf, Done: j.fn, Trace: r.Trace, Enqueued: r.Enqueued}
	r.Done = j.fn
	d.Disk.Submit(&j.log)
	d.Disk.Submit(r)
}

// arrive counts one of j's writes complete. At the second, the caller's
// request gets its Done back and the later completion time, j is recycled,
// and the caller's completion runs.
func (j *logJoin) arrive() {
	d := j.d
	d.mu.Lock(nil)
	j.left--
	var done func()
	if j.left == 0 {
		r := j.r
		r.Done, done = j.done, j.done
		r.Completed = max(r.Completed, j.log.Completed)
		*j = logJoin{d: d, fn: j.fn}
		d.free = append(d.free, j)
	}
	d.mu.Unlock(nil)
	if done != nil {
		done()
	}
}

// Shards returns the number of shards the key space is split into: one per
// worker thread, or one for all of them in the shared-everything ablation.
func (s *Store) Shards() int { return len(s.workers) }

// Start launches the worker threads, shard by shard.
func (s *Store) Start() {
	if s.started {
		return
	}
	s.started = true
	n := 0
	for _, w := range s.workers {
		for _, eng := range w.threads {
			s.env.Go(fmt.Sprintf("kvell-worker-%d", n), func(c env.Ctx) { w.run(c, eng) })
			n++
		}
		if w.ab != nil {
			s.env.Go(fmt.Sprintf("kvell-absorb-%d", w.id), w.absorbLoop)
		}
	}
}

// Stop closes the request queues; workers drain in-flight work and exit.
// Each absorb tick proc is stopped under its mutex before its queue closes,
// so a proc mid-wakeup can never push a tick into a closed queue.
func (s *Store) Stop(c env.Ctx) {
	for _, w := range s.workers {
		if w.ab != nil {
			w.absorbMu.Lock(c)
			w.absorbStopped = true
			w.absorbMu.Unlock(c)
		}
		w.q.Close(c)
	}
}

// Name implements kv.Engine.
func (s *Store) Name() string { return "KVell" }

func (s *Store) workerFor(key []byte) *worker {
	return s.workers[kv.Hash64(key)%uint64(len(s.workers))]
}

// LookupLoc returns the raw index location for key, or false if absent. A
// pure in-memory read with no CPU charge and no events — diagnostics and
// replica-index validation only, never the data path (which charges index
// descent costs via the worker's lookup).
func (s *Store) LookupLoc(key []byte) (uint64, bool) {
	return s.workerFor(key).idx.Get(key)
}

// Submit implements kv.Engine. Point operations are enqueued to the owning
// worker (the client thread only computes the hash, §5.5); scans execute on
// the calling thread, coordinating with workers (§5.5 Scan).
func (s *Store) Submit(c env.Ctx, r *kv.Request) {
	if r.Op == kv.OpScan {
		// The items land in the request's scratch, like every engine's scan.
		r.ScanBuf = s.scanInto(c, r.Key, r.ScanCount, r.ScanBuf)
		if r.Done != nil {
			r.Done(kv.Result{Found: len(r.ScanBuf) > 0, ScanN: len(r.ScanBuf)})
		}
		return
	}
	s.submitTo(c, s.workerFor(r.Key), r)
}

// submitTo enqueues the point operation r on shard w.
func (s *Store) submitTo(c env.Ctx, w *worker, r *kv.Request) {
	c.CPU(costs.Callback) // route + enqueue
	r.Trace.MarkQueue(c.Now())
	w.enqueue(c, r)
}

// candidate is a scan candidate gathered from a worker index. Its key is
// the scan's copy (scanState.kb): it is compared and matched against slots,
// and copied again into the items a scan hands out.
type candidate struct {
	key []byte
	l   location
	w   *worker
}

// scanRun is one worker's run of gathered keys, ks[next:end] of its scan
// state, in key order; next is the merge's cursor into it.
type scanRun struct {
	w         *worker
	next, end int
}

// scanState is one scan's working memory: the gather buffers every worker's
// run is appended to, the run cursors and the heap the lazy merge pulls
// from, the kept candidates, and one location-direct read per kept
// candidate. States are recycled on the Store (see acquireScan), like Do's
// waiters, so a warm scan allocates nothing.
type scanState struct {
	reads env.Latch // the location-direct reads still to deliver

	ks   [][]byte
	kb   []byte // the bytes of ks: gather's copies, reset once per scan
	vs   []uint64
	runs []scanRun
	heap []int // indices of the unexhausted runs, a min-heap on their next key
	kept []candidate
	next []byte // the start key of a further firstKept pass

	reqs []*locReq
	// items is the caller's destination while a fetch is in flight: read i
	// copies its key and value into items[i]. nil otherwise.
	items []kv.Item
}

// acquireScan takes a scan state off the store's free list, or builds one.
func (s *Store) acquireScan(c env.Ctx) *scanState {
	var ss *scanState
	s.poolMu.Lock(c)
	if n := len(s.scans); n > 0 {
		ss = s.scans[n-1]
		s.scans = s.scans[:n-1]
	}
	s.poolMu.Unlock(c)
	if ss == nil {
		ss = &scanState{reads: env.NewLatch(s.env)}
	}
	ss.kb = ss.kb[:0]
	return ss
}

// releaseScan returns ss to the free list once its scan has returned.
func (s *Store) releaseScan(c env.Ctx, ss *scanState) {
	s.poolMu.Lock(c)
	s.scans = append(s.scans, ss)
	s.poolMu.Unlock(c)
}

// ScanN returns up to count items with key >= start, in key order, reading
// each item's current value. Per §5.5, the scanning thread briefly locks
// each worker's index in turn, merges the candidate keys, and then issues
// location-direct reads that bypass the index lookup. The items are freshly
// allocated and owned by the caller.
func (s *Store) ScanN(c env.Ctx, start []byte, count int) []kv.Item {
	return s.scanInto(c, start, count, nil)
}

// scanInto is ScanN with the items copied into dst's storage (see fetch).
func (s *Store) scanInto(c env.Ctx, start []byte, count int, dst []kv.Item) []kv.Item {
	ss := s.acquireScan(c)
	s.firstKept(c, ss, start, count, s.latest)
	items := ss.fetch(c, dst)
	s.releaseScan(c, ss)
	return items
}

// firstKept walks the keys >= start in key order across all workers, offering
// each to keep, and leaves in ss.kept the first count it accepts, each at the
// location keep says to read (fewer only if the indexes run out). Keys that
// keep refuses (under MVCC: a retained delete, a bare intent, a version the
// snapshot does not see) do not count, so a scan is never short while more
// keys follow. Every worker contributes its first n keys per pass, and the
// merge of those is complete only up to the smallest last key of a worker that
// had more — the horizon; a further pass starts just past it. Without refusals
// the first pass always yields count keys at or below the horizon.
func (s *Store) firstKept(c env.Ctx, ss *scanState, start []byte, count int, keep func(cd candidate) (location, bool)) {
	ss.kept = ss.kept[:0]
	for len(ss.kept) < count {
		horizon := ss.gather(c, s.workers, start, nil, count-len(ss.kept))
		for len(ss.kept) < count {
			cd, ok := ss.pop()
			if !ok || (horizon != nil && bytes.Compare(cd.key, horizon) > 0) {
				break
			}
			if l, ok := keep(cd); ok {
				cd.l = l
				ss.kept = append(ss.kept, cd)
			}
		}
		if horizon == nil {
			break
		}
		ss.next = append(append(ss.next[:0], horizon...), 0) // the next key after horizon
		start = ss.next
	}
}

// ScanRange returns all items with start <= key < end in key order, freshly
// allocated like ScanN's.
func (s *Store) ScanRange(c env.Ctx, start, end []byte) []kv.Item {
	ss := s.acquireScan(c)
	ss.gather(c, s.workers, start, end, 0)
	ss.kept = ss.kept[:0]
	for cd, ok := ss.pop(); ok; cd, ok = ss.pop() {
		if l, ok := s.latest(cd); ok {
			cd.l = l
			ss.kept = append(ss.kept, cd)
		}
	}
	items := ss.fetch(c, nil)
	s.releaseScan(c, ss)
	return items
}

// gather takes one run from every worker index, under its lock, and sets up
// the merge over them: with n > 0 the worker's first n keys >= start,
// otherwise its keys in [start, end). It returns the horizon of an n-limited
// gather — the smallest last key of a run that is full, nil if none is.
//
// A key the index hands out aliases its node and is valid only until the
// worker's next Put or Delete, while the merge, keep and fetch run after the
// lock is dropped, so gather copies each key into ss.kb before unlocking.
// Gathered keys live until the scan releases its state: a kept candidate
// outlives the pass that found it.
//
// The virtual CPU charges model KVell's scan, not the host's work here: per
// worker the descent and one step per key, then one step per candidate for
// the merge, all charged up front whatever the merge later pulls.
func (ss *scanState) gather(c env.Ctx, workers []*worker, start, end []byte, n int) (horizon []byte) {
	ss.ks, ss.vs, ss.runs = ss.ks[:0], ss.vs[:0], ss.runs[:0]
	for _, w := range workers {
		lo := len(ss.ks)
		c.CPU(costs.LockUncontended)
		w.idxMu.Lock(c)
		if n > 0 {
			ss.ks, ss.vs = w.idx.FirstN(start, n, ss.ks, ss.vs)
		} else {
			w.idx.Range(start, end, func(k []byte, v uint64) bool {
				ss.ks = append(ss.ks, k)
				ss.vs = append(ss.vs, v)
				return true
			})
		}
		for i, k := range ss.ks[lo:] {
			at := len(ss.kb)
			ss.kb = append(ss.kb, k...)
			ss.ks[lo+i] = ss.kb[at:len(ss.kb):len(ss.kb)]
		}
		w.idxMu.Unlock(c)
		hi := len(ss.ks)
		c.CPU(env.Time(w.idx.Depth())*costs.BTreeNode + env.Time(hi-lo)*costs.IterStep)
		if n > 0 && hi-lo == n && (horizon == nil || bytes.Compare(ss.ks[hi-1], horizon) < 0) {
			horizon = ss.ks[hi-1]
		}
		ss.runs = append(ss.runs, scanRun{w: w, next: lo, end: hi})
	}
	c.CPU(env.Time(len(ss.ks)) * costs.IterStep) // merge
	ss.heap = ss.heap[:0]
	for i, r := range ss.runs {
		if r.next < r.end {
			ss.heap = append(ss.heap, i)
		}
	}
	for i := len(ss.heap)/2 - 1; i >= 0; i-- {
		ss.down(i)
	}
	return horizon
}

// pop takes the smallest key the merge has not yet returned, or reports false
// once every run is exhausted. A key lives on exactly one worker, so no two
// runs ever tie.
func (ss *scanState) pop() (candidate, bool) {
	if len(ss.heap) == 0 {
		return candidate{}, false
	}
	r := &ss.runs[ss.heap[0]]
	cd := candidate{key: ss.ks[r.next], l: location(ss.vs[r.next]), w: r.w}
	r.next++
	if r.next == r.end {
		last := len(ss.heap) - 1
		ss.heap[0] = ss.heap[last]
		ss.heap = ss.heap[:last]
	}
	ss.down(0)
	return cd, true
}

// down restores the heap property below position i.
func (ss *scanState) down(i int) {
	h := ss.heap
	for {
		least := i
		for _, ch := range [2]int{2*i + 1, 2*i + 2} {
			if ch < len(h) && bytes.Compare(ss.ks[ss.runs[h[ch]].next], ss.ks[ss.runs[h[least]].next]) < 0 {
				least = ch
			}
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// fetch reads the values of ss.kept via location-direct worker requests,
// blocks until all arrive, and returns the items found, in key order, in
// dst's storage: read i copies its key and value into item slot i, reusing
// the slot's buffers, and every slot past len(dst) up to cap(dst) is reused
// too. A candidate whose item vanished between the index snapshot and the
// read is dropped. Under MVCC the candidates have been through latest and
// the reads unwrap envelopes (locReq.slot).
func (ss *scanState) fetch(c env.Ctx, dst []kv.Item) []kv.Item {
	n := len(ss.kept)
	if n == 0 {
		return dst[:0]
	}
	if cap(dst) < n {
		dst = append(dst[:cap(dst)], make([]kv.Item, n-cap(dst))...)
	}
	ss.items = dst[:n]
	ss.reads.Add(c, n)
	for len(ss.reqs) < n {
		ss.reqs = append(ss.reqs, &locReq{scan: ss})
	}
	for i, cd := range ss.kept {
		lr := ss.reqs[i]
		lr.key, lr.l, lr.idx, lr.hops = cd.key, cd.l, i, 0
		cd.w.enqueue(c, lr)
	}
	t0 := c.Now()
	ss.reads.Wait(c)
	// The scanning thread blocks here while workers serve the
	// location-direct reads (§5.5).
	trace.FromCtx(c).Add(trace.CompStall, t0, c.Now())
	items := ss.items
	ss.items = nil
	// Drop candidates whose item vanished between index snapshot and read,
	// swapping rather than overwriting so no two slots share buffers.
	found := 0
	for i := range items {
		if ss.reqs[i].found {
			items[found], items[i] = items[i], items[found]
			found++
		}
	}
	return items[:found]
}

// BulkLoad implements kv.Engine: it installs items directly into slabs and
// indexes, bypassing the timed request path (the unmeasured load phase), so
// it must run before Start or between Recover and Start: the page caches do
// not see what it writes. Keys must be unique and not already in the store.
// Items are placed in deterministically shuffled slot order — the paper
// loads KVell in random key order ("for fairness", §6.3.1) so that
// consecutive keys do not share disk pages, which would otherwise give
// unsorted storage an artificial scan-locality advantage.
//
// The shuffle and the order of the workerFor, Alloc, nextTS and idx.Put calls
// decide slot placement, slot timestamps and index shape; every golden
// digest pins them.
func (s *Store) BulkLoad(items []kv.Item) error {
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	r := rand.New(rand.NewSource(0x4B56656C6C)) // "KVell"
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	// A slab hands out consecutive slots, so its pages fill one after the
	// other: each slab (worker-major, then class) keeps the image of the one
	// slot-holding unit it is filling — a page, or the pages of one multi-page
	// slot — and writes it out when a slot lands elsewhere.
	type openPage struct {
		page int64  // first page of the image
		data []byte // nil until the slab's first slot
	}
	classes := len(slab.DefaultClasses)
	open := make([]openPage, len(s.workers)*classes)
	var envBuf []byte
	for _, oi := range order {
		it := items[oi]
		w := s.workerFor(it.Key)
		val := it.Value
		if s.cfg.MVCC {
			// Loaded items are committed versions at timestamp 1 (the oracle
			// floor is raised below so no later commit collides).
			e := mvcc.Envelope{Kind: mvcc.KindCommitPut, StartTS: 1, CommitTS: 1,
				PrevLoc: mvcc.NoLoc, Value: it.Value}
			envBuf = mvcc.AppendEncode(envBuf[:0], &e)
			val = envBuf
		}
		cls := slab.ClassFor(slab.DefaultClasses, len(it.Key), len(val))
		if cls < 0 {
			return fmt.Errorf("core: item with key %q too large for configured classes", it.Key)
		}
		sl := w.slabs[cls]
		slot, reused := sl.Alloc()
		ts := w.nextTS()
		page := sl.SlotPage(slot)
		op := &open[w.id*classes+cls]
		if op.data == nil || page != op.page {
			st := w.dev.Store()
			if op.data == nil {
				op.data = make([]byte, sl.PagesPerSlot()*device.PageSize)
			} else if err := st.WritePages(op.page, op.data); err != nil {
				return err
			}
			// Only the first append to a page may start from zeros: any other
			// slot has neighbours the store already holds (an earlier load's
			// tail page, the page around a reused slot) or is a tombstone that
			// may head a free-list chain.
			if !reused && sl.AppendPageFresh(slot) {
				clear(op.data)
			} else if err := st.ReadPages(page, op.data); err != nil {
				return err
			}
			op.page = page
		}
		slotBuf := sl.SlotBytes(op.data, slot)
		if reused {
			recoverChain(sl, slotBuf)
		}
		if err := sl.EncodeItem(slotBuf, ts, it.Key, val); err != nil {
			return err
		}
		w.idx.Put(it.Key, uint64(loc(cls, slot)))
	}
	if s.oracle != nil {
		s.oracle.Observe(1)
	}
	for i := range open {
		if op := &open[i]; op.data != nil {
			if err := s.workers[i/classes].dev.Store().WritePages(op.page, op.data); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stats is an aggregate snapshot across shards and their threads.
type Stats struct {
	Items        int64
	IndexBytes   int64
	CacheHits    int64
	CacheMisses  int64
	Syscalls     int64
	IOsSubmitted int64
	Requests     int64
	FreeReused   int64

	// Write-absorption counters (zero when the front end is disabled).
	Absorbed      int64 // requests merged into an already-buffered key
	AbsorbFlushes int64 // group commits
	AbsorbWrites  int64 // surviving writes issued by group commits

	// Hot-key cache counters (zero when tiering is disabled).
	HotHits       int64 // reads served from the hot tier
	HotMisses     int64 // hot-tier probes that fell through to the engine
	HotPromotions int64 // records promoted into the hot tier
	HotDemotions  int64 // records demoted to make room

	// MVCCKeys is the number of keys in the uncheckpointed multi-version
	// window (pending intent or >1 retained version); zero when MVCC is off.
	MVCCKeys int64
}

// Stats returns aggregate statistics.
func (s *Store) Stats() Stats {
	var st Stats
	for _, w := range s.workers {
		st.Items += int64(w.idx.Len())
		st.IndexBytes += w.idx.MemBytes()
		st.CacheHits += w.cache.Hits()
		st.CacheMisses += w.cache.Misses()
		for _, eng := range w.threads {
			st.Syscalls += eng.Syscalls
			st.IOsSubmitted += eng.Submitted
		}
		st.Requests += w.reqs
		if w.ab != nil {
			st.Absorbed += w.ab.absorbed
			st.AbsorbFlushes += w.ab.flushes
			st.AbsorbWrites += w.ab.groupedW
		}
		if w.mv != nil {
			st.MVCCKeys += int64(w.mv.Len())
		}
		if w.hot != nil {
			st.HotHits += w.hot.Hits()
			st.HotMisses += w.hot.Misses()
			st.HotPromotions += w.hot.Promotions()
			st.HotDemotions += w.hot.Demotions()
		}
		for _, sl := range w.slabs {
			st.FreeReused += sl.Free.Reused()
		}
	}
	return st
}
