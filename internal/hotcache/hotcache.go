// Package hotcache implements a deterministic per-worker hot-key record
// cache for tiered KVell: a small, fixed arena of whole records pinned in
// memory above the engine, so the hot head of a skewed workload is served
// without touching the index, the page cache or the (slow) cold device.
//
// The design follows hot-ring-style caches: an open-addressing hash index
// over a fixed slot arena, with the resident set ordered by an intrusive
// ring that frequency-transposition keeps roughly sorted — each hit moves an
// entry at most one position toward the hot end, so ordering is O(1) per
// access and a pure function of the access sequence. Admission is gated by a
// ghost table of seeded, virtual-time-decayed access counters: a record is
// promoted only after it has been seen PromoteAfter times within the recent
// decay horizon, which keeps one-hit wonders from cycling the arena.
// Eviction takes the cold end of the ring (demotion), seeding the victim's
// decayed count back into the ghost table so a still-warm record re-promotes
// quickly after a hot-set shift.
//
// Everything is deterministic by construction: no wall clock (decay runs on
// the caller-supplied virtual time), no map iteration (all state lives in
// fixed slices), no math/rand (the "seeded" counters mix a seed into the
// ghost hash, so two workers with different seeds alias differently but each
// is a pure function of its inputs). The hit path performs zero heap
// allocations: values are copied into caller-owned scratch via the same
// vdst contract the engine's slot decoder uses.
package hotcache

import (
	"bytes"

	"kvell/internal/env"
	"kvell/internal/kv"
)

// Config sizes and tunes a cache.
type Config struct {
	// CapBytes is the arena capacity in bytes; the slot count is
	// CapBytes/SlotBytes (minimum 1).
	CapBytes int64
	// SlotBytes is the fixed per-record slot size; a record whose
	// key+value exceed it is never cached.
	SlotBytes int
	// HalfLife is the virtual-time decay half-life of access counters:
	// every HalfLife without an access halves a counter. <= 0 disables
	// decay.
	HalfLife env.Time
	// PromoteAfter is the decayed ghost-count threshold at which a record
	// is admitted on its next cold read (minimum 1).
	PromoteAfter uint32
	// Seed perturbs the ghost-table hash so distinct workers (or runs)
	// alias ghost counters differently while staying deterministic.
	Seed int64
}

const (
	nilIdx = int32(-1)
	// maxCount caps frequency counters so decay arithmetic cannot overflow.
	maxCount = uint32(1) << 30
)

// entry is one resident record. prev/next thread the frequency ring
// (head = hottest); the record bytes live in the arena at the entry's index.
type entry struct {
	hash    uint64
	klen    uint16
	vlen    uint16
	count   uint32   // decayed access count
	touched env.Time // virtual time of the last decay step
	prev    int32
	next    int32
}

// Cache is a fixed-capacity hot-key record cache. Not safe for concurrent
// use (KVell shards one per worker).
type Cache struct {
	cfg       Config
	slotBytes int
	half      env.Time
	seedMix   uint64

	arena   []byte
	entries []entry
	free    []int32
	head    int32 // hottest
	tail    int32 // coldest (eviction victim)
	size    int

	// Open-addressing hash -> entry index (linear probing, backward-shift
	// deletion, same discipline as the page cache's frame table).
	table []int32

	// Ghost admission table: fixed, seed-hashed, decayed access counters
	// for non-resident keys. Colliding keys share a counter — a
	// deterministic admission heuristic, not a correctness structure.
	ghostCnt   []uint32
	ghostTouch []env.Time
	// Write clock: every Update and Invalidate ticks clock and stamps the
	// key's ghost slot with it, resident or not, so a cold read can tell
	// whether its key was written while it was in flight (WrittenSince).
	clock      uint64
	ghostWrite []uint64

	hits, misses, promotions, demotions, invalidations int64
}

// New builds a cache for cfg.
func New(cfg Config) *Cache {
	if cfg.SlotBytes < 64 {
		cfg.SlotBytes = 64
	}
	if cfg.PromoteAfter < 1 {
		cfg.PromoteAfter = 1
	}
	slots := int(cfg.CapBytes / int64(cfg.SlotBytes))
	if slots < 1 {
		slots = 1
	}
	h := &Cache{
		cfg:       cfg,
		slotBytes: cfg.SlotBytes,
		half:      cfg.HalfLife,
		seedMix:   splitmix64(uint64(cfg.Seed)) | 1,
		arena:     make([]byte, slots*cfg.SlotBytes),
		entries:   make([]entry, slots),
		free:      make([]int32, 0, slots),
		head:      nilIdx,
		tail:      nilIdx,
	}
	for i := slots - 1; i >= 0; i-- {
		h.free = append(h.free, int32(i))
	}
	// Probe table at <= 50% load so chains stay short; never grows.
	n := 16
	for n < 2*slots {
		n *= 2
	}
	h.table = make([]int32, n)
	for i := range h.table {
		h.table[i] = nilIdx
	}
	// Ghost table: a few counters per resident slot, bounded.
	g := 64
	for g < 4*slots && g < 1<<16 {
		g *= 2
	}
	h.ghostCnt = make([]uint32, g)
	h.ghostTouch = make([]env.Time, g)
	h.ghostWrite = make([]uint64, g)
	return h
}

// splitmix64 is the standard splitmix64 finalizer (public-domain constants).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Slots returns the arena capacity in records.
func (h *Cache) Slots() int { return len(h.entries) }

// Len returns the number of resident records.
func (h *Cache) Len() int { return h.size }

// Cumulative counters.
func (h *Cache) Hits() int64          { return h.hits }
func (h *Cache) Misses() int64        { return h.misses }
func (h *Cache) Promotions() int64    { return h.promotions }
func (h *Cache) Demotions() int64     { return h.demotions }
func (h *Cache) Invalidations() int64 { return h.invalidations }

func (h *Cache) keyOf(ei int32) []byte {
	base := int(ei) * h.slotBytes
	return h.arena[base : base+int(h.entries[ei].klen)]
}

func (h *Cache) valOf(ei int32) []byte {
	base := int(ei)*h.slotBytes + int(h.entries[ei].klen)
	return h.arena[base : base+int(h.entries[ei].vlen)]
}

// decay applies the lazy half-life decay to e's counter at virtual time now,
// advancing touched by whole half-lives so the fractional remainder carries.
func (h *Cache) decay(e *entry, now env.Time) {
	if h.half <= 0 || now <= e.touched {
		return
	}
	n := (now - e.touched) / h.half
	if n <= 0 {
		return
	}
	e.touched += n * h.half
	if n >= 32 {
		e.count = 0
		return
	}
	e.count >>= uint(n)
}

// lookup returns the entry index holding key (hash pre-computed), or -1.
func (h *Cache) lookup(hv uint64, key []byte) int32 {
	mask := uint64(len(h.table) - 1)
	for i := mix(hv) & mask; ; i = (i + 1) & mask {
		ei := h.table[i]
		if ei == nilIdx {
			return nilIdx
		}
		if h.entries[ei].hash == hv && bytes.Equal(h.keyOf(ei), key) {
			return ei
		}
	}
}

// mix spreads a (already hashed) 64-bit word for table indexing.
func mix(h uint64) uint64 {
	h *= 0x9E3779B97F4A7C15
	return h ^ (h >> 29)
}

func (h *Cache) tableInsert(ei int32) {
	mask := uint64(len(h.table) - 1)
	i := mix(h.entries[ei].hash) & mask
	for h.table[i] != nilIdx {
		i = (i + 1) & mask
	}
	h.table[i] = ei
}

// tableRemove deletes ei's slot with backward-shift deletion (no
// tombstones; same cyclic home-slot argument as the page cache).
func (h *Cache) tableRemove(ei int32) {
	mask := uint64(len(h.table) - 1)
	i := mix(h.entries[ei].hash) & mask
	for h.table[i] != ei {
		i = (i + 1) & mask
	}
	j := i
	for {
		h.table[i] = nilIdx
		for {
			j = (j + 1) & mask
			fi := h.table[j]
			if fi == nilIdx {
				return
			}
			k := mix(h.entries[fi].hash) & mask
			// fi can backfill slot i iff its home slot k is cyclically
			// outside (i, j] — i.e. its probe path crosses i.
			if (i < j && (k <= i || k > j)) || (i > j && k <= i && k > j) {
				h.table[i] = fi
				i = j
				break
			}
		}
	}
}

// unlink removes ei from the frequency ring.
func (h *Cache) unlink(ei int32) {
	e := &h.entries[ei]
	if e.prev != nilIdx {
		h.entries[e.prev].next = e.next
	} else {
		h.head = e.next
	}
	if e.next != nilIdx {
		h.entries[e.next].prev = e.prev
	} else {
		h.tail = e.prev
	}
}

// pushFront links ei at the hot end.
func (h *Cache) pushFront(ei int32) {
	e := &h.entries[ei]
	e.prev = nilIdx
	e.next = h.head
	if h.head != nilIdx {
		h.entries[h.head].prev = ei
	}
	h.head = ei
	if h.tail == nilIdx {
		h.tail = ei
	}
}

// transpose moves ei one position toward the hot end when its decayed count
// has overtaken its predecessor's — the O(1) frequency-ordering step.
func (h *Cache) transpose(ei int32, now env.Time) {
	e := &h.entries[ei]
	p := e.prev
	if p == nilIdx {
		return
	}
	pe := &h.entries[p]
	h.decay(pe, now)
	if e.count <= pe.count {
		return
	}
	// Swap ei with its predecessor p in the ring.
	pp := pe.prev
	nn := e.next
	if pp != nilIdx {
		h.entries[pp].next = ei
	} else {
		h.head = ei
	}
	e.prev = pp
	e.next = p
	pe.prev = ei
	pe.next = nn
	if nn != nilIdx {
		h.entries[nn].prev = p
	} else {
		h.tail = p
	}
}

// ghostIdx maps a key hash to its (seed-mixed) ghost counter.
func (h *Cache) ghostIdx(hv uint64) int {
	return int(mix(hv^h.seedMix) & uint64(len(h.ghostCnt)-1))
}

// ghostBump decays and increments a key's ghost counter, returning the new
// value.
func (h *Cache) ghostBump(hv uint64, now env.Time, add uint32) uint32 {
	gi := h.ghostIdx(hv)
	if h.half > 0 && now > h.ghostTouch[gi] {
		n := (now - h.ghostTouch[gi]) / h.half
		if n > 0 {
			h.ghostTouch[gi] += n * h.half
			if n >= 32 {
				h.ghostCnt[gi] = 0
			} else {
				h.ghostCnt[gi] >>= uint(n)
			}
		}
	}
	c := h.ghostCnt[gi] + add
	if c > maxCount {
		c = maxCount
	}
	h.ghostCnt[gi] = c
	return c
}

// Get returns key's cached value, copied into vdst's storage when it is
// large enough (the engine's zero-alloc scratch contract: the returned slice
// aliases *vdst, or a fresh buffer installed into *vdst). A miss bumps the
// key's ghost counter so repeated cold reads cross the admission threshold.
func (h *Cache) Get(key []byte, now env.Time, vdst *[]byte) ([]byte, bool) {
	hv := kv.Hash64(key)
	ei := h.lookup(hv, key)
	if ei == nilIdx {
		h.misses++
		h.ghostBump(hv, now, 1)
		return nil, false
	}
	h.hits++
	e := &h.entries[ei]
	h.decay(e, now)
	if e.count < maxCount {
		e.count++
	}
	h.transpose(ei, now)
	return kv.CopyValue(h.valOf(ei), vdst), true
}

// Clock returns the write clock: the number of Updates and Invalidates so
// far. A cold read takes it when it starts, for WrittenSince.
func (h *Cache) Clock() uint64 { return h.clock }

// WrittenSince reports whether key may have been written (Update or
// Invalidate) after the write clock read t. A value read from the store
// before such a write may predate it and must not be admitted. Keys that
// share a ghost slot share its stamp, so a collision only costs a
// promotion, never admits a stale value.
func (h *Cache) WrittenSince(key []byte, t uint64) bool {
	return h.ghostWrite[h.ghostIdx(kv.Hash64(key))] > t
}

// stamp ticks the write clock for the key hashed to hv.
func (h *Cache) stamp(hv uint64) {
	h.clock++
	h.ghostWrite[h.ghostIdx(hv)] = h.clock
}

// Contains reports residency without touching counters or ordering.
func (h *Cache) Contains(key []byte) bool {
	return h.lookup(kv.Hash64(key), key) != nilIdx
}

// Admit offers a cold-read (key, value) for promotion. It inserts the record
// only when the key's decayed ghost count has reached PromoteAfter and the
// record fits a slot; a full arena demotes the coldest resident first.
// Reports (promoted, demoted).
func (h *Cache) Admit(key, value []byte, now env.Time) (promoted, demoted bool) {
	if len(key)+len(value) > h.slotBytes {
		return false, false
	}
	hv := kv.Hash64(key)
	if ei := h.lookup(hv, key); ei != nilIdx {
		// Already resident (e.g. admitted by a racing cold read that
		// completed first); refresh the value in place.
		h.store(ei, key, value, now)
		return false, false
	}
	gi := h.ghostIdx(hv)
	if h.ghostBump(hv, now, 0) < h.cfg.PromoteAfter {
		return false, false
	}
	var ei int32
	if n := len(h.free); n > 0 {
		ei = h.free[n-1]
		h.free = h.free[:n-1]
	} else {
		demoted = h.evictTail(now)
		n := len(h.free)
		ei = h.free[n-1]
		h.free = h.free[:n-1]
	}
	e := &h.entries[ei]
	e.hash = hv
	e.count = h.cfg.PromoteAfter // carry the admission evidence
	e.touched = now
	h.copyRecord(ei, key, value)
	h.tableInsert(ei)
	h.pushFront(ei)
	h.size++
	h.promotions++
	// Demand fresh evidence for the next promotion through this counter.
	h.ghostCnt[gi] = 0
	return true, demoted
}

// evictTail demotes the coldest resident, seeding its decayed count back
// into the ghost table so a still-warm record re-promotes quickly.
func (h *Cache) evictTail(now env.Time) bool {
	v := h.tail
	if v == nilIdx {
		return false
	}
	e := &h.entries[v]
	h.decay(e, now)
	gi := h.ghostIdx(e.hash)
	if e.count > h.ghostCnt[gi] {
		h.ghostCnt[gi] = e.count
		h.ghostTouch[gi] = e.touched
	}
	h.removeEntry(v)
	h.demotions++
	return true
}

func (h *Cache) copyRecord(ei int32, key, value []byte) {
	e := &h.entries[ei]
	e.klen = uint16(len(key))
	e.vlen = uint16(len(value))
	base := int(ei) * h.slotBytes
	copy(h.arena[base:], key)
	copy(h.arena[base+len(key):], value)
}

// store overwrites a resident entry's value (write-through), bumping its
// frequency like an access.
func (h *Cache) store(ei int32, key, value []byte, now env.Time) {
	e := &h.entries[ei]
	h.decay(e, now)
	if e.count < maxCount {
		e.count++
	}
	h.copyRecord(ei, key, value)
	h.transpose(ei, now)
}

// Update write-throughs a new value for key if it is resident, so cached
// reads can never disagree with the store. A value that no longer fits the
// slot evicts the entry instead (counted as an invalidation). Non-resident
// keys are not cached — writes never admit, only reads do — but either way
// the write is stamped (WrittenSince). Reports whether the key was
// resident.
func (h *Cache) Update(key, value []byte, now env.Time) bool {
	hv := kv.Hash64(key)
	h.stamp(hv)
	ei := h.lookup(hv, key)
	if ei == nilIdx {
		return false
	}
	if len(key)+len(value) > h.slotBytes {
		h.removeEntry(ei)
		h.invalidations++
		return true
	}
	h.store(ei, key, value, now)
	return true
}

// Invalidate drops key from the cache (deletes must never leave a readable
// ghost value) and stamps the write (WrittenSince). Reports whether the key
// was resident.
func (h *Cache) Invalidate(key []byte) bool {
	hv := kv.Hash64(key)
	h.stamp(hv)
	ei := h.lookup(hv, key)
	if ei == nilIdx {
		return false
	}
	h.removeEntry(ei)
	h.invalidations++
	return true
}

// removeEntry unlinks ei from ring and table and recycles its slot.
func (h *Cache) removeEntry(ei int32) {
	h.unlink(ei)
	h.tableRemove(ei)
	h.entries[ei] = entry{}
	h.size--
	h.free = append(h.free, ei)
}
