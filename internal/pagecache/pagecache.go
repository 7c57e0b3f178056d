// Package pagecache implements KVell's internal page cache (§5.3): a
// per-worker LRU cache of 4KB disk pages, indexed by a B-tree. The paper
// first used a hash table as the index and observed up to 100ms tail
// latencies when the table grew; the hash variant is kept here as an
// ablation (IndexHash) and reports growth events so the engine can charge
// the corresponding CPU spike.
//
// KVell's cache never buffers dirty data — updates are flushed to disk
// immediately — so entries carry no dirty bit.
//
// Internally the cache is allocation-free in steady state: pages live in a
// reusable frame arena, the LRU list is intrusive (int32 prev/next indices
// embedded in frames), and page lookup goes through an open-addressing hash
// table with linear probing and backward-shift deletion. Hits, evictions and
// re-inserts recycle frames instead of allocating. (The simulated index
// *cost* charged to the engine is modeled separately: a real B-tree over
// page numbers for IndexBTree so LookupCost tracks its depth, or a constant
// probe cost plus growth spikes for IndexHash.)
package pagecache

import (
	"encoding/binary"

	"kvell/internal/btree"
	"kvell/internal/costs"
	"kvell/internal/device"
	"kvell/internal/env"
)

// IndexKind selects the cache-index data structure.
type IndexKind uint8

// Index kinds.
const (
	IndexBTree IndexKind = iota // production choice (predictable latency)
	IndexHash                   // ablation: fast average, 100ms growth spikes
)

// frame is one cached page. Frames are arena-allocated and recycled through
// a free list; the LRU list is threaded through prev/next frame indices so
// promotion and eviction never touch the allocator.
type frame struct {
	page       int64
	data       []byte
	prev, next int32 // LRU list indices; -1 = none; head = MRU
	pinned     bool
}

const nilIdx = int32(-1)

// Cache is a fixed-capacity LRU page cache. Not safe for concurrent use
// (KVell shards one per worker).
type Cache struct {
	capacity int
	kind     IndexKind

	tree *btree.Tree
	// hashGrowAt is the size at which the next simulated hash growth
	// happens (power-of-two doubling, like uthash).
	hashGrowAt int

	frames []frame
	free   []int32 // recycled frame indices
	head   int32
	tail   int32
	size   int

	// Open-addressing page->frame table (linear probing, backward-shift
	// delete). slots holds frame indices, -1 = empty.
	slots []int32

	hits, misses int64
	// GrewHash is set (and must be cleared by the caller) when the last
	// Insert triggered a simulated hash-table growth.
	GrewHash bool
}

// New returns a cache holding up to capacity pages with the given index.
func New(capacity int, kind IndexKind) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache{
		capacity:   capacity,
		kind:       kind,
		frames:     make([]frame, 0, capacity),
		free:       make([]int32, 0, capacity),
		head:       nilIdx,
		tail:       nilIdx,
		hashGrowAt: 1024,
	}
	// Size the probe table for the full cache at <50% load so steady state
	// never rehashes.
	n := 16
	for n < 2*capacity {
		n *= 2
	}
	c.slots = newSlots(n)
	if kind == IndexBTree {
		c.tree = btree.New()
	}
	return c
}

func newSlots(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = nilIdx
	}
	return s
}

// hashPage mixes the page number (Fibonacci hashing + xor-fold) so that
// sequential page numbers spread across the table.
func hashPage(page int64) uint64 {
	h := uint64(page) * 0x9E3779B97F4A7C15
	return h ^ (h >> 29)
}

// lookup returns the frame index for page, or -1.
func (c *Cache) lookup(page int64) int32 {
	slots, frames := c.slots, c.frames
	mask := uint64(len(slots) - 1)
	for i := hashPage(page) & mask; ; i = (i + 1) & mask {
		fi := slots[i]
		if fi == nilIdx {
			return nilIdx
		}
		if frames[fi].page == page {
			return fi
		}
	}
}

// tableInsert adds fi under its page, growing the table if the load factor
// would pass 3/4 (only possible when pinned pages hold the cache above
// capacity).
func (c *Cache) tableInsert(fi int32) {
	if 4*(c.size+1) > 3*len(c.slots) {
		old := c.slots
		c.slots = newSlots(2 * len(old))
		for _, ofi := range old {
			if ofi != nilIdx {
				c.tableInsertNoGrow(ofi)
			}
		}
	}
	c.tableInsertNoGrow(fi)
}

func (c *Cache) tableInsertNoGrow(fi int32) {
	mask := uint64(len(c.slots) - 1)
	i := hashPage(c.frames[fi].page) & mask
	for c.slots[i] != nilIdx {
		i = (i + 1) & mask
	}
	c.slots[i] = fi
}

// tableRemove deletes page's slot using backward-shift deletion, keeping
// probe chains contiguous without tombstones.
func (c *Cache) tableRemove(page int64) {
	mask := uint64(len(c.slots) - 1)
	i := hashPage(page) & mask
	for {
		fi := c.slots[i]
		if fi == nilIdx {
			return
		}
		if c.frames[fi].page == page {
			break
		}
		i = (i + 1) & mask
	}
	j := i
	for {
		c.slots[i] = nilIdx
		for {
			j = (j + 1) & mask
			fi := c.slots[j]
			if fi == nilIdx {
				return
			}
			k := hashPage(c.frames[fi].page) & mask
			// The entry at j can backfill slot i iff its home slot k is
			// cyclically outside (i, j] — i.e. its probe path crosses i.
			if (i < j && (k <= i || k > j)) || (i > j && k <= i && k > j) {
				c.slots[i] = fi
				i = j
				break
			}
		}
	}
}

// Capacity returns the page capacity.
func (c *Cache) Capacity() int { return c.capacity }

// Len returns the number of cached pages.
func (c *Cache) Len() int { return c.size }

// Hits and Misses return cumulative lookup counters.
func (c *Cache) Hits() int64   { return c.hits }
func (c *Cache) Misses() int64 { return c.misses }

// LookupCost returns the CPU cost of one index lookup, for the engine to
// charge: B-tree descent depth × per-node cost, or one hash probe.
func (c *Cache) LookupCost() env.Time {
	if c.kind == IndexBTree {
		return env.Time(c.tree.Depth()) * costs.BTreeNode
	}
	return costs.HashLookup
}

// InsertCost returns the CPU cost of the last Insert, including a hash
// growth spike if one occurred (the caller should add it after Insert).
func (c *Cache) InsertCost() env.Time {
	cost := c.LookupCost()
	if c.GrewHash {
		cost += costs.HashGrow
		c.GrewHash = false
	}
	return cost
}

// unlink removes frame fi from the LRU list.
func (c *Cache) unlink(fi int32) {
	f := &c.frames[fi]
	if f.prev != nilIdx {
		c.frames[f.prev].next = f.next
	} else {
		c.head = f.next
	}
	if f.next != nilIdx {
		c.frames[f.next].prev = f.prev
	} else {
		c.tail = f.prev
	}
}

// pushFront makes frame fi the MRU.
func (c *Cache) pushFront(fi int32) {
	f := &c.frames[fi]
	f.prev = nilIdx
	f.next = c.head
	if c.head != nilIdx {
		c.frames[c.head].prev = fi
	}
	c.head = fi
	if c.tail == nilIdx {
		c.tail = fi
	}
}

func (c *Cache) touch(fi int32) {
	if c.head == fi {
		return
	}
	// fi is not the head, so it has a predecessor and the list is non-empty;
	// the branches unlink+pushFront would re-check are resolved statically.
	frames := c.frames
	f := &frames[fi]
	frames[f.prev].next = f.next
	if f.next != nilIdx {
		frames[f.next].prev = f.prev
	} else {
		c.tail = f.prev
	}
	f.prev = nilIdx
	f.next = c.head
	frames[c.head].prev = fi
	c.head = fi
}

// Get returns the cached page data (nil on miss) and promotes it to MRU.
// The returned slice is the data last inserted or set for page, not a copy:
// it may be a device's read-only page image (device.Disk.Image), so the
// engine writes it only where it knows it put a buffer of its own there.
func (c *Cache) Get(page int64) []byte {
	fi := c.lookup(page)
	if fi == nilIdx {
		c.misses++
		return nil
	}
	c.hits++
	c.touch(fi)
	return c.frames[fi].data
}

// Each calls fn on every cached page, most recently used first, until fn
// returns false. It neither promotes pages nor counts lookups.
func (c *Cache) Each(fn func(page int64, data []byte) bool) {
	for fi := c.head; fi != nilIdx; fi = c.frames[fi].next {
		if !fn(c.frames[fi].page, c.frames[fi].data) {
			return
		}
	}
}

// Peek returns the cached page data (nil on miss) without promoting it or
// counting a lookup.
func (c *Cache) Peek(page int64) []byte {
	if fi := c.lookup(page); fi != nilIdx {
		return c.frames[fi].data
	}
	return nil
}

// Replace sets data as page's data if page is cached with old, without
// promoting it: how the engine swaps a device's page image for a private
// copy and back.
func (c *Cache) Replace(page int64, old, data []byte) {
	if fi := c.lookup(page); fi != nilIdx && &c.frames[fi].data[0] == &old[0] {
		c.frames[fi].data = data
	}
}

// Contains reports whether page is cached without promoting it.
func (c *Cache) Contains(page int64) bool {
	return c.lookup(page) != nilIdx
}

// Insert adds page with data (which the cache takes ownership of),
// evicting the LRU page if at capacity. It returns the evicted page number
// (or -1). Inserting an already-present page replaces its data.
func (c *Cache) Insert(page int64, data []byte) (evicted int64) {
	evicted, _ = c.InsertTake(page, data)
	return evicted
}

// InsertTake is Insert, but also hands back the evicted page's data (nil if
// nothing was evicted). The cache no longer references it, so the caller may
// recycle it if it is a buffer of the caller's own, not a device's shared
// page image — but only after any disk writes that reference it have been
// submitted.
func (c *Cache) InsertTake(page int64, data []byte) (evicted int64, evictedData []byte) {
	evicted = -1
	if fi := c.lookup(page); fi != nilIdx {
		c.frames[fi].data = data
		c.touch(fi)
		return evicted, nil
	}
	if c.size >= c.capacity {
		// Evict from the tail, skipping pinned entries.
		v := c.tail
		for v != nilIdx && c.frames[v].pinned {
			v = c.frames[v].prev
		}
		if v != nilIdx {
			evicted = c.frames[v].page
			evictedData = c.frames[v].data
			c.removeFrame(v)
		}
	}
	var fi int32
	if n := len(c.free); n > 0 {
		fi = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		c.frames = append(c.frames, frame{})
		fi = int32(len(c.frames) - 1)
	}
	f := &c.frames[fi]
	f.page = page
	f.data = data
	f.pinned = false
	c.tableInsert(fi)
	c.size++
	c.pushFront(fi)
	c.indexInsert(page)
	return evicted, evictedData
}

// indexInsert maintains the simulated index cost model (real B-tree, or
// hash growth accounting).
func (c *Cache) indexInsert(page int64) {
	switch c.kind {
	case IndexBTree:
		var k [8]byte
		binary.BigEndian.PutUint64(k[:], uint64(page))
		c.tree.Put(k[:], uint64(page))
	case IndexHash:
		if c.size >= c.hashGrowAt {
			c.hashGrowAt *= 2
			c.GrewHash = true
		}
	}
}

// removeFrame unlinks fi from the LRU and both indexes and recycles it.
func (c *Cache) removeFrame(fi int32) {
	f := &c.frames[fi]
	c.unlink(fi)
	c.tableRemove(f.page)
	if c.kind == IndexBTree {
		var k [8]byte
		binary.BigEndian.PutUint64(k[:], uint64(f.page))
		c.tree.Delete(k[:])
	}
	f.data = nil
	c.size--
	c.free = append(c.free, fi)
}

// Remove drops page from the cache if present.
func (c *Cache) Remove(page int64) {
	if fi := c.lookup(page); fi != nilIdx {
		c.removeFrame(fi)
	}
}

// Pin marks page non-evictable (KVell pins the append-tail page of each
// slab so fresh appends need no read-modify-write).
func (c *Cache) Pin(page int64) {
	if fi := c.lookup(page); fi != nilIdx {
		c.frames[fi].pinned = true
	}
}

// Unpin clears the pin.
func (c *Cache) Unpin(page int64) {
	if fi := c.lookup(page); fi != nilIdx {
		c.frames[fi].pinned = false
	}
}

// PageBuf allocates a page-sized buffer (helper for cache fills).
func PageBuf() []byte { return make([]byte, device.PageSize) }
