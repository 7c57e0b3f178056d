// Package core implements KVell (§4-5 of the paper): a shared-nothing
// persistent key-value store for fast NVMe SSDs. Each worker thread owns a
// partition of the key space with its own in-memory B-tree index, page
// cache, free lists and slab files, performs batched asynchronous I/O to a
// single disk, and acknowledges updates only once they are durable at their
// final location — there is no commit log, no on-disk sort order and no
// background maintenance.
package core

import (
	"fmt"

	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/pagecache"
	"kvell/internal/slab"
)

// freelistHeads is N, the per-slab bound on in-memory free-list heads
// (§5.3; paper: 64).
const freelistHeads = 64

// tieredSlotBytes is the hot tier's arena slot size: records whose
// key+value exceed it are never cached.
const tieredSlotBytes = 1024

// Config describes a KVell store.
type Config struct {
	// Workers is the number of worker threads. Each owns a shared-nothing
	// shard of the key space, and requests are routed to shards by key hash
	// (§4.1).
	Workers int
	// Disks are the block devices. Each worker stores its slabs on exactly
	// one disk (workers round-robin over disks), bounding each disk's
	// queue to BatchSize × workers-per-disk requests (§4.3).
	Disks []device.Disk
	// PageCachePages is the total capacity of the internal page caches,
	// split evenly among shards (§5.3).
	PageCachePages int
	// BatchSize is the maximum I/O batch per io_submit (§5.4; paper: 64).
	// Background work keeps to it too: a GC pass frees at most BatchSize
	// slots and resumes once their tombstones are durable.
	BatchSize int
	// CacheIndex selects the page-cache index structure (B-tree in
	// production; the hash variant reproduces the paper's tail-latency
	// anecdote as an ablation).
	CacheIndex pagecache.IndexKind
	// WorkerRegionPages is the disk space reserved per worker (per-class
	// sub-regions are carved from it deterministically, which is what
	// makes manifest-free recovery possible).
	WorkerRegionPages int64

	// WithCommitLog enables the ablation variant that measures what §4.4
	// avoids: every page write of a shard — items, tombstones, MVCC
	// intents and flips — is also appended to the shard's sequential log
	// region, and completes only once both copies are durable (logDisk).
	WithCommitLog bool

	// NoInPlaceUpdates enables the §5.6 variant for drives that cannot
	// write 4KB pages atomically across power failures: updates never
	// modify a live page in place — the new value goes to a fresh slot
	// and the old slot is tombstoned only after the write is durable.
	NoInPlaceUpdates bool

	// SharedEverything is the §4.1 counter-design ablation: all worker
	// threads run on one shard — one index, one full-size page cache and
	// one set of slabs behind a global lock (the "conventional KV design"
	// the paper contrasts with). Simulation-only.
	SharedEverything bool

	// AbsorbInterval, when > 0, enables the write-absorption front end:
	// each worker buffers updates and deletes, merging same-key writes so
	// only the last version reaches its slab, and group-commits the buffer
	// once per interval (plus immediately whenever its device goes idle,
	// so an uncontended write pays no extra latency). All requests a key
	// absorbed are acknowledged together when the surviving write is
	// durable. The interval adapts to device queue depth within a factor of
	// four either side of AbsorbInterval, its starting point (absorbTick).
	// The buffer is per-shard state, so under SharedEverything the one
	// shard's threads share one buffer.
	AbsorbInterval env.Time
	// AbsorbMaxHeld bounds buffered (un-acked) requests per worker; the
	// buffer is force-flushed at the bound (default 4×BatchSize).
	AbsorbMaxHeld int

	// TieredHotBytes, when > 0, enables the hot/cold tiering front end:
	// each worker keeps a hot-key record cache (internal/hotcache) of its
	// share of this many bytes above the page cache. Reads probe the cache
	// after the absorb buffer and before the index; cold reads that repeat
	// within the decay horizon are promoted; every write is written through
	// or invalidated, so the cache never serves a value the store would not.
	// The cache is a pure read accelerator — the disk stays authoritative,
	// which is what keeps crash recovery unchanged. Under MVCC a key in the
	// version table is never in the cache: a prewrite drops the key's
	// record, and reads admit only keys with no table entry.
	TieredHotBytes int64
	// TieredPromoteAfter is the decayed access count a cold key must reach
	// before a read promotes it (default 2; 1 promotes on first touch).
	TieredPromoteAfter int
	// TieredSeed seeds the cache's ghost-table hash mix (per-worker salted).
	TieredSeed int64

	// MVCC enables the versioned record format and the transaction
	// operations (OpTxn*): every slot value is wrapped in an mvcc.Envelope,
	// transactional writes never overwrite a committed version in place (a
	// prewrite takes a new slot chained to its predecessor; commit flips the
	// intent's kind byte), and each worker keeps an in-memory version/lock
	// table for its multi-version keys. Plain OpUpdate/OpDelete remain
	// available as non-transactional autocommits: on a single-version key
	// (no table entry) they deliberately take the ordinary path, in-place
	// overwrite included, because no snapshot can name the old version
	// through a retained chain; on a multi-version key they chain a new
	// slot. Snapshot guarantees therefore cover keys written through the
	// transaction operations. Single-version reads stay on the
	// zero-allocation path (the table probe misses and the read proceeds
	// exactly as before, plus the envelope header strip). Every other
	// option composes: write absorption (absorbed plain writes are wrapped
	// when the group commit flushes them; transaction operations bypass the
	// buffer), tiering (see TieredHotBytes), SharedEverything (the version
	// table is per-shard state) and WithCommitLog (intent and flip writes
	// are logged like any other page write).
	MVCC bool
}

// DefaultConfig returns the paper's configuration over the given disks.
func DefaultConfig(disks ...device.Disk) Config {
	return Config{
		Workers:           4,
		Disks:             disks,
		PageCachePages:    8192,
		BatchSize:         64,
		CacheIndex:        pagecache.IndexBTree,
		WorkerRegionPages: 1 << 24, // 64GB of page numbers per worker
	}
}

func (c *Config) validate() error {
	if len(c.Disks) == 0 {
		return fmt.Errorf("core: no disks configured")
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.BatchSize < 1 {
		c.BatchSize = 64
	}
	if c.PageCachePages < c.Workers {
		c.PageCachePages = c.Workers
	}
	if c.WorkerRegionPages == 0 {
		c.WorkerRegionPages = 1 << 24
	}
	perClass := c.WorkerRegionPages / int64(len(slab.DefaultClasses)+1)
	if perClass < 4*extentPages {
		return fmt.Errorf("core: worker region %d pages too small for %d classes of %d-page extents",
			c.WorkerRegionPages, len(slab.DefaultClasses), extentPages)
	}
	if c.AbsorbInterval > 0 && c.AbsorbMaxHeld <= 0 {
		c.AbsorbMaxHeld = 4 * c.BatchSize
	}
	if c.TieredHotBytes > 0 && c.TieredPromoteAfter <= 0 {
		c.TieredPromoteAfter = 2
	}
	return nil
}

// Location encodes where an item lives: the slab class in the top byte and
// the slot within the slab below. A worker's index maps keys to locations.
type location uint64

func loc(class int, slot uint64) location {
	return location(uint64(class)<<56 | (slot & (1<<56 - 1)))
}

func (l location) class() int   { return int(uint64(l) >> 56) }
func (l location) slot() uint64 { return uint64(l) & (1<<56 - 1) }
