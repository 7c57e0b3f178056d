// Package costs is the calibrated CPU cost model used by the simulated
// engines. Every constant is derived from measurements the paper itself
// reports (profiling percentages, throughputs and core counts), so that the
// simulation reproduces the paper's CPU accounting rather than ours.
//
// Derivations (all on Config-Optane, 8 hardware threads, unless noted):
//
//   - KVell sustains 420K req/s on YCSB A spending 20% of time in B-tree
//     lookups and 20% in I/O functions (§6.3.1). 8 cores / 420K req/s =
//     19us/req of wall-core time; 40% busy = 7.6us of CPU per request,
//     i.e. ~3.8us of lookups (two B-tree descents: page-cache index +
//     worker index) and ~3.8us of I/O-path work per request.
//   - RocksDB spends up to 60% of CPU in compactions: 28% merging, 15%
//     index building (§3.1). At ~63K req/s (50% writes of 1KB) ingest is
//     ~31.5MB/s; leveled write amplification ~10 gives ~315MB/s of
//     compaction traffic; 28% of 8 cores / 315MB/s ~ 7ns/byte merged and
//     15% / 315MB/s ~ 4ns/byte of index building.
//   - RocksDB spends up to 41% of its time in pread() on read-dominated
//     workloads (§6.3.1) — one syscall per uncached read; with ~430K
//     reads/s on 8 cores that bounds the syscall path at ~2-3us.
//   - The Config-Amazon-8NVMe microbenchmark (§6.4.1): spending more than
//     3us of CPU per I/O caps achievable IOPS at 75% of max.
//   - mmap page-fault service including map/unmap and remote TLB
//     shootdowns costs ~85us (Table 3: 10K IOPS single-threaded mmap
//     vs 11us device service time leaves ~89us of kernel overhead).
package costs

import "kvell/internal/env"

// Syscall and kernel-path costs.
const (
	// Syscall is the fixed cost of entering and returning from a system
	// call (io_submit, io_getevents, pread, pwrite, ...).
	Syscall env.Time = 2500
	// SyscallPerReq is the kernel's per-request work inside a batched
	// submission (request setup, completion handling, interrupt amortized).
	SyscallPerReq env.Time = 700
	// PreadPerByte is the additional kernel+library CPU of a *buffered*
	// read: copy out of the OS page cache, checksum verification and
	// block handling. The LSM/B-tree baselines read blocks this way (one
	// pread per block, §6.3.1: RocksDB spends up to 41% of its CPU in
	// pread() at ~165K reads/s on 8 threads ⇒ ~20us per 4KB block).
	// KVell uses O_DIRECT asynchronous I/O and does not pay this.
	PreadPerByte float64 = 6.0
	// PwritePerByte is the buffered-write analogue (copy into the page
	// cache; cheaper than the read path, no checksum verification).
	PwritePerByte float64 = 1.5
	// MmapFault is the kernel cost of a major page fault on an mmap-ed
	// region whose working set exceeds RAM: page (un)mapping plus remote
	// TLB invalidation via IPIs (Table 3 derivation above).
	MmapFault env.Time = 85_000
)

// In-memory data-structure costs.
const (
	// BTreeNode is the cost of visiting one B-tree node during a descent
	// (pointer chase + binary search within the node; dominated by cache
	// misses on large trees). A 5-level descent costs ~1.9us, matching the
	// paper's "20% of time in lookups" at 420K req/s with two descents per
	// request (worker index + page-cache index).
	BTreeNode env.Time = 380
	// SkiplistNode is the per-node cost of a skiplist descent/insert step
	// (memtable path in LSM engines).
	SkiplistNode env.Time = 120
	// HashLookup is a hash-table probe (page-cache ablation variant).
	HashLookup env.Time = 250
	// HashGrow is the stop-the-world cost of growing a large hash table;
	// the paper reports up to 100ms insertions when the page-cache index
	// used uthash (§5.3). Charged when a resize is triggered.
	HashGrow env.Time = 100 * env.Millisecond
	// MemcpyPerByte models copy bandwidth of ~10GB/s per core.
	MemcpyPerByte float64 = 0.1
	// Callback is the allocation/queueing overhead per asynchronous
	// request callback (the paper: "10% managing callbacks (malloc and
	// free)" on Config-Amazon-8NVMe).
	Callback env.Time = 600
	// LockUncontended is the cost of an uncontended lock round trip.
	LockUncontended env.Time = 90
)

// LSM-specific costs (derivation in the package comment).
const (
	// MergePerByte is CPU spent merge-sorting entries during compaction.
	MergePerByte float64 = 7
	// IndexBuildPerByte is CPU spent building SSTable block indexes,
	// bloom filters and restarts while writing files (flush & compaction).
	IndexBuildPerByte float64 = 4
	// BloomCheck is one bloom-filter membership test.
	BloomCheck env.Time = 140
	// IterStep is one merging-iterator advance during scans.
	IterStep env.Time = 300
	// WALAppendPerByte is the per-byte cost of formatting+copying a record
	// into the write-ahead-log buffer.
	WALAppendPerByte float64 = 0.35
)

// B-tree-engine (WiredTiger-like) and Bε-tree (TokuMX-like) costs.
const (
	// LogSlotJoin is the bookkeeping to join a commit-log slot.
	LogSlotJoin env.Time = 450
	// LogSlotSpin is the busy-wait quantum while waiting for earlier log
	// slots to become durable (__log_wait_for_earlier_slot / sched_yield).
	LogSlotSpin env.Time = 2_000
	// PageReconcile is the per-page cost of preparing a dirty page image
	// for eviction or checkpoint (WiredTiger "reconciliation").
	PageReconcile env.Time = 3_000
	// BufferMovePerByte is the Bε-tree cost of moving messages down the
	// tree from node buffers (TokuMX spends >20% of time here, §3.1).
	BufferMovePerByte float64 = 2.5
)

// PreadBytes charges the buffered-read kernel path for n bytes.
func PreadBytes(n int) env.Time { return env.Time(PreadPerByte * float64(n)) }

// PwriteBytes charges the buffered-write kernel path for n bytes.
func PwriteBytes(n int) env.Time { return env.Time(PwritePerByte * float64(n)) }

// MemBytes multiplies MemcpyPerByte into a charge for n bytes.
func MemBytes(n int) env.Time { return env.Time(MemcpyPerByte * float64(n)) }

// MergeBytes charges compaction merge work for n bytes.
func MergeBytes(n int) env.Time { return env.Time(MergePerByte * float64(n)) }

// IndexBuildBytes charges SSTable index/filter building for n bytes.
func IndexBuildBytes(n int) env.Time { return env.Time(IndexBuildPerByte * float64(n)) }

// WALBytes charges commit-log formatting for n bytes.
func WALBytes(n int) env.Time { return env.Time(WALAppendPerByte * float64(n)) }

// BufferMoveBytes charges Bε-tree buffer flush-down work for n bytes.
func BufferMoveBytes(n int) env.Time { return env.Time(BufferMovePerByte * float64(n)) }
