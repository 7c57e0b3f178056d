// Package kv defines the engine-neutral request model shared by KVell and
// the baseline engines (LSM, B+ tree, Bε tree), plus the key/value codecs
// used by the workloads. All engines implement the same client interface as
// the paper (§5.1): Update(k,v), Get(k) and Scan(k1,k2)/Scan(k,n).
package kv

import (
	"encoding/binary"

	"kvell/internal/env"
	"kvell/internal/trace"
)

// OpType identifies a client operation.
type OpType uint8

// Operation types. The OpTxn* family is served only by engines with MVCC
// enabled (internal/core with Config.MVCC); other engines answer them with
// an empty result.
const (
	OpGet OpType = iota
	OpUpdate
	OpDelete
	OpScan
	OpRMW // read-modify-write (YCSB F)

	// OpTxnGet is a snapshot read at Request.TS; Request.TS2, when nonzero,
	// names a pending lock (by its start timestamp) the reader has resolved
	// as still pending and may read past.
	OpTxnGet
	// OpTxnPrewrite installs a percolator intent: Key/Value (Del for a
	// delete intent), TS = start timestamp, Aux = primary lock key.
	OpTxnPrewrite
	// OpTxnCommit flips an intent to a committed version: TS = start
	// timestamp, TS2 = commit timestamp. On the primary key it is the
	// transaction's atomic commit point.
	OpTxnCommit
	// OpTxnResolve queries the primary key's transaction state: TS = start
	// timestamp, TS2 = the inquiring reader's snapshot (recorded as
	// MaxReadTS while the transaction is pending; 0 for cleanup probes).
	OpTxnResolve
	// OpTxnRollback removes the intent installed at TS (lazy lock cleanup
	// and write-conflict abort paths).
	OpTxnRollback
	// OpTxnGC trims versions no snapshot at or above TS can read.
	OpTxnGC
)

// String returns the operation name.
func (o OpType) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	case OpScan:
		return "scan"
	case OpRMW:
		return "rmw"
	case OpTxnGet:
		return "txnget"
	case OpTxnPrewrite:
		return "prewrite"
	case OpTxnCommit:
		return "commit"
	case OpTxnResolve:
		return "resolve"
	case OpTxnRollback:
		return "rollback"
	case OpTxnGC:
		return "txngc"
	default:
		return "?"
	}
}

// ReadOnly reports whether o never writes engine state that must replicate:
// such operations skip the cluster replication barrier. OpTxnResolve only
// raises an in-memory read watermark, so it qualifies.
func (o OpType) ReadOnly() bool {
	switch o {
	case OpGet, OpScan, OpTxnGet, OpTxnResolve:
		return true
	}
	return false
}

// Transaction status codes carried in Result.Txn.
const (
	TxnOK            uint8 = iota
	TxnLocked              // blocked by another transaction's intent: TxnTS = its start timestamp, Value = its primary key
	TxnWriteConflict       // a version committed after the writer's snapshot: TxnTS = its commit timestamp
	// TxnRetry: commit timestamp at or below the primary's MaxReadTS,
	// refetch and retry (TxnTS = the watermark). It is also the verdict of a
	// cluster request given up on after its serving machine died
	// (cluster.Cluster.Sweep), whatever its op: its outcome is unknown.
	TxnRetry
	TxnPending   // resolve: transaction still pending
	TxnCommitted // resolve: committed at TxnTS
	TxnAborted   // resolve/commit: no intent and no committed version — rolled back
)

// Result is the outcome of a request.
type Result struct {
	Found bool
	Value []byte
	// ScanN is the number of items a scan returned.
	ScanN int
	// Txn is the transaction status of an OpTxn* operation (TxnOK
	// otherwise); TxnTS carries the timestamp the status refers to.
	Txn   uint8
	TxnTS uint64
}

// Request is one client operation. Done is invoked exactly once when the
// operation completes (for updates, only after the data is durable, per
// KVell's no-commit-log guarantee). Engines may invoke Done from any
// context; callbacks must be short and non-blocking.
type Request struct {
	Op        OpType
	Key       []byte
	Value     []byte
	ScanCount int
	Done      func(Result)
	// Start is stamped by the issuer for latency accounting.
	Start env.Time
	// Trace, if set, is the request's observability context. Async engines
	// (KVell) carry it across the worker handoff; the issuer's Done wrapper
	// finishes it.
	Trace *trace.Ctx
	// ValueBuf is caller-owned scratch an engine may use to back
	// Result.Value for reads, growing it as needed. When set by a pooled
	// request it lets the read path reuse one buffer across operations;
	// Result.Value is then only valid until Done returns.
	ValueBuf []byte
	// ScanBuf is ValueBuf's counterpart for scans: caller-owned item
	// scratch an engine may fill via AppendItem, reusing each slot's
	// Key/Value capacity across operations. Like ValueBuf, the items are
	// only valid until Done returns.
	ScanBuf []Item
	// TS and TS2 are the timestamp arguments of OpTxn* operations (see the
	// OpType constants for each operation's meaning).
	TS  uint64
	TS2 uint64
	// Aux is the primary lock key of an OpTxnPrewrite.
	Aux []byte
	// Del marks an OpTxnPrewrite as a delete intent.
	Del bool
}

// AppendItem appends a copy of (key, value) to items. When items is a
// recycled scratch buffer (e.g. Request.ScanBuf) with spare capacity, the
// receiving slot's existing Key/Value buffers are reused instead of
// allocating fresh copies.
func AppendItem(items []Item, key, value []byte) []Item {
	if n := len(items); n < cap(items) {
		items = items[:n+1]
		it := &items[n]
		it.Key = append(it.Key[:0], key...)
		it.Value = append(it.Value[:0], value...)
		return items
	}
	return append(items, Item{
		Key:   append([]byte(nil), key...),
		Value: append([]byte(nil), value...),
	})
}

// Engine is a key-value store under benchmark. Engines with internal worker
// threads (KVell) enqueue the request and return immediately; library-style
// engines (the LSM and tree baselines, like RocksDB/WiredTiger) execute the
// request on the calling thread, blocking it — exactly the threading model
// the paper measures.
type Engine interface {
	Name() string
	// Start launches the engine's background threads.
	Start()
	// Submit hands a request to the engine from client context c.
	Submit(c env.Ctx, r *Request)
	// BulkLoad installs the initial dataset directly (the unmeasured YCSB
	// load phase), bypassing the request path. Items must be sorted by key.
	BulkLoad(items []Item) error
	// Stop shuts down background threads (best effort; simulation Close
	// also unwinds them).
	Stop(c env.Ctx)
}

// Item is a key-value pair for bulk loading.
type Item struct {
	Key   []byte
	Value []byte
}

// KeyLen is the fixed length of generated benchmark keys.
const KeyLen = 19 // "user" + 15 digits

// Key formats record number i as a fixed-width, order-preserving key
// (YCSB-style "user..." keys).
func Key(i int64) []byte {
	buf := make([]byte, KeyLen)
	FillKey(buf, i)
	return buf
}

// FillKey writes the key for record i into buf, which must be exactly
// KeyLen bytes. It is the allocation-free form of Key, for callers that own
// a reusable buffer. i must be non-negative (record numbers always are).
func FillKey(buf []byte, i int64) {
	_ = buf[KeyLen-1]
	buf[0], buf[1], buf[2], buf[3] = 'u', 's', 'e', 'r'
	for j := KeyLen - 1; j >= 4; j-- {
		buf[j] = byte('0' + i%10)
		i /= 10
	}
}

// KeyNum parses a generated key back to its record number (-1 if foreign).
func KeyNum(k []byte) int64 {
	if len(k) != KeyLen || string(k[:4]) != "user" {
		return -1
	}
	var n int64
	for _, c := range k[4:] {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int64(c-'0')
	}
	return n
}

// Value generates a deterministic value of length n for record i at version
// v, so tests can verify contents without storing an oracle copy.
func Value(i int64, version uint64, n int) []byte {
	buf := make([]byte, n)
	FillValue(buf, i, version)
	return buf
}

// FillValue writes the deterministic value for (record i, version) into buf
// (the whole slice). It is the allocation-free form of Value. The bytes are
// a pure function of (i, version) and a shorter value is a prefix of a longer
// one: Value(i, v, n)[:m] equals Value(i, v, m) for every m <= n. Callers may
// rely on those two properties, not on the byte sequence itself.
func FillValue(buf []byte, i int64, version uint64) {
	// Seeded from (record, version), one xorshift step per 8 bytes: the step
	// is a dependent chain, so a step per byte costs eight times as much.
	s := uint64(i)*0x9E3779B97F4A7C15 + version*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	for ; len(buf) >= 8; buf = buf[8:] {
		s = xorshift64(s)
		binary.LittleEndian.PutUint64(buf, s)
	}
	if len(buf) > 0 {
		// The tail takes the low bytes of one more step.
		s = xorshift64(s)
		for j := range buf {
			buf[j] = byte(s >> (8 * j))
		}
	}
}

func xorshift64(s uint64) uint64 {
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	return s
}

// arenaBlock is the size of the blocks an Arena carves from. Blocks are small
// and never grow: whoever retains one carved slice pins one block, not the
// dataset.
const arenaBlock = 1 << 20

// Arena carves the keys and values of a bulk-load dataset out of fixed-size
// blocks: one heap object per megabyte instead of two per record. The zero
// value is ready to use. Nothing is ever recycled; a block is garbage once
// every slice carved from it is.
type Arena struct {
	block []byte
}

// Alloc returns n zeroed bytes, capacity capped so an append cannot run into
// the neighbouring allocation.
func (a *Arena) Alloc(n int) []byte {
	if n > len(a.block) {
		if n >= arenaBlock {
			return make([]byte, n)
		}
		a.block = make([]byte, arenaBlock)
	}
	b := a.block[:n:n]
	a.block = a.block[n:]
	return b
}

// Key is Key with the key carved from the arena.
func (a *Arena) Key(i int64) []byte {
	buf := a.Alloc(KeyLen)
	FillKey(buf, i)
	return buf
}

// Value is Value with the value carved from the arena.
func (a *Arena) Value(i int64, version uint64, n int) []byte {
	buf := a.Alloc(n)
	FillValue(buf, i, version)
	return buf
}

// Hash64 is FNV-1a over k; used to shard keys across workers.
func Hash64(k []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range k {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
