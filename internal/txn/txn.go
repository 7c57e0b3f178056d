// Package txn is the percolator-style transaction client over KVell's MVCC
// layer. A transaction buffers its writes locally, reads at its start
// timestamp (seeing its own buffered writes), and commits with a two-phase
// primary-lock protocol: every write is prewritten as a locked intent
// (primary key first), then the primary intent is flipped to committed at a
// fresh commit timestamp — that durable flip is the transaction's atomic
// commit point — and the secondaries roll forward afterwards. Locks left by
// concurrent or dead transactions are resolved lazily through their primary,
// never waited on.
//
// The package is deliberately mechanism-only: all policy knobs (retry
// budgets, backoff spans) are plain fields, every retry sleep comes from a
// seeded bounded backoff, and no code path reads the wall clock, so
// transactional schedules in the simulator stay bit-deterministic.
package txn

import (
	"bytes"
	"errors"

	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/mvcc"
)

// Client is the transport a transaction speaks to the store through: the
// store's own API on a single node, a network stub in a cluster. All methods
// block the calling proc until the store responds.
type Client interface {
	// TxnGet, Resolve, Commit and Rollback.
	mvcc.LockResolver
	// NextTS fetches a fresh timestamp from the oracle.
	NextTS(c env.Ctx) uint64
	// Prewrite installs a locked intent for the transaction started at
	// startTS. value is ignored when del is set.
	Prewrite(c env.Ctx, key, value, primary []byte, startTS uint64, del bool) kv.Result
}

// ErrConflict reports a write-write conflict: another transaction committed
// to one of this transaction's keys after its snapshot, or holds a pending
// lock on one. The transaction has been rolled back; the caller may retry
// from a fresh snapshot (Manager.Run does so with bounded backoff).
var ErrConflict = errors.New("txn: write-write conflict")

// ErrAborted reports that the transaction's primary lock disappeared before
// commit — another party rolled it back (crash settlement racing the client).
var ErrAborted = errors.New("txn: aborted by lock cleanup")

// ErrTooManyResolves reports that a read or prewrite could not settle a
// blocking lock within the retry budget.
var ErrTooManyResolves = errors.New("txn: lock resolution budget exhausted")

// write is one buffered mutation. Its key is a view of the transaction's
// key arena.
type write struct {
	key   []byte
	value []byte
	del   bool
}

// Txn is a single transaction: a snapshot timestamp plus a client-side write
// buffer. It is not safe for concurrent use; one proc owns it. Its buffers
// are reused from one transaction to the next (Manager.Run), so a warm
// transaction allocates nothing of its own.
type Txn struct {
	cl      Client
	startTS uint64
	writes  []write // commit order; writes[0] is the primary
	// byHash maps kv.Hash64 of a key to its index in writes. A key whose
	// hash an earlier key took is found by scanning writes.
	byHash map[uint64]int
	keys   []byte // the arena the writes' keys are copied into
	bo     mvcc.Backoff
	done   bool
}

// Begin opens a transaction at a fresh snapshot. seed salts the retry
// backoff's jitter stream (pass a workload-derived value; two runs with equal
// seeds and schedules sleep identically).
func Begin(c env.Ctx, cl Client, seed int64) *Txn {
	t := &Txn{}
	t.begin(c, cl, seed)
	return t
}

// begin resets t to a fresh transaction, keeping its buffers: nothing of a
// previous transaction survives.
func (t *Txn) begin(c env.Ctx, cl Client, seed int64) {
	ts := cl.NextTS(c)
	clear(t.writes)
	t.cl, t.startTS, t.writes, t.keys, t.done = cl, ts, t.writes[:0], t.keys[:0], false
	if t.byHash == nil {
		t.byHash = make(map[uint64]int)
	}
	clear(t.byHash)
	t.bo = mvcc.MakeBackoff(seed^int64(ts), 2*env.Microsecond, 256*env.Microsecond)
}

// StartTS returns the transaction's snapshot timestamp.
func (t *Txn) StartTS() uint64 { return t.startTS }

// Put buffers a write of value to key. The value is not copied; the caller
// must not mutate it before Commit returns.
func (t *Txn) Put(key, value []byte) { t.buffer(key, value, false) }

// Delete buffers a delete of key.
func (t *Txn) Delete(key []byte) { t.buffer(key, nil, true) }

func (t *Txn) buffer(key, value []byte, del bool) {
	h := kv.Hash64(key)
	if i := t.find(key, h); i >= 0 {
		t.writes[i].value = value
		t.writes[i].del = del
		return
	}
	if _, taken := t.byHash[h]; !taken {
		t.byHash[h] = len(t.writes)
	}
	n := len(t.keys)
	t.keys = append(t.keys, key...)
	t.writes = append(t.writes, write{key: t.keys[n:len(t.keys):len(t.keys)], value: value, del: del})
}

// find returns the index of key's buffered write (h is its kv.Hash64), or
// -1.
func (t *Txn) find(key []byte, h uint64) int {
	i, ok := t.byHash[h]
	if !ok {
		return -1
	}
	if bytes.Equal(t.writes[i].key, key) {
		return i
	}
	for j := range t.writes {
		if bytes.Equal(t.writes[j].key, key) {
			return j
		}
	}
	return -1
}

// Get reads key at the transaction's snapshot, seeing the transaction's own
// buffered writes first.
func (t *Txn) Get(c env.Ctx, key []byte) ([]byte, bool, error) {
	if i := t.find(key, kv.Hash64(key)); i >= 0 {
		w := &t.writes[i]
		if w.del {
			return nil, false, nil
		}
		return w.value, true, nil
	}
	return SnapshotGet(c, t.cl, key, t.startTS, &t.bo)
}

// GetAt is a standalone snapshot read at ts through cl, with lazy lock
// resolution. seed salts the retry backoff.
func GetAt(c env.Ctx, cl Client, key []byte, ts uint64, seed int64) ([]byte, bool, error) {
	bo := mvcc.MakeBackoff(seed^int64(kv.Hash64(key)^ts), 2*env.Microsecond, 256*env.Microsecond)
	return SnapshotGet(c, cl, key, ts, &bo)
}

// SnapshotGet is a snapshot read at ts through cl with lazy lock resolution
// (mvcc.SnapshotGet). The caller owns bo, so a series of reads can share one
// backoff stream.
func SnapshotGet(c env.Ctx, cl Client, key []byte, ts uint64, bo *mvcc.Backoff) ([]byte, bool, error) {
	if v, found, ok := mvcc.SnapshotGet(c, cl, key, ts, bo); ok {
		return v, found, nil
	}
	return nil, false, ErrTooManyResolves
}

// Commit runs the two-phase protocol and returns the commit timestamp. On
// ErrConflict every intent this transaction managed to install has been
// rolled back. A transaction with no writes commits trivially at its own
// snapshot. After Commit (success or failure) the transaction is spent.
func (t *Txn) Commit(c env.Ctx) (uint64, error) {
	if t.done {
		panic("txn: Commit on a spent transaction")
	}
	t.done = true
	if len(t.writes) == 0 {
		return t.startTS, nil
	}
	primary := t.writes[0].key
	for i := range t.writes {
		if err := t.prewriteOne(c, &t.writes[i], primary); err != nil {
			t.rollbackPrewritten(c, i)
			return 0, err
		}
	}
	// Commit point: flip the primary at a fresh timestamp. TxnRetry means the
	// timestamp landed at or below a passed reader's snapshot — fetch a newer
	// one (the oracle's monotonicity guarantees eventual progress).
	var cts uint64
	for {
		try := t.cl.NextTS(c)
		res := t.cl.Commit(c, primary, t.startTS, try)
		if res.Txn == kv.TxnRetry {
			if res.TxnTS >= try {
				continue // watermark raced above us; refetch
			}
			c.Sleep(t.bo.Next()) // our own flip in flight (duplicate commit)
			continue
		}
		if res.Txn != kv.TxnOK {
			// The primary lock vanished without a version at our start
			// timestamp: crash settlement rolled us back.
			t.rollbackPrewritten(c, len(t.writes))
			return 0, ErrAborted
		}
		cts = res.TxnTS
		break
	}
	// The transaction is durably committed. Roll the secondaries forward;
	// stragglers are also settled lazily by any future reader.
	for i := 1; i < len(t.writes); i++ {
		t.cl.Commit(c, t.writes[i].key, t.startTS, cts)
	}
	return cts, nil
}

// prewriteOne installs one intent, lazily resolving any blocking lock.
func (t *Txn) prewriteOne(c env.Ctx, w *write, primary []byte) error {
	for attempt := 0; attempt < mvcc.ResolveBudget; attempt++ {
		res := t.cl.Prewrite(c, w.key, w.value, primary, t.startTS, w.del)
		switch res.Txn {
		case kv.TxnOK:
			return nil
		case kv.TxnWriteConflict:
			return ErrConflict
		case kv.TxnLocked:
			blocker := append([]byte(nil), res.Value...)
			st := t.cl.Resolve(c, blocker, res.TxnTS, 0)
			switch st.Txn {
			case kv.TxnCommitted:
				t.cl.Commit(c, w.key, res.TxnTS, st.TxnTS)
			case kv.TxnAborted:
				t.cl.Rollback(c, w.key, res.TxnTS)
			case kv.TxnPending:
				// A live transaction holds the key: first-to-lock wins, we
				// die (never wait — waiting is what deadlocks).
				return ErrConflict
			default: // mid-flip; its version is about to land
				c.Sleep(t.bo.Next())
			}
		default:
			c.Sleep(t.bo.Next())
		}
	}
	return ErrTooManyResolves
}

// rollbackPrewritten removes the first n intents (primary first, so the
// transaction is dead the moment the primary's rollback lands).
func (t *Txn) rollbackPrewritten(c env.Ctx, n int) {
	for i := 0; i < n && i < len(t.writes); i++ {
		t.cl.Rollback(c, t.writes[i].key, t.startTS)
	}
}

// Rollback abandons an uncommitted transaction. Nothing has touched the
// store yet (writes are buffered until Commit), so it only marks the
// transaction spent.
func (t *Txn) Rollback() { t.done = true }

// Manager runs transaction bodies with automatic conflict retries.
type Manager struct {
	Cl Client
	// MaxAttempts bounds the retry loop; 0 means DefaultMaxAttempts.
	MaxAttempts int
	// Conflicts counts write-write conflict retries across all Run calls.
	Conflicts int64
	// Aborts counts transactions that exhausted their retry budget.
	Aborts int64

	t Txn // the transaction every attempt of every Run reuses
}

// DefaultMaxAttempts is the retry budget when Manager.MaxAttempts is zero.
const DefaultMaxAttempts = 16

// Run executes fn inside a transaction, retrying with seeded backoff on
// write-write conflicts, and returns the commit timestamp. A non-conflict
// error from fn aborts the transaction and is returned as-is. seed salts the
// backoff jitter; pass a per-transaction workload value for determinism.
//
// Every attempt runs on the Manager's one Txn, reset in between, so fn must
// not keep t past its call. A Manager belongs to one proc, like a Txn.
func (m *Manager) Run(c env.Ctx, seed int64, fn func(c env.Ctx, t *Txn) error) (uint64, error) {
	max := m.MaxAttempts
	if max <= 0 {
		max = DefaultMaxAttempts
	}
	bo := mvcc.MakeBackoff(seed, 4*env.Microsecond, 512*env.Microsecond)
	t := &m.t
	var lastErr error
	for attempt := 0; attempt < max; attempt++ {
		t.begin(c, m.Cl, seed)
		if err := fn(c, t); err != nil {
			t.Rollback()
			return 0, err
		}
		cts, err := t.Commit(c)
		if err == nil {
			return cts, nil
		}
		lastErr = err
		if !errors.Is(err, ErrConflict) {
			return 0, err
		}
		m.Conflicts++
		c.Sleep(bo.Next())
	}
	m.Aborts++
	return 0, lastErr
}
