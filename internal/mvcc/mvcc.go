// Package mvcc holds the building blocks of KVell's multi-version layer:
// a deterministic timestamp oracle driven by virtual time, the on-disk
// version envelope that wraps every slot value when versioning is enabled,
// and the per-worker in-memory version/lock tables that cover the
// uncheckpointed window (keys with more than one live version, or with a
// pending transaction intent). Single-version keys have no table entry, so
// the common-case read stays on the store's zero-allocation path.
//
// The package is pure data structures and codecs: all I/O, routing and
// protocol live in internal/core (worker-side state machines) and
// internal/txn (the percolator-style client). Nothing here reads the wall
// clock or unseeded randomness — timestamps come from the simulator's
// virtual clock and all tie-breaking is by monotone counters, which is what
// keeps transactional schedules bit-deterministic.
package mvcc

import (
	"encoding/binary"
	"sort"

	"kvell/internal/env"
	"kvell/internal/kv"
)

// NoLoc marks "no previous version" in an envelope's chain pointer. Location
// 0 is a valid slot (class 0, slot 0), so the sentinel is all-ones.
const NoLoc = ^uint64(0)

// Oracle issues strictly increasing commit/start timestamps. Timestamps
// embed the virtual time of issue in their high bits (so they are meaningful
// across restarts and machines) with a low-bits counter disambiguating
// same-instant fetches. An Oracle is owned by one event domain (the store on
// a single node, machine 0 in a cluster); cross-machine users reach it
// through the network layer, never by sharing the struct.
type Oracle struct {
	last uint64
}

// tsShift leaves 2^20 timestamps per virtual nanosecond before the clock
// component saturates ordering; virtual times are int64 nanoseconds, so the
// shifted value fits uint64 for any simulated run.
const tsShift = 20

// Next returns a fresh timestamp, strictly greater than every timestamp
// returned or observed before.
func (o *Oracle) Next(now env.Time) uint64 {
	t := uint64(now) << tsShift
	if t <= o.last {
		t = o.last + 1
	}
	o.last = t
	return t
}

// Observe raises the oracle floor to at least ts (recovery feeds it the
// largest timestamp found on disk so post-crash commits sort after every
// pre-crash one).
func (o *Oracle) Observe(ts uint64) {
	if ts > o.last {
		o.last = ts
	}
}

// Last returns the most recent timestamp issued or observed. Readers that
// want "latest" semantics without consuming a timestamp snapshot at Last():
// any commit still in flight will fetch a strictly larger timestamp, so it
// is never required reading for such a snapshot.
func (o *Oracle) Last() uint64 { return o.last }

// Envelope kinds. An intent is a prewritten, uncommitted value locked by
// transaction StartTS; committed records carry their CommitTS. Deletes are
// materialized (a committed delete stays live on disk until garbage
// collection so that snapshot readers older than it still find the previous
// version through the chain).
const (
	KindIntentPut    = 0x11
	KindIntentDelete = 0x12
	KindCommitPut    = 0x21
	KindCommitDelete = 0x22
)

// HeaderSize is the fixed envelope prefix: kind(1) + startTS(8) +
// commitTS(8) + prevLoc(8) + primaryLen(2).
const HeaderSize = 1 + 8 + 8 + 8 + 2

// Envelope is the version wrapper stored as a slot's value when MVCC is
// enabled. Decode returns views into the encoded buffer; callers that retain
// Primary or Value must copy.
type Envelope struct {
	Kind     byte
	StartTS  uint64 // issuing transaction's snapshot timestamp
	CommitTS uint64 // 0 while an intent
	PrevLoc  uint64 // previous version's slot location, NoLoc for none
	Primary  []byte // primary lock key (intents; retained after commit)
	Value    []byte // user value
}

// Committed reports whether the envelope is a committed record.
func (e *Envelope) Committed() bool {
	return e.Kind == KindCommitPut || e.Kind == KindCommitDelete
}

// Intent reports whether the envelope is a prewrite intent.
func (e *Envelope) Intent() bool {
	return e.Kind == KindIntentPut || e.Kind == KindIntentDelete
}

// Delete reports whether the envelope materializes a delete.
func (e *Envelope) Delete() bool {
	return e.Kind == KindIntentDelete || e.Kind == KindCommitDelete
}

// AppendEncode appends e's encoding to dst and returns the extended slice
// (the usual append contract; pass a recycled buffer to avoid allocation).
func AppendEncode(dst []byte, e *Envelope) []byte {
	var hdr [HeaderSize]byte
	hdr[0] = e.Kind
	binary.LittleEndian.PutUint64(hdr[1:9], e.StartTS)
	binary.LittleEndian.PutUint64(hdr[9:17], e.CommitTS)
	binary.LittleEndian.PutUint64(hdr[17:25], e.PrevLoc)
	binary.LittleEndian.PutUint16(hdr[25:27], uint16(len(e.Primary)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, e.Primary...)
	dst = append(dst, e.Value...)
	return dst
}

// CommitIntent commits the intent envelope at the head of b in place, as
// the in-place flip write of a commit does: the kind becomes the committed
// kind of the same operation and the commit timestamp commitTS, and no other
// byte changes. b need hold only the envelope's header: in a multi-page slot
// the rest of the value may lie on later pages. It panics when b does not
// start with an intent's header.
func CommitIntent(b []byte, commitTS uint64) {
	if len(b) < HeaderSize {
		panic("mvcc: commit: the envelope header does not fit the bytes given")
	}
	switch b[0] {
	case KindIntentPut:
		b[0] = KindCommitPut
	case KindIntentDelete:
		b[0] = KindCommitDelete
	default:
		panic("mvcc: commit: not an intent")
	}
	binary.LittleEndian.PutUint64(b[9:17], commitTS)
}

// Decode parses b as an envelope, returning views into b. ok is false when b
// is too short or the kind byte is unknown (corrupt or non-MVCC data).
func Decode(b []byte) (e Envelope, ok bool) {
	if len(b) < HeaderSize {
		return Envelope{}, false
	}
	switch b[0] {
	case KindIntentPut, KindIntentDelete, KindCommitPut, KindCommitDelete:
	default:
		return Envelope{}, false
	}
	e.Kind = b[0]
	e.StartTS = binary.LittleEndian.Uint64(b[1:9])
	e.CommitTS = binary.LittleEndian.Uint64(b[9:17])
	e.PrevLoc = binary.LittleEndian.Uint64(b[17:25])
	plen := int(binary.LittleEndian.Uint16(b[25:27]))
	if HeaderSize+plen > len(b) {
		return Envelope{}, false
	}
	e.Primary = b[HeaderSize : HeaderSize+plen : HeaderSize+plen]
	e.Value = b[HeaderSize+plen:]
	return e, true
}

// Version is one committed version of a key: where it lives and when it
// became visible. Versions in a KeyState are ordered newest-first.
type Version struct {
	CommitTS uint64
	StartTS  uint64
	Loc      uint64
	Del      bool
}

// Lock is a pending prewrite intent on a key. MaxReadTS records the largest
// snapshot timestamp that read past this lock while it was pending (on the
// primary key only); the commit protocol must take a commit timestamp above
// it, or those readers would have missed a commit inside their snapshot.
type Lock struct {
	StartTS   uint64
	Primary   []byte // owned copy
	IntentLoc uint64
	Del       bool
	MaxReadTS uint64
	// CommitTS is nonzero once the commit point has been decided and the
	// in-place flip write is in flight; visibility of the new version still
	// waits for the flip's durability. While set, the lock admits no further
	// MaxReadTS bumps and no rollback.
	CommitTS uint64
}

// KeyState is the in-memory versioning state of one key: an optional
// pending lock plus the committed versions still retained, newest first.
// Keys without a KeyState have exactly one committed version — the one the
// index points at — visible to every snapshot the store can still serve.
type KeyState struct {
	Lock     *Lock // nil, or &lock: set by SetLock, released by assigning nil
	Versions []Version
	lock     Lock   // Lock's storage, reused with its Primary buffer
	key      []byte // the key, in a buffer reused with the state
	pos      int    // index in its table's walk order
}

// Key returns the state's key. It is valid while the state is in its table.
func (ks *KeyState) Key() []byte { return ks.key }

// SetLock installs a pending lock in the state's own lock storage, copying
// primary into its reused buffer, and returns it. The lock is valid until
// the next SetLock on ks: a holder of the pointer must not outlive the
// lock's release.
func (ks *KeyState) SetLock(startTS uint64, primary []byte, intentLoc uint64, del bool) *Lock {
	ks.lock = Lock{
		StartTS:   startTS,
		Primary:   append(ks.lock.Primary[:0], primary...),
		IntentLoc: intentLoc,
		Del:       del,
	}
	ks.Lock = &ks.lock
	return ks.Lock
}

// VisibleAt returns the newest version with CommitTS <= ts.
func (ks *KeyState) VisibleAt(ts uint64) (Version, bool) {
	for _, v := range ks.Versions {
		if v.CommitTS <= ts {
			return v, true
		}
	}
	return Version{}, false
}

// VersionAt returns the version committed by the transaction with the given
// start timestamp, if retained.
func (ks *KeyState) VersionAt(startTS uint64) (Version, bool) {
	for _, v := range ks.Versions {
		if v.StartTS == startTS {
			return v, true
		}
	}
	return Version{}, false
}

// Insert adds v keeping Versions ordered newest-first. Commit timestamps can
// land slightly out of order on one key (an autocommit can slip between a
// transaction's timestamp fetch and its flip), so publication sorts rather
// than assuming the newcomer is newest.
func (ks *KeyState) Insert(v Version) {
	i := 0
	for i < len(ks.Versions) && ks.Versions[i].CommitTS > v.CommitTS {
		i++
	}
	ks.Versions = append(ks.Versions, Version{})
	copy(ks.Versions[i+1:], ks.Versions[i:])
	ks.Versions[i] = v
}

// Table is one worker's key -> KeyState map. Get compiles to an
// allocation-free map probe, which is what keeps single-version reads (a
// miss here) on the store's zero-allocation path. Deleted states are
// recycled by Ensure, their lock, version and key buffers with them.
//
// The states also have a walk order (At), a pure function of the sequence of
// Ensure and Delete calls, so a walk can resume from a cursor without a
// sorted copy of the keys: Ensure appends, and Delete moves the last state
// into the hole it leaves.
type Table struct {
	m    map[string]*KeyState
	all  []*KeyState
	free []*KeyState
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{m: make(map[string]*KeyState)} }

// Get returns the state for key, or nil.
func (t *Table) Get(key []byte) *KeyState { return t.m[string(key)] }

// Ensure returns the state for key, creating it if absent.
func (t *Table) Ensure(key []byte) *KeyState {
	if ks := t.m[string(key)]; ks != nil {
		return ks
	}
	var ks *KeyState
	if n := len(t.free); n > 0 {
		ks = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		ks = &KeyState{}
	}
	ks.key = append(ks.key[:0], key...)
	ks.pos = len(t.all)
	t.all = append(t.all, ks)
	t.m[string(key)] = ks
	return ks
}

// Delete removes key's state and recycles it: the caller must hold no
// pointer to it, to its lock or to its key afterwards.
func (t *Table) Delete(key []byte) {
	ks := t.m[string(key)]
	if ks == nil {
		return
	}
	delete(t.m, string(key))
	last := t.all[len(t.all)-1]
	t.all[ks.pos], last.pos = last, ks.pos
	t.all[len(t.all)-1] = nil
	t.all = t.all[:len(t.all)-1]
	ks.Lock = nil
	ks.Versions = ks.Versions[:0]
	t.free = append(t.free, ks)
}

// At returns the i'th state in walk order, 0 <= i < Len().
func (t *Table) At(i int) *KeyState { return t.all[i] }

// Len returns the number of tracked keys.
func (t *Table) Len() int { return len(t.m) }

// Keys appends all tracked keys to dst and returns it sorted (map order must
// never leak into the schedule).
func (t *Table) Keys(dst []string) []string {
	for k := range t.m {
		dst = append(dst, k)
	}
	sort.Strings(dst)
	return dst
}

// Backoff is a bounded, seeded exponential backoff for write-write conflict
// retries. The jitter stream is a xorshift64 generator seeded by the caller,
// so two runs with the same seed sleep identically.
type Backoff struct {
	state uint64
	base  env.Time
	cap   env.Time
	n     int
}

// MakeBackoff returns a backoff starting at base and capped at cap. It is a
// value, held in its owner's struct or on its stack.
func MakeBackoff(seed int64, base, cap env.Time) Backoff {
	if base <= 0 {
		base = 5 * env.Microsecond
	}
	if cap < base {
		cap = 64 * base
	}
	return Backoff{state: uint64(seed)*0x9E3779B97F4A7C15 + 1, base: base, cap: cap}
}

// Next returns the next sleep duration: base·2^attempt, capped, with
// deterministic jitter in [½d, d).
func (b *Backoff) Next() env.Time {
	d := b.base << uint(b.n)
	if d > b.cap || d <= 0 {
		d = b.cap
	}
	b.n++
	b.state ^= b.state << 13
	b.state ^= b.state >> 7
	b.state ^= b.state << 17
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + env.Time(b.state%uint64(half))
}

// Attempts returns how many times Next has been called since the last Reset.
func (b *Backoff) Attempts() int { return b.n }

// Reset restarts the exponential ramp (the jitter stream continues).
func (b *Backoff) Reset() { b.n = 0 }

// ResolveBudget bounds how many lock resolutions one read or prewrite will
// attempt before giving up; it exists to convert protocol bugs into errors
// rather than infinite loops.
const ResolveBudget = 64

// LockResolver is the four store calls a snapshot read makes: the read
// itself, and the three that settle a lock found in its way.
type LockResolver interface {
	// TxnGet performs a snapshot read of key at ts. skip, when nonzero, names
	// a pending transaction (by start timestamp) whose lock the read may pass
	// — the reader already registered its snapshot with that transaction's
	// primary.
	TxnGet(c env.Ctx, key []byte, ts, skip uint64) kv.Result
	// Resolve queries the state of the transaction whose primary lock sits on
	// primary, recording readTS as a passed-reader watermark while pending.
	Resolve(c env.Ctx, primary []byte, startTS, readTS uint64) kv.Result
	// Commit flips the intent at startTS on key to a committed version at
	// commitTS.
	Commit(c env.Ctx, key []byte, startTS, commitTS uint64) kv.Result
	// Rollback removes the intent at startTS on key.
	Rollback(c env.Ctx, key []byte, startTS uint64) kv.Result
}

// SnapshotGet is the read loop: on TxnLocked, resolve through the primary —
// pending transactions record our snapshot and let us pass, committed ones
// roll forward, dead ones roll back — and retry; on TxnRetry (a commit flip
// in flight), back off and retry. The caller owns bo, so a series of reads
// can share one backoff stream. ok is false when ResolveBudget ran out.
func SnapshotGet(c env.Ctx, r LockResolver, key []byte, ts uint64, bo *Backoff) (value []byte, found, ok bool) {
	var skip uint64
	for attempt := 0; attempt < ResolveBudget; attempt++ {
		res := r.TxnGet(c, key, ts, skip)
		switch res.Txn {
		case kv.TxnLocked:
			primary := append([]byte(nil), res.Value...)
			st := r.Resolve(c, primary, res.TxnTS, ts)
			switch st.Txn {
			case kv.TxnPending:
				skip = res.TxnTS // registered with the primary; read past
			case kv.TxnCommitted:
				r.Commit(c, key, res.TxnTS, st.TxnTS) // roll the secondary forward
				skip = 0
			case kv.TxnAborted:
				r.Rollback(c, key, res.TxnTS) // lazy cleanup of a dead intent
				skip = 0
			default: // mid-flip
				c.Sleep(bo.Next())
				skip = 0
			}
		case kv.TxnRetry:
			c.Sleep(bo.Next())
		default:
			return res.Value, res.Found, true
		}
	}
	return nil, false, false
}
