package core

// MVCC mode (Config.MVCC): every slot value is wrapped in an mvcc.Envelope
// carrying the writing transaction's start and commit timestamps, a chain
// pointer to the previous version's slot, and — for prewrite intents — the
// primary lock key. Committed versions are ordinary live slots; superseded
// versions stay live (chained through PrevLoc) until garbage collection
// tombstones them through the normal free-list path, so crash recovery and
// replication treat them exactly like any other data.
//
// Each worker keeps an in-memory mvcc.Table covering only the keys in the
// uncheckpointed window: keys with a pending intent or more than one retained
// version. Every other key — the steady-state overwhelming majority — has no
// table entry, and its reads take the pre-MVCC zero-allocation path plus an
// envelope-header strip.
//
// The commit of an intent is an in-place byte patch (kind byte + commit
// timestamp inside the envelope): one atomic page write, no slot movement, no
// index update. The flip page rides the ordinary write path, so group commit,
// absorption batching, cluster replication and crash settlement all apply to
// transactional writes unchanged.

import (
	"bytes"
	"fmt"
	"sort"

	"kvell/internal/aio"
	"kvell/internal/costs"
	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/mvcc"
	"kvell/internal/slab"
)

// maxChainWalk bounds on-disk PrevLoc chain walks (defense against a cycle
// introduced by slot reuse; retained chains are far shorter).
const maxChainWalk = 32

// ---------------------------------------------------------------------------
// Envelope wrap/unwrap: what the versioned request path adds to the plain one

// encodeEnvelope encodes e into a pooled buffer. The buffer is released
// (releaseEnv) by the write's record once durable — the slab layer may
// read its payload until then — so concurrent writes each hold a distinct
// buffer and the steady state allocates nothing.
func (w *worker) encodeEnvelope(e *mvcc.Envelope) []byte {
	var b []byte
	if n := len(w.envFree); n > 0 {
		b = w.envFree[n-1]
		w.envFree = w.envFree[:n-1]
	} else {
		b = make([]byte, 0, 256)
	}
	return mvcc.AppendEncode(b, e)
}

func (w *worker) releaseEnv(b []byte) {
	w.envFree = append(w.envFree, b[:0])
}

// newestCommitted is the version-resolution stage of a plain operation. For
// a key in the version table (ks is non-nil) the operation acts on the
// newest committed version, whatever the index names — under a lock that is
// the intent slot; ok is false when there is none or it is a delete. Every
// other key has exactly one version, the one the index points at.
func (w *worker) newestCommitted(key []byte) (ks *mvcc.KeyState, l location, ok bool) {
	if w.mv == nil {
		return nil, 0, false
	}
	ks = w.mv.Get(key)
	if ks == nil || len(ks.Versions) == 0 || ks.Versions[0].Del {
		return ks, 0, false
	}
	return ks, location(ks.Versions[0].Loc), true
}

// committedValue unwraps a slot payload for a latest-semantics read: the
// payload itself without MVCC, the envelope's user value with it — intents
// and committed deletes read as absent.
func (w *worker) committedValue(c env.Ctx, payload []byte) ([]byte, bool) {
	if w.mv == nil {
		return payload, payload != nil
	}
	e, ok := mvcc.Decode(payload)
	if !ok || e.Intent() || e.Delete() {
		return nil, false
	}
	c.CPU(costs.MemBytes(len(e.Value)))
	return e.Value, true
}

// respondEnvValue copies e.Value into r's scratch buffer and answers r.
func (w *worker) respondEnvValue(c env.Ctx, r *kv.Request, e *mvcc.Envelope, status uint8) {
	c.CPU(costs.MemBytes(len(e.Value)))
	w.respond(c, r, kv.Result{Found: true, Value: kv.CopyValue(e.Value, &r.ValueBuf), Txn: status})
}

// placeVersion stores the encoded envelope b as a new version slot of key
// and returns its location. Unlike update it never overwrites in place and
// never tombstones a previous location — superseded versions stay live for
// snapshot readers until GC — and the caller owns the index update.
func (w *worker) placeVersion(c env.Ctx, key, b []byte, done cont, out *[]*aio.IO) location {
	ts := w.nextTS()
	c.CPU(costs.MemBytes(len(key) + len(b)))
	return w.placeItem(c, w.classFor(key, b), key, b, ts, false, done, out)
}

// chainCommit is the autocommit of a plain put (or delete) on a
// multi-version key: a new committed slot chained onto the newest version. A
// pending intent is left untouched: the autocommit chains beneath it as the
// newest committed version (the transaction, if it commits, wins with its
// larger commit timestamp — plain writes make no first-committer-wins
// promise), and under the lock the index keeps naming the intent slot. o
// completes once the new slot is durable.
func (w *worker) chainCommit(c env.Ctx, key []byte, ks *mvcc.KeyState, cts uint64, del bool, value []byte, o *opRec, out *[]*aio.IO) {
	e := mvcc.Envelope{Kind: mvcc.KindCommitPut, StartTS: cts, CommitTS: cts, PrevLoc: mvcc.NoLoc, Value: value}
	if del {
		e.Kind = mvcc.KindCommitDelete
	}
	if len(ks.Versions) > 0 {
		e.PrevLoc = ks.Versions[0].Loc
	}
	o.env = w.encodeEnvelope(&e)
	nl := w.placeVersion(c, key, o.env, o, out)
	ks.Insert(mvcc.Version{CommitTS: cts, StartTS: cts, Loc: uint64(nl), Del: del})
	if ks.Lock == nil {
		w.indexPut(c, key, nl)
	}
}

// flipIntent commits the intent at lk.IntentLoc in place with one atomic
// page write; done runs once the flip is durable — the transaction's commit
// point when the key is the primary.
func (w *worker) flipIntent(c env.Ctx, lk *mvcc.Lock, cts uint64, done cont, out *[]*aio.IO) {
	w.patchSlot(c, location(lk.IntentLoc), edit{op: editFlip, ts: cts}, done, out)
}

// readVersion delivers the version v of r.Key, trusting the table: the slot's
// envelope kind is ignored because a freshly committed version's slot may
// still carry its intent kind while the flip write is in flight (the
// in-memory publish happens only after the flip is durable, so v being listed
// proves the commit).
func (w *worker) readVersion(c env.Ctx, r *kv.Request, v mvcc.Version, status uint8, out *[]*aio.IO) {
	if v.Del {
		w.respond(c, r, kv.Result{Txn: status})
		return
	}
	o := w.getRec(r)
	o.step, o.res.Txn = stepVersion, status
	w.readSlot(c, location(v.Loc), r.Key, o, out)
}

// versionRead answers r with the value of readVersion's slot.
func (w *worker) versionRead(c env.Ctx, r *kv.Request, payload []byte, status uint8) {
	e, ok := mvcc.Decode(payload)
	if !ok {
		w.respond(c, r, kv.Result{Txn: status})
		return
	}
	w.respondEnvValue(c, r, &e, status)
}

// ---------------------------------------------------------------------------
// Transaction operations

// startTxn dispatches an OpTxn* request (empty result when MVCC is off).
func (w *worker) startTxn(c env.Ctx, r *kv.Request, out *[]*aio.IO) {
	if w.mv == nil {
		w.respond(c, r, kv.Result{})
		return
	}
	switch r.Op {
	case kv.OpTxnGet:
		w.txnGet(c, r, out)
	case kv.OpTxnPrewrite:
		w.txnPrewrite(c, r, out)
	case kv.OpTxnCommit:
		w.txnCommit(c, r, out)
	case kv.OpTxnResolve:
		w.txnResolve(c, r, out)
	case kv.OpTxnRollback:
		w.txnRollback(c, r, out)
	case kv.OpTxnGC:
		w.txnGC(c, r, out)
	default:
		w.respond(c, r, kv.Result{})
	}
}

// respondLocked hands a pending lock to the reader/writer for client-side
// resolution; Result.Value carries the primary key.
func (w *worker) respondLocked(c env.Ctx, r *kv.Request, lk *mvcc.Lock) {
	val := append(r.ValueBuf[:0], lk.Primary...)
	r.ValueBuf = val
	w.respond(c, r, kv.Result{Value: val, Txn: kv.TxnLocked, TxnTS: lk.StartTS})
}

// txnGet is the snapshot read at r.TS. It never parks and never blocks the
// write path: a pending lock is returned to the client (TxnLocked) for
// resolution rather than waited on.
func (w *worker) txnGet(c env.Ctx, r *kv.Request, out *[]*aio.IO) {
	rts := r.TS
	ks := w.mv.Get(r.Key)
	if ks == nil {
		l, ok := w.lookup(c, r.Key)
		if !ok {
			w.respond(c, r, kv.Result{})
			return
		}
		w.snapshotWalk(c, r, l, 0, out)
		return
	}
	if lk := ks.Lock; lk != nil && lk.StartTS <= rts {
		switch {
		case lk.CommitTS != 0 && lk.CommitTS <= rts:
			// Commit decided inside this snapshot, flip I/O still in flight.
			if !bytes.Equal(lk.Primary, r.Key) {
				// Secondary: the primary's flip is already durable (the
				// manager touches secondaries only after the primary ack),
				// so the intent value is committed state.
				w.readVersion(c, r, mvcc.Version{CommitTS: lk.CommitTS, StartTS: lk.StartTS,
					Loc: lk.IntentLoc, Del: lk.Del}, kv.TxnOK, out)
				return
			}
			// Primary mid-flip: not durable yet — have the reader retry
			// rather than serve a value a crash could still revoke.
			w.respond(c, r, kv.Result{Txn: kv.TxnRetry, TxnTS: lk.CommitTS})
			return
		case lk.CommitTS == 0 && r.TS2 != lk.StartTS:
			// Pending and unresolved: hand the lock to the reader.
			w.respondLocked(c, r, lk)
			return
		}
		// Committing above the snapshot, or resolved-as-pending (TS2 match,
		// the primary has recorded our read timestamp): read past the lock.
	}
	v, ok := ks.VisibleAt(rts)
	if !ok {
		w.respond(c, r, kv.Result{})
		return
	}
	w.readVersion(c, r, v, kv.TxnOK, out)
}

// snapshotWalk serves a snapshot read for a key with no table entry by
// walking the on-disk PrevLoc chain from location l toward older versions.
// Keys written only by autocommits retain no chain (their updates recycle the
// slot), so a too-new head simply reads as absent at old snapshots — the
// snapshot guarantee covers transactionally written keys.
func (w *worker) snapshotWalk(c env.Ctx, r *kv.Request, l location, depth int, out *[]*aio.IO) {
	o := w.getRec(r)
	o.step, o.depth = stepWalk, depth
	w.readSlot(c, l, r.Key, o, out)
}

// walkRead takes snapshotWalk's next step from the slot it read.
func (w *worker) walkRead(c env.Ctx, r *kv.Request, payload []byte, depth int, out *[]*aio.IO) {
	e, ok := mvcc.Decode(payload)
	if !ok {
		w.respond(c, r, kv.Result{})
		return
	}
	if e.Intent() {
		// A lock materialized between the table probe and this read; its
		// KeyState exists now — re-dispatch through the in-memory path.
		w.txnGet(c, r, out)
		return
	}
	if e.CommitTS <= r.TS {
		if e.Delete() {
			w.respond(c, r, kv.Result{})
			return
		}
		w.respondEnvValue(c, r, &e, kv.TxnOK)
		return
	}
	if e.PrevLoc == mvcc.NoLoc || depth >= maxChainWalk {
		w.respond(c, r, kv.Result{})
		return
	}
	w.snapshotWalk(c, r, location(e.PrevLoc), depth+1, out)
}

// txnPrewrite installs a percolator intent for the transaction that started
// at r.TS. A cold key (no table entry) first reads its current envelope so
// the write-write conflict check can compare commit timestamps.
func (w *worker) txnPrewrite(c env.Ctx, r *kv.Request, out *[]*aio.IO) {
	ks := w.mv.Get(r.Key)
	if ks == nil {
		l, ok := w.lookup(c, r.Key)
		if ok {
			o := w.getRec(r)
			o.step, o.l = stepPrewrite, l
			w.readSlot(c, l, r.Key, o, out)
			return
		}
		ks = w.mv.Ensure(r.Key)
	}
	w.prewriteLocked(c, r, ks, out)
}

// prewriteRead continues txnPrewrite on a cold key with the envelope at l,
// its current slot.
func (w *worker) prewriteRead(c env.Ctx, r *kv.Request, l location, payload []byte, out *[]*aio.IO) {
	ks := w.mv.Get(r.Key)
	if ks == nil {
		ks = w.mv.Ensure(r.Key)
		if e, ok := mvcc.Decode(payload); ok && e.Committed() {
			ks.Versions = append(ks.Versions, mvcc.Version{
				CommitTS: e.CommitTS, StartTS: e.StartTS, Loc: uint64(l), Del: e.Delete()})
		}
	}
	w.prewriteLocked(c, r, ks, out)
}

// prewriteLocked runs the prewrite checks against in-memory state and, when
// they pass, writes the intent slot; TxnOK is reported only once the intent
// is durable.
func (w *worker) prewriteLocked(c env.Ctx, r *kv.Request, ks *mvcc.KeyState, out *[]*aio.IO) {
	if w.hot != nil {
		// A key in the version table is never in the hot tier: its commit
		// or rollback bypasses update and remove, which keep the tier fresh.
		w.hotInvalidate(c, r.Key)
	}
	if lk := ks.Lock; lk != nil {
		if lk.StartTS == r.TS {
			// Duplicate prewrite (client retry): the intent is in place.
			w.respond(c, r, kv.Result{Found: true, Txn: kv.TxnOK})
			return
		}
		w.respondLocked(c, r, lk)
		return
	}
	if len(ks.Versions) > 0 && ks.Versions[0].CommitTS > r.TS {
		// A version committed after this transaction's snapshot:
		// first-committer-wins says we lose.
		w.respond(c, r, kv.Result{Txn: kv.TxnWriteConflict, TxnTS: ks.Versions[0].CommitTS})
		return
	}
	prev := uint64(mvcc.NoLoc)
	if len(ks.Versions) > 0 {
		prev = ks.Versions[0].Loc
	}
	kind := byte(mvcc.KindIntentPut)
	if r.Del {
		kind = mvcc.KindIntentDelete
	}
	o := w.getRec(r)
	o.res = kv.Result{Found: true, Txn: kv.TxnOK}
	o.env = w.encodeEnvelope(&mvcc.Envelope{Kind: kind, StartTS: r.TS, PrevLoc: prev, Primary: r.Aux, Value: r.Value})
	nl := w.placeVersion(c, r.Key, o.env, o, out)
	w.indexPut(c, r.Key, nl)
	ks.SetLock(r.TS, r.Aux, uint64(nl), r.Del)
}

// txnCommit flips the intent installed at start timestamp r.TS to a
// committed version at commit timestamp r.TS2. On the primary key the
// durable flip is the transaction's atomic commit point; the in-memory
// version is published (and the lock released) only then, which is what lets
// snapshot readers trust the table.
func (w *worker) txnCommit(c env.Ctx, r *kv.Request, out *[]*aio.IO) {
	cts := r.TS2
	ks := w.mv.Get(r.Key)
	if ks == nil || ks.Lock == nil || ks.Lock.StartTS != r.TS {
		// No matching intent: already committed (duplicate or roll-forward
		// retry) or rolled back.
		w.txnOutcome(c, r, ks, kv.Result{Found: true, Txn: kv.TxnOK}, out)
		return
	}
	lk := ks.Lock
	if lk.CommitTS != 0 {
		// A flip for this intent is already in flight; let the caller retry
		// until the durable publish resolves it one way or the other.
		w.respond(c, r, kv.Result{Txn: kv.TxnRetry, TxnTS: lk.CommitTS})
		return
	}
	if bytes.Equal(lk.Primary, r.Key) && cts <= lk.MaxReadTS {
		// A reader with a snapshot at or above cts already read past this
		// lock; committing at cts would insert a version inside that
		// reader's past. The manager must fetch a fresh timestamp — the
		// oracle's monotonicity makes the refetched value exceed every
		// MaxReadTS recorded so far.
		w.respond(c, r, kv.Result{Txn: kv.TxnRetry, TxnTS: lk.MaxReadTS})
		return
	}
	lk.CommitTS = cts // commit decided; visibility still gated on durability
	o := w.getRec(r)
	o.res = kv.Result{Found: true, Txn: kv.TxnOK, TxnTS: cts}
	o.ks = ks // published once the flip is durable
	w.flipIntent(c, lk, cts, o, out)
}

// txnResolve reports the primary key's transaction state. While the
// transaction is pending, the inquirer's snapshot timestamp (r.TS2) is
// recorded as MaxReadTS so the eventual commit cannot slide beneath a read
// that already happened; the inquirer may then read past the lock.
func (w *worker) txnResolve(c env.Ctx, r *kv.Request, out *[]*aio.IO) {
	ks := w.mv.Get(r.Key)
	if ks != nil && ks.Lock != nil && ks.Lock.StartTS == r.TS {
		lk := ks.Lock
		if lk.CommitTS != 0 {
			// Mid-flip: not yet durable, so neither "pending" (a bump would
			// be useless) nor "committed" (roll-forward would outrun the
			// primary). The inquirer retries shortly.
			w.respond(c, r, kv.Result{Txn: kv.TxnRetry, TxnTS: lk.CommitTS})
			return
		}
		if r.TS2 > lk.MaxReadTS {
			lk.MaxReadTS = r.TS2
		}
		w.respond(c, r, kv.Result{Txn: kv.TxnPending, TxnTS: lk.StartTS})
		return
	}
	w.txnOutcome(c, r, ks, kv.Result{Txn: kv.TxnCommitted}, out)
}

// txnOutcome answers r when r.Key holds no intent of the transaction that
// started at r.TS: with won, carrying the commit timestamp, when the
// transaction's version is retained in the table or is the indexed envelope
// (table entry gone: GC after commit); with TxnAborted otherwise.
func (w *worker) txnOutcome(c env.Ctx, r *kv.Request, ks *mvcc.KeyState, won kv.Result, out *[]*aio.IO) {
	if ks != nil {
		res := kv.Result{Txn: kv.TxnAborted}
		if v, ok := ks.VersionAt(r.TS); ok {
			res = won
			res.TxnTS = v.CommitTS
		}
		w.respond(c, r, res)
		return
	}
	l, ok := w.lookup(c, r.Key)
	if !ok {
		w.respond(c, r, kv.Result{Txn: kv.TxnAborted})
		return
	}
	o := w.getRec(r)
	o.step, o.res = stepOutcome, won
	w.readSlot(c, l, r.Key, o, out)
}

// outcomeRead answers txnOutcome from the key's indexed envelope.
func (w *worker) outcomeRead(c env.Ctx, r *kv.Request, payload []byte, won kv.Result) {
	res := kv.Result{Txn: kv.TxnAborted}
	if e, ok := mvcc.Decode(payload); ok && e.Committed() && e.StartTS == r.TS {
		res = won
		res.TxnTS = e.CommitTS
	}
	w.respond(c, r, res)
}

// txnRollback removes the intent installed at start timestamp r.TS (lazy
// lock cleanup and the write-conflict abort path). A commit already in
// flight refuses the rollback.
func (w *worker) txnRollback(c env.Ctx, r *kv.Request, out *[]*aio.IO) {
	ks := w.mv.Get(r.Key)
	if ks == nil || ks.Lock == nil || ks.Lock.StartTS != r.TS {
		if ks != nil {
			if v, ok := ks.VersionAt(r.TS); ok {
				w.respond(c, r, kv.Result{Txn: kv.TxnCommitted, TxnTS: v.CommitTS})
				return
			}
		}
		w.respond(c, r, kv.Result{Txn: kv.TxnOK}) // nothing to undo
		return
	}
	lk := ks.Lock
	if lk.CommitTS != 0 {
		w.respond(c, r, kv.Result{Txn: kv.TxnCommitted, TxnTS: lk.CommitTS})
		return
	}
	intent := location(lk.IntentLoc)
	ks.Lock = nil
	if len(ks.Versions) > 0 {
		w.indexPut(c, r.Key, location(ks.Versions[0].Loc))
	} else {
		w.indexDelete(c, r.Key)
		w.tableDelete(r.Key) // recycles ks
	}
	o := w.getRec(r)
	o.res = kv.Result{Found: true, Txn: kv.TxnOK}
	w.freeSlot(c, intent, o, out)
}

// tableDelete removes key from the version table. With tiering on it also
// stamps the key on the hot tier's write clock (the key is never resident
// there, so that is all Invalidate does): a Get that started while the key
// was in the table may have read a version a commit has since superseded,
// and once the table no longer names the key, only the stamp keeps
// hotAdmit from admitting it.
func (w *worker) tableDelete(key []byte) {
	if w.hot != nil {
		w.hot.Invalidate(key)
	}
	w.mv.Delete(key)
}

// txnGC trims versions no snapshot at or above watermark r.TS can read.
// Callers must keep the watermark at or below the start timestamp of every
// unresolved transaction (a pending transaction's commit always lands above
// its own start, so such a watermark can never trim evidence a secondary
// still needs for roll-forward). Result.ScanN reports the slots freed.
//
// The trim is paced like any other work on the worker: a pass frees at most
// BatchSize slots, and once their tombstones are durable the request goes
// back on the queue to resume where it stopped, so a collection keeps at
// most BatchSize of its I/Os in flight per worker (Config.BatchSize).
func (w *worker) txnGC(c env.Ctx, r *kv.Request, out *[]*aio.IO) {
	w.gcPass(c, &gcState{w: w, r: r}, out)
}

// gcState is one collection's progress on a worker: where its walk of the
// version table resumes, the slots freed so far, and the tombstones of the
// current pass still to become durable.
type gcState struct {
	w     *worker
	r     *kv.Request
	next  int
	freed int
	waits int
}

// complete counts one durable tombstone; after the pass's last, the
// collection goes back on the queue.
func (g *gcState) complete(c env.Ctx, _ *aio.IO, _ *[]*aio.IO) {
	g.waits--
	if g.waits == 0 {
		g.w.enqueue(c, g)
	}
}

// gcPass walks the version table from g.next, freeing up to BatchSize slots.
func (w *worker) gcPass(c env.Ctx, g *gcState, out *[]*aio.IO) {
	wm, budget := g.r.TS, w.st.cfg.BatchSize
	n, visited := 0, 0
	for g.next < w.mv.Len() {
		ks := w.mv.At(g.next)
		visited++
		// Pivot: the newest version a snapshot at the watermark reads.
		// Everything older is unreachable by any snapshot we still serve.
		pivot := -1
		for i, v := range ks.Versions {
			if v.CommitTS <= wm {
				pivot = i
				break
			}
		}
		if pivot >= 0 {
			stale := ks.Versions[pivot+1:]
			k := min(len(stale), budget-n)
			for _, v := range stale[:k] {
				w.freeSlot(c, location(v.Loc), g, out)
			}
			n += k
			ks.Versions = append(ks.Versions[:pivot+1], stale[k:]...)
			if k < len(stale) {
				break // the budget ran out inside this key's versions
			}
		}
		if ks.Lock != nil || len(ks.Versions) != 1 || ks.Versions[0].CommitTS > wm {
			g.next++
			continue
		}
		// Down to a single settled version: the key leaves the table (its
		// place in the walk order goes to the last state). A settled delete
		// is purged entirely — index entry and slot.
		if ks.Versions[0].Del {
			if n == budget {
				break
			}
			w.indexDelete(c, ks.Key())
			w.freeSlot(c, location(ks.Versions[0].Loc), g, out)
			n++
		}
		w.tableDelete(ks.Key())
	}
	c.CPU(env.Time(visited) * costs.IterStep)
	g.freed += n
	if n > 0 {
		g.waits = n // the tombstones complete from the worker's event loop, after this pass
		return
	}
	w.respond(c, g.r, kv.Result{Found: true, Txn: kv.TxnOK, ScanN: g.freed})
}

// ---------------------------------------------------------------------------
// Store-level API: oracle, snapshot reads, scans, settlement

// Oracle returns the store's timestamp oracle (nil unless Config.MVCC).
func (s *Store) Oracle() *mvcc.Oracle { return s.oracle }

// NextTS fetches a fresh start/commit timestamp from the store's oracle.
func (s *Store) NextTS(c env.Ctx) uint64 { return s.oracle.Next(c.Now()) }

// SnapshotTS returns a timestamp at which a snapshot observes every
// transaction committed so far, without consuming one: any commit still in
// flight will fetch a strictly larger timestamp.
func (s *Store) SnapshotTS() uint64 { return s.oracle.Last() }

// GetAt performs a snapshot read of key as of timestamp ts, blocking the
// calling thread. Pending locks are resolved through their primary key —
// roll-forward, lazy cleanup, or a read-watermark bump that lets the read
// proceed past the lock — so the read never waits on a writer.
func (s *Store) GetAt(c env.Ctx, key []byte, ts uint64) ([]byte, bool) {
	bo := mvcc.MakeBackoff(int64(kv.Hash64(key)^ts), 2*env.Microsecond, 256*env.Microsecond)
	v, found, ok := mvcc.SnapshotGet(c, lockResolver{s}, key, ts, &bo)
	if !ok {
		panic(fmt.Sprintf("core: GetAt(%q, %d): lock resolution budget exhausted", key, ts))
	}
	return v, found
}

// lockResolver is the store as mvcc.SnapshotGet calls it.
type lockResolver struct{ s *Store }

func (r lockResolver) TxnGet(c env.Ctx, key []byte, ts, skip uint64) kv.Result {
	return r.s.Call(c, kv.Request{Op: kv.OpTxnGet, Key: key, TS: ts, TS2: skip})
}

func (r lockResolver) Resolve(c env.Ctx, primary []byte, startTS, readTS uint64) kv.Result {
	return r.s.ResolveLock(c, primary, startTS, readTS)
}

func (r lockResolver) Commit(c env.Ctx, key []byte, startTS, commitTS uint64) kv.Result {
	return r.s.Call(c, kv.Request{Op: kv.OpTxnCommit, Key: key, TS: startTS, TS2: commitTS})
}

func (r lockResolver) Rollback(c env.Ctx, key []byte, startTS uint64) kv.Result {
	return r.s.Call(c, kv.Request{Op: kv.OpTxnRollback, Key: key, TS: startTS})
}

// ResolveLock queries the state of the transaction whose primary lock is on
// primary, recording rts as a read watermark while it is pending.
func (s *Store) ResolveLock(c env.Ctx, primary []byte, startTS, rts uint64) kv.Result {
	return s.Call(c, kv.Request{Op: kv.OpTxnResolve, Key: primary, TS: startTS, TS2: rts})
}

// ScanAtN returns up to count items with key >= start as they stood at
// snapshot ts. Candidates come from the worker indexes (firstKept); each is
// then read through the full snapshot machinery (lock resolution included),
// so the result never exposes a torn multi-key state. The scan runs on the
// calling thread and never blocks a worker.
func (s *Store) ScanAtN(c env.Ctx, start []byte, count int, ts uint64) []kv.Item {
	var items []kv.Item
	ss := s.acquireScan(c)
	s.firstKept(c, ss, start, count, func(cd candidate) (location, bool) {
		v, ok := s.GetAt(c, cd.key, ts)
		if ok {
			items = append(items, kv.Item{Key: append([]byte(nil), cd.key...), Value: v})
		}
		return cd.l, ok
	})
	s.releaseScan(c, ss)
	return items
}

// latest says where a latest-semantics scan reads cd's key: for a key in the
// version table that is the newest committed version (never an intent), and
// ok is false when that version is a delete or missing; every other key is
// read where the index points.
func (s *Store) latest(cd candidate) (l location, ok bool) {
	ks, l, ok := cd.w.newestCommitted(cd.key)
	if ks == nil {
		return cd.l, true
	}
	return l, ok
}

// GC trims, on every worker, versions no snapshot at or above watermark can
// read (see txnGC for the watermark contract). It returns the number of
// slots freed.
func (s *Store) GC(c env.Ctx, watermark uint64) int {
	freed := 0
	for _, w := range s.workers {
		freed += s.callOn(c, w, kv.Request{Op: kv.OpTxnGC, TS: watermark}).ScanN
	}
	return freed
}

// pendingLock names one key holding a pending intent.
type pendingLock struct {
	key     string
	primary string
	startTS uint64
}

// pendingLocks lists the keys currently holding a pending intent. Pure
// in-memory inspection for tests and settlement; safe whenever no worker is
// mutating (the simulation is cooperative).
func (s *Store) pendingLocks() []pendingLock {
	var pends []pendingLock
	for _, w := range s.workers {
		if w.mv == nil {
			continue
		}
		for _, k := range w.mv.Keys(nil) {
			if ks := w.mv.Get([]byte(k)); ks != nil && ks.Lock != nil {
				pends = append(pends, pendingLock{key: k, primary: string(ks.Lock.Primary), startTS: ks.Lock.StartTS})
			}
		}
	}
	return pends
}

// PendingLocks returns how many keys currently hold a pending intent.
func (s *Store) PendingLocks() int { return len(s.pendingLocks()) }

// ResolveIntents settles every intent left pending by a crash: each is
// resolved through its primary — rolled forward when the primary committed
// (its durable flip happened before any ack), rolled back otherwise. Call it
// after Recover and Start, before admitting new traffic. It returns the
// number of intents settled.
func (s *Store) ResolveIntents(c env.Ctx) int {
	pends := s.pendingLocks()
	sort.Slice(pends, func(i, j int) bool {
		if pends[i].key != pends[j].key {
			return pends[i].key < pends[j].key
		}
		return pends[i].startTS < pends[j].startTS
	})
	n := 0
	for _, p := range pends {
		kb := []byte(p.key)
		ks := s.workerFor(kb).mv.Get(kb)
		if ks == nil || ks.Lock == nil || ks.Lock.StartTS != p.startTS {
			continue // already settled through an earlier sibling
		}
		st := s.ResolveLock(c, []byte(p.primary), p.startTS, 0)
		switch st.Txn {
		case kv.TxnPending:
			// The primary intent never flipped, so the transaction never
			// reached its commit point: roll everything back, primary first.
			s.Call(c, kv.Request{Op: kv.OpTxnRollback, Key: []byte(p.primary), TS: p.startTS})
			if p.key != p.primary {
				s.Call(c, kv.Request{Op: kv.OpTxnRollback, Key: kb, TS: p.startTS})
			}
		case kv.TxnCommitted:
			s.Call(c, kv.Request{Op: kv.OpTxnCommit, Key: kb, TS: p.startTS, TS2: st.TxnTS})
		default:
			s.Call(c, kv.Request{Op: kv.OpTxnRollback, Key: kb, TS: p.startTS})
		}
		n++
	}
	return n
}

// ---------------------------------------------------------------------------
// Recovery

// recVer is one live envelope slot found during an MVCC recovery scan.
type recVer struct {
	loc      location
	hdrTS    uint64
	startTS  uint64
	commitTS uint64
	kind     byte
	primary  []byte // intents only (copied)
}

// mvccRecoverSlot records a scanned live slot for the post-scan rebuild. It
// returns false when the payload does not decode as an envelope (a torn
// sub-page payload); the caller then treats the slot as free space.
func (w *worker) mvccRecoverSlot(sl *slab.Slab, slotIdx uint64, d slab.Decoded) bool {
	e, ok := mvcc.Decode(d.Item.Value)
	if !ok {
		return false
	}
	rv := recVer{
		loc:      loc(sl.ClassIndex, slotIdx),
		hdrTS:    d.Item.Timestamp,
		startTS:  e.StartTS,
		commitTS: e.CommitTS,
		kind:     e.Kind,
	}
	if e.Intent() {
		rv.primary = append([]byte(nil), e.Primary...)
	}
	w.recMVCC[string(d.Item.Key)] = append(w.recMVCC[string(d.Item.Key)], rv)
	return true
}

// mvccFinishRecovery rebuilds the index and version table from the slots the
// scan collected: per key, the newest intent (arbitrated by the slot header
// timestamp — a rolled-back intent whose tombstone was lost decodes older
// than its successor) plus every committed version, newest first. Losing
// duplicates go back on the free list in memory only, exactly like the
// non-MVCC duplicate rule: after another crash the same arbitration repeats.
func (w *worker) mvccFinishRecovery() {
	keys := make([]string, 0, len(w.recMVCC))
	for k := range w.recMVCC {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		vers := w.recMVCC[k]
		var intent *recVer
		committed := make([]recVer, 0, len(vers))
		for i := range vers {
			v := &vers[i]
			if v.commitTS > w.maxCommitTS {
				w.maxCommitTS = v.commitTS
			}
			if v.startTS > w.maxCommitTS {
				w.maxCommitTS = v.startTS
			}
			if v.kind == mvcc.KindIntentPut || v.kind == mvcc.KindIntentDelete {
				if intent == nil || v.hdrTS > intent.hdrTS {
					if intent != nil {
						w.dropRecovered(intent.loc)
					}
					intent = v
				} else {
					w.dropRecovered(v.loc)
				}
				continue
			}
			committed = append(committed, *v)
		}
		sort.Slice(committed, func(i, j int) bool {
			if committed[i].commitTS != committed[j].commitTS {
				return committed[i].commitTS > committed[j].commitTS
			}
			return committed[i].hdrTS > committed[j].hdrTS
		})
		kb := []byte(k)
		switch {
		case intent != nil:
			w.idx.Put(kb, uint64(intent.loc))
		case len(committed) > 0:
			w.idx.Put(kb, uint64(committed[0].loc))
		default:
			continue
		}
		// The table covers exactly the uncheckpointed window: a lock, more
		// than one retained version, or a not-yet-purged committed delete.
		if intent == nil && len(committed) == 1 && committed[0].kind != mvcc.KindCommitDelete {
			continue
		}
		ks := w.mv.Ensure(kb)
		if intent != nil {
			ks.SetLock(intent.startTS, intent.primary, uint64(intent.loc), intent.kind == mvcc.KindIntentDelete)
		}
		for _, v := range committed {
			ks.Versions = append(ks.Versions, mvcc.Version{
				CommitTS: v.commitTS,
				StartTS:  v.startTS,
				Loc:      uint64(v.loc),
				Del:      v.kind == mvcc.KindCommitDelete,
			})
		}
	}
	w.recMVCC = nil
}

// dropRecovered returns a recovery-losing slot to its free list (in memory
// only, like the non-MVCC duplicate rule).
func (w *worker) dropRecovered(l location) {
	w.slabs[l.class()].Free.PushHead(l.slot())
}

// ---------------------------------------------------------------------------
// Audit

// CheckMVCC audits the version/lock tables and on-disk version chains
// against the disk image — the MVCC counterpart of CheckConsistency, for the
// crash harness. Host-side only: call with no workers running.
//
// Invariants checked, per worker:
//   - every indexed slot decodes as a live envelope for its key;
//   - no slot is reachable from two different keys' PrevLoc chains;
//   - no free-list head aliases a chain-reachable slot;
//   - every table entry's lock points at a live intent with its start
//     timestamp, and its versions are ordered newest-first with live slots.
func (s *Store) CheckMVCC() error {
	if !s.cfg.MVCC {
		return nil
	}
	for _, w := range s.workers {
		if err := w.checkMVCC(); err != nil {
			return fmt.Errorf("worker %d: %w", w.id, err)
		}
	}
	return nil
}

func (w *worker) checkMVCC() error {
	st := w.dev.Store()
	// envelopeAt reads the slot at l; live reports a live envelope of key.
	envelopeAt := func(l location, key []byte) (e mvcc.Envelope, live bool, err error) {
		d, err := hostSlot(st, w.slabs[l.class()], l.slot())
		if err != nil || d.Kind != slab.Live || !bytes.Equal(d.Item.Key, key) {
			return mvcc.Envelope{}, false, err
		}
		e, live = mvcc.Decode(d.Item.Value)
		return e, live, nil
	}

	// Chain ownership: walk every indexed key's PrevLoc chain; a slot
	// reachable from two different keys' chains means a version write
	// corrupted the previous-version links.
	owner := make(map[location]string)
	var verr error
	w.idx.AscendFrom(nil, func(key []byte, v uint64) bool {
		l := location(v)
		for hop := 0; hop < maxChainWalk; hop++ {
			e, live, err := envelopeAt(l, key)
			if err != nil {
				verr = fmt.Errorf("key %q: read chain slot %d/%d: %w", key, l.class(), l.slot(), err)
				return false
			}
			if !live {
				break // chain ends at a freed/reused slot (below the watermark)
			}
			if prev, dup := owner[l]; dup {
				if prev != string(key) {
					verr = fmt.Errorf("slot %d/%d reachable from chains of %q and %q",
						l.class(), l.slot(), prev, key)
					return false
				}
				break // already walked from this key (shouldn't happen; index is unique)
			}
			owner[l] = string(key)
			if e.PrevLoc == mvcc.NoLoc {
				break
			}
			l = location(e.PrevLoc)
		}
		return true
	})
	if verr != nil {
		return verr
	}
	for cls, sl := range w.slabs {
		for _, head := range sl.Free.Heads() {
			if o, dup := owner[loc(cls, head)]; dup {
				return fmt.Errorf("class %d: free head %d is live on key %q's version chain", cls, head, o)
			}
		}
	}
	// Table entries against disk.
	for _, k := range w.mv.Keys(nil) {
		kb := []byte(k)
		ks := w.mv.Get(kb)
		if lk := ks.Lock; lk != nil {
			e, live, err := envelopeAt(location(lk.IntentLoc), kb)
			if err != nil {
				return err
			}
			if !live {
				return fmt.Errorf("key %q: lock intent slot %d/%d not live for the key",
					k, location(lk.IntentLoc).class(), location(lk.IntentLoc).slot())
			}
			if e.StartTS != lk.StartTS {
				return fmt.Errorf("key %q: intent slot start ts %d, lock says %d", k, e.StartTS, lk.StartTS)
			}
		}
		last := ^uint64(0)
		for i, v := range ks.Versions {
			if v.CommitTS >= last {
				return fmt.Errorf("key %q: versions not newest-first at index %d", k, i)
			}
			last = v.CommitTS
			_, live, err := envelopeAt(location(v.Loc), kb)
			if err != nil {
				return err
			}
			if !live {
				return fmt.Errorf("key %q: version slot %d/%d (commit ts %d) not live for the key",
					k, location(v.Loc).class(), location(v.Loc).slot(), v.CommitTS)
			}
		}
	}
	return nil
}
