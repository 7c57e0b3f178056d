package kv

import "kvell/internal/env"

// Library is the direct-call surface of a library-model engine (the LSM and
// tree baselines): every operation runs to completion on the calling thread.
// GetInto and ScanInto are Get and Scan with caller-owned scratch — the value
// is backed by *vdst via CopyValue, the items by dst via AppendItem.
type Library interface {
	GetInto(c env.Ctx, key []byte, vdst *[]byte) ([]byte, bool)
	Put(c env.Ctx, key, value []byte)
	Delete(c env.Ctx, key []byte)
	ScanInto(c env.Ctx, start []byte, count int, dst []Item) []Item
}

// SubmitLibrary is Engine.Submit for a library-model engine: it runs r on
// the calling thread, blocking it — the threading model the paper measures
// for RocksDB, WiredTiger and TokuMX under YCSB — and calls r.Done before
// returning. Reads use r's pooled scratch (ValueBuf, ScanBuf).
func SubmitLibrary(c env.Ctx, e Library, r *Request) {
	switch r.Op {
	case OpGet:
		v, ok := e.GetInto(c, r.Key, &r.ValueBuf)
		r.Done(Result{Found: ok, Value: v})
	case OpUpdate:
		e.Put(c, r.Key, r.Value)
		r.Done(Result{Found: true})
	case OpDelete:
		e.Delete(c, r.Key)
		r.Done(Result{Found: true})
	case OpRMW:
		_, _ = e.GetInto(c, r.Key, &r.ValueBuf)
		e.Put(c, r.Key, r.Value)
		r.Done(Result{Found: true})
	case OpScan:
		items := e.ScanInto(c, r.Key, r.ScanCount, r.ScanBuf[:0])
		r.ScanBuf = items
		r.Done(Result{Found: len(items) > 0, ScanN: len(items)})
	}
}

// CopyValue returns a copy of src for a read result. With caller-owned
// scratch (vdst non-nil) the copy is backed by *vdst, which is grown when it
// is too small, and is only valid until the caller reuses the scratch. The
// result is never nil, so a present-but-empty value stays distinguishable
// from "not found".
func CopyValue(src []byte, vdst *[]byte) []byte {
	n := len(src)
	if vdst != nil && *vdst != nil && cap(*vdst) >= n {
		val := (*vdst)[:n]
		copy(val, src)
		return val
	}
	val := make([]byte, n)
	copy(val, src)
	if vdst != nil {
		*vdst = val
	}
	return val
}
