package txn

import (
	"kvell/internal/env"
	"kvell/internal/kv"
)

// Store is what a LocalClient speaks to: a single-node *core.Store (whose
// oracle is store-local) or a *cluster.Client (which fetches timestamps from
// the cluster's oracle machine). Call runs one request to completion.
type Store interface {
	Call(c env.Ctx, r kv.Request) kv.Result
	NextTS(c env.Ctx) uint64
}

// LocalClient speaks the transaction protocol as blocking calls on St.
type LocalClient struct {
	St Store
}

var _ Client = (*LocalClient)(nil)

func (l *LocalClient) NextTS(c env.Ctx) uint64 { return l.St.NextTS(c) }

func (l *LocalClient) TxnGet(c env.Ctx, key []byte, ts, skip uint64) kv.Result {
	return l.St.Call(c, kv.Request{Op: kv.OpTxnGet, Key: key, TS: ts, TS2: skip})
}

func (l *LocalClient) Prewrite(c env.Ctx, key, value, primary []byte, startTS uint64, del bool) kv.Result {
	return l.St.Call(c, kv.Request{Op: kv.OpTxnPrewrite, Key: key, Value: value, TS: startTS, Aux: primary, Del: del})
}

func (l *LocalClient) Commit(c env.Ctx, key []byte, startTS, commitTS uint64) kv.Result {
	return l.St.Call(c, kv.Request{Op: kv.OpTxnCommit, Key: key, TS: startTS, TS2: commitTS})
}

func (l *LocalClient) Resolve(c env.Ctx, primary []byte, startTS, readTS uint64) kv.Result {
	return l.St.Call(c, kv.Request{Op: kv.OpTxnResolve, Key: primary, TS: startTS, TS2: readTS})
}

func (l *LocalClient) Rollback(c env.Ctx, key []byte, startTS uint64) kv.Result {
	return l.St.Call(c, kv.Request{Op: kv.OpTxnRollback, Key: key, TS: startTS})
}
