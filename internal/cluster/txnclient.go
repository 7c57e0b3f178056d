package cluster

import (
	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/sim"
)

// tsMsgSize is the wire size of a timestamp fetch or grant (header + one
// 64-bit timestamp).
const tsMsgSize = 24

// OracleHome is the store identity whose machine runs the cluster's
// timestamp oracle. It is fixed at machine 0: the oracle is tiny,
// single-writer state, and pinning it sidesteps oracle failover (the
// experiments never kill machine 0 — see DESIGN.md §14).
const OracleHome = 0

// FetchTS asks the oracle machine for a timestamp over the network. With
// consume set it issues a fresh, strictly increasing timestamp; otherwise it
// returns the current floor (a consume-free snapshot timestamp). done runs
// back on the client machine in scheduler context.
func (cl *Cluster) FetchTS(c env.Ctx, client int, consume bool, done func(ts uint64)) {
	n := cl.nodes[OracleHome]
	cl.Net.Send(client, n.host, tsMsgSize, nil, func() {
		var ts uint64
		if consume {
			ts = n.st.Oracle().Next(cl.S.Now())
		} else {
			ts = n.st.Oracle().Last()
		}
		cl.Net.Send(n.host, client, tsMsgSize, nil, func() { done(ts) })
	})
}

// TxnClient adapts the cluster's message transport to the blocking client
// interface internal/txn expects: every call sends one request (or timestamp
// fetch) and parks the calling proc until the reply lands. One TxnClient
// serves one proc.
//
// Calls are message-guarded for failover: SweepIf fails the call in flight
// and swaps in a fresh message, so a straggler reply from a machine that
// died mid-call lands on a message that is no longer tc.msg and is dropped,
// never mistaken for the reply to a later call.
type TxnClient struct {
	Cl      *Cluster
	Machine int // client machine this proc runs on

	reply env.Latch // counts out the call or timestamp fetch in flight
	msg   *ReqMsg
	busy  bool // a store call is in flight (timestamp fetches never set it)
	res   kv.Result
	ts    uint64
	tsFn  func(ts uint64) // gotTS, bound once

	// Swept counts in-flight calls failed by the failover sweep.
	Swept int64
}

// NewTxnClient returns a transaction client sending from machine on e.
func NewTxnClient(cl *Cluster, e *sim.Env, machine int) *TxnClient {
	tc := &TxnClient{Cl: cl, Machine: machine, reply: env.NewLatch(e)}
	tc.msg = tc.newMsg()
	tc.tsFn = tc.gotTS
	return tc
}

// newMsg returns a message whose Done, bound once, completes the call in
// flight only while the message is still tc.msg (scheduler context).
func (tc *TxnClient) newMsg() *ReqMsg {
	m := NewReqMsg(tc.Cl)
	m.Done = func(res kv.Result) {
		if m != tc.msg {
			return // a straggler of a swept call
		}
		tc.res, tc.busy = res, false
		tc.reply.Done(nil)
	}
	return m
}

// call sends the prepared message and blocks until its reply (or a sweep).
func (tc *TxnClient) call(c env.Ctx) kv.Result {
	tc.busy = true
	tc.reply.Add(c, 1)
	tc.Cl.Send(c, tc.Machine, tc.msg)
	tc.reply.Wait(c)
	return tc.res
}

// SweepIf fails the in-flight call, if any, that was sent to dead — a machine
// whose reply will never arrive. The call completes with a TxnRetry verdict:
// every transactional path treats TxnRetry as "back off and re-send", and the
// re-send routes under the post-failover epoch, so a swept commit can never
// damage a transaction that in fact committed before the crash. Returns
// whether a call was swept. Call after FailMachine + promotion re-routing.
func (tc *TxnClient) SweepIf(c env.Ctx, dead int) bool {
	if !tc.busy || tc.msg.Node == nil || tc.msg.Node.Host() != dead {
		return false
	}
	tc.Swept++
	tc.msg = tc.newMsg()
	tc.res, tc.busy = kv.Result{Txn: kv.TxnRetry}, false
	tc.reply.Done(c)
	return true
}

func (tc *TxnClient) op(c env.Ctx, op kv.OpType, key, value, aux []byte, ts, ts2 uint64, del bool) kv.Result {
	m := tc.msg
	m.Op, m.Key, m.Value, m.Aux = op, key, value, aux
	m.TS, m.TS2, m.Del = ts, ts2, del
	return tc.call(c)
}

// NextTS fetches a fresh timestamp from the oracle machine.
func (tc *TxnClient) NextTS(c env.Ctx) uint64 { return tc.fetchTS(c, true) }

// SnapshotTS fetches a consume-free snapshot timestamp from the oracle
// machine.
func (tc *TxnClient) SnapshotTS(c env.Ctx) uint64 { return tc.fetchTS(c, false) }

func (tc *TxnClient) fetchTS(c env.Ctx, consume bool) uint64 {
	tc.reply.Add(c, 1)
	tc.Cl.FetchTS(c, tc.Machine, consume, tc.tsFn)
	tc.reply.Wait(c)
	return tc.ts
}

// gotTS receives a timestamp grant (scheduler context).
func (tc *TxnClient) gotTS(ts uint64) {
	tc.ts = ts
	tc.reply.Done(nil)
}

// TxnGet performs a snapshot read at ts (skip names a pending transaction
// whose lock the read may pass).
func (tc *TxnClient) TxnGet(c env.Ctx, key []byte, ts, skip uint64) kv.Result {
	return tc.op(c, kv.OpTxnGet, key, nil, nil, ts, skip, false)
}

// Prewrite installs a locked intent on key for the transaction at startTS.
func (tc *TxnClient) Prewrite(c env.Ctx, key, value, primary []byte, startTS uint64, del bool) kv.Result {
	return tc.op(c, kv.OpTxnPrewrite, key, value, primary, startTS, 0, del)
}

// Commit flips key's intent at startTS to a committed version at commitTS.
func (tc *TxnClient) Commit(c env.Ctx, key []byte, startTS, commitTS uint64) kv.Result {
	return tc.op(c, kv.OpTxnCommit, key, nil, nil, startTS, commitTS, false)
}

// Resolve queries the transaction whose primary lock is on primary.
func (tc *TxnClient) Resolve(c env.Ctx, primary []byte, startTS, readTS uint64) kv.Result {
	return tc.op(c, kv.OpTxnResolve, primary, nil, nil, startTS, readTS, false)
}

// Rollback removes key's intent at startTS.
func (tc *TxnClient) Rollback(c env.Ctx, key []byte, startTS uint64) kv.Result {
	return tc.op(c, kv.OpTxnRollback, key, nil, nil, startTS, 0, false)
}
