package cluster

import (
	"kvell/internal/env"
	"kvell/internal/kv"
)

// tsMsgSize is the wire size of a timestamp fetch or grant (header + one
// 64-bit timestamp).
const tsMsgSize = 24

// OracleHome is the store identity whose machine runs the cluster's
// timestamp oracle. It is fixed at machine 0: the oracle is tiny,
// single-writer state, and pinning it sidesteps oracle failover (the
// experiments never kill machine 0 — see DESIGN.md §14).
const OracleHome = 0

// Client is one client proc's connection to the cluster from the client
// machine. Submit makes the cluster a target like any engine: it routes a
// request to the node serving its key and completes it through r.Done when
// the reply lands. Call, NextTS and SnapshotTS block the proc until their
// reply; one Client serves one proc.
//
// Its one straggler rule: Cluster.Sweep completes every request in flight to
// a dead machine once, with TxnRetry, and abandons the record that carried
// it, so a reply that lands later finds no request and is dropped.
type Client struct {
	cl      *Cluster
	machine int
	// recs chains the records not abandoned, newest first (through link);
	// free chains the idle ones among them (through next).
	recs, free *reqRec
	// blocking is made at the first blocking call: a client driven through
	// Submit alone never needs it.
	blocking *blocking
}

// blocking is a Client's one blocking request or timestamp fetch in flight,
// counted out by wait.
type blocking struct {
	wait    env.Latch
	req     kv.Request // Call's request; Done is bound once
	res     kv.Result
	ts      uint64
	consume bool
	// ask and grant are the timestamp fetch's two hops, bound once.
	ask, grant func()
}

// NewClient returns a client on the client machine. Sweep visits clients in
// creation order.
func (cl *Cluster) NewClient() *Client {
	k := &Client{cl: cl, machine: len(cl.Envs) - 1}
	cl.clients = append(cl.clients, k)
	return k
}

func (k *Client) block() *blocking {
	if b := k.blocking; b != nil {
		return b
	}
	b := &blocking{wait: env.NewLatch(k.cl.Envs[k.machine])}
	b.req.Done = func(res kv.Result) {
		b.res = res
		b.wait.Done(nil)
	}
	b.ask = func() { k.askTS(b) }
	b.grant = func() { b.wait.Done(nil) }
	k.blocking = b
	return b
}

// reqRec carries one request of a Client across the network. r is the
// caller's request, completed when the reply lands; req is what travels, the
// request the serving node submits to its store (its Done is serverDone,
// bound once). Records are pooled by their client; Sweep detaches one from
// its request (r = nil) and abandons it.
type reqRec struct {
	k          *Client
	link, next *reqRec // the client's recs and free chains
	r          *kv.Request
	node       *Node // where the request went
	req        kv.Request
	// respValue carries the reply value across the network hop (reused).
	respValue []byte
	res       kv.Result
	// deliver hands the record to node on arrival, back to the client on the
	// reply's; bound once, so a send builds no closure.
	deliver, back func()
}

func (k *Client) record() *reqRec {
	if m := k.free; m != nil {
		k.free = m.next
		return m
	}
	m := &reqRec{k: k, link: k.recs}
	m.req.Done = m.serverDone
	m.deliver = func() { m.node.enqueue(m) }
	m.back = m.arrive
	k.recs = m
	return m
}

// Submit sends r to the node serving r.Key: point operations only (the
// cluster model has no cross-machine scan path). r.Done runs on the client
// machine in scheduler context, once: with the store's result, or with Txn
// TxnRetry if Sweep gave up on the request. Until then the request's key and
// value buffers must stay untouched.
func (k *Client) Submit(c env.Ctx, r *kv.Request) {
	m := k.record()
	m.r, m.node = r, k.cl.NodeFor(r.Key)
	q := &m.req
	q.Op, q.Key, q.Value, q.Trace = r.Op, r.Key, r.Value, r.Trace
	q.TS, q.TS2, q.Aux, q.Del = r.TS, r.TS2, r.Aux, r.Del
	size := ReqOverhead + len(r.Key) + len(r.Value) + len(r.Aux)
	k.cl.Net.Send(k.machine, m.node.host, size, r.Trace, m.deliver)
}

// arrive takes the reply on the client machine (scheduler context). A
// detached record's request was already completed by Sweep: its reply is
// dropped.
func (m *reqRec) arrive() {
	r := m.r
	if r == nil {
		return
	}
	res := m.res
	if len(m.respValue) > 0 {
		res.Value = m.respValue
	}
	m.r = nil
	m.next, m.k.free = m.k.free, m
	r.Done(res)
}

// Call runs r to completion, blocking the calling proc. Result.Value is valid
// until the client's next request.
func (k *Client) Call(c env.Ctx, r kv.Request) kv.Result {
	b := k.block()
	r.Done = b.req.Done
	b.req = r
	b.wait.Add(c, 1)
	k.Submit(c, &b.req)
	b.wait.Wait(c)
	return b.res
}

// NextTS fetches a fresh, strictly increasing timestamp from the oracle
// machine.
func (k *Client) NextTS(c env.Ctx) uint64 { return k.fetchTS(c, true) }

// SnapshotTS fetches the oracle's current floor, a consume-free snapshot
// timestamp.
func (k *Client) SnapshotTS(c env.Ctx) uint64 { return k.fetchTS(c, false) }

func (k *Client) fetchTS(c env.Ctx, consume bool) uint64 {
	b := k.block()
	b.consume = consume
	b.wait.Add(c, 1)
	k.cl.Net.Send(k.machine, k.cl.nodes[OracleHome].host, tsMsgSize, nil, b.ask)
	b.wait.Wait(c)
	return b.ts
}

// askTS serves b's timestamp fetch on the oracle machine (scheduler
// context).
func (k *Client) askTS(b *blocking) {
	n := k.cl.nodes[OracleHome]
	if b.consume {
		b.ts = n.st.Oracle().Next(k.cl.S.Now())
	} else {
		b.ts = n.st.Oracle().Last()
	}
	k.cl.Net.Send(n.host, k.machine, tsMsgSize, nil, b.grant)
}

// Sweep gives up on every request in flight to machine dead, whose replies
// will never come: visiting the clients in creation order, it detaches each
// such record from its request, abandons the record, and completes the
// request once with Txn TxnRetry — its outcome is unknown. It returns how
// many requests it failed. Call it after Promote, so that a retry reaches the
// promoted store.
func (cl *Cluster) Sweep(c env.Ctx, dead int) int {
	swept := 0
	for _, k := range cl.clients {
		for p := &k.recs; *p != nil; {
			m := *p
			if m.r == nil || m.node.host != dead {
				p = &m.link
				continue
			}
			*p = m.link
			r := m.r
			m.r = nil
			swept++
			r.Done(kv.Result{Txn: kv.TxnRetry})
		}
	}
	return swept
}
