package cluster

import (
	"kvell/internal/core"
	"kvell/internal/env"
	"kvell/internal/fault"
	"kvell/internal/kv"
	"kvell/internal/net"
	"kvell/internal/sim"
	"kvell/internal/trace"
)

// Cluster is the assembled testbed (see Build): the sim, fabric and placement,
// every machine's env, store, replicator and replicas, the armed injector,
// and a registry mapping each store identity (its initial leader machine,
// the "home") to the Node currently serving it. Failover swaps a registry
// entry to the promoted follower's node; clients always route through the
// registry, so re-routing is one pointer swap.
type Cluster struct {
	S     *sim.Sim
	Net   *net.Network
	Place *Placement

	// Envs holds one env per server machine and, last, the client machine's.
	Envs []*sim.Env
	// Stores, Repls (nil entries at RF=1) and Replicas are indexed by home.
	// Promote replaces the dead machine's store with the promoted one.
	Stores   []*core.Store
	Repls    []*Replicator
	Replicas [][]*Replica
	// Inj is the armed machine-kill injector (nil unless Spec.Kill).
	Inj *fault.Injector

	nodes []*Node       // indexed by home machine
	cfgs  []core.Config // each store's config, for promotion
	seed  int64
}

// NodeFor returns the node currently serving key's slot.
func (cl *Cluster) NodeFor(key []byte) *Node {
	return cl.nodes[cl.Place.Route(cl.Place.SlotOf(key))]
}

// FailMachine records machine m's death cluster-wide: bump the routing
// epoch, stop m's node, and drop m as a follower from every surviving
// leader's replicator so their barriers stop waiting for its acks. The
// rest of Promote brings up a replica of m's store in its place.
func (cl *Cluster) FailMachine(m int) {
	cl.Place.Fail(m)
	for _, n := range cl.nodes {
		if n == nil {
			continue
		}
		if n.host == m {
			n.stopped = true
		}
		if n.repl != nil {
			n.repl.DropFollower(m)
		}
	}
}

// ReqMsg is one client operation in flight across the network. Messages are
// client-owned and reusable: Send stamps the routing fields, the serving
// node embeds its kv.Request, and Done runs back on the client machine when
// the reply arrives. If the serving machine dies first, Done never runs —
// the client's failover sweep reclaims the slot.
type ReqMsg struct {
	Op    kv.OpType
	Key   []byte
	Value []byte
	// TS, TS2, Aux and Del mirror kv.Request's transaction fields (snapshot /
	// start timestamp, commit / skip timestamp, primary key, delete intent).
	TS    uint64
	TS2   uint64
	Aux   []byte
	Del   bool
	Trace *trace.Ctx
	// Done receives the reply on the client machine (scheduler context:
	// short, non-blocking, may take locks with a nil ctx like any
	// completion callback).
	Done func(res kv.Result)

	// Node and Epoch are stamped by Send: where the message went and under
	// which routing epoch (the failover sweep keys off them).
	Node  *Node
	Epoch int

	cl *Cluster
	// client is the sending machine.
	client int
	// req is the server-side request, embedded so the serve path does not
	// allocate; its Done is wired to serverDone once.
	req kv.Request
	// respValue carries the reply value across the network hop (reused).
	respValue []byte
	res       kv.Result
	// deliver hands the message to Node on arrival; bound once, so a send
	// builds no closure.
	deliver func()
}

// NewReqMsg returns a reusable request message for cluster cl.
func NewReqMsg(cl *Cluster) *ReqMsg {
	m := &ReqMsg{cl: cl}
	m.req.Done = m.serverDone
	m.deliver = func() { m.Node.enqueue(m) }
	return m
}

// Send routes m to the node owning m.Key and transmits it from client
// machine client. Point operations only (the cluster model has no
// cross-machine scan path).
func (cl *Cluster) Send(c env.Ctx, client int, m *ReqMsg) {
	n := cl.NodeFor(m.Key)
	m.Node = n
	m.Epoch = cl.Place.Epoch()
	m.client = client
	size := ReqOverhead + len(m.Key) + len(m.Value) + len(m.Aux)
	cl.Net.Send(client, n.host, size, m.Trace, m.deliver)
}

// serverDone is the embedded request's completion: it runs on the serving
// machine when the store acknowledges the operation (for writes, locally
// durable). Writes on a replicated node then wait at the replication
// barrier; everything else replies immediately.
func (m *ReqMsg) serverDone(res kv.Result) {
	m.respValue = append(m.respValue[:0], res.Value...)
	m.res = kv.Result{Found: res.Found, ScanN: res.ScanN, Txn: res.Txn, TxnTS: res.TxnTS}
	n := m.Node
	if n.repl != nil && !m.Op.ReadOnly() {
		n.repl.Barrier(m, n)
		return
	}
	n.reply(m)
}

// Node serves one store identity on one machine: a serve thread drains the
// inbox and submits requests to the local store; replies travel back over
// the network to the issuing client.
type Node struct {
	cl   *Cluster
	env  *sim.Env
	home int // store identity (initial leader machine)
	host int // machine this node runs on
	st   *core.Store
	repl *Replicator // nil for unreplicated (RF=1) and promoted nodes

	inbox   env.Queue
	stopped bool
	// replies recycles the reply records delivered back to clients.
	replies []*replyRec

	// Reqs counts operations served.
	Reqs int64
}

// NewNode returns a node serving st (store identity home) on e's machine.
// repl may be nil.
func NewNode(cl *Cluster, e *sim.Env, home int, st *core.Store, repl *Replicator) *Node {
	return &Node{cl: cl, env: e, home: home, host: e.Machine, st: st,
		repl: repl, inbox: e.NewQueue()}
}

// Host returns the machine the node runs on.
func (n *Node) Host() int { return n.host }

// Start launches the serve thread.
func (n *Node) Start() {
	n.env.Go("cluster-serve", n.serve)
}

// enqueue accepts a delivered request (network callback, scheduler context).
func (n *Node) enqueue(m *ReqMsg) {
	if n.stopped {
		return
	}
	n.inbox.Push(nil, m)
}

func (n *Node) serve(c env.Ctx) {
	buf := make([]any, 64)
	for {
		batch := n.inbox.PopWait(c, buf)
		if batch == nil {
			return
		}
		for _, v := range batch {
			m := v.(*ReqMsg)
			n.Reqs++
			r := &m.req
			r.Op, r.Key, r.Value = m.Op, m.Key, m.Value
			r.TS, r.TS2, r.Aux, r.Del = m.TS, m.TS2, m.Aux, m.Del
			r.ScanCount = 0
			r.Start = c.Now()
			r.Trace = m.Trace
			n.st.Submit(c, r)
		}
	}
}

// reply sends m's result back to the issuing client (dropped if the client
// machine — or this machine, post-mortem — is dead). The result and the
// callback are captured at send time, so a reply that lands after the client
// swept m still delivers what was sent.
func (n *Node) reply(m *ReqMsg) {
	rr := n.newReply()
	rr.res = m.res
	if len(m.respValue) > 0 {
		rr.res.Value = m.respValue
	}
	rr.done = m.Done
	size := ReplyOverhead + len(m.respValue)
	n.cl.Net.Send(n.host, m.client, size, m.Trace, rr.deliver)
}

// replyRec is one reply in flight to a client. The node recycles it when it
// is delivered; one whose send was dropped is left to the garbage collector.
type replyRec struct {
	n       *Node
	res     kv.Result
	done    func(kv.Result)
	deliver func() // bound once, to arrive
}

func (n *Node) newReply() *replyRec {
	if k := len(n.replies); k > 0 {
		rr := n.replies[k-1]
		n.replies = n.replies[:k-1]
		return rr
	}
	rr := &replyRec{n: n}
	rr.deliver = rr.arrive
	return rr
}

// arrive runs on the client machine (scheduler context).
func (rr *replyRec) arrive() {
	done, res := rr.done, rr.res
	rr.done, rr.res = nil, kv.Result{}
	rr.n.replies = append(rr.n.replies, rr)
	done(res)
}
