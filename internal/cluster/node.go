package cluster

import (
	"kvell/internal/core"
	"kvell/internal/env"
	"kvell/internal/fault"
	"kvell/internal/kv"
	"kvell/internal/net"
	"kvell/internal/sim"
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
	// clients are the client machine's Clients, in creation order (Sweep).
	clients []*Client
}

// NodeFor returns the node currently serving key's slot.
func (cl *Cluster) NodeFor(key []byte) *Node {
	return cl.nodes[cl.Place.Leader(cl.Place.SlotOf(key))]
}

// FailMachine records machine m's death cluster-wide: stop m's node, and drop
// m as a follower from every surviving leader's replicator so their barriers
// stop waiting for its acks. The rest of Promote brings up a replica of m's
// store in its place.
func (cl *Cluster) FailMachine(m int) {
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

// serverDone is the travelling request's completion: it runs on the serving
// machine when the store acknowledges the operation (for writes, locally
// durable). Writes on a replicated node then wait at the replication
// barrier; everything else replies immediately.
func (m *reqRec) serverDone(res kv.Result) {
	m.respValue = append(m.respValue[:0], res.Value...)
	m.res = kv.Result{Found: res.Found, ScanN: res.ScanN, Txn: res.Txn, TxnTS: res.TxnTS}
	n := m.node
	if n.repl != nil && !m.req.Op.ReadOnly() {
		n.repl.barrier(m)
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
	host int // machine this node runs on
	st   *core.Store
	repl *Replicator // nil for unreplicated (RF=1) and promoted nodes

	inbox   env.Queue
	stopped bool
}

// NewNode returns a node serving st on e's machine. repl may be nil.
func NewNode(cl *Cluster, e *sim.Env, st *core.Store, repl *Replicator) *Node {
	return &Node{cl: cl, env: e, host: e.Machine, st: st,
		repl: repl, inbox: e.NewQueue()}
}

// Host returns the machine the node runs on.
func (n *Node) Host() int { return n.host }

// Start launches the serve thread.
func (n *Node) Start() {
	n.env.Go("cluster-serve", n.serve)
}

// enqueue accepts a delivered request (network callback, scheduler context).
func (n *Node) enqueue(m *reqRec) {
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
			n.st.Submit(c, &v.(*reqRec).req)
		}
	}
}

// reply sends m's result back to the issuing client (dropped if the client
// machine — or this machine, post-mortem — is dead).
func (n *Node) reply(m *reqRec) {
	size := ReplyOverhead + len(m.respValue)
	n.cl.Net.Send(n.host, m.k.machine, size, m.req.Trace, m.back)
}
