package cluster

import (
	"kvell/internal/costs"
	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/sim"
	"kvell/internal/trace"

	"kvell/internal/core"
)

// Wire-format overheads, in bytes. The simulation never marshals anything —
// these just size the simulated messages so the network model charges
// realistic transmit times.
const (
	ReqOverhead     = 64 // client request header (op, key len, routing epoch)
	ReplyOverhead   = 32 // reply header (status, value len)
	PageRecOverhead = 32 // replication page record header (seq, disk, page)
	AckSize         = 16 // follower cumulative ack (seq)
)

// pageRec replicates one slab-page write: the follower writes data at page on
// replica disk disk. The data slice is immutable after construction and
// shared by every follower's copy of the record.
type pageRec struct {
	seq  uint64
	disk int
	page int64
	data []byte
}

// pend is a client write waiting at the replication barrier: its local write
// is durable, but a follower has not yet acknowledged every page shipped
// before it.
type pend struct {
	m   *ReqMsg
	n   *Node
	seq uint64
	t0  env.Time
}

// Replicator is the leader side of one store's replication: it assigns every
// slab-page write a sequence number from one monotone stream, ships it to all
// live followers, and releases client write acknowledgements only when every
// live follower has acknowledged all pages up to the write's barrier —
// KVell's "durable at its final location" guarantee, extended across
// machines. No index is shipped: a follower's disks are the leader's, page
// for page, so promotion rebuilds the index by the same full scan that
// recovers a single machine (§6.6).
type Replicator struct {
	cl        *Cluster
	home      int // leader machine
	active    bool
	seq       uint64
	followers []*followerLink

	// pending is the FIFO of writes at the barrier (FIFO by construction:
	// barriers are captured at local-durable time, and seq only grows).
	pending []pend
	head    int

	// Counters.
	PagesShipped int64
	BytesShipped int64
	Released     int64
}

type followerLink struct {
	machine int
	rep     *Replica
	acked   uint64
	dead    bool
}

// NewReplicator returns an inactive replicator for the store on machine home.
// Wrap the store's disks with WrapDisk, attach followers, then Activate once
// bulk load is done (bulk load is replicated by seeding follower disks from
// leader snapshots instead).
func NewReplicator(cl *Cluster, home int) *Replicator {
	return &Replicator{cl: cl, home: home}
}

// AddFollower registers rep as a follower. Call before Activate.
func (rp *Replicator) AddFollower(rep *Replica) {
	rp.followers = append(rp.followers, &followerLink{machine: rep.host, rep: rep})
	rep.rp = rp
}

// Activate starts shipping. Pages written before activation (bulk load) are
// not shipped.
func (rp *Replicator) Activate() { rp.active = true }

// shipPage ships one page write (called by the replDisk wrapper at Submit,
// before the leader's own disk consumes the buffer).
func (rp *Replicator) shipPage(disk int, page int64, buf []byte) {
	if !rp.active || !rp.anyLive() {
		return
	}
	rp.seq++
	rec := &pageRec{seq: rp.seq, disk: disk, page: page, data: append([]byte(nil), buf...)}
	size := PageRecOverhead + len(rec.data)
	rp.PagesShipped++
	rp.BytesShipped += int64(size)
	for _, f := range rp.followers {
		if f.dead {
			continue
		}
		rep := f.rep
		rp.cl.Net.Send(rp.home, rep.host, size, nil, func() { rep.enqueue(rec) })
	}
}

// Barrier holds m's reply until every live follower has acknowledged all
// pages shipped so far; called by the node at local-durable time (so the
// captured barrier covers every page this write generated). Books the wait
// as CompReplicate on the request's trace.
func (rp *Replicator) Barrier(m *ReqMsg, n *Node) {
	bar := rp.seq
	if bar <= rp.minAcked() {
		n.reply(m)
		return
	}
	rp.pending = append(rp.pending, pend{m: m, n: n, seq: bar, t0: rp.cl.S.Now()})
}

// onAck records follower machine's cumulative ack and releases the pending
// prefix now covered.
func (rp *Replicator) onAck(machine int, seq uint64) {
	for _, f := range rp.followers {
		if f.machine == machine && seq > f.acked {
			f.acked = seq
		}
	}
	rp.release()
}

// DropFollower marks machine's follower dead (machine failed): its acks stop
// counting, so writes blocked only on it release immediately. Without this, a
// surviving leader that replicated to the dead machine would stall forever.
func (rp *Replicator) DropFollower(machine int) {
	for _, f := range rp.followers {
		if f.machine == machine {
			f.dead = true
		}
	}
	rp.release()
}

func (rp *Replicator) anyLive() bool {
	for _, f := range rp.followers {
		if !f.dead {
			return true
		}
	}
	return false
}

func (rp *Replicator) minAcked() uint64 {
	min, live := ^uint64(0), false
	for _, f := range rp.followers {
		if !f.dead {
			live = true
			if f.acked < min {
				min = f.acked
			}
		}
	}
	if !live {
		return ^uint64(0) // no live followers: local durability is all there is
	}
	return min
}

func (rp *Replicator) release() {
	ma := rp.minAcked()
	now := rp.cl.S.Now()
	for rp.head < len(rp.pending) && rp.pending[rp.head].seq <= ma {
		p := rp.pending[rp.head]
		rp.pending[rp.head] = pend{}
		rp.head++
		rp.Released++
		p.m.Trace.Add(trace.CompReplicate, p.t0, now)
		p.n.reply(p.m)
	}
	if rp.head > 64 {
		n := copy(rp.pending, rp.pending[rp.head:])
		for j := n; j < len(rp.pending); j++ {
			rp.pending[j] = pend{}
		}
		rp.pending, rp.head = rp.pending[:n], 0
	}
}

// WrapDisk interposes replication on a leader disk: every write is shipped
// to the followers before the inner disk consumes the buffer. idx is the
// disk's position in the store's disk list, which is also its position in
// each follower's replica-disk list.
func (rp *Replicator) WrapDisk(idx int, inner device.Disk) device.Disk {
	return &replDisk{rp: rp, idx: idx, inner: inner}
}

// replDisk is the replication wrapper. Besides device.Disk it forwards the
// optional interfaces the engine layers probe for: Store (device.StoreOf,
// for bulk load), Dead (aio's dead-device check under fault injection) and
// Busy (aio's idle-channel test).
type replDisk struct {
	rp    *Replicator
	idx   int
	inner device.Disk
}

func (d *replDisk) Submit(r *device.Request) {
	if r.Op == device.Write {
		d.rp.shipPage(d.idx, r.Page, r.Buf)
	}
	d.inner.Submit(r)
}

func (d *replDisk) Counters() device.Counters { return d.inner.Counters() }

// Store makes the wrapper loadable by device.StoreOf, by delegation.
func (d *replDisk) Store() device.Store { return device.StoreOf(d.inner) }

// Dead implements aio.DeadDevice by delegation (false when the inner disk is
// not fault-wrapped).
func (d *replDisk) Dead() bool {
	if dd, ok := d.inner.(interface{ Dead() bool }); ok {
		return dd.Dead()
	}
	return false
}

// Busy implements aio.BusyDevice by delegation (false when the inner disk
// cannot tell).
func (d *replDisk) Busy() bool {
	if bd, ok := d.inner.(interface{ Busy() bool }); ok {
		return bd.Busy()
	}
	return false
}

// Replica is the follower side: it writes the leader's page stream to its own
// replica disks and acknowledges the contiguous frontier of pages durable
// there back to the leader. It keeps no index: on leader death a Replica can
// be promoted, and since its disks hold a prefix of the leader's disk state
// closed under the ack barrier, the ordinary §6.6 full-scan recovery rebuilds
// a store containing every acknowledged write.
type Replica struct {
	cl    *Cluster
	env   *sim.Env
	home  int // leader machine this replicates
	host  int // machine this replica runs on
	rp    *Replicator
	disks []*device.SimDisk
	q     env.Queue
	// applies recycles the page writes in flight to the replica disks.
	applies []*pageApply

	frontier uint64
	doneSet  map[uint64]struct{}
	lastAck  uint64
	closed   bool

	mu       env.Mutex
	cond     env.Cond
	exited   bool
	promoted bool

	// Counters.
	Applied   int64
	LateDrops int64
}

// NewReplica returns a follower for the store on machine home, running on
// e's machine over disks (one per leader disk, same order, seeded with the
// leader's post-bulk-load snapshots by the caller).
func NewReplica(cl *Cluster, e *sim.Env, home int, disks []*device.SimDisk) *Replica {
	rep := &Replica{
		cl: cl, env: e, home: home, host: e.Machine, disks: disks,
		q:       e.NewQueue(),
		doneSet: make(map[uint64]struct{}),
	}
	rep.mu = e.NewMutex()
	rep.cond = e.NewCond(rep.mu)
	return rep
}

// Host returns the machine the replica runs on.
func (rep *Replica) Host() int { return rep.host }

// Frontier returns the highest sequence number up to which every page is
// durable on the replica disks.
func (rep *Replica) Frontier() uint64 { return rep.frontier }

// Start launches the apply thread on the replica's machine.
func (rep *Replica) Start() {
	rep.env.Go("replica-apply", rep.run)
}

// enqueue accepts a delivered page (network callback, scheduler context).
func (rep *Replica) enqueue(rec *pageRec) {
	if rep.closed {
		rep.LateDrops++
		return
	}
	rep.q.Push(nil, rec)
}

func (rep *Replica) run(c env.Ctx) {
	buf := make([]any, 64)
	for {
		batch := rep.q.PopWait(c, buf)
		if batch == nil {
			rep.mu.Lock(c)
			rep.exited = true
			rep.cond.Broadcast(c)
			rep.mu.Unlock(c)
			return
		}
		for _, v := range batch {
			rec := v.(*pageRec)
			c.CPU(costs.Callback)
			pa := rep.newApply()
			pa.Page, pa.Buf, pa.seq = rec.page, rec.data, rec.seq
			rep.disks[rec.disk].Submit(&pa.Request)
		}
	}
}

// pageApply is one page write in flight to a replica disk. The replica
// recycles them, so Done is bound once, when one is first made.
type pageApply struct {
	device.Request
	rep *Replica
	seq uint64
}

func (rep *Replica) newApply() *pageApply {
	if n := len(rep.applies); n > 0 {
		pa := rep.applies[n-1]
		rep.applies = rep.applies[:n-1]
		return pa
	}
	pa := &pageApply{Request: device.Request{Op: device.Write}, rep: rep}
	pa.Done = pa.done
	return pa
}

// done runs when the page is durable on the replica disk (scheduler context).
func (pa *pageApply) done() {
	rep, seq := pa.rep, pa.seq
	pa.Buf = nil // the shared record data, not the replica's to keep
	rep.applies = append(rep.applies, pa)
	rep.complete(seq)
}

// complete marks seq applied and advances the contiguous frontier; every
// advance sends a cumulative ack to the leader (dropped by the network if
// the leader's machine is dead).
func (rep *Replica) complete(seq uint64) {
	rep.Applied++
	rep.doneSet[seq] = struct{}{}
	adv := false
	for {
		if _, ok := rep.doneSet[rep.frontier+1]; !ok {
			break
		}
		delete(rep.doneSet, rep.frontier+1)
		rep.frontier++
		adv = true
	}
	if adv && rep.frontier > rep.lastAck {
		rep.lastAck = rep.frontier
		ack := rep.frontier
		rp := rep.rp
		rep.cl.Net.Send(rep.host, rep.home, AckSize, nil, func() { rp.onAck(rep.host, ack) })
	}
}

// Promote turns the replica into a live store after its leader's machine
// died: stop accepting pages, drain the apply queue, wait for replica disk
// writes to settle, then rebuild a store over the replica disks with the
// ordinary full-scan recovery path (§6.6 — the replica ships no manifest,
// exactly like the single-machine store). cfg must describe the same
// geometry as the dead leader's store; its Disks are replaced with the
// replica's. The caller drives re-routing and client recovery.
func (rep *Replica) Promote(c env.Ctx, cfg core.Config) (*core.Store, error) {
	rep.closed = true
	rep.q.Close(c)
	rep.mu.Lock(c)
	for !rep.exited {
		rep.cond.Wait(c)
	}
	rep.mu.Unlock(c)
	for {
		busy := false
		for _, d := range rep.disks {
			if d.Inflight() > 0 {
				busy = true
			}
		}
		if !busy {
			break
		}
		c.Sleep(10 * env.Microsecond)
	}
	cfg.Disks = make([]device.Disk, len(rep.disks))
	for i, d := range rep.disks {
		cfg.Disks[i] = d
	}
	st, err := core.Open(rep.env, cfg)
	if err != nil {
		return nil, err
	}
	if err := st.Recover(c); err != nil {
		return nil, err
	}
	rep.promoted = true
	return st, nil
}
