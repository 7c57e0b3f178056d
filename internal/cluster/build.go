package cluster

import (
	"math/rand"
	"slices"

	"kvell/internal/core"
	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/fault"
	"kvell/internal/kv"
	"kvell/internal/net"
	"kvell/internal/sim"
)

// Spec describes the cluster Build assembles: Machines server machines, each
// one sharded KVell store on NDisks Amazon-NVMe disks, plus one client
// machine (index Machines), all on a 10GbE fabric. Every field is required.
type Spec struct {
	Machines int
	RF       int
	Seed     int64
	Slots    int // placement hash slots
	Cores    int // CPU cores per server machine
	NDisks   int // disks per server machine

	// Tweak finishes every store's config (workers, cache, MVCC). Disks and
	// NoInPlaceUpdates are already set and must stay.
	Tweak func(cfg *core.Config)

	// Records keys kv.Key(0..Records-1) are bulk-loaded, each into its
	// slot's leader. Key i's initial value is ValueLen bytes, written by
	// FillValue into a zeroed buffer.
	Records   int64
	ValueLen  int
	FillValue func(buf []byte, i int64)

	// Kill arms a power loss of machine KillMachine at KillAt that also
	// halts its event domain.
	Kill        bool
	KillMachine int
	KillAt      env.Time
}

// Build assembles and starts the whole cluster: sim, fabric, placement,
// machine envs, fault- and replication-wrapped disks, bulk-loaded stores,
// follower replicas seeded from the leaders' post-load images, serving
// nodes, and the armed injector. Under RF>1 the disk wrapper is all of
// replication: a leader's store is configured exactly like an unreplicated
// one but for NoInPlaceUpdates. The order in which it creates disks, stores
// and procs is part of the reproducible schedule (DESIGN.md "Testbeds"):
// every cluster golden digest pins it.
func Build(spec Spec) *Cluster {
	M := spec.Machines
	s := sim.New(spec.Seed + 1)
	nw := net.New(s, M+1, net.TenGbE())
	place := NewPlacement(spec.Slots, M, spec.RF)
	cl := &Cluster{
		S: s, Net: nw, Place: place,
		Envs:     make([]*sim.Env, M+1),
		Stores:   make([]*core.Store, M),
		Repls:    make([]*Replicator, M),
		Replicas: make([][]*Replica, M),
		nodes:    make([]*Node, M),
		cfgs:     make([]core.Config, M),
		seed:     spec.Seed,
	}
	for m := 0; m < M; m++ {
		cl.Envs[m] = sim.NewMachineEnv(s, m, spec.Cores)
	}
	cl.Envs[M] = sim.NewMachineEnv(s, M, max(2, M))

	// Servers: disks (fault-wrapped on the kill target, replication-wrapped
	// under RF>1), then the store.
	prof := device.AmazonNVMe()
	images := make([][]*device.MemStore, M)
	for m := 0; m < M; m++ {
		var rp *Replicator
		if spec.RF > 1 {
			rp = NewReplicator(cl, m)
			cl.Repls[m] = rp
		}
		disks := make([]device.Disk, spec.NDisks)
		for i := range disks {
			ms := device.NewMemStore()
			images[m] = append(images[m], ms)
			sd := device.NewSimDisk(s, prof, ms)
			sd.Machine = m
			sd.ID = m*spec.NDisks + i
			var d device.Disk = sd
			if spec.Kill && m == spec.KillMachine {
				if cl.Inj == nil {
					cl.Inj = fault.NewInjector(s, fault.Config{
						Seed:        spec.Seed*1_000_003 + int64(m+1),
						AtTime:      spec.KillAt,
						HaltMachine: true,
						Machine:     m,
					})
				}
				d = cl.Inj.Wrap(sd)
			}
			if rp != nil {
				d = rp.WrapDisk(i, d)
			}
			disks[i] = d
		}
		cfg := core.DefaultConfig(disks...)
		// A replicated leader never overwrites a live page in place: every
		// update goes to a fresh slot (§5.6 variant), so replicated page
		// records never race an in-place rewrite of the same replica page
		// and recovery's newest-timestamp arbitration resolves duplicates.
		cfg.NoInPlaceUpdates = spec.RF > 1
		spec.Tweak(&cfg)
		st, err := core.Open(cl.Envs[m], cfg)
		if err != nil {
			panic(err)
		}
		cl.Stores[m], cl.cfgs[m] = st, cfg
	}

	// Bulk load: each store gets exactly its slots' keys, in key order. The
	// stores load one at a time from one item buffer sized for the largest
	// share: BulkLoad keeps no item bytes (the index copies keys, the slab
	// pages both).
	leader := make([]int32, spec.Records)
	count := make([]int, M)
	key := make([]byte, kv.KeyLen)
	for i := range leader {
		kv.FillKey(key, int64(i))
		m := place.Leader(place.SlotOf(key))
		leader[i] = int32(m)
		count[m]++
	}
	stride := kv.KeyLen + spec.ValueLen
	items := make([]kv.Item, 0, slices.Max(count))
	data := make([]byte, cap(items)*stride)
	for m, st := range cl.Stores {
		items = items[:0]
		for i, lm := range leader {
			if int(lm) != m {
				continue
			}
			lo, hi := len(items)*stride, (len(items)+1)*stride
			b := data[lo:hi:hi]
			k, v := b[:kv.KeyLen:kv.KeyLen], b[kv.KeyLen:]
			kv.FillKey(k, int64(i))
			clear(v)
			spec.FillValue(v, int64(i))
			items = append(items, kv.Item{Key: k, Value: v})
		}
		if err := st.BulkLoad(items); err != nil {
			panic(err)
		}
	}

	// Followers: replica disks seeded from the leader's post-bulk-load
	// images (bulk load bypasses the request path, so it is replicated by
	// snapshot, not by shipping). A snapshot copies only the page map and
	// shares the leader's page arrays copy-on-write: the first write to a
	// shared page, by the leader or a follower, moves it to an array of its
	// own.
	if spec.RF > 1 {
		for m := 0; m < M; m++ {
			for _, f := range place.Followers(m) {
				rdisks := make([]*device.SimDisk, spec.NDisks)
				for i, ms := range images[m] {
					rd := device.NewSimDisk(s, prof, ms.Snapshot())
					rd.Machine = f
					rd.ID = 1000 + m*spec.NDisks + i
					rdisks[i] = rd
				}
				rep := NewReplica(cl, cl.Envs[f], m, rdisks)
				cl.Repls[m].AddFollower(rep)
				cl.Replicas[m] = append(cl.Replicas[m], rep)
				rep.Start()
			}
			cl.Repls[m].Activate()
		}
	}

	for m, st := range cl.Stores {
		cl.serve(m, m, st, cl.Repls[m])
		st.Start()
	}
	if cl.Inj != nil {
		cl.Inj.Arm()
	}
	return cl
}

// serve starts a node on machine host serving store identity home.
func (cl *Cluster) serve(home, host int, st *core.Store, repl *Replicator) {
	n := NewNode(cl, cl.Envs[host], st, repl)
	cl.nodes[home] = n
	n.Start()
}

// Follower returns the replica Promote(dead) promotes: a seeded pick among
// the dead machine's followers, part of the reproducible schedule.
func (cl *Cluster) Follower(dead int) *Replica {
	prng := rand.New(rand.NewSource(cl.seed*104_729 + int64(dead+1)))
	reps := cl.Replicas[dead]
	return reps[prng.Intn(len(reps))]
}

// Promote fails machine dead over to Follower(dead): routing is re-pointed,
// the replica becomes a store through full-scan recovery under the dead
// store's own config, and a node on the follower's machine starts serving
// it. c must be a proc on that machine. The caller then fails the requests
// stuck at the dead machine with Sweep.
func (cl *Cluster) Promote(c env.Ctx, dead int) (*core.Store, error) {
	rep := cl.Follower(dead)
	cl.FailMachine(dead)
	st, err := rep.Promote(c, cl.cfgs[dead])
	if err != nil {
		return nil, err
	}
	st.Start()
	cl.serve(dead, rep.host, st, nil)
	cl.Stores[dead] = st
	return st, nil
}
