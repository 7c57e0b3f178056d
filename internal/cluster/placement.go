// Package cluster shards KVell across the simulated machines of one Sim: a
// share-nothing cluster in the paper's own image. Keys hash into a fixed
// number of slots; rendezvous (highest-random-weight) hashing places each
// slot on one server machine — consistent-hash placement, so removing a
// machine moves only that machine's slots. Each server runs one core.Store
// holding exactly its slots' keys; clients route requests over internal/net
// to the slot's leader; leaders ship every slab-page write to their
// followers and acknowledge a write only when it is durable both locally and
// on all live followers. When internal/fault kills a whole machine, a
// seeded-RNG failover promotes one of its followers: the ordinary §6.6
// recovery path scans the replica disks and rebuilds the index, and clients
// re-route.
//
// Everything runs on the sim clock through env/sim primitives: no
// goroutines, no wall time, no unseeded randomness — the cluster schedule is
// as bit-reproducible as a single-machine run, and the golden digests in
// internal/harness pin it.
package cluster

import (
	"kvell/internal/kv"
)

// Placement maps the key space onto server machines. Slot ownership is
// rendezvous hashing over the initial server set; follower sets are per
// machine (replication ships whole stores, not slots): the RF-1 ring
// successors of the leader among the initial servers.
type Placement struct {
	Slots   int
	Servers int // machines 0..Servers-1 are servers
	RF      int // replicas per shard, including the leader

	leader []int // slot -> owning machine (fixed at construction)
}

// hrw is the rendezvous score of (slot, machine): a 64-bit finalizer mix,
// deterministic and seedless so every component of the cluster computes the
// same placement without coordination.
func hrw(slot, m int) uint64 {
	x := uint64(slot+1)*0x9E3779B97F4A7C15 ^ uint64(m+1)*0xC2B2AE3D27D4EB4F
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return x
}

// NewPlacement computes slot ownership over servers machines.
func NewPlacement(slots, servers, rf int) *Placement {
	if rf < 1 {
		rf = 1
	}
	if rf > servers {
		rf = servers
	}
	p := &Placement{Slots: slots, Servers: servers, RF: rf,
		leader: make([]int, slots)}
	for s := 0; s < slots; s++ {
		best, bestScore := 0, uint64(0)
		for m := 0; m < servers; m++ {
			if sc := hrw(s, m); sc > bestScore {
				best, bestScore = m, sc
			}
		}
		p.leader[s] = best
	}
	return p
}

// SlotOf returns the hash slot of key.
func (p *Placement) SlotOf(key []byte) int {
	return int(kv.Hash64(key) % uint64(p.Slots))
}

// Leader returns the machine that owns slot (fixed at construction; after a
// failover the owner's store is hosted elsewhere but keeps its identity).
func (p *Placement) Leader(slot int) int { return p.leader[slot] }

// Followers returns machine m's follower set: its RF-1 ring successors among
// the initial servers.
func (p *Placement) Followers(m int) []int {
	out := make([]int, 0, p.RF-1)
	for i := 1; i < p.RF; i++ {
		out = append(out, (m+i)%p.Servers)
	}
	return out
}
