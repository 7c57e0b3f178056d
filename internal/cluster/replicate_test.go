package cluster

import (
	"testing"

	"kvell/internal/core"
	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/kv"
	"kvell/internal/net"
	"kvell/internal/sim"
)

// memStoreOf returns the page store under d, through any wrapper.
func memStoreOf(t *testing.T, d device.Disk) *device.MemStore {
	t.Helper()
	ms, ok := d.Store().(*device.MemStore)
	if !ok {
		t.Fatalf("disk %T is not backed by a MemStore", d)
	}
	return ms
}

// Once every follower has applied everything its leader shipped, its replica
// disks hold the leader's disks page for page. RF=3, so every page record
// goes to two followers and is recycled only after both submitted it; a
// record recycled any earlier is refilled while a follower still has to
// write it, and that follower writes the wrong bytes or loses a page.
func TestReplicaImagesEqualLeader(t *testing.T) {
	const (
		records = 400
		rounds  = 5
	)
	cl := Build(Spec{
		Machines: 3, RF: 3, Seed: 5, Slots: 64, Cores: 2, NDisks: 2,
		Tweak: func(cfg *core.Config) {
			cfg.Workers = 2
			cfg.PageCachePages = 256
		},
		Records:   records,
		ValueLen:  200,
		FillValue: func(buf []byte, i int64) { kv.FillValue(buf, i, 1) },
	})
	defer cl.S.Close()
	clientM := len(cl.Envs) - 1
	for m, reps := range cl.Replicas {
		if len(reps) != 2 {
			t.Fatalf("machine %d has %d followers, want 2", m, len(reps))
		}
	}

	// A burst of updates, every key in flight at once, round after round;
	// then wait for every follower's frontier to reach its leader's seq.
	caughtUp := false
	cl.Envs[clientM].Go("client", func(c env.Ctx) {
		k := cl.NewClient()
		reqs := make([]kv.Request, records)
		left := 0
		for i := range reqs {
			reqs[i] = kv.Request{Op: kv.OpUpdate, Key: kv.Key(int64(i)), Done: func(kv.Result) { left-- }}
		}
		for v := uint64(2); v < 2+rounds; v++ {
			left = records
			for i := range reqs {
				reqs[i].Value = kv.Value(int64(i), v, 200)
				k.Submit(c, &reqs[i])
			}
			for left > 0 {
				c.Sleep(100 * env.Microsecond)
			}
		}
		for !caughtUp {
			caughtUp = true
			for m, rp := range cl.Repls {
				for _, rep := range cl.Replicas[m] {
					caughtUp = caughtUp && rep.Frontier() == rp.seq
				}
			}
			c.Sleep(100 * env.Microsecond)
		}
	})
	if err := cl.S.Run(env.Second); err != nil {
		t.Fatal(err)
	}
	if !caughtUp {
		t.Fatal("followers never caught up with their leaders")
	}

	for m, rp := range cl.Repls {
		if rp.PagesShipped < rounds {
			t.Errorf("machine %d shipped only %d pages", m, rp.PagesShipped)
		}
		for _, rep := range cl.Replicas[m] {
			for i, rd := range rep.disks {
				leader := memStoreOf(t, cl.cfgs[m].Disks[i])
				if pg, differ := memStoreOf(t, rd).FirstDiff(leader); differ {
					t.Errorf("machine %d's follower on machine %d: disk %d differs from the leader's first at page %d",
						m, rep.Host(), i, pg)
				}
			}
		}
	}
}

// BenchmarkReplicateShip is one page's replication round trip: the leader
// ships it, the follower writes it to its replica disk, and its cumulative
// ack reaches the leader. Warm, it allocates nothing.
func BenchmarkReplicateShip(b *testing.B) {
	s := sim.New(1)
	defer s.Close()
	cl := &Cluster{S: s, Net: net.New(s, 2, net.TenGbE())}
	rp := NewReplicator(cl, 0)
	rd := device.NewSimDisk(s, device.AmazonNVMe(), device.NewMemStore())
	rd.Machine = 1
	rep := NewReplica(cl, sim.NewMachineEnv(s, 1, 2), 0, []*device.SimDisk{rd})
	rp.AddFollower(rep)
	rep.Start()
	rp.Activate()
	buf := make([]byte, device.PageSize)
	ship := func() { rp.shipPage(0, 7, buf) }
	round := func() {
		s.At(s.Now(), ship)
		if err := s.Run(-1); err != nil {
			b.Fatal(err)
		}
		if rp.minAcked() != rp.seq {
			b.Fatalf("page %d shipped, %d acked", rp.seq, rp.minAcked())
		}
	}
	round() // the pools now hold a record of each kind
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
