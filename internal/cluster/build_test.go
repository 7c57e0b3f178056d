package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"kvell/internal/core"
	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/fault"
	"kvell/internal/kv"
)

const (
	testKillAt = env.Millisecond
	testDetect = 200 * env.Microsecond
)

// testSpec is a 3-machine RF=2 cluster whose machine 1 dies at testKillAt.
func testSpec(seed int64) Spec {
	return Spec{
		Machines: 3, RF: 2, Seed: seed, Slots: 64, Cores: 2, NDisks: 2,
		Tweak: func(cfg *core.Config) {
			cfg.Workers = 2
			cfg.PageCachePages = 256
		},
		Records:   300,
		ValueLen:  128,
		FillValue: func(buf []byte, i int64) { kv.FillValue(buf, i, 1) },
		Kill:      true, KillMachine: 1, KillAt: testKillAt,
	}
}

// TestBuildKillPromoteRead drives the whole failover path with no harness
// around it: an update acknowledged before the kill must be what a read
// returns after the dead machine's follower is promoted.
func TestBuildKillPromoteRead(t *testing.T) {
	const dead = 1
	cl := Build(testSpec(7))
	clientM := len(cl.Envs) - 1

	// A key whose slot the doomed machine leads.
	key := int64(-1)
	for i := int64(0); i < 300 && key < 0; i++ {
		if cl.Place.Leader(cl.Place.SlotOf(kv.Key(i))) == dead {
			key = i
		}
	}
	if key < 0 {
		t.Fatal("no key routed to the machine to kill")
	}
	want := kv.Value(key, 2, 128)

	acked, promoted := false, false
	var promoteErr error
	var got kv.Result
	rep := cl.Follower(dead)
	if rep.Host() == dead || rep.Host() == clientM {
		t.Fatalf("follower picked on machine %d", rep.Host())
	}
	cl.Envs[clientM].Go("client", func(c env.Ctx) {
		k := cl.NewClient()
		k.Submit(c, &kv.Request{Op: kv.OpUpdate, Key: kv.Key(key), Value: want,
			Done: func(kv.Result) { acked = true }})
		for !promoted { // a request sent to the dead machine is simply lost
			c.Sleep(env.Millisecond)
		}
		got = k.Call(c, kv.Request{Op: kv.OpGet, Key: kv.Key(key)})
	})
	cl.Envs[rep.Host()].Go("failover", func(c env.Ctx) {
		c.Sleep(testKillAt + testDetect)
		if !acked {
			t.Error("update was not acknowledged before the kill")
		}
		if !cl.Inj.Tripped() {
			t.Error("machine never died")
			return
		}
		_, promoteErr = cl.Promote(c, dead)
		promoted = true
	})
	if err := cl.S.Run(env.Second); err != nil {
		t.Fatal(err)
	}
	defer cl.S.Close()

	if promoteErr != nil {
		t.Fatalf("promotion failed: %v", promoteErr)
	}
	if n := cl.NodeFor(kv.Key(key)); n.Host() != rep.Host() {
		t.Errorf("key still routed to machine %d, want promoted machine %d", n.Host(), rep.Host())
	}
	if !got.Found || !bytes.Equal(got.Value, want) {
		t.Errorf("read after promotion: found=%v, %dB value; want the acknowledged update", got.Found, len(got.Value))
	}
}

// assembly is what two same-seed Builds must agree on: which procs exist, in
// creation order, and every disk's ID in config order.
func assembly(cl *Cluster) (procs []string, diskIDs []int) {
	for m := range cl.Stores {
		for _, d := range cl.cfgs[m].Disks {
			if rd, ok := d.(*replDisk); ok {
				d = rd.Disk
			}
			if fd, ok := d.(*fault.Disk); ok {
				d = fd.Inner()
			}
			diskIDs = append(diskIDs, d.(*device.SimDisk).ID)
		}
		for _, rep := range cl.Replicas[m] {
			for _, d := range rep.disks {
				diskIDs = append(diskIDs, d.ID)
			}
		}
	}
	return cl.S.ProcNames(), diskIDs
}

func TestBuildSameSeedSameAssembly(t *testing.T) {
	a, b := Build(testSpec(3)), Build(testSpec(3))
	defer a.S.Close()
	defer b.S.Close()
	procsA, disksA := assembly(a)
	procsB, disksB := assembly(b)
	if !reflect.DeepEqual(procsA, procsB) {
		t.Errorf("proc creation order differs:\n%v\n%v", procsA, procsB)
	}
	if !reflect.DeepEqual(disksA, disksB) {
		t.Errorf("disk IDs differ:\n%v\n%v", disksA, disksB)
	}
	// The creation-order contract (DESIGN.md "Testbeds"): every follower's
	// apply proc in leader order, then per machine its node and its store's
	// workers; 3 leaders x 2 disks, each with one follower's 2 replica disks.
	wantProcs := []string{
		"1/replica-apply", "2/replica-apply", "0/replica-apply",
		"0/cluster-serve", "0/kvell-worker-0", "0/kvell-worker-1",
		"1/cluster-serve", "1/kvell-worker-0", "1/kvell-worker-1",
		"2/cluster-serve", "2/kvell-worker-0", "2/kvell-worker-1",
	}
	if !reflect.DeepEqual(procsA, wantProcs) {
		t.Errorf("proc creation order\n got %v\nwant %v", procsA, wantProcs)
	}
	wantDisks := []int{0, 1, 1000, 1001, 2, 3, 1002, 1003, 4, 5, 1004, 1005}
	if !reflect.DeepEqual(disksA, wantDisks) {
		t.Errorf("disk IDs %v, want %v", disksA, wantDisks)
	}
	if a.Follower(1).Host() != b.Follower(1).Host() {
		t.Error("same seed picked different followers to promote")
	}
}
