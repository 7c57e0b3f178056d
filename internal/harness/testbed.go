package harness

import (
	"fmt"

	"kvell/internal/device"
	"kvell/internal/env"
	"kvell/internal/fault"
	"kvell/internal/kv"
	"kvell/internal/sim"
)

// crashHorizon bounds a Testbed's first life: clients issue until then, and
// every seeded crash point lands long before it.
const crashHorizon = 20 * env.Second

// verifyWindow is how many read-back requests a verifier keeps in flight.
const verifyWindow = 64

// Testbed is the single-node crash cycle every crash experiment runs: a first
// life on fault-wrapped disks that ends in a power loss at the AtWrite-th
// device write, then a second life in a fresh sim on the power-loss disk
// images, where the engine recovers and the experiment reads its verdict.
// Sim, Env and Disks always belong to the current life. Creation order (sim,
// env, injector, disks in index order) is part of the reproducible schedule.
type Testbed struct {
	Seed    int64
	AtWrite int64
	Cores   int

	Sim   *sim.Sim
	Env   *sim.Env
	Disks []device.Disk
	// Inj is the first life's injector; after Crash it describes the power
	// loss (CrashTime, Stats).
	Inj *fault.Injector
}

// NewTestbed boots the first life: ndisks fault-wrapped Amazon-NVMe disks
// that lose power when the atWrite-th timed write is submitted.
func NewTestbed(seed, atWrite int64, cores, ndisks int) *Testbed {
	tb := &Testbed{Seed: seed, AtWrite: atWrite, Cores: cores}
	tb.Sim = sim.New(seed + 1)
	tb.Env = sim.NewEnv(tb.Sim, cores)
	tb.Inj = fault.NewInjector(tb.Sim, fault.Config{Seed: seed*1_000_003 + atWrite, AtWrite: atWrite})
	tb.Disks = make([]device.Disk, ndisks)
	for i := range tb.Disks {
		tb.Disks[i] = tb.Inj.Wrap(device.NewSimDisk(tb.Sim, device.AmazonNVMe(), device.NewMemStore()))
	}
	return tb
}

// Load bulk-loads eng, starts it, and arms the injector: the crash countdown
// begins with the workload, not the load.
func (tb *Testbed) Load(eng kv.Engine, items []kv.Item) {
	must(eng.BulkLoad(items))
	eng.Start()
	tb.Inj.Arm()
}

// Crash runs the first life into the power cut. The simulation freezes at the
// crash instant, so whatever the workload recorded as acknowledged is exactly
// the pre-crash set. It fails if the crash point was never reached.
func (tb *Testbed) Crash() error {
	must(tb.Sim.Run(crashHorizon + env.Second))
	if !tb.Inj.Tripped() {
		tb.Sim.Close()
		return fmt.Errorf("crash point %d never reached (only %d writes submitted)",
			tb.AtWrite, tb.Inj.Stats().Writes)
	}
	return nil
}

// Reboot ends the first life and boots the second: a fresh sim whose disks
// hold the power-loss images.
func (tb *Testbed) Reboot() {
	snaps := tb.Inj.Snapshots()
	tb.Close()
	tb.Sim = sim.New(tb.Seed + 2)
	tb.Env = sim.NewEnv(tb.Sim, tb.Cores)
	tb.Disks = make([]device.Disk, len(snaps))
	for i, ms := range snaps {
		tb.Disks[i] = device.NewSimDisk(tb.Sim, device.AmazonNVMe(), ms)
	}
}

// Recover runs fn — recovery plus verification — as the second life's driver
// proc, to completion.
func (tb *Testbed) Recover(name string, fn func(c env.Ctx)) {
	tb.Env.Go(name, fn)
	must(tb.Sim.Run(-1))
}

// Close tears the current life's sim down.
func (tb *Testbed) Close() {
	must(tb.Sim.Close())
}
