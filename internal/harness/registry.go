package harness

import (
	"io"

	"kvell/internal/env"
)

// Options configure an experiment run.
type Options struct {
	// Quick shortens durations and shrinks datasets (the default for `go
	// test -bench`); full mode uses the DESIGN.md §4 scaled sizes.
	Quick bool
	Seed  int64
	// Parallel is the number of independent simulations an experiment may
	// run concurrently via RunAll (0 or 1: sequential, < 0: GOMAXPROCS).
	// Results and output are identical at any setting; only wall-clock
	// changes. See RunAll for the determinism argument.
	Parallel int
}

// runAll executes specs with the options' parallelism, sequential by
// default, returning results in spec order.
func (o Options) runAll(specs ...Spec) []Result {
	p := o.Parallel
	if p == 0 {
		p = 1
	}
	return RunAll(specs, p)
}

// dur scales a full-mode duration down in quick mode.
func (o Options) dur(full env.Time) env.Time {
	if o.Quick {
		d := full / 4
		if d < 400*env.Millisecond {
			d = 400 * env.Millisecond
		}
		return d
	}
	return full
}

// records scales a full-mode record count down in quick mode.
func (o Options) records(full int64) int64 {
	if o.Quick {
		r := full / 4
		if r < 20_000 {
			r = 20_000
		}
		return r
	}
	return full
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options, w io.Writer)
}

// All returns every experiment, in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "IOPS and bandwidth per device and workload", table1},
		{"table2", "Latency and bandwidth vs queue depth", table2},
		{"table3", "Max IOPS per disk-access technique", table3},
		{"table4", "YCSB core workload definitions", table4},
		{"table5", "p99 and max latency on YCSB A", table5},
		{"table6", "Index ops/s vs index-size/RAM ratio", table6},
		{"fig1", "IOPS over time per device", fig1},
		{"fig2", "Write latency spikes over time", fig2},
		{"fig3", "Disk bandwidth and CPU timelines: LSM and B+ tree are CPU-bound", fig3},
		{"fig4", "Throughput fluctuation in RocksDB-like and WiredTiger-like", fig4},
		{"fig5", "YCSB average throughput, all engines, uniform and Zipfian", fig5},
		{"fig6", "KVell disk bandwidth and CPU timelines on YCSB A", fig6},
		{"fig7", "Throughput timelines for all engines on YCSB A/B/C/E", fig7},
		{"fig8", "YCSB throughput on Config-Amazon-8NVMe (8 disks)", fig8},
		{"fig9a", "Nutanix production workloads", fig9a},
		{"fig9b", "Scaled 'large dataset' YCSB on Config-Amazon-8NVMe", fig9b},
		{"fig10", "YCSB E throughput vs item size: sorted vs unsorted", fig10},
		{"recovery", "Crash recovery time (§6.6)", recoveryExp},
		{"recovery-scale", "Recovery time vs store size (§6.6 full-scan rebuild)", recoveryScaleExp},
		{"batchlat", "Batch size vs latency/bandwidth trade-off (§6.5.1)", batchLat},
		{"ablation-cache", "Page-cache index: B-tree vs hash (tail latency)", ablationCache},
		{"ablation-batch", "I/O batch size sweep", ablationBatch},
		{"ablation-commitlog", "KVell with vs without a commit log", ablationCommitLog},
		{"ablation-workers", "Shared-nothing worker scaling", ablationWorkers},
		{"ablation-shared", "Shared-everything vs shared-nothing (§4.1)", ablationShared},
		{"ablation-inplace", "In-place updates vs append+tombstone (§5.6 variant)", ablationInPlace},
		{"absorb", "Write absorption: device-write reduction under open-loop skewed updates", absorbExp},
		{"tiering", "Hot/cold tiering: hot-key cache vs a slow cold SSD across skews and cache sizes", tieringExp},
		{"cluster", "Sharded KVell across simulated machines: YCSB scaling and leader failover", clusterExp},
		{"txn", "MVCC transactions: bank conservation across a conflict-rate × txn-size sweep and a cluster kill", txnExp},
		{"traceattr", "Latency attribution: Figure 2's tail spikes traced to their maintenance cause", traceAttr},
		{"oldssd", "KVell on a 2013-era SSD: a trade-off, not a win (§6.5.4)", oldSSD},
		{"cpuperio", "CPU-per-I/O cap on achievable IOPS (§6.4.1)", cpuPerIO},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
