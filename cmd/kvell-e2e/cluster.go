package main

import (
	"fmt"

	"kvell/internal/env"
	"kvell/internal/harness"
)

func clusterSpec(seed int64, sc scale) harness.ClusterSpec {
	return harness.ClusterSpec{
		Machines: 4, RF: 2, Seed: seed,
		RecordsPerMachine: sc.n(50_000), ItemSize: itemSize,
		ClientsPerMachine: 8, Window: 8,
		Duration: sc.t(env.Second),
	}
}

// runCluster drives harness.RunCluster. The harness builds, loads and runs
// the cluster in one call and owns its tracer, so host cost is that of the
// whole call, set-up included (subtracting a separately measured set-up of
// about the same size as the run doubled the noise), and the only latency
// attribution is the two sums the result carries.
func runCluster(seed int64, sc scale, o passOpts) outcome {
	spec := clusterSpec(seed, sc)
	start := mark()
	o.profile.start()
	res, err := harness.RunCluster(spec)
	end := mark()

	out := outcome{
		host:      end.since(start),
		attempted: res.Issued,
		completed: res.Completed,
		digest:    res.Digest,
		err:       err,
	}
	out.liveMB = liveHeapMB()
	out.vOpsPerS = res.ThroughputOps
	out.latMeanUS = float64(res.MeanLat) / 1e3
	out.latP99US = float64(res.P99) / 1e3
	out.latSamples = res.Completed
	out.updates = res.Updates
	out.userWriteBytes = res.Updates * int64(spec.ItemSize)
	out.net = res.Net
	out.pagesShipped, out.bytesShipped = res.PagesShipped, res.BytesShipped
	if n := float64(res.Completed); n > 0 {
		out.netUS = float64(res.NetTime) / 1e3 / n
		out.replUS = float64(res.ReplTime) / 1e3 / n
	}
	if err == nil && (res.FailedOps != 0 || res.Lost != 0) {
		out.err = fmt.Errorf("cluster_rf2: %d failed ops, %d lost writes", res.FailedOps, res.Lost)
	}
	return out
}
