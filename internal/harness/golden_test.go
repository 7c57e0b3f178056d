package harness

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"kvell/internal/device"
	"kvell/internal/env"
)

// The golden digests lock the simulator's schedule: they were recorded before
// the kernel fast paths (event pool, 4-ary heap, same-time lane, Pool.Use
// analytic bursts) landed, so any kernel change that alters a single event's
// order — and therefore any measured number — fails this test. Re-record with
//
//	go test ./internal/harness -run TestGoldenDigests -update-golden
//
// only for changes that are *meant* to alter schedules (new engine behavior,
// cost model changes), never for performance work.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden digest fixtures")

const goldenPath = "testdata/golden_digests.json"

// goldenEntry is the JSON form of a fingerprint. The FNV digests are 64-bit
// and would lose precision as JSON numbers, so they are hex strings.
type goldenEntry struct {
	Ops      int64    `json:"ops"`
	Lat      string   `json:"lat_digest"`
	Timeline string   `json:"timeline_digest"`
	DiskBW   string   `json:"diskbw_digest"`
	Now      env.Time `json:"final_clock_ns"`
}

func toGolden(fp fingerprint) goldenEntry {
	return goldenEntry{
		Ops:      fp.ops,
		Lat:      fmt.Sprintf("%016x", fp.lat),
		Timeline: fmt.Sprintf("%016x", fp.timeline),
		DiskBW:   fmt.Sprintf("%016x", fp.diskBW),
		Now:      fp.now,
	}
}

func TestGoldenDigests(t *testing.T) {
	t.Parallel()
	got := make(map[string]goldenEntry)
	for _, k := range AllEngines {
		got[k.String()] = toGolden(goldenFingerprint(k))
		// The same workload on fig8's machine: the single-disk rows cannot
		// see a change in how an engine spreads work over disks, such as the
		// LSM block cache keying blocks by page instead of (disk, page).
		s := determinismSpec(k, 1234)
		s.Profile = device.AmazonNVMe()
		s.NDisks = 8
		s.Cores = 32
		got[k.String()+"/8-disk"] = toGolden(runFingerprint(s))
	}

	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}

	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update-golden to record): %v", err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("corrupt golden fixture: %v", err)
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: row in fixture but not produced by the test", name)
			continue
		}
		if g != w {
			t.Errorf("%s: schedule diverged from golden fixture\n got %+v\nwant %+v", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: row missing from fixture (run with -update-golden)", name)
		}
	}
}
