package harness

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"kvell/internal/device"
	"kvell/internal/env"
)

// The golden digests lock the simulator's schedule: they were recorded before
// the kernel fast paths (event pool, 4-ary heap, same-time lane, Pool.Use
// analytic bursts) landed, so any kernel change that alters a single event's
// order — and therefore any measured number — fails this test. Every
// schedule pin of this package is a JSON fixture under testdata/ read through
// openGolden, and one flag re-records them all:
//
//	go test ./internal/harness -run Golden -update-golden
//
// only for changes that are *meant* to alter schedules (new engine behavior,
// cost model changes), never for performance work. The same flag rewrites the
// cheap sections of results/quick.txt (TestCheapExperimentsProduceOutput).
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden digest fixtures")

// golden is one fixture of named rows. A test checks each row as it produces
// it, from subtests too; under -update-golden the fixture is instead rewritten
// from every row produced, once the test and all its subtests are done (and
// only if none failed).
type golden[V comparable] struct {
	path string
	want map[string]V
	mu   sync.Mutex
	got  map[string]V
}

// openGolden loads the fixture at path for t.
func openGolden[V comparable](t *testing.T, path string) *golden[V] {
	t.Helper()
	g := &golden[V]{path: path, got: make(map[string]V)}
	if !*updateGolden {
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden fixture (run with -update-golden to record): %v", err)
		}
		if err := json.Unmarshal(buf, &g.want); err != nil {
			t.Fatalf("corrupt golden fixture %s: %v", path, err)
		}
	}
	t.Cleanup(func() { g.finish(t) })
	return g
}

// check records row name and, unless re-recording, compares it with the
// fixture's.
func (g *golden[V]) check(t *testing.T, name string, v V) {
	t.Helper()
	g.mu.Lock()
	g.got[name] = v
	g.mu.Unlock()
	if *updateGolden {
		return
	}
	if w, ok := g.want[name]; !ok {
		t.Errorf("%s: row missing from %s (run with -update-golden)", name, g.path)
	} else if v != w {
		t.Errorf("%s: schedule diverged from %s\n got %+v\nwant %+v", name, g.path, v, w)
	}
}

func (g *golden[V]) finish(t *testing.T) {
	if t.Failed() {
		return
	}
	if !*updateGolden {
		for name := range g.want {
			if _, ok := g.got[name]; !ok {
				t.Errorf("%s: row in %s but not produced by the test", name, g.path)
			}
		}
		return
	}
	buf, err := json.MarshalIndent(g.got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(g.path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(g.path, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s", g.path)
}

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
	fx := openGolden[goldenEntry](t, goldenPath)
	for _, k := range AllEngines {
		fx.check(t, k.String(), toGolden(goldenFingerprint(k)))
		// The same workload on fig8's machine: the single-disk rows cannot
		// see a change in how an engine spreads work over disks, such as the
		// LSM block cache keying blocks by page instead of (disk, page).
		s := determinismSpec(k, 1234)
		s.Profile = device.AmazonNVMe()
		s.NDisks = 8
		s.Cores = 32
		fx.check(t, k.String()+"/8-disk", toGolden(runFingerprint(s)))
	}
}
