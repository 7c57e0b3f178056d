package harness

import (
	"fmt"
	"os"
	"testing"

	"kvell/internal/env"
)

// TestCrashDeterminism is the crash-schedule regression: the same spec must
// reproduce the same crash point, torn-write pattern and post-recovery
// state, bit for bit, across runs (the digest covers all three).
func TestCrashDeterminism(t *testing.T) {
	spec := CrashSpec{Engine: KVell, Seed: 42, Records: 4_000, AtWrite: 400}
	a, err := RunCrash(spec)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	b, err := RunCrash(spec)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("same spec, different digests: %016x vs %016x", a.Digest, b.Digest)
	}
	if a.CrashTime != b.CrashTime || a.Fault != b.Fault {
		t.Fatalf("same spec, different crash schedule: %+v vs %+v", a, b)
	}
	// A different power-loss seed must still die at the same write index.
	spec.Seed = 43
	c, err := RunCrash(spec)
	if err != nil {
		t.Fatalf("run 3: %v", err)
	}
	if c.Digest == a.Digest {
		t.Fatalf("different seeds produced identical digests %016x", a.Digest)
	}
}

// TestCrashMidGroupCommit crashes KVell with the write-absorption front end
// enabled: group commits put several writes in flight at once, so seeded
// crash points land in the middle of a group, and every absorbed-then-acked
// write must still be recovered. At least one point must actually catch a
// multi-write group in flight, or the sweep proved nothing.
func TestCrashMidGroupCommit(t *testing.T) {
	sawGroup := false
	for i := 1; i <= 4; i++ {
		pointSeed, atWrite := SweepPoint(11, i)
		res, err := RunCrash(CrashSpec{
			Engine:         KVell,
			Seed:           pointSeed,
			Records:        4_000,
			AtWrite:        atWrite,
			AbsorbInterval: 50 * env.Microsecond,
		})
		if err != nil {
			t.Fatalf("point %d (seed %d, atwrite %d): %v", i, pointSeed, atWrite, err)
		}
		if res.Fault.InFlight > 1 {
			sawGroup = true
		}
	}
	if !sawGroup {
		t.Fatal("no crash point landed mid-group-commit (every crash saw <=1 write in flight)")
	}
}

// TestCrashWithHotCache crashes KVell with the hot-key cache enabled, alone
// and stacked on the absorb front end. The cache is a read accelerator only:
// recovery rebuilds from disk and starts with an empty cache, so if a
// cached-but-unflushed value were ever what made an acked write "durable",
// these points would report it as lost or recovered to an impossible
// version. The runs must also actually exercise the cache — a crash sweep
// where the hot tier never engaged proves nothing.
func TestCrashWithHotCache(t *testing.T) {
	for _, tc := range []struct {
		name   string
		absorb env.Time
	}{
		{"hotcache", 0},
		{"hotcache+absorb", 50 * env.Microsecond},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for i := 1; i <= 4; i++ {
				pointSeed, atWrite := SweepPoint(11, i)
				res, err := RunCrash(CrashSpec{
					Engine:         KVell,
					Seed:           pointSeed,
					Records:        4_000,
					AtWrite:        atWrite,
					AbsorbInterval: tc.absorb,
					TieredHotBytes: 2 << 20,
				})
				if err != nil {
					t.Fatalf("point %d (seed %d, atwrite %d): %v", i, pointSeed, atWrite, err)
				}
				if res.HotHits == 0 {
					t.Fatalf("point %d: hot cache never served a read before the crash", i)
				}
			}
		})
	}
}

// TestCrashRecoverVerifyAllEngines runs a couple of seeded crash points per
// engine — the bounded in-test version of `make crash-sweep`.
func TestCrashRecoverVerifyAllEngines(t *testing.T) {
	for _, kind := range AllEngines {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			if n := CrashSweep(kind, SweepOpts{Points: 2, Seed: 7, Records: 4_000}, os.Stderr); n != 0 {
				t.Fatalf("%d of 2 crash points failed (details above)", n)
			}
		})
	}
}

// TestParseEngineFlag: one parser accepts every spelling any subcommand ever
// took, so a repro line copied from one tool's output works in another.
func TestParseEngineFlag(t *testing.T) {
	for _, tc := range []struct {
		name string
		want EngineKind
		ok   bool
	}{
		{"kvell", KVell, true},
		{"rocks", RocksLike, true},
		{"rocksdb", RocksLike, true},
		{"lsm", RocksLike, true},
		{"pebbles", PebblesLike, true},
		{"pebblesdb", PebblesLike, true},
		{"wt", WiredTigerLike, true},
		{"wiredtiger", WiredTigerLike, true},
		{"wtree", WiredTigerLike, true},
		{"toku", TokuLike, true},
		{"tokumx", TokuLike, true},
		{"betree", TokuLike, true},
		{" RocksDB ", RocksLike, true},
		{"all", 0, false},
		{"", 0, false},
		{"leveldb", 0, false},
	} {
		got, ok := ParseEngineFlag(tc.name)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("ParseEngineFlag(%q) = %v, %v; want %v, %v", tc.name, got, ok, tc.want, tc.ok)
		}
	}
	for _, k := range AllEngines {
		if got, ok := ParseEngineFlag(engineNames[k][0]); !ok || got != k {
			t.Errorf("%v: repro spelling %q does not parse back", k, engineNames[k][0])
		}
	}
}

// Golden fixture for the crash schedules, same discipline as
// TestGoldenDigests (re-record with -update-golden only for changes meant to
// alter schedules): RunCrash gives every baseline's log a group size of 0,
// so this pins what TestGoldenDigests cannot — a chunk written per record
// before its acknowledgement, the power-loss images and the replay path. CrashTime and RecoverTime are
// virtual clocks, Replayed the recovery path's own count.
const crashGoldenPath = "testdata/crash_golden.json"

type crashGoldenEntry struct {
	Digest      string   `json:"digest"`
	CrashTime   env.Time `json:"crash_time_ns"`
	RecoverTime env.Time `json:"recover_time_ns"`
	Replayed    int64    `json:"replayed"`
}

func TestCrashGoldenDigests(t *testing.T) {
	t.Parallel()
	fx := openGolden[crashGoldenEntry](t, crashGoldenPath)
	for _, kind := range AllEngines {
		for i := 1; i <= 3; i++ {
			pointSeed, atWrite := SweepPoint(1, i)
			res, err := RunCrash(CrashSpec{Engine: kind, Seed: pointSeed, Records: 4_000, AtWrite: atWrite})
			if err != nil {
				t.Fatalf("%v point %d: %v", kind, i, err)
			}
			fx.check(t, fmt.Sprintf("%v/point-%d", kind, i), crashGoldenEntry{
				Digest:      fmt.Sprintf("%016x", res.Digest),
				CrashTime:   res.CrashTime,
				RecoverTime: res.RecoverTime,
				Replayed:    res.Replayed,
			})
		}
	}
}
