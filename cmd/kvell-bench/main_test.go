package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"kvell/internal/env"
	"kvell/internal/harness"
)

// reproArgs turns a printed repro line into the arguments kvell-bench gets.
func reproArgs(t *testing.T, line string) []string {
	t.Helper()
	args, ok := strings.CutPrefix(line, "go run ./cmd/kvell-bench ")
	if !ok {
		t.Fatalf("repro line %q does not invoke kvell-bench", line)
	}
	return strings.Fields(args)
}

// TestCrashReproLines feeds the repro line CrashSweep prints under a failing
// point back through the crash subcommand and checks it reruns the very same
// crash: the pass with the failing label must report the digest a direct
// RunCrash of that (seed, point, engine, absorb, hot) produces. A renamed
// flag or a changed spelling fails here, not in a 3 a.m. nightly.
func TestCrashReproLines(t *testing.T) {
	for _, tc := range []struct {
		label  string
		kind   harness.EngineKind
		absorb env.Time
		hot    int64
	}{
		{"RocksDB-like", harness.RocksLike, 0, 0},
		{"KVell", harness.KVell, 0, 0},
		{"KVell+absorb", harness.KVell, 50 * env.Microsecond, 0},
		{"KVell+hotcache", harness.KVell, 0, 4 << 20},
		{"KVell+absorb+hotcache", harness.KVell, 50 * env.Microsecond, 4 << 20},
	} {
		so := harness.SweepOpts{Seed: 9, Records: 4_000, AbsorbInterval: tc.absorb, TieredHotBytes: tc.hot}
		const point = 2
		pointSeed, atWrite := harness.SweepPoint(so.Seed, point)
		want, err := harness.RunCrash(harness.CrashSpec{
			Engine: tc.kind, Seed: pointSeed, Records: so.Records, AtWrite: atWrite,
			AbsorbInterval: tc.absorb, TieredHotBytes: tc.hot,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}

		var out bytes.Buffer
		args := append(reproArgs(t, harness.CrashRepro(tc.kind, so, point)), "-v")
		if code := run(args, &out); code != 0 {
			t.Fatalf("%s: %v exited %d:\n%s", tc.label, args, code, out.String())
		}
		okLine := fmt.Sprintf("ok   %-16s point %2d/25: ", tc.label, point)
		digest := fmt.Sprintf("digest=%016x", want.Digest)
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, okLine) && strings.HasSuffix(line, digest) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: %v did not rerun the failing crash (want a line %q ... %s):\n%s",
				tc.label, args, okLine, digest, out.String())
		}
	}
}

// TestTxnCrashReproLine is the same check for the transactional sweep.
func TestTxnCrashReproLine(t *testing.T) {
	so := harness.SweepOpts{Seed: 9}
	const point = 3
	want, err := harness.RunTxnCrash(harness.SweepPoint(so.Seed, point))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	args := append(reproArgs(t, harness.TxnCrashRepro(so, point)), "-v")
	if code := run(args, &out); code != 0 {
		t.Fatalf("%v exited %d:\n%s", args, code, out.String())
	}
	wantLine := fmt.Sprintf("digest=%016x", want.Digest)
	if !strings.Contains(out.String(), fmt.Sprintf("ok   txnbank point %2d/25: ", point)) ||
		!strings.Contains(out.String(), wantLine) {
		t.Errorf("%v did not rerun the failing crash (want %s):\n%s", args, wantLine, out.String())
	}
}

// TestClusterCLIDigests runs the cluster subcommand the way CI does, at a few
// thousand records, and checks that it exits 0, that the failover block ends
// in its "ok:" line, and that every printed digest is the one RunCluster
// returns for the same spec.
func TestClusterCLIDigests(t *testing.T) {
	const seed, recs, dur = 3, 3_000, 100 * env.Millisecond
	var out bytes.Buffer
	args := []string{"cluster", "-machines", "1,2", "-records", "3000", "-dur-ms", "100", "-seed", "3"}
	if code := run(args, &out); code != 0 {
		t.Fatalf("%v exited %d:\n%s", args, code, out.String())
	}
	spec := harness.ClusterSpec{RF: 1, Seed: seed, RecordsPerMachine: recs, Duration: dur}
	var want []string
	for _, m := range []int{1, 2} {
		spec.Machines = m
		res, err := harness.RunCluster(spec)
		if err != nil {
			t.Fatalf("%d machines: %v", m, err)
		}
		want = append(want, fmt.Sprintf("%016x", res.Digest))
	}
	spec.RF, spec.Failover, spec.KillMachine = 2, true, 1
	res, err := harness.RunCluster(spec)
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	okLine := fmt.Sprintf("  ok: every acknowledged write survived the machine kill (digest %016x)", res.Digest)

	var got []string
	sawOK := false
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) == 7 && (f[0] == "1" || f[0] == "2") {
			got = append(got, f[6])
		}
		sawOK = sawOK || line == okLine
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("sweep digests %v, want %v:\n%s", got, want, out.String())
	}
	if !sawOK {
		t.Errorf("no line %q:\n%s", okLine, out.String())
	}
}

// TestRunRejectsUnknown: usage errors exit 2 without running anything.
func TestRunRejectsUnknown(t *testing.T) {
	for _, args := range [][]string{
		{"nosuch"},
		{"crash", "-engine", "leveldb"},
		{"crash", "-nosuchflag"},
		{"absorb", "-rate", "fast"},
		{"-exp", "nosuch"},
	} {
		var out bytes.Buffer
		if code := run(args, &out); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
	}
}
