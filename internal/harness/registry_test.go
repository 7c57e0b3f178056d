package harness

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation must be present.
	required := []string{
		"table1", "table2", "table3", "table4", "table5", "table6",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9a", "fig9b", "fig10", "recovery", "batchlat",
	}
	for _, id := range required {
		if _, ok := Find(id); !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if _, ok := Find("nonsense"); ok {
		t.Error("Find accepted an unknown id")
	}
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
}

// quickGolden is the recorded output of `kvell-bench -exp all -quick` at the
// CLI's default seed, every wall-clock footer replaced by quickFooter so the
// file is a pure function of the code. `make exp-golden` reruns and diffs all
// of it (about ten minutes).
const (
	quickGolden = "../../results/quick.txt"
	quickFooter = "---- (wall) ----\n"
)

// quickSection returns experiment id and the bounds in golden (the text of
// quickGolden) of its recorded output, between its banner and its footer.
func quickSection(t *testing.T, golden, id string) (e Experiment, start, end int) {
	t.Helper()
	e, ok := Find(id)
	if !ok {
		t.Fatalf("missing %q", id)
	}
	banner := fmt.Sprintf("==== %s: %s ====\n", e.ID, e.Title)
	start = strings.Index(golden, banner)
	if start < 0 {
		t.Fatalf("%s: no section in %s", id, quickGolden)
	}
	start += len(banner)
	end = start + strings.Index(golden[start:], quickFooter)
	if end < start {
		t.Fatalf("%s: section in %s has no footer", id, quickGolden)
	}
	return e, start, end
}

// TestCheapExperimentsProduceOutput compares the experiments that run in a
// second or two each, byte for byte, against their sections of quickGolden;
// the expensive ones are compared by `make exp-golden`. -update-golden
// rewrites these sections only, and only for a change that is meant to move
// an experiment's output.
func TestCheapExperimentsProduceOutput(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs simulations")
	}
	raw, err := os.ReadFile(quickGolden)
	if err != nil {
		t.Fatalf("missing recorded experiment output: %v", err)
	}
	golden := string(raw)
	o := Options{Quick: true, Seed: 42}
	for _, id := range []string{"table1", "table2", "table3", "table4", "fig1", "fig2", "recovery", "recovery-scale", "txn"} {
		e, start, end := quickSection(t, golden, id)
		var buf bytes.Buffer
		e.Run(o, &buf)
		if got, want := buf.String(), golden[start:end]; got != want {
			if *updateGolden {
				golden = golden[:start] + got + golden[end:]
				continue
			}
			t.Errorf("%s: output differs from its section of %s\n--- got ---\n%s--- want ---\n%s", id, quickGolden, got, want)
		}
	}
	if *updateGolden && golden != string(raw) {
		if err := os.WriteFile(quickGolden, []byte(golden), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote the cheap sections of %s", quickGolden)
	}
}

// TestSweepReportHeaders: with zero-valued opts the absorb and tier reports
// open with the header their quickGolden sections record — dataset, valve
// bound, page-cache share, offered load. The sweeps themselves are too slow
// for tier-1 (`make exp-golden` compares their full output).
func TestSweepReportHeaders(t *testing.T) {
	raw, err := os.ReadFile(quickGolden)
	if err != nil {
		t.Fatalf("missing recorded experiment output: %v", err)
	}
	golden := string(raw)
	var to TierOpts
	to.defaults()
	for _, tc := range []struct {
		id     string
		header func(io.Writer)
	}{
		{"absorb", absorbHeader},
		{"tiering", func(w io.Writer) { tierHeader(w, to.Rate) }},
	} {
		_, start, end := quickSection(t, golden, tc.id)
		var buf bytes.Buffer
		tc.header(&buf)
		if got := buf.String(); !strings.HasPrefix(golden[start:end], got) {
			t.Errorf("%s: header differs from the start of its section of %s:\n%s", tc.id, quickGolden, got)
		}
	}
}

func TestOptionsScaling(t *testing.T) {
	q := Options{Quick: true}
	f := Options{}
	if q.dur(8_000_000_000) >= f.dur(8_000_000_000) {
		t.Fatal("quick duration not shorter")
	}
	if q.records(100_000) >= f.records(100_000) {
		t.Fatal("quick records not smaller")
	}
	if q.records(1000) < 1000 {
		t.Fatal("records floor broken")
	}
}
