package harness

import (
	"bytes"
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

// TestCheapExperimentsProduceOutput runs the fast experiments end to end;
// the expensive ones are exercised by `go test -bench` and kvell-bench.
func TestCheapExperimentsProduceOutput(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs simulations")
	}
	o := Options{Quick: true, Seed: 1}
	for _, id := range []string{"table1", "table2", "table3", "table4", "fig1", "fig2"} {
		e, ok := Find(id)
		if !ok {
			t.Fatalf("missing %q", id)
		}
		var buf bytes.Buffer
		e.Run(o, &buf)
		out := buf.String()
		if len(out) < 100 {
			t.Errorf("%s produced almost no output", id)
		}
		if !strings.Contains(strings.ToLower(out), "paper") && id != "table4" {
			t.Errorf("%s output does not quote the paper's values", id)
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
