package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// checkFixture type-checks one testdata file as if it lived at module path
// rel, using the fake-import fallback (no export data, no go tool), and runs
// every analyzer. displayName overrides the filename recorded in positions,
// letting tests exercise the _test.go exemption.
func checkFixture(t *testing.T, rel, displayName, fixture string) ([]Diagnostic, []string) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", fixture))
	if err != nil {
		t.Fatalf("read fixture: %v", err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, displayName, src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	pkg := &Package{
		Path:  "kvell/" + rel,
		Rel:   rel,
		Fset:  fset,
		Files: []*ast.File{f},
		Info:  newInfo(),
	}
	conf := types.Config{
		Importer: newExportImporter(fset, map[string]string{}),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Types, _ = conf.Check(pkg.Path, fset, pkg.Files, pkg.Info)
	return Check([]*Package{pkg}, All()), strings.Split(string(src), "\n")
}

// wantMarkers extracts "line:analyzer" expectations from "// want <analyzer>"
// comments in the fixture source.
func wantMarkers(lines []string) []string {
	var want []string
	for i, line := range lines {
		idx := strings.Index(line, "// want ")
		if idx < 0 {
			continue
		}
		for _, name := range strings.Fields(line[idx+len("// want "):]) {
			want = append(want, fmt.Sprintf("%d:%s", i+1, name))
		}
	}
	sort.Strings(want)
	return want
}

func gotKeys(diags []Diagnostic) []string {
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%d:%s", d.Pos.Line, d.Analyzer))
	}
	sort.Strings(got)
	return got
}

func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		fixture string
		rel     string
	}{
		{"walltime.go", "internal/core"},
		{"randfix.go", "internal/ycsb"},
		{"maporder.go", "internal/core"},
		{"goroutine.go", "internal/engine/betree"},
		{"suppress.go", "internal/core"},
		{"tracetime.go", "internal/trace"},
		{"poolescape.go", "internal/engine/lsm"},
		{"spanclose.go", "internal/engine/wtree"},
		{"errflow.go", "internal/sim"},
		{"ptrleak.go", "internal/stats"},
		{"edgecases.go", "internal/core"},
		// The cluster-model packages are sim-driven like internal/core: both
		// position-sensitive analyzers must fire there with no allowlist
		// entry (raw goroutines or wall-clock reads in the network or
		// replication path would silently break cluster determinism).
		{"walltime.go", "internal/net"},
		{"goroutine.go", "internal/net"},
		{"walltime.go", "internal/cluster"},
		{"goroutine.go", "internal/cluster"},
		// The transaction layer's determinism story depends on every retry
		// backoff being seeded and every timestamp coming from the virtual
		// clock: both analyzers must fire in internal/mvcc and internal/txn
		// with no allowlist entry.
		{"walltime.go", "internal/mvcc"},
		{"randfix.go", "internal/mvcc"},
		{"walltime.go", "internal/txn"},
		{"randfix.go", "internal/txn"},
	}
	for _, tc := range cases {
		t.Run(tc.fixture+"@"+tc.rel, func(t *testing.T) {
			diags, lines := checkFixture(t, tc.rel, "testdata/"+tc.fixture, tc.fixture)
			want := wantMarkers(lines)
			got := gotKeys(diags)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("diagnostics mismatch\n got: %v\nwant: %v\nfull:\n%s",
					got, want, renderDiags(diags))
			}
		})
	}
}

// Allowlisted packages produce no findings from the position-sensitive
// analyzers; norand has no allowlist and keeps firing everywhere.
func TestAllowlistBoundaries(t *testing.T) {
	cases := []struct {
		fixture string
		rel     string
		want    int
	}{
		{"walltime.go", "cmd/kvell-bench", 0},
		{"walltime.go", "examples/demo", 0},
		{"walltime.go", "internal/env", 0},
		{"walltime.go", "internal/envoy", 6}, // prefix must not over-match
		{"goroutine.go", "internal/sim", 3},  // the kernel passes its own lint: procs are coroutines
		{"goroutine.go", "internal/env", 0},
		{"goroutine.go", "cmd/kvell-bench", 0},
		{"goroutine.go", "internal/envoy", 3}, // exact match only
		{"randfix.go", "cmd/kvell-bench", 4},  // norand applies everywhere
		{"tracetime.go", "internal/core", 0},  // import rule scoped to internal/trace
	}
	for _, tc := range cases {
		t.Run(tc.fixture+"@"+tc.rel, func(t *testing.T) {
			diags, _ := checkFixture(t, tc.rel, "testdata/"+tc.fixture, tc.fixture)
			if len(diags) != tc.want {
				t.Errorf("got %d diagnostics, want %d:\n%s", len(diags), tc.want, renderDiags(diags))
			}
		})
	}
}

// nogoroutine exempts _test.go files (tests may drive the real runtime);
// nowalltime does not (a test reading the wall clock is still nondeterministic).
func TestTestFileExemption(t *testing.T) {
	diags, _ := checkFixture(t, "internal/engine/betree", "testdata/fixture_test.go", "goroutine.go")
	if len(diags) != 0 {
		t.Errorf("nogoroutine should skip _test.go files, got:\n%s", renderDiags(diags))
	}
	diags, lines := checkFixture(t, "internal/core", "testdata/fixture_test.go", "walltime.go")
	if got, want := gotKeys(diags), wantMarkers(lines); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("nowalltime must apply to _test.go files too\n got: %v\nwant: %v", got, want)
	}
}

func TestMalformedSuppressions(t *testing.T) {
	diags, _ := checkFixture(t, "internal/core", "testdata/badsuppress.go", "badsuppress.go")
	wantLines := []int{4, 7, 10}
	if len(diags) != len(wantLines) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(wantLines), renderDiags(diags))
	}
	wantSubstr := []string{"missing analyzer", "unknown analyzer", "no reason"}
	for i, d := range diags {
		if d.Analyzer != "lint-ignore" {
			t.Errorf("diag %d: analyzer %q, want lint-ignore", i, d.Analyzer)
		}
		if d.Pos.Line != wantLines[i] {
			t.Errorf("diag %d: line %d, want %d", i, d.Pos.Line, wantLines[i])
		}
		if !strings.Contains(d.Message, wantSubstr[i]) {
			t.Errorf("diag %d: message %q does not mention %q", i, d.Message, wantSubstr[i])
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
		Analyzer: "nowalltime",
		Message:  "wall-clock call",
		Hint:     "use the virtual clock",
	}
	want := "x.go:3:7: [nowalltime] wall-clock call\n\tfix: use the virtual clock"
	if d.String() != want {
		t.Errorf("String() = %q, want %q", d.String(), want)
	}
	d.Hint = ""
	if got := d.String(); strings.Contains(got, "fix:") {
		t.Errorf("String() with empty hint still prints a fix line: %q", got)
	}
}

func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incompletely registered", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the registered analyzer", a.Name)
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName of unknown analyzer should be nil")
	}
}

// The repository itself must be clean: this is the same check the
// cmd/kvell-lint driver and CI run, executed via the loader end to end.
func TestLoadPackagesRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go tool")
	}
	pkgs, err := LoadPackages("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("LoadPackages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("LoadPackages returned no packages")
	}
	var self *Package
	for _, p := range pkgs {
		if p.Rel == "internal/analysis" {
			self = p
		}
	}
	if self == nil {
		t.Fatal("internal/analysis not among loaded packages")
	}
	if len(self.Files) == 0 || self.Types == nil {
		t.Fatal("internal/analysis loaded without syntax or types")
	}
	if diags := Check(pkgs, All()); len(diags) != 0 {
		t.Errorf("repository is not lint-clean:\n%s", renderDiags(diags))
	}
}

func renderDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	return b.String()
}
