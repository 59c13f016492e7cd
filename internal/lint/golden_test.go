package lint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden fixtures under testdata/src/<analyzer>/ seed one violation
// per `// want "substr"` comment; running the named analyzer over the
// fixture must produce exactly those findings, in addition to one
// amended finding per line that ends with a bare //nolint directive
// (which, by design, does not suppress).

// want is one expected finding.
type want struct {
	file string
	line int
	sub  string
}

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// fixtureWants scans every .go file of a fixture directory for the two
// expectation forms.
func fixtureWants(t *testing.T, dir, analyzer string) []want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var wants []want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading fixture: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := wantRe.FindStringSubmatch(line); m != nil {
				wants = append(wants, want{file: path, line: i + 1, sub: m[1]})
			}
			if strings.HasSuffix(strings.TrimSpace(line), "//nolint:"+analyzer) {
				wants = append(wants, want{file: path, line: i + 1,
					sub: "suppresses only with a justification"})
			}
		}
	}
	return wants
}

func loadFixture(t *testing.T, rel string) (*Loader, *Package) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := l.LoadDir(filepath.Join("internal/lint/testdata/src", rel))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", rel, err)
	}
	if pkg == nil {
		t.Fatalf("fixture %s has no Go files", rel)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s does not type-check: %v", rel, terr)
	}
	return l, pkg
}

func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	a := ByName(name)
	if a == nil {
		t.Fatalf("no analyzer named %q", name)
	}
	return a
}

func TestGolden(t *testing.T) {
	for _, name := range []string{"errcheck", "wallclock", "paniclib", "rawprint", "faultgate", "storegate", "maporder", "closeleak"} {
		t.Run(name, func(t *testing.T) {
			_, pkg := loadFixture(t, name)
			findings := Run([]*Package{pkg}, []*Analyzer{analyzerByName(t, name)})
			wants := fixtureWants(t, pkg.Dir, name)
			checkFindings(t, findings, wants)
		})
	}
}

// TestStaleDirectives runs every analyzer over the nolint fixture: a
// directive that suppresses a finding stays silent, and one that
// suppresses nothing or names no registered analyzer is reported.
func TestStaleDirectives(t *testing.T) {
	_, pkg := loadFixture(t, "nolint")
	checkFindings(t, Run([]*Package{pkg}, All()), fixtureWants(t, pkg.Dir, "paniclib"))
}

func checkFindings(t *testing.T, findings []Finding, wants []want) {
	t.Helper()
	matched := make([]bool, len(findings))
	for _, w := range wants {
		found := false
		for i, f := range findings {
			if !matched[i] && f.File == w.file && f.Line == w.line && strings.Contains(f.Message, w.sub) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing finding %s:%d containing %q\n%s", w.file, w.line, w.sub, sourceContext(w.file, w.line))
		}
	}
	for i, f := range findings {
		if !matched[i] {
			t.Errorf("unexpected finding %s:%d: [%s] %s\n%s", f.File, f.Line, f.Analyzer, f.Message, sourceContext(f.File, f.Line))
		}
	}
}

// sourceContext renders the fixture lines around a mismatch, with the
// offending line marked — a missing or unexpected finding is diagnosable
// from the test log alone, without opening the fixture.
func sourceContext(file string, line int) string {
	data, err := os.ReadFile(file)
	if err != nil {
		return "\t(no source context: " + err.Error() + ")"
	}
	lines := strings.Split(string(data), "\n")
	lo, hi := line-3, line+3
	if lo < 1 {
		lo = 1
	}
	if hi > len(lines) {
		hi = len(lines)
	}
	var b strings.Builder
	for i := lo; i <= hi; i++ {
		mark := "  "
		if i == line {
			mark = "> "
		}
		fmt.Fprintf(&b, "\t%s%4d | %s\n", mark, i, lines[i-1])
	}
	return strings.TrimRight(b.String(), "\n")
}

// TestWallclockExemptsSimclock proves the one sanctioned wall-clock
// package (an import path ending in internal/simclock) is skipped.
func TestWallclockExemptsSimclock(t *testing.T) {
	_, pkg := loadFixture(t, "internal/simclock")
	if findings := Run([]*Package{pkg}, []*Analyzer{analyzerByName(t, "wallclock")}); len(findings) != 0 {
		t.Fatalf("expected no findings in the simclock fixture, got %v", findings)
	}
}

// TestRawPrintExemptsObs proves the rendering layer (an import path
// ending in internal/obs) is the one internal package allowed to print.
func TestRawPrintExemptsObs(t *testing.T) {
	_, pkg := loadFixture(t, "internal/obs")
	if findings := Run([]*Package{pkg}, []*Analyzer{analyzerByName(t, "rawprint")}); len(findings) != 0 {
		t.Fatalf("expected no findings in the obs fixture, got %v", findings)
	}
}

// TestFaultgateExemptsChokePoints proves the real fault-injection choke
// points — the packages that implement the hooks — pass the gate.
func TestFaultgateExemptsChokePoints(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	for _, rel := range []string{"internal/simnet", "internal/scif", "internal/snapifyio", "internal/coi", "internal/snapstore"} {
		pkg, err := l.LoadDir(rel)
		if err != nil {
			t.Fatalf("loading %s: %v", rel, err)
		}
		if findings := Run([]*Package{pkg}, []*Analyzer{analyzerByName(t, "faultgate")}); len(findings) != 0 {
			t.Errorf("expected no findings in %s, got %v", rel, findings)
		}
	}
}

// TestStoregateExemptsSnapstore proves the snapshot store itself — the
// one sanctioned digest site — passes the gate, and that the rest of the
// tree computes no chunk digests outside it.
func TestStoregateExemptsSnapstore(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := l.LoadDir("internal/snapstore")
	if err != nil {
		t.Fatalf("loading internal/snapstore: %v", err)
	}
	if findings := Run([]*Package{pkg}, []*Analyzer{analyzerByName(t, "storegate")}); len(findings) != 0 {
		t.Errorf("expected no findings in internal/snapstore, got %v", findings)
	}
}

// TestFindingJSON pins the JSON field names the -json mode emits, so CI
// diffs stay stable across refactors.
func TestFindingJSON(t *testing.T) {
	_, pkg := loadFixture(t, "paniclib")
	findings := Run([]*Package{pkg}, []*Analyzer{analyzerByName(t, "paniclib")})
	if len(findings) == 0 {
		t.Fatal("paniclib fixture produced no findings")
	}
	raw, err := json.Marshal(findings[0])
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	for _, key := range []string{"analyzer", "file", "line", "col", "message"} {
		if _, ok := m[key]; !ok {
			t.Errorf("JSON finding lacks %q field: %s", key, raw)
		}
	}
	if m["analyzer"] != "paniclib" {
		t.Errorf("analyzer field = %v, want paniclib", m["analyzer"])
	}
}
