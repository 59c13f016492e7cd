package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// snapbench runs the command in-process and returns its exit code and
// streams.
func snapbench(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// An unknown table or figure number used to print nothing and exit 0.
func TestUnknownExhibitNumberIsAUsageError(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		valid string
	}{
		{[]string{"-table", "7"}, "2, 3, 4"},
		{[]string{"-fig", "3"}, "9, 10, 11"},
		{[]string{"-fig", "3", "-check"}, "9, 10, 11"},
	} {
		code, stdout, stderr := snapbench(tc.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, tc.valid) {
			t.Errorf("snapbench %v: exit %d, stdout %q, stderr %q; want exit 2, nothing printed, the valid numbers %s listed",
				tc.args, code, stdout, stderr, tc.valid)
		}
	}
}

// Two documents into one -json file used to leave the second silently
// replacing the first.
func TestJSONNeedsExactlyOneDocument(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	code, stdout, stderr := snapbench("-parallel", "-store", "-smoke", "-json", path)
	if code != 2 || stdout != "" || !strings.Contains(stderr, "-parallel") || !strings.Contains(stderr, "-store") {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 2 before anything runs, naming both experiments", code, stdout, stderr)
	}
	if _, err := os.Stat(path); err == nil {
		t.Errorf("%s was written", path)
	}
	if code, _, stderr := snapbench("-table", "3", "-trace", path); code != 2 || !strings.Contains(stderr, "-trace") {
		t.Errorf("-trace with no traced experiment: exit %d, stderr %q; want a usage error", code, stderr)
	}
}

// -faults is an experiment like the others: it honours -json (its
// document used to be unreachable from the command line).
func TestFaultsHonoursJSON(t *testing.T) {
	dir := t.TempDir()
	plan := filepath.Join(dir, "plan.json")
	doc := filepath.Join(dir, "BENCH_faults.json")
	planJSON := `[{"site": "scif.send", "key": "mic0->host", "kind": "drop", "nth": 3},
	              {"site": "snapifyio.chunk", "kind": "drop", "nth": 5}]`
	if err := os.WriteFile(plan, []byte(planJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := snapbench("-faults", plan, "-smoke", "-json", doc)
	if code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout, stderr)
	}
	for _, want := range []string{"Faulted capture: 256MB", "[faulted capture shape check: OK]", "[wrote " + doc + "]"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
	out, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"benchmark": "faulted-capture"`) || !strings.Contains(string(out), `"scif.send"`) {
		t.Errorf("%s is not the faulted-capture document with its plan:\n%s", doc, out)
	}
}

// -check <dir> is the baseline gate and runs alone; selectors beside it
// used to be ignored.
func TestBaselineGateRefusesSelectors(t *testing.T) {
	for _, args := range [][]string{
		{"-parallel", "-check", "../../baselines"},
		{"-check", "../../baselines", "-parallel"},
		{"-smoke", "-check", "../../baselines"},
		{"../../baselines"},
	} {
		code, stdout, stderr := snapbench(args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "-check <dir>") {
			t.Errorf("snapbench %v: exit %d, stdout %q, stderr %q; want exit 2 and nothing run", args, code, stdout, stderr)
		}
	}
	code, _, stderr := snapbench("-check", t.TempDir())
	if code != 1 || !strings.Contains(stderr, "no BENCH_*.json baselines") {
		t.Errorf("gate over an empty directory: exit %d, stderr %q; want exit 1 (the gate could not run)", code, stderr)
	}
}

// The dispatcher's output conventions, on the cheapest experiments: a
// claim-free exhibit prints no check line, and -check adds the paper
// exhibits' lines, each followed by a blank one.
func TestStdoutConventions(t *testing.T) {
	golden := func(name string) string {
		b, err := os.ReadFile(filepath.Join("../../internal/experiments/testdata/golden", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	code, stdout, stderr := snapbench("-table", "2", "-check")
	if want := golden("table_2.txt") + "\n"; code != 0 || stdout != want {
		t.Errorf("-table 2 -check: exit %d, stderr %q, stdout:\n%s\nwant:\n%s", code, stderr, stdout, want)
	}
	code, stdout, stderr = snapbench("-table", "3", "-check")
	if want := golden("table_3.txt") + "\n[table 3 shape check: OK]\n\n"; code != 0 || stdout != want {
		t.Errorf("-table 3 -check: exit %d, stderr %q, stdout:\n%s\nwant:\n%s", code, stderr, stdout, want)
	}
	if code, stdout, _ = snapbench("-table", "3"); code != 0 || stdout != golden("table_3.txt")+"\n" {
		t.Errorf("-table 3: exit %d, stdout:\n%s", code, stdout)
	}
}
