package main

import (
	"bytes"
	"strings"
	"testing"
)

// The driver is exercised end-to-end through run() against the golden
// fixtures under internal/lint/testdata/src — real packages that
// type-check against the module, so findings are guaranteed.

const errcheckFixture = "internal/lint/testdata/src/errcheck"

func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d, stderr: %s", code, stderr.String())
	}
	for _, name := range []string{"errcheck", "maporder", "closeleak"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output lacks analyzer %q:\n%s", name, stdout.String())
		}
	}
	if n := strings.Count(stdout.String(), "\n"); n != 8 {
		t.Errorf("-list printed %d analyzers, want 8:\n%s", n, stdout.String())
	}
}

// TestRunStats: -stats appends one line per analyzer, one for the
// directive check, and a total, after the findings.
func TestRunStats(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-stats", errcheckFixture}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("expected exit 1, got %d\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, name := range []string{"errcheck", "maporder", "closeleak", "nolint", "total"} {
		if !strings.Contains(out, "stats: "+name) {
			t.Errorf("-stats output lacks a line for %q:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "wall=") {
		t.Errorf("-stats output lacks wall-clock figures:\n%s", out)
	}
}
