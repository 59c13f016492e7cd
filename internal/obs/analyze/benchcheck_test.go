package analyze

import (
	"strings"
	"testing"
)

const baseDoc = `{
  "benchmark": "parallel-capture",
  "image_bytes": 8589934592,
  "rows": [
    {"streams": 1, "capture_ns": 4000000},
    {"streams": 4, "capture_ns": 1005000}
  ],
  "serial_seconds": 0.004,
  "byte_identical": true
}`

// TestCompareBenchIdentical: a byte-identical fresh run passes clean.
func TestCompareBenchIdentical(t *testing.T) {
	regs, err := CompareBenchJSON([]byte(baseDoc), []byte(baseDoc), DefaultCheckOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("identical docs flagged: %v", regs)
	}
}

// TestCompareBenchPerturbed is the acceptance-criteria property: a
// perturbed metric beyond tolerance is reported (the snapbench -check
// gate exits nonzero on any report).
func TestCompareBenchPerturbed(t *testing.T) {
	fresh := strings.Replace(baseDoc, `"capture_ns": 1005000`, `"capture_ns": 1200000`, 1)
	regs, err := CompareBenchJSON([]byte(baseDoc), []byte(fresh), DefaultCheckOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 {
		t.Fatalf("regressions %v, want exactly the perturbed field", regs)
	}
	if !strings.Contains(regs[0].Path, "rows[1].capture_ns") {
		t.Errorf("regression path %q, want rows[1].capture_ns", regs[0].Path)
	}
	if !strings.Contains(RenderRegressions("BENCH_capture.json", regs), "1 regression") {
		t.Error("render drifted")
	}
}

// TestCompareBenchWithinTolerance: sub-tolerance numeric drift passes.
func TestCompareBenchWithinTolerance(t *testing.T) {
	fresh := strings.Replace(baseDoc, `"capture_ns": 1005000`, `"capture_ns": 1006000`, 1)
	regs, err := CompareBenchJSON([]byte(baseDoc), []byte(fresh), DefaultCheckOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("0.1%% drift flagged at 1%% tolerance: %v", regs)
	}
}

// TestCompareBenchStructuralDrift: missing fields, new fields, array
// length changes, and type flips are all regressions.
func TestCompareBenchStructuralDrift(t *testing.T) {
	cases := []struct {
		name, fresh, wantPath string
	}{
		{"missing field",
			strings.Replace(baseDoc, `"serial_seconds": 0.004,`, ``, 1),
			"serial_seconds"},
		{"new field",
			strings.Replace(baseDoc, `"byte_identical": true`, `"byte_identical": true, "extra": 1`, 1),
			"extra"},
		{"array shrank",
			strings.Replace(baseDoc, ",\n    {\"streams\": 4, \"capture_ns\": 1005000}", ``, 1),
			"rows"},
		{"bool flip",
			strings.Replace(baseDoc, `"byte_identical": true`, `"byte_identical": false`, 1),
			"byte_identical"},
		{"string vs number",
			strings.Replace(baseDoc, `"benchmark": "parallel-capture"`, `"benchmark": 7`, 1),
			"benchmark"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			regs, err := CompareBenchJSON([]byte(baseDoc), []byte(tc.fresh), DefaultCheckOptions())
			if err != nil {
				t.Fatal(err)
			}
			if len(regs) == 0 {
				t.Fatalf("structural drift not flagged")
			}
			found := false
			for _, r := range regs {
				if strings.Contains(r.Path, tc.wantPath) {
					found = true
				}
			}
			if !found {
				t.Errorf("regressions %v do not mention %q", regs, tc.wantPath)
			}
		})
	}
}
