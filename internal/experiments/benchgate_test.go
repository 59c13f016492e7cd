package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"snapify/internal/simclock"
)

// writeBaseline records res's document under dir as BENCH_<name>.json.
func writeBaseline(t *testing.T, dir, name string, res Result) string {
	t.Helper()
	out, err := JSON(res)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH_"+name+".json")
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// gateBaseline runs a tiny parallel-capture sweep and writes its JSON to
// dir as a BENCH baseline for the gate tests.
func gateBaseline(t *testing.T, dir string) string {
	t.Helper()
	res, err := ParallelCapture(64*simclock.MiB, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	return writeBaseline(t, dir, "capture", res)
}

// TestCheckBaselinesClean pins that a freshly generated baseline passes
// the gate: the virtual clock makes the re-run byte-reproducible on
// every field.
func TestCheckBaselinesClean(t *testing.T) {
	dir := t.TempDir()
	gateBaseline(t, dir)
	report, ok, err := CheckBaselines(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("fresh baseline regressed:\n%s", report)
	}
	if !strings.Contains(report, "BENCH_capture.json") {
		t.Errorf("report does not name the baseline:\n%s", report)
	}
}

// brokenTrace is a document whose replay reproduces it exactly and claims
// nothing, but whose trace no Chrome trace viewer would load.
type brokenTrace struct {
	Benchmark string `json:"benchmark"`
}

func (b *brokenTrace) Render() string          { return b.Benchmark }
func (b *brokenTrace) CheckShape() error       { return nil }
func (b *brokenTrace) replay() (Result, error) { return b, nil }
func (b *brokenTrace) TraceJSON() []byte       { return []byte(`{"traceEvents": []}`) }

// TestCheckBaselinesPerturbed is the acceptance probe: each of the three
// things the gate holds a replay to must fail it on its own (snapbench
// -check exits nonzero on this same ok=false).
func TestCheckBaselinesPerturbed(t *testing.T) {
	t.Run("drifted field", func(t *testing.T) {
		dir := t.TempDir()
		path := gateBaseline(t, dir)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		doc := string(b)
		if !strings.Contains(doc, `"capture_ns"`) {
			t.Fatalf("baseline has no capture_ns field to perturb:\n%s", doc)
		}
		// Shift every capture_ns by an order of magnitude — far past the 1%
		// tolerance on every row.
		doc = strings.ReplaceAll(doc, `"capture_ns": `, `"capture_ns": 9`)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		report, ok, err := CheckBaselines(dir)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("perturbed baseline passed the gate:\n%s", report)
		}
		if !strings.Contains(report, "capture_ns") {
			t.Errorf("report does not blame the perturbed field:\n%s", report)
		}
	})

	// Two swap cycles of a 32 MiB heap cannot reach the 3x shipped-byte
	// reduction the dedup benchmark claims (the cold one ships every
	// non-zero chunk, and at this size the runtime's non-zero regions are
	// most of the image), so this baseline replays to itself field for
	// field and still has to fail.
	t.Run("broken claim", func(t *testing.T) {
		dir := t.TempDir()
		res, err := DedupSwap(32*simclock.MiB, 2)
		if err != nil {
			t.Fatal(err)
		}
		if res.CheckShape() == nil {
			t.Fatal("a two-cycle dedup swap passes CheckShape; the case needs a run that violates a claim")
		}
		writeBaseline(t, dir, "dedup", res)
		report, ok, err := CheckBaselines(dir)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("a baseline whose replay violates a CheckShape claim passed the gate:\n%s", report)
		}
		if !strings.Contains(report, "1 regression(s)") || !strings.Contains(report, "CheckShape: dedup swap") {
			t.Errorf("want the broken claim as the one regression:\n%s", report)
		}
	})

	t.Run("invalid trace", func(t *testing.T) {
		dir := t.TempDir()
		writeBaseline(t, dir, "broken", &brokenTrace{Benchmark: "broken-trace"})
		table := []Experiment{{Name: "broken trace", ID: "broken-trace", doc: func() Document { return new(brokenTrace) }}}
		report, ok, err := checkBaselines(dir, table)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("a baseline whose replay exports an invalid Chrome trace passed the gate:\n%s", report)
		}
		if !strings.Contains(report, "1 regression(s)") || !strings.Contains(report, "TraceJSON: trace:") {
			t.Errorf("want the invalid trace as the one regression:\n%s", report)
		}
	})
}

// TestCheckBaselinesEmptyDir pins that the gate refuses to vacuously
// pass when no baselines are present.
func TestCheckBaselinesEmptyDir(t *testing.T) {
	if _, _, err := CheckBaselines(t.TempDir()); err == nil {
		t.Fatal("gate passed with no baselines to check")
	}
}

// TestCheckBaselinesUnknownBenchmark pins the gate erroring (not
// passing) on a baseline it does not know how to replay.
func TestCheckBaselinesUnknownBenchmark(t *testing.T) {
	dir := t.TempDir()
	doc := `{"benchmark": "warp-drive", "rows": []}`
	if err := os.WriteFile(filepath.Join(dir, "BENCH_warp.json"), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := CheckBaselines(dir)
	if err == nil || !strings.Contains(err.Error(), "warp-drive") {
		t.Fatalf("gate error = %v, want unknown-benchmark", err)
	}
}
