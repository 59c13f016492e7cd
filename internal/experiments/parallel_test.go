package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"snapify/internal/simclock"
)

// TestParallelCaptureShape runs the stream sweep on a smoke-sized image
// (the full 8 GiB sweep is scripts/bench.sh) and pins the acceptance
// shape: 4 streams >= 2x over serial, monotone speedup, byte-identical
// snapshots across all stream counts.
func TestParallelCaptureShape(t *testing.T) {
	res := smoke(t, "parallel capture").(*ParallelCaptureResult)
	if err := res.CheckShape(); err != nil {
		t.Errorf("%v\n%s", err, res.Render())
	}
	if got := len(res.Rows); got != len(ParallelCaptureStreams) {
		t.Fatalf("rows = %d, want %d", got, len(ParallelCaptureStreams))
	}
	// Serial capture is page-walk bound: the sustained rate must sit at
	// the model's 250 MiB/s, and the parallel rows must clear it.
	if r := res.Rows[0].ThroughputMiBs; r < 180 || r > 260 {
		t.Errorf("serial throughput %.0f MiB/s, want near the 250 MiB/s page-walk bound", r)
	}
	out, err := JSON(res)
	if err != nil {
		t.Fatal(err)
	}
	var back ParallelCaptureResult
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatalf("BENCH JSON does not round-trip: %v", err)
	}
	if back.Benchmark != "parallel-capture" || len(back.Rows) != len(res.Rows) {
		t.Errorf("JSON round-trip lost data: %+v", back)
	}
	if !strings.Contains(res.Render(), "Streams") {
		t.Error("render missing header")
	}
}

// TestParallelCaptureRejectsBadSweep pins the serial-baseline contract.
func TestParallelCaptureRejectsBadSweep(t *testing.T) {
	if _, err := ParallelCapture(simclock.MiB, []int{2, 4}); err == nil {
		t.Error("sweep without a serial baseline must be rejected")
	}
	if _, err := ParallelCapture(simclock.MiB, nil); err == nil {
		t.Error("empty sweep must be rejected")
	}
}
