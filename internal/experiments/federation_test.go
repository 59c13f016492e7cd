package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"snapify/internal/simclock"
)

// TestFederationBenchSmoke runs the federation benchmark at smoke
// scale and holds it to its own acceptance shape: >= 2x cross-host
// dedup on warm legs, byte-identical restart-from-replica after a host
// kill, a repaired replica set, and clean stores.
func TestFederationBenchSmoke(t *testing.T) {
	res := smoke(t, "federation").(*FederationResult)
	if err := res.CheckShape(); err != nil {
		t.Fatal(err)
	}
	if res.CrossHostDedupX < 2 {
		t.Errorf("cross-host dedup %.2fx, want >= 2", res.CrossHostDedupX)
	}
	out, err := JSON(res)
	if err != nil {
		t.Fatal(err)
	}
	var round FederationResult
	if err := json.Unmarshal(out, &round); err != nil {
		t.Fatalf("result JSON does not round-trip: %v", err)
	}
	if round.Benchmark != "federation" {
		t.Errorf("benchmark field %q", round.Benchmark)
	}
	if !strings.Contains(res.Render(), "cross-host dedup") {
		t.Error("render misses the headline number")
	}
}

// TestFederationBenchRejectsBadShape covers the parameter guards.
func TestFederationBenchRejectsBadShape(t *testing.T) {
	if _, err := FederationBench(32*simclock.MiB, 2, 4); err == nil {
		t.Error("2 hosts must be rejected (no repair target)")
	}
	if _, err := FederationBench(32*simclock.MiB, 3, 1); err == nil {
		t.Error("1 leg must be rejected (no warm measurement)")
	}
}
