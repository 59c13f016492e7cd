package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"snapify/internal/simclock"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileMatchesProgram holds BENCHMARK.json and the program's
// own tables in step: same workloads, same metrics, same units,
// directions and bounds.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(f.Workloads), len(allWorkloads))
	}
	for i, w := range f.Workloads {
		if w.Name != allWorkloads[i].Name || w.Why != allWorkloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, allWorkloads[i].Name, allWorkloads[i].Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.Name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the program has %d", len(f.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the program has %d", len(f.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range f.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("per-layer name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}
}

func tinyRun(t *testing.T, name string, seed uint64, traced bool) *result {
	t.Helper()
	wall := simclock.StartWall()
	res, err := runWorkload(options{Workload: name, Seed: seed, Traced: traced, Scale: tinyScale, MinReps: 2})
	t.Logf("%s seed %d traced %v: %.1f s", name, seed, traced, float64(wall.ElapsedNs())/1e9)
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s seed %d: correct=%v attempted=%d failed=%d", name, seed, res.Correct, res.Attempted, res.Failed)
	}
	for n, s := range res.Metrics {
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) || s.Value < 0 {
			t.Errorf("%s: %s = %v", name, n, s.Value)
		}
	}
	return res
}

// TestEndToEndMetrics runs every workload at tiny scale: every end-to-end
// metric is emitted and positive, and the repetitions of one input agree
// on the simulated clock — to the nanosecond on the serial paths, within
// simJitterMax on ckpt_plain, whose 4-stream ops depend on how their
// goroutines interleave.
func TestEndToEndMetrics(t *testing.T) {
	for _, w := range allWorkloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			res := tinyRun(t, w.Name, 1, false)
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, def := range endToEnd {
				s, ok := res.Metrics[def.Name]
				if !ok || s.Value <= 0 || s.Unit != def.Unit {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", def.Name, s, ok, def.Unit)
				}
			}
			if !w.SimJitter && res.simJitter != 0 {
				t.Errorf("repetitions of one input differ on the simulated clock by %v", res.simJitter)
			}
			if w.Name == "fleet_oversub" {
				other := tinyRun(t, w.Name, 2, false)
				if res.Metrics["sim_elapsed_s"].Value == other.Metrics["sim_elapsed_s"].Value {
					t.Error("another seed gave the same simulated makespan — the seed does not reach the trace")
				}
			}
		})
	}
}

// TestPerLayerMetrics runs the traced mode on a store workload and on the
// fleet: every per-layer metric is emitted, the critical path's layers
// sum to its window by integer equality, and the separation holds (the
// store is busy and the fleet idle on swap_warm, the reverse on
// fleet_oversub).
func TestPerLayerMetrics(t *testing.T) {
	for _, name := range []string{"swap_warm", "fleet_oversub"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			perLayerRun(t, name)
		})
	}
}

func perLayerRun(t *testing.T, name string) {
	res := tinyRun(t, name, 1, true)
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(perLayer))
	}
	for _, def := range perLayer {
		if s, ok := res.Metrics[def.Name]; !ok || s.Unit != def.Unit {
			t.Errorf("%s: %s missing or in %q, want %q", name, def.Name, s.Unit, def.Unit)
		}
	}
	v := func(n string) float64 { return res.Metrics[n].Value }
	var sum int64
	for _, l := range critLayers {
		sum += int64(v("crit." + l + "_sim_ns"))
	}
	if sum != int64(v("crit.window_sim_ns")) {
		t.Errorf("%s: crit layers sum to %d ns, window is %d ns", name, sum, int64(v("crit.window_sim_ns")))
	}
	switch name {
	case "swap_warm":
		if v("crit.snapstore_sim_ns") <= 0 || v("fleetd.events") != 0 || v("simnet.pcie_mib") <= 0 {
			t.Errorf("swap_warm: store on the critical path %v ns, fleet events %v, pcie %v MiB", v("crit.snapstore_sim_ns"), v("fleetd.events"), v("simnet.pcie_mib"))
		}
		if v("snapstore.chunks_needed_frac") <= 0 || v("snapstore.chunks_needed_frac") >= 0.5 {
			t.Errorf("swap_warm: warm cycles needed %v of the chunks they negotiated", v("snapstore.chunks_needed_frac"))
		}
	case "fleet_oversub":
		if v("fleetd.events") <= 0 || v("simnet.pcie_mib") != 0 || v("crit.window_sim_ns") != 0 {
			t.Errorf("fleet_oversub: fleet events %v, pcie %v MiB, crit window %v", v("fleetd.events"), v("simnet.pcie_mib"), v("crit.window_sim_ns"))
		}
	}
}
