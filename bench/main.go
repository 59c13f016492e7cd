// Command bench is the repository's performance ruler: six named
// workloads measured on two clocks — the simulated one (what the modelled
// Xeon Phi would take; exact for a seed) and the host one (what the
// simulator costs to run) — plus, in a separate traced run, per-layer
// figures taken from outside the program by timing calls into each
// layer's public API and reading the counters the platform exposes.
//
// One workload, the BENCHMARK.json protocol (last stdout line is the
// result object):
//
//	bench -workload swap_warm -seed 1 -seconds 8 -trace 0
//
// The whole suite, one child process per workload, one JSON document:
//
//	bench [-seed N] [-seconds S] [-only W] [-out F]
//
// Two independent sets of the suite compared against the bounds:
//
//	bench -aa 2
//
// See README.md in this directory for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"

	"snapify/internal/simclock"
)

// stat is one reported metric. N is the sample count behind it; Q1/Q3
// are printed for host timings (n < 20, so no tail percentile: none has
// ten samples beyond it).
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

// result is the last line of a single-workload run.
type result struct {
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Metrics   map[string]stat `json:"metrics"`

	// simJitter is how far the run's repetitions disagreed on a simulated
	// figure, as (max-min)/median; 0 on every deterministic path.
	simJitter float64
	// slowdown is the median calibration ratio of the run's repetitions:
	// how much slower than its quiet self the sandbox was (1 = quiet).
	// rawUserS is the median user CPU before dividing by it.
	slowdown, rawUserS float64
}

// options is one single-workload run.
type options struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Traced   bool
	Scale    scale
	MinReps  int    // repetitions measured at least, whatever Seconds says
	SpansDir string // traced runs write spans-<workload>.json here ("" = nowhere)
}

// simJitterMax is how far repetitions of one input may disagree on a
// simulated figure, as (max-min)/median, before the run is rejected.
const simJitterMax = 1e-2

// relRange is (max-min)/median of xs.
func relRange(xs []float64) float64 {
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return ratio(hi-lo, median(xs))
}

// runWorkload measures one workload: reference runs and one discarded
// warm-up repetition, then timed repetitions for opts.Seconds.
func runWorkload(opts options) (*result, error) {
	w, ok := findWorkload(opts.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opts.Workload)
	}
	var rec *recorder
	if opts.Traced {
		rec = newRecorder()
	}
	onceWall := simclock.StartWall()
	r := w.New(generate(opts.Seed, opts.Scale))
	if err := r.Reference(); err != nil {
		return nil, fmt.Errorf("%s: reference run: %w", w.Name, err)
	}
	if _, err := r.Rep(newMeter(0), nil); err != nil {
		return nil, fmt.Errorf("%s: warm-up repetition: %w", w.Name, err)
	}
	onceSetupS := float64(onceWall.ElapsedNs()) / 1e9
	measuring := simclock.StartWall()

	var (
		reps    []repStats
		costs   []hostCost
		setups  []float64
		bareCPU []float64 // traced runs: calibrated CPU of interleaved unrecorded repetitions
	)
	for {
		m := newMeter(opts.Scale.CalIters)
		st, err := r.Rep(m, rec)
		if err != nil {
			return nil, fmt.Errorf("%s: repetition %d: %w", w.Name, len(reps)+1, err)
		}
		reps = append(reps, st)
		costs = append(costs, m.cost)
		setups = append(setups, m.setupS)
		if opts.Traced {
			// An unrecorded repetition beside each recorded one: the ratio
			// of their CPU costs is what the recording itself costs.
			bare := newMeter(opts.Scale.CalIters)
			if _, err := r.Rep(bare, nil); err != nil {
				return nil, fmt.Errorf("%s: unrecorded repetition: %w", w.Name, err)
			}
			bareCPU = append(bareCPU, bare.cost.CPUS)
			if len(reps) == opts.Scale.TracedReps {
				break
			}
		} else if len(reps) >= opts.MinReps && float64(measuring.ElapsedNs())/1e9 >= opts.Seconds {
			break
		}
	}

	res := &result{Correct: true, Metrics: map[string]stat{}}
	last := reps[len(reps)-1]
	var elapsed, downtime []float64
	for _, st := range reps {
		res.Attempted += st.Ops
		res.Failed += st.Failed
		elapsed = append(elapsed, st.SimElapsed.Seconds())
		downtime = append(downtime, st.SimDowntime.Seconds())
	}
	// Repetitions of one input must agree on the simulated clock. They do
	// to the nanosecond on every serial path; the 4-stream data path's
	// virtual time depends on how its goroutines interleave (fair-share
	// flow accounting), at the 1e-5 level. Anything beyond simJitterMax is
	// not a measurement.
	jitter := math.Max(relRange(elapsed), relRange(downtime))
	res.simJitter = jitter
	if jitter > simJitterMax {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "%s: simulated figures differ by %.3g between repetitions of one input (limit %.3g)\n", w.Name, jitter, simJitterMax)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	pick := func(f func(hostCost) float64) []float64 {
		out := make([]float64, len(costs))
		for i, c := range costs {
			out[i] = f(c)
		}
		return out
	}
	spread := func(unit string, xs []float64) stat {
		q1, med, q3 := quartiles(xs)
		return stat{Value: med, Unit: unit, N: len(xs), Q1: q1, Q3: q3}
	}
	cpu := pick(func(c hostCost) float64 { return c.CPUS })
	res.slowdown = median(pick(func(c hostCost) float64 { return c.Slowdown }))
	res.rawUserS = median(pick(func(c hostCost) float64 { return c.UserS }))

	if !opts.Traced {
		res.Metrics["sim_elapsed_s"] = spread("s", elapsed)
		res.Metrics["sim_downtime_s"] = spread("s", downtime)
		res.Metrics["host_cpu_s"] = spread("s", cpu)
		res.Metrics["host_alloc_mib"] = spread("MiB", pick(func(c hostCost) float64 { return c.AllocMiB }))
		// Per-repetition peaks where the kernel lets the high-water mark
		// be reset; the process's lifetime peak where it does not.
		if rss := pick(func(c hostCost) float64 { return c.PeakRSSMiB }); slices.Min(rss) > 0 {
			res.Metrics["host_peak_rss_mib"] = spread("MiB", rss)
		} else {
			res.Metrics["host_peak_rss_mib"] = stat{Value: peakRSSMiB(), Unit: "MiB", N: 1}
		}
		res.Metrics["setup_s"] = spread("s", setups)
		return res, nil
	}

	layer := map[string]float64{}
	for k, v := range last.Layer {
		layer[k] = v
	}
	layer["host.wall_s"] = median(pick(func(c hostCost) float64 { return c.WallS }))
	layer["host.sys_s"] = median(pick(func(c hostCost) float64 { return c.SysS }))
	layer["host.user_s"] = res.rawUserS
	layer["host.gc_cycles"] = median(pick(func(c hostCost) float64 { return c.GCCycles }))
	layer["host.mallocs"] = median(pick(func(c hostCost) float64 { return c.Mallocs }))
	layer["bench.sim_jitter_frac"] = jitter
	layer["bench.cpu_slowdown"] = res.slowdown
	layer["bench.trace_overhead_frac"] = math.Max(0, ratio(median(cpu), median(bareCPU))-1)
	layer["bench.once_setup_s"] = onceSetupS
	layer["bench.rep_setup_s"] = median(setups)
	for l, ns := range rec.selfTimes() {
		layer["bench.self_"+l+"_host_ns"] = float64(ns) / float64(len(reps))
	}
	if err := runProbes(layer, opts); err != nil {
		return nil, fmt.Errorf("%s: probes: %w", w.Name, err)
	}
	for _, def := range perLayer {
		v := layer[def.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, fmt.Errorf("%s: per-layer metric %s = %v", w.Name, def.Name, v)
		}
		res.Metrics[def.Name] = stat{Value: v, Unit: def.Unit}
	}
	for name := range layer {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("%s: metric %s is produced but not declared in perLayer", w.Name, name)
		}
	}
	if opts.SpansDir != "" {
		if err := writeJSON(filepath.Join(opts.SpansDir, "spans-"+w.Name+".json"), rec.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print the result object as the last line")
		seed         = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", 8, "how long one run measures")
		trace        = flag.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
		spansDir     = flag.String("spans-dir", "", "traced run: write the bench-side spans to spans-<workload>.json in this directory")
		only         = flag.String("only", "", "suite mode: run only this workload")
		out          = flag.String("out", "", "suite mode: write the JSON document here instead of stdout")
		aa           = flag.Int("aa", 0, "run the untraced suite as this many independent sets and compare them against the bounds")
	)
	flag.Parse()
	// One client, closed loop, one P. ISSUE 11 asked for two; measured on
	// the 2-vCPU sandbox, the same swap_cold repetition costs 0.34-0.35 s
	// of user CPU on one P, run after run, and 0.36-2.55 s on two: with a
	// second vCPU the runtime's cross-thread wake-ups and spinning are at
	// the mercy of the hypervisor's scheduling, and CPU time stops being a
	// measure of the work. Goroutines still interleave (the 4-stream data
	// path, the daemons); they just never run on two cores at once.
	runtime.GOMAXPROCS(1)

	if *workloadName != "" {
		res, err := runWorkload(options{
			Workload: *workloadName, Seed: *seed, Seconds: *seconds, Traced: *trace == 1,
			Scale: fullScale, MinReps: 3, SpansDir: *spansDir,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		printTable(os.Stderr, *workloadName, res)
		// Two lines: the full statistics for the suite driver, then the
		// protocol's result object (value and unit only) as the last line.
		full, err := json.Marshal(res)
		if err == nil {
			fmt.Println(string(full))
			for name, s := range res.Metrics {
				res.Metrics[name] = stat{Value: s.Value, Unit: s.Unit}
			}
			full, err = json.Marshal(res)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(full))
		if !res.Correct {
			os.Exit(2)
		}
		return
	}
	if err := suite(*seed, *seconds, *only, *out, *spansDir, *aa); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
