package experiments

import (
	"fmt"

	"snapify/internal/simclock"
	"snapify/internal/trace"
	"snapify/internal/workloads"
)

// Fig9Row is one benchmark's runtime with and without Snapify support.
type Fig9Row struct {
	Code              string
	Baseline, Snapify simclock.Duration
	OverheadPct       float64
}

// Fig9Result is the runtime-overhead experiment.
type Fig9Result struct {
	Rows       []Fig9Row
	AveragePct float64
}

// Fig9Scale divides each benchmark's call count for the harness run; the
// per-call costs are constant, so the overhead percentage is
// scale-invariant, and the reported runtimes are extrapolated back to the
// full call count.
const Fig9Scale = 10

// Fig9 measures the runtime overhead the Snapify instrumentation adds to
// the normal (snapshot-free) execution of the eight OpenMP benchmarks.
func Fig9() (*Fig9Result, error) {
	res := &Fig9Result{}
	var sum float64
	for _, spec := range workloads.OpenMP {
		base, err := fig9Run(spec, true)
		if err != nil {
			return nil, fmt.Errorf("fig9 %s baseline: %w", spec.Code, err)
		}
		with, err := fig9Run(spec, false)
		if err != nil {
			return nil, fmt.Errorf("fig9 %s snapify: %w", spec.Code, err)
		}
		row := Fig9Row{
			Code:        spec.Code,
			Baseline:    base,
			Snapify:     with,
			OverheadPct: 100 * float64(with-base) / float64(base),
		}
		sum += row.OverheadPct
		res.Rows = append(res.Rows, row)
	}
	res.AveragePct = sum / float64(len(res.Rows))
	return res, nil
}

// fig9Run executes a scaled run and extrapolates the full-run time.
func fig9Run(spec workloads.Spec, noHooks bool) (simclock.Duration, error) {
	scaledSpec := spec
	scaledSpec.Calls = spec.Calls / Fig9Scale
	if scaledSpec.Calls < 20 {
		scaledSpec.Calls = 20
	}
	cfg := paperServer()
	cfg.NoSnapify = noHooks
	r, err := newRig(cfg, scaledSpec, 0)
	if err != nil {
		return 0, err
	}
	defer r.stop()
	in := r.in
	launchCost := in.Runtime()
	if _, err := in.Run(); err != nil {
		return 0, err
	}
	perCall := (in.Runtime() - launchCost) / simclock.Duration(scaledSpec.Calls)
	return launchCost + perCall*simclock.Duration(spec.Calls), nil
}

// Render prints the figure as a table (bars + the overhead line series).
func (r *Fig9Result) Render() string {
	t := trace.New("Fig 9: Runtime overhead of Snapify (normal execution, no snapshot)",
		"Benchmark", "Baseline", "With Snapify", "Overhead")
	for _, row := range r.Rows {
		t.Row(row.Code, trace.Seconds(row.Baseline), trace.Seconds(row.Snapify),
			fmt.Sprintf("%.2f%%", row.OverheadPct))
	}
	t.Row("average", "", "", fmt.Sprintf("%.2f%%", r.AveragePct))

	chart := trace.NewBarChart("", "s", "runtime with Snapify")
	for _, row := range r.Rows {
		chart.Bar(row.Code, []float64{row.Snapify.Seconds()},
			fmt.Sprintf("(+%.2f%%)", row.OverheadPct))
	}
	return t.String() + "\n" + chart.String()
}

// CheckShape verifies the paper's claims: overhead is positive for every
// benchmark, below 5% everywhere, largest for MD, and the average is in
// the paper's ~1.5% neighbourhood.
func (r *Fig9Result) CheckShape() error {
	var maxCode string
	var maxPct float64
	for _, row := range r.Rows {
		if row.OverheadPct <= 0 {
			return fmt.Errorf("fig9 %s: overhead %.3f%% not positive", row.Code, row.OverheadPct)
		}
		if row.OverheadPct >= 5 {
			return fmt.Errorf("fig9 %s: overhead %.2f%% breaches the 5%% bound", row.Code, row.OverheadPct)
		}
		if row.OverheadPct > maxPct {
			maxPct, maxCode = row.OverheadPct, row.Code
		}
	}
	if maxCode != "MD" {
		return fmt.Errorf("fig9: worst overhead is %s, the paper's is MD", maxCode)
	}
	if r.AveragePct < 0.3 || r.AveragePct > 3 {
		return fmt.Errorf("fig9: average overhead %.2f%% far from the paper's 1.5%%", r.AveragePct)
	}
	return nil
}
