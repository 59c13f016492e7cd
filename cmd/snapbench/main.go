// Command snapbench regenerates every table and figure of the paper's
// evaluation (Section 7) on the simulated platform and prints them in the
// paper's layout. Times are virtual (see internal/simclock and DESIGN.md);
// the shapes — who wins, by what factor, where the crossovers fall — are
// the reproduction targets.
//
// Usage:
//
//	snapbench -all            # everything (the default)
//	snapbench -table 3        # one table (2, 3, or 4)
//	snapbench -fig 10         # one figure (9, 10, or 11)
//	snapbench -check          # also verify the paper's qualitative claims
//	snapbench -check baselines/
//	                          # regression gate: re-run every committed
//	                          # BENCH_*.json at its recorded parameters and
//	                          # fail on any drifted non-wall field
//	snapbench -parallel -analyze
//	                          # also print a critical-path breakdown of the
//	                          # run's trace (works with -store and -migrate)
//	snapbench -parallel -json BENCH_capture.json
//	                          # the multi-stream capture sweep, JSON'd
//	snapbench -parallel -smoke
//	                          # same sweep on a small image (CI gate)
//	snapbench -parallel -trace out.json
//	                          # also export the sweep's virtual-clock trace
//	                          # (Chrome trace-event JSON; open in Perfetto)
//	snapbench -store -json BENCH_dedup.json
//	                          # repeated swap cycles through the dedup store
//	                          # vs plain files: bytes shipped each way
//	snapbench -store -smoke   # same comparison on a small image (CI gate)
//	snapbench -migrate -json BENCH_migrate.json
//	                          # stop-the-world vs live (pre-copy) migration
//	                          # downtime across the image-size grid
//	snapbench -migrate -smoke # same sweep on small images (CI gate)
//	snapbench -faults plan.json
//	                          # capture under an injected fault plan; report
//	                          # the degraded-path (retry/replay) overhead
package main

import (
	"flag"
	"fmt"
	"os"

	"snapify/internal/experiments"
	"snapify/internal/faultinject"
	"snapify/internal/obs"
	"snapify/internal/obs/analyze"
	"snapify/internal/simclock"
)

func main() {
	table := flag.Int("table", 0, "regenerate one table (2, 3, or 4)")
	fig := flag.Int("fig", 0, "regenerate one figure (9, 10, or 11)")
	ablations := flag.Bool("ablations", false, "run the design-choice ablations")
	benches := make([]*bool, len(experiments.Benches))
	for i, b := range experiments.Benches {
		benches[i] = flag.Bool(b.Flag, false, b.Usage)
	}
	jsonPath := flag.String("json", "", "with -parallel, -store, or -migrate: also write the result as JSON to this file")
	tracePath := flag.String("trace", "", "with -parallel, -store, or -migrate: write the run's Chrome trace-event JSON to this file (open in Perfetto)")
	smoke := flag.Bool("smoke", false, "with -parallel, -store, -migrate, or -faults: use a small image (fast CI smoke, shape still checked)")
	faults := flag.String("faults", "", "path to a fault-plan JSON; benchmark a capture riding out the plan via retry (see internal/faultinject)")
	all := flag.Bool("all", false, "regenerate everything")
	check := flag.Bool("check", false, "verify the paper's qualitative claims against the results; with a directory argument, run the baseline regression gate instead")
	analyzeTrace := flag.Bool("analyze", false, "with -parallel, -store, or -migrate: print a critical-path breakdown of the run's trace")
	flag.Parse()

	// `snapbench -check baselines/` is the regression gate: re-run every
	// committed BENCH_*.json at its recorded parameters and exit nonzero
	// if any non-wall field drifted. It runs alone — gating and
	// regenerating in one invocation would compare a thing to itself.
	if *check && flag.NArg() > 0 {
		report, ok, err := experiments.CheckBaselines(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "snapbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(report)
		if !ok {
			fmt.Fprintln(os.Stderr, "snapbench: baseline regression gate FAILED")
			os.Exit(1)
		}
		fmt.Println("[baseline regression gate: OK]")
		return
	}

	anyBench := false
	for _, on := range benches {
		anyBench = anyBench || *on
	}
	if !*all && *table == 0 && *fig == 0 && !*ablations && !anyBench && *faults == "" {
		*all = true
	}

	type renderable interface {
		Render() string
		CheckShape() error
	}
	run := func(name string, f func() (renderable, error)) {
		res, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "snapbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(res.Render())
		if *check {
			if err := res.CheckShape(); err != nil {
				fmt.Fprintf(os.Stderr, "snapbench: %s shape check FAILED: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Printf("[%s shape check: OK]\n\n", name)
		}
	}

	if *all || *table == 2 {
		fmt.Println(experiments.Table2())
	}
	if *all || *table == 3 {
		run("table 3", func() (renderable, error) { return experiments.Table3() })
	}
	if *all || *table == 4 {
		run("table 4", func() (renderable, error) { return experiments.Table4() })
	}
	if *all || *fig == 9 {
		run("fig 9", func() (renderable, error) { return experiments.Fig9() })
	}
	if *all || *fig == 10 {
		run("fig 10", func() (renderable, error) { return experiments.Fig10() })
	}
	if *all || *fig == 11 {
		run("fig 11", func() (renderable, error) { return experiments.Fig11() })
	}
	if *all || *ablations {
		runAblations(*check)
	}
	for i, b := range experiments.Benches {
		switch {
		case *benches[i]:
			runBench(b, *smoke, *jsonPath, *tracePath, *analyzeTrace)
		case *all:
			// -all writes no files; only a benchmark asked for by name
			// honors -json/-trace.
			runBench(b, *smoke, "", "", *analyzeTrace)
		}
	}
	if *faults != "" {
		runFaults(*faults, *smoke)
	}
}

// runBench executes one standing benchmark (experiments.Benches): render,
// shape check, then the optional critical-path breakdown, JSON and trace
// files. The shape check always runs, -check or not: each benchmark exists
// to pin the claims its CheckShape lists.
func runBench(b experiments.Bench, smoke bool, jsonPath, tracePath string, doAnalyze bool) {
	die := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "snapbench: "+format+"\n", args...)
		os.Exit(1)
	}
	write := func(path string, out []byte, note string) {
		if err := os.WriteFile(path, out, 0o644); err != nil {
			die("writing %s: %v", path, err)
		}
		fmt.Printf("[wrote %s%s]\n", path, note)
	}
	res, err := b.Run(smoke)
	if err != nil {
		die("%s: %v", b.Label, err)
	}
	fmt.Println(res.Render())
	if err := res.CheckShape(); err != nil {
		die("%s shape check FAILED: %v", b.Label, err)
	}
	fmt.Printf("[%s shape check: OK]\n", b.Label)
	traced, hasTrace := res.(interface{ TraceJSON() []byte })
	if doAnalyze && b.Analyze {
		printCriticalPath(traced.TraceJSON())
	}
	if jsonPath != "" {
		out, err := res.JSON()
		if err != nil {
			die("%s: %v", b.Label, err)
		}
		write(jsonPath, out, "")
	}
	if tracePath != "" && hasTrace {
		out := traced.TraceJSON()
		if err := obs.ValidateChromeTrace(out); err != nil {
			die("trace validation FAILED: %v", err)
		}
		write(tracePath, out, ": valid Chrome trace; open at ui.perfetto.dev")
	}
}

// runFaults benchmarks one capture under the fault plan at planPath: a
// clean baseline, then the same capture with the plan armed on the
// fabric, reporting the degraded-path (retry + watermark replay) overhead.
// The shape check always runs — the benchmark exists to pin that the
// faulted snapshot is byte-for-byte the clean one, only later.
func runFaults(planPath string, smoke bool) {
	data, err := os.ReadFile(planPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "snapbench: reading fault plan: %v\n", err)
		os.Exit(1)
	}
	plan, err := faultinject.ParsePlan(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "snapbench: %s: %v\n", planPath, err)
		os.Exit(1)
	}
	size := int64(experiments.FaultedCaptureImageBytes)
	if smoke {
		size = 256 * simclock.MiB
	}
	res, err := experiments.FaultedCapture(size, plan)
	if err != nil {
		fmt.Fprintf(os.Stderr, "snapbench: faulted capture: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(res.Render())
	if err := res.CheckShape(); err != nil {
		fmt.Fprintf(os.Stderr, "snapbench: faulted capture shape check FAILED: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("[faulted capture shape check: OK]")
}

// printCriticalPath parses a run's Chrome trace and prints the
// critical-path breakdown (chain, blame table, straggler skew, pre-copy
// rounds) — the -analyze self-profile.
func printCriticalPath(trace []byte) {
	spans, err := analyze.ParseChromeTrace(trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "snapbench: parsing trace for analysis: %v\n", err)
		os.Exit(1)
	}
	report, err := analyze.CriticalPath(spans)
	if err != nil {
		fmt.Fprintf(os.Stderr, "snapbench: critical path: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(report.Render(10))
}

// runAblations executes the design-choice sweeps of DESIGN.md §6.
func runAblations(check bool) {
	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "snapbench: %s: %v\n", name, err)
		os.Exit(1)
	}
	buf, err := experiments.BufSizeAblation()
	if err != nil {
		fail("buffer ablation", err)
	}
	fmt.Println(experiments.RenderBufSizeAblation(buf))
	incr, err := experiments.IncrementalAblation()
	if err != nil {
		fail("incremental ablation", err)
	}
	fmt.Println(experiments.RenderIncrementalAblation(incr))
	wsz, err := experiments.WsizeAblation()
	if err != nil {
		fail("wsize ablation", err)
	}
	fmt.Println(experiments.RenderWsizeAblation(wsz))
	if check {
		if err := experiments.CheckBufSizeAblation(buf); err != nil {
			fail("buffer ablation shape", err)
		}
		if err := experiments.CheckIncrementalAblation(incr); err != nil {
			fail("incremental ablation shape", err)
		}
		if err := experiments.CheckWsizeAblation(wsz); err != nil {
			fail("wsize ablation shape", err)
		}
		fmt.Println("[ablation shape checks: OK]")
	}
}
