// Command snapbench regenerates every table and figure of the paper's
// evaluation (Section 7) and the extension benchmarks on the simulated
// platform. Times are virtual (see internal/simclock and DESIGN.md), so
// stdout is a pure function of the tree; the shapes — who wins, by what
// factor, where the crossovers fall — are the reproduction targets. The
// experiments, and the flags that select them, are the one table
// experiments.All.
//
// Usage:
//
//	snapbench -all            # everything (the default)
//	snapbench -table 3        # one table (2, 3, or 4); -fig 10 likewise
//	snapbench -check          # also verify the paper's qualitative claims
//	snapbench -check baselines/
//	                          # regression gate, alone: replay every committed
//	                          # BENCH_*.json at its recorded parameters; fail on
//	                          # a drifted field, a broken claim or a bad trace
//	snapbench -parallel -json BENCH_capture.json
//	                          # one standing benchmark (-parallel, -store,
//	                          # -migrate, -federation, -fleet), JSON'd
//	snapbench -parallel -smoke -trace out.json -analyze
//	                          # on a small image (CI scale); export its Chrome
//	                          # trace (open in Perfetto); print its critical path
//	snapbench -faults plan.json
//	                          # capture under an injected fault plan; report
//	                          # the degraded-path (retry/replay) overhead
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"snapify/internal/experiments"
	"snapify/internal/obs"
	"snapify/internal/obs/analyze"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// selector is one experiment-selecting flag, recording what it was given
// in values: a switch when the experiments under it take no argument, else
// their number or input path.
type selector struct {
	values   map[string]string
	name     string
	isSwitch bool
}

func (s selector) String() string     { return s.values[s.name] }
func (s selector) Set(v string) error { s.values[s.name] = v; return nil }
func (s selector) IsBoolFlag() bool   { return s.isSwitch }

// run is main with its streams and exit code as values: 0 on success, 1
// when an experiment, a claim or the gate fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "snapbench: "+format+"\n", a...)
		return code
	}
	fs := flag.NewFlagSet("snapbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	values := map[string]string{} // one flag per distinct Flag of the table
	for _, e := range experiments.All {
		if fs.Lookup(e.Flag) == nil {
			fs.Var(selector{values, e.Flag, e.Num == 0 && !e.Input}, e.Flag, e.Usage)
		}
	}
	jsonPath := fs.String("json", "", "with exactly one standing benchmark selected: also write its result as JSON to this file")
	tracePath := fs.String("trace", "", "with exactly one traced benchmark selected: write the run's Chrome trace-event JSON to this file (open in Perfetto)")
	smoke := fs.Bool("smoke", false, "run the standing benchmarks on small images (fast CI scale, shapes still checked)")
	all := fs.Bool("all", false, "regenerate everything")
	check := fs.Bool("check", false, "verify the paper's qualitative claims against the results; with a directory argument, run the baseline regression gate instead")
	analyzeTrace := fs.Bool("analyze", false, "with -parallel, -store, or -migrate: print a critical-path breakdown of the run's trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// `snapbench -check baselines/` is the regression gate. It runs alone:
	// gating and regenerating in one invocation compares a thing to itself.
	if fs.NArg() > 0 {
		if !*check || fs.NArg() != 1 || fs.NFlag() != 1 {
			return fail(2, "unexpected arguments %q: snapbench takes one, the baseline directory of -check <dir>, and that runs alone", fs.Args())
		}
		report, ok, err := experiments.CheckBaselines(fs.Arg(0))
		if err != nil {
			return fail(1, "%v", err)
		}
		fmt.Fprint(stdout, report)
		if !ok {
			return fail(1, "baseline regression gate FAILED")
		}
		fmt.Fprintln(stdout, "[baseline regression gate: OK]")
		return 0
	}

	sel, err := experiments.Select(experiments.Selection{Values: values, All: *all, JSON: *jsonPath != "", Trace: *tracePath != ""})
	if err != nil {
		return fail(2, "%v", err)
	}

	write := func(path string, out []byte, note string) error {
		err := os.WriteFile(path, out, 0o644)
		if err == nil {
			fmt.Fprintf(stdout, "[wrote %s%s]\n", path, note)
		}
		return err
	}
	for i, e := range sel {
		res, err := e.Run(experiments.Scale{Smoke: *smoke, Arg: values[e.Flag]})
		if err != nil {
			return fail(1, "%s: %v", e.Name, err)
		}
		fmt.Fprintln(stdout, res.Render())
		if e.Check != "" && (*check || e.Standing) {
			if err := res.CheckShape(); err != nil {
				return fail(1, "%s FAILED: %v", e.Check, err)
			}
			// Experiments sharing a label share its line, after the last.
			if i+1 == len(sel) || sel[i+1].Check != e.Check {
				fmt.Fprintf(stdout, "[%s: OK]\n", e.Check)
				if e.Num != 0 {
					fmt.Fprintln(stdout) // numbered exhibits are set apart
				}
			}
		}
		traced, hasTrace := res.(experiments.Traced)
		if *analyzeTrace && e.Analyze && hasTrace {
			spans, err := analyze.ParseChromeTrace(traced.TraceJSON())
			if err != nil {
				return fail(1, "parsing trace for analysis: %v", err)
			}
			report, err := analyze.CriticalPath(spans)
			if err != nil {
				return fail(1, "critical path: %v", err)
			}
			fmt.Fprintln(stdout, report.Render(10))
		}
		if *jsonPath != "" && e.HasJSON() {
			out, err := experiments.JSON(res)
			if err == nil {
				err = write(*jsonPath, out, "")
			}
			if err != nil {
				return fail(1, "%s: %v", e.Name, err)
			}
		}
		if *tracePath != "" && hasTrace {
			out := traced.TraceJSON()
			if err := obs.ValidateChromeTrace(out); err != nil {
				return fail(1, "trace validation FAILED: %v", err)
			}
			if err := write(*tracePath, out, ": valid Chrome trace; open at ui.perfetto.dev"); err != nil {
				return fail(1, "%s: %v", e.Name, err)
			}
		}
	}
	return 0
}
