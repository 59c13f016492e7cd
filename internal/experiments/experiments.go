// Package experiments implements the paper's evaluation (Section 7) and
// the extension benchmarks built on it. Every experiment is one entry of
// the table All: it runs the real protocol stack on the simulated platform
// and returns a Result that renders in the paper's layout and checks the
// qualitative claims it reproduces. cmd/snapbench's flags, the baseline
// regression gate (CheckBaselines) and the package's tests all walk that
// one table. Every number here is virtual time; what the simulator costs
// to run on the wall clock is bench/'s question, not this package's.
package experiments

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"snapify/internal/phi"
	"snapify/internal/platform"
	"snapify/internal/simclock"
	"snapify/internal/trace"
)

// Scale is what one invocation may vary about an experiment.
type Scale struct {
	// Smoke runs the standing benchmarks on small images (the CI scale
	// baselines/ records); the paper's tables and figures have one scale.
	Smoke bool
	// Arg is what the experiment's flag was given; for an Input experiment,
	// the path of the file to read (the faulted capture's fault plan).
	Arg string
}

// Result is what every experiment returns: its table or figure as text,
// and a check of the claims it exists to reproduce.
type Result interface {
	Render() string
	CheckShape() error
}

// Document is the facet of a Result that is also a BENCH_*.json document.
// The document records the parameters it ran at, so replaying it is
// unmarshalling it into its own type and asking for a fresh run.
type Document interface {
	Result
	// replay re-runs the experiment at the parameters found in the
	// receiver's fields.
	replay() (Result, error)
}

// Traced is the facet of a Result that carries the run's virtual-clock
// trace as Chrome trace-event JSON (load it at ui.perfetto.dev).
type Traced interface {
	TraceJSON() []byte
}

// JSON renders a Document result as its BENCH_*.json text: the one
// marshaller every document goes through.
func JSON(r Result) ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Experiment is one entry of the evaluation.
type Experiment struct {
	// Name is how messages and golden files call it.
	Name string
	// Flag is the snapbench flag that selects it. A Num makes the flag
	// numeric (-table 3); Input makes it name a file the run reads
	// (-faults plan.json), which also keeps the experiment out of -all.
	Flag  string
	Num   int
	Input bool
	Usage string
	// Check labels the shape-check line, "[<Check>: OK]". Consecutive
	// experiments with one label share one line (the three ablations);
	// an experiment with none makes no claim to check (Table 2).
	Check string
	// Standing marks a standing benchmark: -smoke scales it, and its
	// claims are checked on every run, not only under -check — it exists
	// to pin them.
	Standing bool
	// ID is the "benchmark" field of its JSON document, if it has one.
	ID string
	// Analyze: its trace is one the critical-path analyzer reads.
	Analyze bool

	Run func(Scale) (Result, error)
	// doc returns an empty document of its result type, to unmarshal a
	// recorded one into; nil when the result is not a Document.
	doc func() Document
}

// HasJSON reports whether the experiment's result is a Document.
func (e Experiment) HasJSON() bool { return e.doc != nil }

// HasTrace reports whether the experiment's result is Traced.
func (e Experiment) HasTrace() bool {
	if e.doc == nil {
		return false
	}
	_, ok := e.doc().(Traced)
	return ok
}

// Selection is what snapbench's flags ask for.
type Selection struct {
	// Values maps an Experiment.Flag to the value given for it: a number,
	// an input path, "true" for a switch, "" when unset.
	Values map[string]string
	// All selects every experiment that needs no input file; so does
	// selecting nothing.
	All bool
	// JSON and Trace say an output file was named for that facet. A file
	// holds one document, so exactly one selected experiment must have it.
	JSON, Trace bool
}

// selects reports whether value, given for e.Flag, picks e: its number,
// any input path, or a switch turned on.
func (e Experiment) selects(value string) bool {
	switch {
	case e.Num != 0:
		return value == strconv.Itoa(e.Num)
	case e.Input:
		return value != ""
	}
	return value == "true"
}

// Select resolves a Selection against All, in All's order. A number that
// names no table or figure, and an output file without exactly one
// experiment to fill it, are errors naming the valid choices.
func Select(s Selection) ([]Experiment, error) {
	var sel []Experiment
	matched, valid := map[string]bool{}, map[string][]string{}
	for _, e := range All {
		if e.selects(s.Values[e.Flag]) {
			sel, matched[e.Flag] = append(sel, e), true
		}
		if e.Num != 0 {
			valid[e.Flag] = append(valid[e.Flag], strconv.Itoa(e.Num))
		}
	}
	for _, e := range All {
		if v := s.Values[e.Flag]; e.Num != 0 && v != "" && !matched[e.Flag] {
			return nil, fmt.Errorf("no %s %s; the valid ones are %s", e.Flag, v, strings.Join(valid[e.Flag], ", "))
		}
	}
	if s.All || len(sel) == 0 {
		sel = nil
		for _, e := range All {
			if !e.Input || matched[e.Flag] {
				sel = append(sel, e)
			}
		}
	}
	for _, out := range []struct {
		flag  string
		named bool
		has   func(Experiment) bool
	}{{"-json", s.JSON, Experiment.HasJSON}, {"-trace", s.Trace, Experiment.HasTrace}} {
		if !out.named {
			continue
		}
		var have []string
		for _, e := range sel {
			if out.has(e) {
				have = append(have, "-"+e.Flag)
			}
		}
		if len(have) != 1 {
			return nil, fmt.Errorf("%s writes one file, but %d of the selected experiments would fill it %v; select exactly one", out.flag, len(have), have)
		}
	}
	return sel, nil
}

// smokeOr picks a standing benchmark's image size.
func (s Scale) smokeOr(small, full int64) int64 {
	if s.Smoke {
		return small
	}
	return full
}

// All lists every experiment in the order snapbench -all prints them (the
// standing benchmarks in the order scripts/bench.sh records them).
var All = []Experiment{
	{Name: "table 2", Flag: "table", Num: 2, Usage: "regenerate one table (2, 3, or 4)",
		Run: func(Scale) (Result, error) { return Table2(), nil }},
	{Name: "table 3", Flag: "table", Num: 3, Check: "table 3 shape check",
		Run: func(Scale) (Result, error) { return Table3() }},
	{Name: "table 4", Flag: "table", Num: 4, Check: "table 4 shape check",
		Run: func(Scale) (Result, error) { return Table4() }},
	{Name: "fig 9", Flag: "fig", Num: 9, Usage: "regenerate one figure (9, 10, or 11)", Check: "fig 9 shape check",
		Run: func(Scale) (Result, error) { return Fig9() }},
	{Name: "fig 10", Flag: "fig", Num: 10, Check: "fig 10 shape check",
		Run: func(Scale) (Result, error) { return Fig10() }},
	{Name: "fig 11", Flag: "fig", Num: 11, Check: "fig 11 shape check",
		Run: func(Scale) (Result, error) { return Fig11() }},
	{Name: "buffer ablation", Flag: "ablations", Usage: "run the design-choice ablations", Check: "ablation shape checks",
		Run: func(Scale) (Result, error) { return BufSizeAblation() }},
	{Name: "incremental ablation", Flag: "ablations", Check: "ablation shape checks",
		Run: func(Scale) (Result, error) { return IncrementalAblation() }},
	{Name: "wsize ablation", Flag: "ablations", Check: "ablation shape checks",
		Run: func(Scale) (Result, error) { return WsizeAblation() }},
	{Name: "parallel capture", Flag: "parallel", Usage: "run the multi-stream parallel capture sweep",
		Check: "parallel capture shape check", Standing: true, ID: "parallel-capture", Analyze: true,
		Run: func(s Scale) (Result, error) {
			return ParallelCapture(s.smokeOr(256*simclock.MiB, ParallelCaptureImageBytes), ParallelCaptureStreams)
		},
		doc: func() Document { return new(ParallelCaptureResult) }},
	{Name: "dedup swap", Flag: "store", Usage: "run the dedup-store swap-cycle comparison",
		Check: "dedup swap shape check", Standing: true, ID: "dedup-swap", Analyze: true,
		Run: func(s Scale) (Result, error) {
			return DedupSwap(s.smokeOr(256*simclock.MiB, DedupSwapImageBytes), DedupSwapCycles)
		},
		doc: func() Document { return new(DedupSwapResult) }},
	{Name: "migrate sweep", Flag: "migrate", Usage: "run the stop-the-world vs live migration downtime sweep",
		Check: "migrate sweep shape check", Standing: true, ID: "migrate-sweep", Analyze: true,
		Run: func(s Scale) (Result, error) {
			if s.Smoke {
				return MigrateSweep(MigrateSweepSmokeSizes)
			}
			return MigrateSweep(MigrateSweepSizes)
		},
		doc: func() Document { return new(MigrateResult) }},
	{Name: "federation", Flag: "federation", Usage: "run the cross-host federation benchmark: migration dedup + host-kill recovery from replicas",
		Check: "federation shape check", Standing: true, ID: "federation",
		Run: func(s Scale) (Result, error) {
			return FederationBench(s.smokeOr(96*simclock.MiB, FederationImageBytes), FederationHosts, FederationLegs)
		},
		doc: func() Document { return new(FederationResult) }},
	{Name: "fleet", Flag: "fleet", Usage: "run the fleet control-plane benchmark: seeded bursty trace across an oversubscription sweep",
		Check: "fleet shape check", Standing: true, ID: "fleet",
		Run: func(s Scale) (Result, error) {
			if s.Smoke {
				return FleetBench(SmokeFleetParams())
			}
			return FleetBench(DefaultFleetParams())
		},
		doc: func() Document { return new(FleetResult) }},
	{Name: "faulted capture", Flag: "faults", Input: true, Usage: "path to a fault-plan JSON; benchmark a capture riding out the plan via retry (see internal/faultinject)",
		Check: "faulted capture shape check", Standing: true, ID: "faulted-capture",
		Run: func(s Scale) (Result, error) {
			return faultedCaptureFromPlan(s.smokeOr(256*simclock.MiB, FaultedCaptureImageBytes), s.Arg)
		},
		doc: func() Document { return new(FaultedCaptureResult) }},
}

// newPlatform builds the standard single-server testbed (Table 2: one or
// two 8 GiB cards) without COI daemons, for the native-process
// micro-benchmarks that never launch an offload application.
func newPlatform(devices int) (*platform.Platform, error) {
	return platform.New(platform.Config{Server: phi.ServerConfig{
		Devices: devices,
		Device:  phi.DeviceConfig{MemBytes: 8 * simclock.GiB},
	}})
}

// testbed is Table 2 as text. It reproduces a configuration, not a
// measurement, so it has no claim to check.
type testbed string

func (t testbed) Render() string  { return string(t) }
func (testbed) CheckShape() error { return nil }

// Table2 renders the testbed configuration.
func Table2() Result {
	t := trace.New("Table 2: Characteristics of the (simulated) Xeon Phi server",
		"", "Host Processor", "Coprocessor")
	t.Row("CPU", "Intel E5-2630 @ 2.30GHz", "Intel Xeon Phi 5110P")
	t.Row("Cores", "6 physical cores (12 threads)", "60 physical cores (240 threads)")
	t.Row("Memory", "32GB", "8GB per coprocessor")
	t.Row("OS", "Linux RHEL 6.2 (simulated)", "Linux 2.6.38.8 MPSS 2.1 (simulated)")
	t.Row("Number", "2 CPU sockets", "2 coprocessors")
	return testbed(t.String())
}

// sizeLabel formats an experiment size like the paper's tables (1MB..4GB).
func sizeLabel(n int64) string {
	if n >= simclock.GiB {
		return fmt.Sprintf("%dGB", n/simclock.GiB)
	}
	return fmt.Sprintf("%dMB", n/simclock.MiB)
}
