package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"snapify/internal/obs/analyze"
	"snapify/internal/simclock"
)

// CheckBaselines is the benchmark regression gate: it reads every
// BENCH_*.json under dir, re-runs the benchmark each one records at its
// recorded parameters (image size, cycle count, size grid), and compares
// the fresh result against the committed numbers with
// analyze.CompareBenchJSON. The virtual clock makes every non-"wall"
// field exactly reproducible, so the gate's default 1% tolerance exists
// only to absorb float formatting, not timing noise — a drifted field
// means the data path changed.
//
// The returned report always describes every baseline checked; ok is
// false when any baseline regressed. An error means the gate itself
// could not run (unreadable dir, unknown benchmark, a benchmark failing
// outright) — distinct from a regression.
func CheckBaselines(dir string) (report string, ok bool, err error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", false, fmt.Errorf("benchgate: %v", err)
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return "", false, fmt.Errorf("benchgate: no BENCH_*.json baselines under %s", dir)
	}
	var b strings.Builder
	ok = true
	for _, p := range paths {
		baseline, err := os.ReadFile(p)
		if err != nil {
			return "", false, fmt.Errorf("benchgate: %v", err)
		}
		fresh, err := rerunBaseline(baseline)
		if err != nil {
			return "", false, fmt.Errorf("benchgate: %s: %v", p, err)
		}
		regs, err := analyze.CompareBenchJSON(baseline, fresh, analyze.DefaultCheckOptions())
		if err != nil {
			return "", false, fmt.Errorf("benchgate: %s: %v", p, err)
		}
		b.WriteString(analyze.RenderRegressions(filepath.Base(p), regs))
		b.WriteByte('\n')
		if len(regs) > 0 {
			ok = false
		}
	}
	return b.String(), ok, nil
}

// BenchResult is what every standing benchmark's result provides.
type BenchResult interface {
	Render() string
	CheckShape() error
	JSON() ([]byte, error)
}

// baselineHead is the part of a BENCH_*.json document that records the
// parameters the benchmark ran at.
type baselineHead struct {
	Benchmark    string        `json:"benchmark"`
	ImageBytes   int64         `json:"image_bytes"`
	Cycles       int           `json:"cycles"`
	Hosts        int           `json:"hosts"`
	Legs         int           `json:"legs"`
	CardsPerHost int           `json:"cards_per_host"`
	CardMemBytes int64         `json:"card_mem_bytes"`
	Jobs         int           `json:"jobs"`
	Tenants      int           `json:"tenants"`
	QueueDepth   int           `json:"queue_depth"`
	Seed         uint64        `json:"seed"`
	Rows         []baselineRow `json:"rows"`
}

type baselineRow struct {
	Streams    int   `json:"streams"`
	ImageBytes int64 `json:"image_bytes"`
	OversubPct int   `json:"oversub_pct"`
}

// rowParams collects the swept parameter of every recorded row.
func rowParams[T any](h baselineHead, param func(baselineRow) T) ([]T, error) {
	if len(h.Rows) == 0 {
		return nil, fmt.Errorf("baseline has no rows to replay")
	}
	out := make([]T, 0, len(h.Rows))
	for _, r := range h.Rows {
		out = append(out, param(r))
	}
	return out, nil
}

// Bench is one standing benchmark. Benches is the one table snapbench's
// flags, the baseline gate's dispatch and scripts/bench.sh's loop follow.
type Bench struct {
	Flag  string // snapbench -<Flag>
	Usage string
	ID    string // the "benchmark" field of its JSON
	Label string // how snapbench's messages name it
	// Analyze: the result's trace is one the critical-path analyzer reads.
	Analyze bool
	// Run runs it at full or smoke scale.
	Run func(smoke bool) (BenchResult, error)
	// replay runs it at the parameters a baseline document records.
	replay func(h baselineHead) (BenchResult, error)
}

// smokeOr picks a benchmark's image size.
func smokeOr(smoke bool, small, full int64) int64 {
	if smoke {
		return small
	}
	return full
}

// Benches lists the standing benchmarks in the order bench.sh runs them.
var Benches = []Bench{
	{
		Flag: "parallel", Usage: "run the multi-stream parallel capture sweep",
		ID: "parallel-capture", Label: "parallel capture", Analyze: true,
		Run: func(smoke bool) (BenchResult, error) {
			return ParallelCapture(smokeOr(smoke, 256*simclock.MiB, ParallelCaptureImageBytes), ParallelCaptureStreams)
		},
		replay: func(h baselineHead) (BenchResult, error) {
			streams, err := rowParams(h, func(r baselineRow) int { return r.Streams })
			if err != nil {
				return nil, err
			}
			return ParallelCapture(h.ImageBytes, streams)
		},
	},
	{
		Flag: "store", Usage: "run the dedup-store swap-cycle comparison",
		ID: "dedup-swap", Label: "dedup swap", Analyze: true,
		Run: func(smoke bool) (BenchResult, error) {
			return DedupSwap(smokeOr(smoke, 256*simclock.MiB, DedupSwapImageBytes), DedupSwapCycles)
		},
		replay: func(h baselineHead) (BenchResult, error) { return DedupSwap(h.ImageBytes, h.Cycles) },
	},
	{
		Flag: "migrate", Usage: "run the stop-the-world vs live migration downtime sweep",
		ID: "migrate-sweep", Label: "migrate sweep", Analyze: true,
		Run: func(smoke bool) (BenchResult, error) {
			if smoke {
				return MigrateSweep(MigrateSweepSmokeSizes)
			}
			return MigrateSweep(MigrateSweepSizes)
		},
		replay: func(h baselineHead) (BenchResult, error) {
			sizes, err := rowParams(h, func(r baselineRow) int64 { return r.ImageBytes })
			if err != nil {
				return nil, err
			}
			return MigrateSweep(sizes)
		},
	},
	{
		Flag: "federation", Usage: "run the cross-host federation benchmark: migration dedup + host-kill recovery from replicas",
		ID: "federation", Label: "federation",
		Run: func(smoke bool) (BenchResult, error) {
			return FederationBench(smokeOr(smoke, 96*simclock.MiB, FederationImageBytes), FederationHosts, FederationLegs)
		},
		replay: func(h baselineHead) (BenchResult, error) { return FederationBench(h.ImageBytes, h.Hosts, h.Legs) },
	},
	{
		Flag: "fleet", Usage: "run the fleet control-plane benchmark: seeded bursty trace across an oversubscription sweep",
		ID: "fleet", Label: "fleet",
		Run: func(smoke bool) (BenchResult, error) {
			if smoke {
				return FleetBench(SmokeFleetParams())
			}
			return FleetBench(DefaultFleetParams())
		},
		replay: func(h baselineHead) (BenchResult, error) {
			ratios, err := rowParams(h, func(r baselineRow) int { return r.OversubPct })
			if err != nil {
				return nil, err
			}
			return FleetBench(FleetParams{
				Hosts: h.Hosts, CardsPerHost: h.CardsPerHost, CardMem: h.CardMemBytes,
				Jobs: h.Jobs, Tenants: h.Tenants, QueueDepth: h.QueueDepth,
				Seed: h.Seed, Ratios: ratios,
			})
		},
	},
}

// rerunBaseline re-runs the benchmark a baseline document records, at
// the parameters stored in the document itself, and returns the fresh
// result's JSON. Parameters ride in the baseline (not in the gate) so a
// smoke-scale baseline re-runs at smoke scale.
func rerunBaseline(baseline []byte) ([]byte, error) {
	var head baselineHead
	if err := json.Unmarshal(baseline, &head); err != nil {
		return nil, err
	}
	for _, b := range Benches {
		if b.ID != head.Benchmark {
			continue
		}
		res, err := b.replay(head)
		if err != nil {
			return nil, err
		}
		return res.JSON()
	}
	return nil, fmt.Errorf("unknown benchmark %q", head.Benchmark)
}
