package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"snapify/internal/obs"
	"snapify/internal/obs/analyze"
)

// CheckBaselines is the benchmark regression gate: it reads every
// BENCH_*.json under dir, replays each one — unmarshals it into its own
// result type and re-runs the experiment at the parameters found there, so
// a smoke-scale baseline re-runs at smoke scale — and holds the fresh run
// to three things: its document equals the committed one field by field
// (analyze.CompareBenchJSON), its CheckShape claims hold, and its trace,
// if it has one, is a valid Chrome trace. Every field is virtual time, so
// the gate's default 1% tolerance exists only to absorb float formatting,
// not timing noise — a drifted field means the data path changed.
//
// The returned report always describes every baseline checked; ok is
// false when any baseline regressed. An error means the gate itself
// could not run (unreadable dir, unknown benchmark, a benchmark failing
// outright) — distinct from a regression.
func CheckBaselines(dir string) (report string, ok bool, err error) {
	return checkBaselines(dir, All)
}

// checkBaselines is CheckBaselines over an explicit experiment table.
func checkBaselines(dir string, table []Experiment) (report string, ok bool, err error) {
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
		fresh, err := replay(baseline, table)
		if err != nil {
			return "", false, fmt.Errorf("benchgate: %s: %v", p, err)
		}
		freshJSON, err := JSON(fresh)
		if err != nil {
			return "", false, fmt.Errorf("benchgate: %s: %v", p, err)
		}
		regs, err := analyze.CompareBenchJSON(baseline, freshJSON, analyze.DefaultCheckOptions())
		if err != nil {
			return "", false, fmt.Errorf("benchgate: %s: %v", p, err)
		}
		if err := fresh.CheckShape(); err != nil {
			regs = append(regs, analyze.Regression{Path: "CheckShape", Msg: err.Error()})
		}
		if t, traced := fresh.(Traced); traced {
			if err := obs.ValidateChromeTrace(t.TraceJSON()); err != nil {
				regs = append(regs, analyze.Regression{Path: "TraceJSON", Msg: err.Error()})
			}
		}
		b.WriteString(analyze.RenderRegressions(filepath.Base(p), regs))
		b.WriteByte('\n')
		if len(regs) > 0 {
			ok = false
		}
	}
	return b.String(), ok, nil
}

// replay re-runs the experiment a recorded document came from, at the
// parameters the document itself records.
func replay(baseline []byte, table []Experiment) (Result, error) {
	var head struct {
		Benchmark string `json:"benchmark"`
	}
	if err := json.Unmarshal(baseline, &head); err != nil {
		return nil, err
	}
	for _, e := range table {
		if e.doc == nil || e.ID != head.Benchmark {
			continue
		}
		doc := e.doc()
		if err := json.Unmarshal(baseline, doc); err != nil {
			return nil, err
		}
		return doc.replay()
	}
	return nil, fmt.Errorf("unknown benchmark %q", head.Benchmark)
}
