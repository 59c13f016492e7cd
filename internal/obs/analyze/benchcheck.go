package analyze

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// CheckOptions tunes the baseline comparison.
type CheckOptions struct {
	// RelTol is the relative tolerance for every numeric field: a
	// fresh value within RelTol of the baseline passes. The simulation
	// is deterministic, so the default is tight (1%) — it exists to
	// absorb row reordering artifacts, not real drift.
	RelTol float64
}

// DefaultCheckOptions returns the tolerances the snapbench gate uses.
func DefaultCheckOptions() CheckOptions {
	return CheckOptions{RelTol: 0.01}
}

// Regression is one field where a fresh benchmark run diverged from the
// committed baseline beyond tolerance.
type Regression struct {
	Path string `json:"path"`
	Msg  string `json:"msg"`
}

func (r Regression) String() string { return r.Path + ": " + r.Msg }

// CompareBenchJSON diffs a fresh benchmark JSON document against the
// committed baseline, field by field: numbers compare with relative
// tolerance, strings and booleans must match exactly, and structure
// (missing fields, new fields, array length changes) is itself a
// regression — a schema drift the baseline must be regenerated for.
// Every field counts: benchmark documents carry virtual-clock numbers
// only (the wall clock is bench/'s ruler, not a BENCH_*.json field).
func CompareBenchJSON(baseline, fresh []byte, opts CheckOptions) ([]Regression, error) {
	var bv, fv any
	if err := json.Unmarshal(baseline, &bv); err != nil {
		return nil, fmt.Errorf("analyze: baseline: %w", err)
	}
	if err := json.Unmarshal(fresh, &fv); err != nil {
		return nil, fmt.Errorf("analyze: fresh: %w", err)
	}
	var regs []Regression
	compareValue("$", bv, fv, opts, &regs)
	return regs, nil
}

func compareValue(path string, base, fresh any, opts CheckOptions, regs *[]Regression) {
	switch bv := base.(type) {
	case map[string]any:
		fm, ok := fresh.(map[string]any)
		if !ok {
			*regs = append(*regs, Regression{path, fmt.Sprintf("baseline is an object, fresh is %T", fresh)})
			return
		}
		keys := map[string]bool{}
		for k := range bv {
			keys[k] = true
		}
		for k := range fm {
			keys[k] = true
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			sub := path + "." + k
			bval, inB := bv[k]
			fval, inF := fm[k]
			switch {
			case !inF:
				*regs = append(*regs, Regression{sub, "field missing from fresh run"})
			case !inB:
				*regs = append(*regs, Regression{sub, "field absent from baseline (regenerate baselines)"})
			default:
				compareValue(sub, bval, fval, opts, regs)
			}
		}
	case []any:
		fa, ok := fresh.([]any)
		if !ok {
			*regs = append(*regs, Regression{path, fmt.Sprintf("baseline is an array, fresh is %T", fresh)})
			return
		}
		if len(bv) != len(fa) {
			*regs = append(*regs, Regression{path, fmt.Sprintf("array length %d, baseline %d", len(fa), len(bv))})
			return
		}
		for i := range bv {
			compareValue(fmt.Sprintf("%s[%d]", path, i), bv[i], fa[i], opts, regs)
		}
	case float64:
		fn, ok := fresh.(float64)
		if !ok {
			*regs = append(*regs, Regression{path, fmt.Sprintf("baseline is a number, fresh is %T", fresh)})
			return
		}
		tol := opts.RelTol
		denom := math.Max(math.Max(math.Abs(bv), math.Abs(fn)), 1e-12)
		if diff := math.Abs(bv - fn); diff/denom > tol {
			*regs = append(*regs, Regression{path,
				fmt.Sprintf("%.6g vs baseline %.6g (rel diff %.2f%% > %.2f%%)",
					fn, bv, 100*diff/denom, 100*tol)})
		}
	case string:
		if fs, ok := fresh.(string); !ok || fs != bv {
			*regs = append(*regs, Regression{path, fmt.Sprintf("%v vs baseline %q", fresh, bv)})
		}
	case bool:
		if fb, ok := fresh.(bool); !ok || fb != bv {
			*regs = append(*regs, Regression{path, fmt.Sprintf("%v vs baseline %v", fresh, bv)})
		}
	case nil:
		if fresh != nil {
			*regs = append(*regs, Regression{path, fmt.Sprintf("%v vs baseline null", fresh)})
		}
	}
}

// RenderRegressions formats the regression list (or a pass line).
func RenderRegressions(name string, regs []Regression) string {
	if len(regs) == 0 {
		return fmt.Sprintf("%s: ok\n", name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d regression(s)\n", name, len(regs))
	for _, r := range regs {
		fmt.Fprintf(&b, "  %s\n", r.String())
	}
	return b.String()
}
