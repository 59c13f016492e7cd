package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// header says what produced a suite document, so a baseline can be told
// from another machine's.
type header struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Note       string  `json:"note"`
}

// document is the suite's one JSON document.
type document struct {
	Header    header                     `json:"header"`
	Workloads map[string]map[string]stat `json:"workloads"`
	Layers    map[string]map[string]stat `json:"layers,omitempty"`
	Failed    map[string]int             `json:"failed_ops"`
	Attempted map[string]int             `json:"attempted_ops"`
}

func newHeader(seed uint64, seconds float64) header {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return header{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commit, Seed: seed, Seconds: seconds,
		Note: "sim_* are simulated-clock figures, unvalidated against hardware (no error figure); " +
			"host_* are medians over n timed repetitions with quartiles; n < 20, so no tail percentile is printed",
	}
}

// child runs one workload in a process of its own — so the peak RSS is
// that workload's alone — and parses the result object off its last line.
func child(name string, seed uint64, seconds float64, traced bool, spansDir string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace, "-spans-dir", spansDir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	runErr := cmd.Run()
	// The line before the last carries the full statistics.
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[max(0, len(lines)-2)]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w: %s", name, runErr, strings.TrimSpace(stderr.String()))
		}
		return nil, fmt.Errorf("%s: no result object on stdout: %w", name, err)
	}
	return &res, nil
}

// runSuite runs the selected workloads once each, untraced, and traced
// too when withLayers is set.
func runSuite(seed uint64, seconds float64, only string, withLayers bool, spansDir string) (*document, error) {
	doc := &document{
		Header:    newHeader(seed, seconds),
		Workloads: map[string]map[string]stat{},
		Failed:    map[string]int{},
		Attempted: map[string]int{},
	}
	if withLayers {
		doc.Layers = map[string]map[string]stat{}
	}
	for _, w := range allWorkloads {
		if only != "" && only != w.Name {
			continue
		}
		fmt.Fprintf(os.Stderr, "bench: %s\n", w.Name)
		res, err := child(w.Name, seed, seconds, false, "")
		if err != nil {
			return nil, err
		}
		doc.Workloads[w.Name] = res.Metrics
		doc.Failed[w.Name] = res.Failed
		doc.Attempted[w.Name] = res.Attempted
		if withLayers {
			fmt.Fprintf(os.Stderr, "bench: %s (traced)\n", w.Name)
			res, err := child(w.Name, seed, seconds, true, spansDir)
			if err != nil {
				return nil, err
			}
			doc.Layers[w.Name] = res.Metrics
			doc.Failed[w.Name] += res.Failed
			doc.Attempted[w.Name] += res.Attempted
		}
	}
	if len(doc.Workloads) == 0 {
		return nil, fmt.Errorf("no workload named %q", only)
	}
	return doc, nil
}

// suite is the no--workload entry point: the whole suite as one JSON
// document, or with aa > 0 that many untraced sets compared.
func suite(seed uint64, seconds float64, only, out, spansDir string, aa int) error {
	if aa > 0 {
		return aaCompare(seed, seconds, only, aa)
	}
	doc, err := runSuite(seed, seconds, only, true, spansDir)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if out != "" {
		err = os.WriteFile(out, b, 0o644)
	} else {
		_, err = os.Stdout.Write(b)
	}
	if err != nil {
		return err
	}
	for name, n := range doc.Failed {
		if n > 0 {
			return fmt.Errorf("%s: %d of %d ops failed the oracle", name, n, doc.Attempted[name])
		}
	}
	return nil
}

// aaCompare runs the untraced suite as independent sets of the same code
// and holds every (metric, workload) pair to its bound: set k against set
// 1, worsening only. Simulated figures must agree to the last digit
// (within simJitterMax on the workload marked SimJitter).
func aaCompare(seed uint64, seconds float64, only string, sets int) error {
	if sets < 2 {
		return errors.New("-aa needs at least 2 sets")
	}
	var docs []*document
	for i := 0; i < sets; i++ {
		fmt.Fprintf(os.Stderr, "bench: A/A set %d of %d\n", i+1, sets)
		doc, err := runSuite(seed, seconds, only, false, "")
		if err != nil {
			return err
		}
		docs = append(docs, doc)
	}
	bad := 0
	fmt.Printf("%-14s %-20s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set k", "worse by", "bound")
	for _, w := range allWorkloads {
		base, ok := docs[0].Workloads[w.Name]
		if !ok {
			continue
		}
		for _, def := range endToEnd {
			for k := 1; k < sets; k++ {
				a, b := base[def.Name].Value, docs[k].Workloads[w.Name][def.Name].Value
				worse := (b - a) / a
				if def.Better == "higher" {
					worse = -worse
				}
				verdict := ""
				simDiffers := strings.HasPrefix(def.Name, "sim_") && a != b
				if w.SimJitter {
					simDiffers = simDiffers && math.Abs(a-b)/a > simJitterMax
				}
				if worse > def.Bound || simDiffers {
					verdict = "  EXCEEDS"
					bad++
				}
				fmt.Printf("%-14s %-20s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n",
					w.Name, def.Name, a, b, 100*worse, 100*def.Bound, verdict)
			}
		}
		for k := range docs {
			if docs[k].Failed[w.Name] > 0 {
				fmt.Printf("%-14s set %d: %d ops failed the oracle\n", w.Name, k+1, docs[k].Failed[w.Name])
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("A/A: %d (metric, workload) pairs outside their bounds", bad)
	}
	return nil
}

// printTable renders one run for a human, on stderr.
func printTable(w io.Writer, name string, res *result) {
	fmt.Fprintf(w, "%s: %d ops attempted, %d failed the oracle; user CPU %.4f s uncalibrated, calibration kernel at %.3f of its reference cost\n", name, res.Attempted, res.Failed, res.rawUserS, res.slowdown)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := res.Metrics[n]
		line := fmt.Sprintf("  %-44s %16.6g %-7s", n, s.Value, s.Unit)
		if s.N > 1 {
			line += fmt.Sprintf(" n=%d q1=%.6g q3=%.6g", s.N, s.Q1, s.Q3)
			if s.Value != 0 {
				line += fmt.Sprintf(" (iqr %.1f%%)", 100*math.Abs(s.Q3-s.Q1)/s.Value)
			}
		}
		fmt.Fprintln(w, line)
	}
}
