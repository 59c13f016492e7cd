package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/*.txt from the current results")

// smokeRuns caches each experiment's smoke-scale result by name: the shape
// tests, the golden test and the replay test all read the same one, so the
// suite runs every experiment once. No test here is parallel, so a plain
// map will do.
var smokeRuns = map[string]Result{}

// experiment looks an entry of All up by name.
func experiment(t *testing.T, name string) Experiment {
	t.Helper()
	for _, e := range All {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("no experiment %q in All", name)
	return Experiment{}
}

// smoke returns the named experiment's smoke-scale result.
func smoke(t *testing.T, name string) Result {
	t.Helper()
	if res, ok := smokeRuns[name]; ok {
		return res
	}
	res, err := experiment(t, name).Run(Scale{Smoke: true})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	smokeRuns[name] = res
	return res
}

// TestGoldenStdout pins what snapbench prints for every one-stream
// experiment, byte for byte: all of it is virtual time, so the text is a
// pure function of the tree, and a diff here is a change to a table, a
// figure or the data path behind one. Run with -update to accept it.
//
// Two entries are checked by CheckShape only. The parallel capture sweep
// stripes its captures across concurrent streams, whose per-link bandwidth
// share still depends on the Go scheduler (ROADMAP item 1): its rendered
// rows are stable to the printed precision on most runs, not all. The
// faulted capture (also two streams) needs a fault plan file, so it has
// no smoke-scale run of its own; TestFaultedCaptureShape covers it.
func TestGoldenStdout(t *testing.T) {
	for _, e := range All {
		t.Run(e.Name, func(t *testing.T) {
			if e.Input {
				t.Skip("needs an input file; see TestFaultedCaptureShape")
			}
			res := smoke(t, e.Name)
			if err := res.CheckShape(); err != nil {
				t.Errorf("%v\n%s", err, res.Render())
			}
			if e.Name == "parallel capture" {
				return // multi-stream: shape only until ROADMAP item 1 lands
			}
			path := filepath.Join("testdata", "golden", strings.ReplaceAll(e.Name, " ", "_")+".txt")
			got := []byte(res.Render())
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run go test ./internal/experiments -run TestGoldenStdout -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s renders differently from %s:\n--- got\n%s\n--- want\n%s", e.Name, path, got, want)
			}
		})
	}
}

// TestReplayReproducesDocument: a standing benchmark's JSON document
// records the parameters it ran at, so unmarshalling it into its own type
// and re-running from the fields found there — what the baseline gate does
// — reproduces the document byte for byte. The parallel sweep's
// multi-stream rows keep their structure but are exempt on their timings,
// for the ROADMAP item 1 reason TestGoldenStdout gives: stream_ns /
// stream_seconds move by up to ~2% between runs, and the capture time
// derived from them (and so speedup and throughput) by ~100 ns.
func TestReplayReproducesDocument(t *testing.T) {
	for _, e := range All {
		if !e.Standing || !e.HasJSON() || e.Input {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			first := smoke(t, e.Name)
			doc, err := JSON(first)
			if err != nil {
				t.Fatal(err)
			}
			again, err := replay(doc, All)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.TypeOf(again) != reflect.TypeOf(first) {
				t.Fatalf("replay of a %T returned a %T", first, again)
			}
			got, err := JSON(again)
			if err != nil {
				t.Fatal(err)
			}
			want := doc
			if e.Name == "parallel capture" {
				got, want = scrubMultiStream(t, got), scrubMultiStream(t, want)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("replayed document differs from the one it was replayed from:\n--- replay\n%s\n--- original\n%s", got, want)
			}
		})
	}
}

// scrubMultiStream blanks the timings of a parallel-capture document's
// multi-stream rows, keeping the rows themselves.
func scrubMultiStream(t *testing.T, doc []byte) []byte {
	t.Helper()
	var pc ParallelCaptureResult
	if err := json.Unmarshal(doc, &pc); err != nil {
		t.Fatal(err)
	}
	for i, row := range pc.Rows {
		if row.Streams > 1 {
			pc.Rows[i] = ParallelCaptureRow{Streams: row.Streams, SnapshotBytes: row.SnapshotBytes}
		}
	}
	out, err := JSON(&pc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSelect covers snapbench's flag semantics where they live.
func TestSelect(t *testing.T) {
	names := func(sel []Experiment) string {
		var out []string
		for _, e := range sel {
			out = append(out, e.Name)
		}
		return strings.Join(out, ",")
	}
	cases := []struct {
		name    string
		sel     Selection
		want    string // comma-joined names; "" with wantErr
		wantErr string
	}{
		{name: "one table", sel: Selection{Values: map[string]string{"table": "3"}}, want: "table 3"},
		{name: "ablations are three", sel: Selection{Values: map[string]string{"ablations": "true"}},
			want: "buffer ablation,incremental ablation,wsize ablation"},
		{name: "switch off", sel: Selection{Values: map[string]string{"parallel": "false", "fleet": "true"}}, want: "fleet"},
		{name: "unknown table", sel: Selection{Values: map[string]string{"table": "7"}}, wantErr: "no table 7; the valid ones are 2, 3, 4"},
		{name: "unknown figure", sel: Selection{Values: map[string]string{"fig": "3"}}, wantErr: "no fig 3; the valid ones are 9, 10, 11"},
		{name: "json needs one document", sel: Selection{Values: map[string]string{"parallel": "true", "store": "true"}, JSON: true},
			wantErr: "[-parallel -store]"},
		{name: "json with none", sel: Selection{Values: map[string]string{"table": "3"}, JSON: true}, wantErr: "0 of the selected"},
		{name: "trace needs a traced one", sel: Selection{Values: map[string]string{"federation": "true"}, Trace: true}, wantErr: "0 of the selected"},
		{name: "faults has a document", sel: Selection{Values: map[string]string{"faults": "plan.json"}, JSON: true}, want: "faulted capture"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sel, err := Select(tc.sel)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Select error = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := names(sel); got != tc.want {
				t.Errorf("selected %q, want %q", got, tc.want)
			}
		})
	}

	// Nothing selected means everything, as does -all; neither includes an
	// experiment that needs an input file unless its flag names one.
	none, err := Select(Selection{})
	if err != nil {
		t.Fatal(err)
	}
	all, err := Select(Selection{All: true, Values: map[string]string{"table": "3"}})
	if err != nil {
		t.Fatal(err)
	}
	if names(none) != names(all) || len(all) != len(All)-1 {
		t.Errorf("default selects %q, -all selects %q; want both every experiment but the faulted capture", names(none), names(all))
	}
	withPlan, err := Select(Selection{All: true, Values: map[string]string{"faults": "plan.json"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(withPlan) != len(All) {
		t.Errorf("-all -faults plan.json selects %d of %d experiments", len(withPlan), len(All))
	}
}
