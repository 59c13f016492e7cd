package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"snapify/internal/simclock"
)

// TestFlightRecorderRing pins the ring semantics: the recorder keeps
// the most recent capacity spans oldest-first and counts overwrites.
func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(4, nil)
	tr := NewTracer()
	tr.SetOnEmit(f.Record)
	tk := tr.Track("host", "app")
	for i := 0; i < 7; i++ {
		tk.Emit(0, fmt.Sprintf("op_%d", i), simclock.Duration(i*10), 5, nil)
	}
	d := f.Trigger("unit test")
	if d.SpanCount != 4 {
		t.Fatalf("ring held %d spans, want 4", d.SpanCount)
	}
	if d.Dropped != 3 {
		t.Errorf("dropped = %d, want 3", d.Dropped)
	}
	// Oldest surviving span is op_3; the trace must contain op_3..op_6
	// and none earlier.
	trace := string(d.Trace)
	for i := 0; i < 3; i++ {
		if strings.Contains(trace, fmt.Sprintf("op_%d", i)) {
			t.Errorf("evicted span op_%d still in dump", i)
		}
	}
	for i := 3; i < 7; i++ {
		if !strings.Contains(trace, fmt.Sprintf("op_%d", i)) {
			t.Errorf("span op_%d missing from dump", i)
		}
	}
	if err := ValidateChromeTrace([]byte(d.Trace)); err != nil {
		t.Errorf("dump trace does not validate: %v", err)
	}
}

// TestFlightRecorderConcurrentTriggersKeepTheLatest: triggers racing
// from many goroutines finish rendering in any order, and LastDump is
// always the one with the highest Seq — an older, slower dump never
// replaces a newer one, not even for a moment.
func TestFlightRecorderConcurrentTriggersKeepTheLatest(t *testing.T) {
	f := NewFlightRecorder(256, nil)
	tr := NewTracer()
	tr.SetOnEmit(f.Record)
	tk := tr.Track("host", "app")
	for i := 0; i < 256; i++ {
		tk.Emit(0, fmt.Sprintf("op_%d", i), simclock.Duration(i*10), 5, nil)
	}
	const workers, each = 8, 25
	var wg sync.WaitGroup
	var older atomic.Int64 // the first older dump seen in place of a newer one
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				d := f.Trigger(fmt.Sprintf("worker %d trigger %d", w, i))
				if last := f.LastDump().Seq; last < d.Seq && older.CompareAndSwap(0, int64(last)) {
					t.Errorf("dump %d was replaced by the older dump %d", d.Seq, last)
				}
			}
		}()
	}
	wg.Wait()
	if got := f.LastDump().Seq; got != workers*each {
		t.Fatalf("LastDump().Seq = %d after %d triggers, want the highest", got, workers*each)
	}
}

// TestFlightRecorderDeltas: counter movement between baseline and
// trigger is reported sorted by series, and the baseline resets so the
// next incident reports only what moved since.
func TestFlightRecorderDeltas(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zz_total", "Z.").Add(5) // pre-baseline
	f := NewFlightRecorder(8, reg)
	reg.Counter("aa_total", "A.").Add(2)
	reg.Counter("zz_total", "Z.").Add(1)
	d := f.Trigger("first")
	want := []CounterDelta{{Series: "aa_total", Delta: 2}, {Series: "zz_total", Delta: 1}}
	if len(d.CounterDeltas) != len(want) {
		t.Fatalf("deltas %+v, want %+v", d.CounterDeltas, want)
	}
	for i, cd := range d.CounterDeltas {
		if cd != want[i] {
			t.Errorf("delta[%d] = %+v, want %+v", i, cd, want[i])
		}
	}
	d2 := f.Trigger("second")
	if len(d2.CounterDeltas) != 0 {
		t.Errorf("second trigger reported stale deltas %+v", d2.CounterDeltas)
	}
}

// TestFlightRecorderDumpFile: with a dump dir set, Trigger writes a
// file that DecodeFlightDump round-trips (including trace
// re-validation), and LastDump returns the same incident.
func TestFlightRecorderDumpFile(t *testing.T) {
	dir := t.TempDir()
	f := NewFlightRecorder(8, nil)
	tr := NewTracer()
	tr.SetOnEmit(f.Record)
	scope := tr.NewScope()
	tr.Track("host", "app").Emit(scope, "capture_failed", 100, 0, nil)
	d := f.Trigger("capture error")
	if f.LastDump() != d {
		t.Error("LastDump does not return the trigger result")
	}
	if d.Path != "" {
		t.Fatalf("dump written with no dir set: %q", d.Path)
	}
	f.SetDumpDir(dir)
	d = f.Trigger("capture error again")
	wantPath := filepath.Join(dir, "flight_002.json")
	if d.Path != wantPath {
		t.Fatalf("dump path %q, want %q (write err %q)", d.Path, wantPath, d.WriteErr)
	}
	b, err := os.ReadFile(d.Path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeFlightDump(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.Reason != "capture error again" || back.SpanCount != 1 {
		t.Errorf("round-trip dump %+v", back)
	}
	if !strings.Contains(back.Summary(), "capture error again") {
		t.Errorf("summary missing reason:\n%s", back.Summary())
	}
}

// TestFlightRecorderNil: the nil-safety contract call sites rely on.
func TestFlightRecorderNil(t *testing.T) {
	var f *FlightRecorder
	f.Record(Span{Name: "x"})
	f.SetDumpDir("/nope")
	if d := f.Trigger("nil"); d != nil {
		t.Errorf("nil recorder triggered %+v", d)
	}
	if f.LastDump() != nil {
		t.Error("nil recorder has a dump")
	}
	var d *FlightDump
	if !strings.Contains(d.Summary(), "no flight dump") {
		t.Error("nil dump summary drifted")
	}
}
