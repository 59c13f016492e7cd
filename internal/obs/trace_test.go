package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scriptedTwoCardCapture replays a fixed two-card snapshot lifecycle on a
// fresh tracer: pause and a 2-stream store-mode capture on mic0 (one
// pipelined digest pass with its two have/need windows nested inside it,
// each stream open from the window that first needed it to the end of the
// pass), then a restore onto mic1 — the same span names and track layout
// the real stack emits, with hand-picked durations so the export is
// stable.
func scriptedTwoCardCapture() *Tracer {
	tr := NewTracer()
	host := tr.Track("host", "app")
	agent0 := tr.Track("mic0", "offload_a")
	coid0 := tr.Track("mic0", "coid")
	coid1 := tr.Track("mic1", "coid")

	host.Emit(0, "snapify_pause", 0, 1000, map[string]int64{"local_store_bytes": 4096})
	host.Emit(0, "pause_handshake", 0, 300, nil)
	host.Emit(0, "host_drain", 300, 200, nil)
	host.Emit(0, "device_drain", 500, 500, map[string]int64{"bytes": 4096})
	agent0.AlignTo(500)
	agent0.Emit(0, "quiesce", 500, 100, nil)
	agent0.Emit(0, "save_local_store", 600, 400, map[string]int64{"bytes": 4096})
	coid0.Emit(0, "drain_coordination", 500, 500, nil)

	scope := tr.NewScope()
	w0 := tr.Track("mic0", "offload_a/stream 0")
	w1 := tr.Track("mic0", "offload_a/stream 1")
	agent0.Emit(scope, "store_negotiate", 1000, 100, map[string]int64{"chunks_total": 2, "chunks_needed": 1})
	agent0.Emit(scope, "store_negotiate", 1900, 100, map[string]int64{"chunks_total": 2, "chunks_needed": 1})
	w0.Emit(scope, "capture_stream", 1100, 1900, map[string]int64{"bytes": 4096, "stream": 0})
	w1.Emit(scope, "capture_stream", 2000, 1000, map[string]int64{"bytes": 4096, "stream": 1})
	agent0.Emit(scope, "store_digest", 1000, 2000, map[string]int64{
		"chunks_total": 4, "chunks_rehashed": 2, "bytes_rehashed": 8192, "seeded_from": 2})
	coid0.Emit(0, "capture_coordination", 1000, 2000, nil)
	host.Emit(scope, "snapify_capture", 1000, 2000, map[string]int64{"bytes": 16384, "streams": 2, "shipped_bytes": 8192})

	coid1.AlignTo(3000)
	coid1.Emit(0, "restore_context", 3000, 800, map[string]int64{"bytes": 16384})
	coid1.Emit(0, "reload_local_store", 3800, 200, map[string]int64{"bytes": 4096})
	host.Emit(0, "snapify_restore", 3000, 1100, nil)
	host.Emit(0, "restore_device", 3000, 800, nil)
	host.Emit(0, "restore_local", 3800, 200, nil)
	host.Emit(0, "restore_reconnect", 4000, 100, map[string]int64{"remap_entries": 2})
	host.Emit(0, "snapify_resume", 4100, 50, nil)
	return tr
}

// TestChromeTraceGolden pins the Chrome trace export byte-for-byte for
// the scripted two-card capture: metadata in track-creation order, spans
// sorted deterministically, exact nanoseconds in args.dur_ns. Any change
// to the export format must update testdata/two_card_capture.json
// deliberately.
func TestChromeTraceGolden(t *testing.T) {
	got := scriptedTwoCardCapture().ChromeTrace()
	want, err := os.ReadFile("testdata/two_card_capture.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("export drifted from golden (got %d bytes, want %d):\n%s", len(got), len(want), got)
	}
	if err := ValidateChromeTrace(got); err != nil {
		t.Errorf("golden trace does not validate: %v", err)
	}
}

// TestChromeTraceDeterministic exports the same trace twice and demands
// identical bytes — the property the golden test and CI diffing rely on.
func TestChromeTraceDeterministic(t *testing.T) {
	tr := scriptedTwoCardCapture()
	if !bytes.Equal(tr.ChromeTrace(), tr.ChromeTrace()) {
		t.Error("two exports of the same tracer differ")
	}
}

func TestScopeSpans(t *testing.T) {
	tr := scriptedTwoCardCapture()
	spans := tr.ScopeSpans(1)
	var streams int
	for _, s := range spans {
		if s.Name == "capture_stream" {
			streams++
		}
	}
	if streams != 2 {
		t.Errorf("scope 1 has %d capture_stream spans, want 2", streams)
	}
	if got := tr.ScopeSpans(0); got != nil {
		t.Errorf("scope 0 must never match, got %d spans", len(got))
	}
}

// TestNilTracerIsNoOp pins the nil-safety contract every call site relies
// on: a nil tracer hands out nil tracks, scope 0, and empty exports, and
// emitting on a nil track still returns the span record.
func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tk := tr.Track("host", "app")
	if tk != nil {
		t.Fatal("nil tracer returned a non-nil track")
	}
	if got := tr.NewScope(); got != 0 {
		t.Errorf("nil tracer minted scope %d, want 0", got)
	}
	sp := tk.Emit(7, "work", 10, 5, nil)
	if sp.Dur != 5 || sp.Start != 10 || sp.Name != "work" {
		t.Errorf("nil track Emit returned %+v, want the span record back", sp)
	}
	tk.AlignTo(100)
	if tk.Now() != 0 {
		t.Error("nil track has a cursor")
	}
	if tr.Spans() != nil || tr.ScopeSpans(7) != nil {
		t.Error("nil tracer recorded spans")
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"not json", "nope", "not valid JSON"},
		{"empty", `{"traceEvents":[]}`, "empty traceEvents"},
		{"metadata only", `{"traceEvents":[
			{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"host"}}]}`,
			"no X (span) events"},
		{"unnamed span", `{"traceEvents":[
			{"name":"","ph":"X","ts":0,"dur":1,"pid":1,"tid":1,"args":{"dur_ns":1000}}]}`,
			"unnamed"},
		{"unknown phase", `{"traceEvents":[
			{"name":"x","ph":"B","ts":0,"pid":1,"tid":1}]}`,
			"unsupported phase"},
		{"missing dur_ns", `{"traceEvents":[
			{"name":"x","ph":"X","ts":0,"dur":1,"pid":1,"tid":1}]}`,
			"missing args.dur_ns"},
		{"inconsistent dur_ns", `{"traceEvents":[
			{"name":"x","ph":"X","ts":0,"dur":1,"pid":1,"tid":1,"args":{"dur_ns":5000}}]}`,
			"disagrees"},
		{"unlabeled lane", `{"traceEvents":[
			{"name":"x","ph":"X","ts":0,"dur":1,"pid":1,"tid":1,"args":{"dur_ns":1000}}]}`,
			"no process_name"},
		{"partial overlap", `{"traceEvents":[
			{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"host"}},
			{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"app"}},
			{"name":"a","ph":"X","ts":0,"dur":2,"pid":1,"tid":1,"args":{"dur_ns":2000}},
			{"name":"b","ph":"X","ts":1,"dur":2,"pid":1,"tid":1,"args":{"dur_ns":2000}}]}`,
			"partially overlaps"},
		{"scope never created", `{"traceEvents":[
			{"name":"scope_count","ph":"M","ts":0,"pid":0,"tid":0,"args":{"count":1}},
			{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"host"}},
			{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"app"}},
			{"name":"x","ph":"X","ts":0,"dur":1,"pid":1,"tid":1,"args":{"dur_ns":1000,"scope":3}}]}`,
			"only 1 scope(s) were ever created"},
		{"non-integer scope", `{"traceEvents":[
			{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"host"}},
			{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"app"}},
			{"name":"x","ph":"X","ts":0,"dur":1,"pid":1,"tid":1,"args":{"dur_ns":1000,"scope":1.5}}]}`,
			"not a positive integer"},
		{"zero scope arg", `{"traceEvents":[
			{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"host"}},
			{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"app"}},
			{"name":"x","ph":"X","ts":0,"dur":1,"pid":1,"tid":1,"args":{"dur_ns":1000,"scope":0}}]}`,
			"not a positive integer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateChromeTrace([]byte(tc.doc))
			if err == nil {
				t.Fatal("validated")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestValidateBadTraceFixtures runs the validator over the committed
// bad-trace goldens (testdata/bad_*.json) — corrupted exports a tool in
// the wild might hand us — and demands each is rejected.
func TestValidateBadTraceFixtures(t *testing.T) {
	fixtures, err := filepath.Glob("testdata/bad_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatal("no bad_*.json fixtures found")
	}
	for _, path := range fixtures {
		t.Run(filepath.Base(path), func(t *testing.T) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := ValidateChromeTrace(b); err == nil {
				t.Errorf("%s validated; fixture must be rejected", path)
			}
		})
	}
}

// TestValidateChromeTraceAcceptsNesting: containment (parent span fully
// covering children) and disjoint spans are both legal on one lane.
func TestValidateChromeTraceAcceptsNesting(t *testing.T) {
	doc := `{"traceEvents":[
		{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"host"}},
		{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"app"}},
		{"name":"parent","ph":"X","ts":0,"dur":10,"pid":1,"tid":1,"args":{"dur_ns":10000}},
		{"name":"child","ph":"X","ts":2,"dur":3,"pid":1,"tid":1,"args":{"dur_ns":3000}},
		{"name":"sibling","ph":"X","ts":5,"dur":5,"pid":1,"tid":1,"args":{"dur_ns":5000}},
		{"name":"later","ph":"X","ts":20,"dur":1,"pid":1,"tid":1,"args":{"dur_ns":1000}}]}`
	if err := ValidateChromeTrace([]byte(doc)); err != nil {
		t.Errorf("legal nesting rejected: %v", err)
	}
}

// TestOpenSpan pins the BeginAt/EndAt pairing contract: the recorded span
// matches an equivalent Emit, SetArg mutates only until EndAt, EndAt is
// idempotent (so a deferred EndAt composes with an early explicit one),
// and EndAt clamps a stale timestamp to zero duration.
func TestOpenSpan(t *testing.T) {
	tr := NewTracer()
	tk := tr.Track("host", "app")
	tk.AlignTo(100)

	sp := tk.BeginAt(3, "gc", tk.Now(), map[string]int64{"seed": 1})
	sp.SetArg("reclaimed", 42)
	tk.Emit(0, "sweep", 100, 40, nil) // advances the cursor to 140
	got := sp.EndAt(tk.Now())
	want := Span{Process: "host", Thread: "app", Scope: 3, Name: "gc",
		Start: 100, Dur: 40, Args: map[string]int64{"seed": 1, "reclaimed": 42}}
	if got.Name != want.Name || got.Start != want.Start || got.Dur != want.Dur ||
		got.Scope != want.Scope || got.Args["reclaimed"] != 42 || got.Args["seed"] != 1 {
		t.Errorf("EndAt recorded %+v, want %+v", got, want)
	}

	// Second EndAt is a no-op: nothing re-recorded, SetArg dead.
	before := len(tr.Spans())
	sp.SetArg("late", 1)
	if again := sp.EndAt(500); again.Name != "" {
		t.Errorf("second EndAt returned %+v, want zero Span", again)
	}
	if len(tr.Spans()) != before {
		t.Error("second EndAt recorded another span")
	}

	// Early explicit EndAt followed by a deferred one: exactly one record.
	sp2 := tk.BeginAt(0, "early", 200, nil)
	sp2.EndAt(250)
	sp2.EndAt(tk.Now())
	var early int
	for _, s := range tr.Spans() {
		if s.Name == "early" {
			early++
			if s.Start != 200 || s.Dur != 50 {
				t.Errorf("early span %+v, want start 200 dur 50", s)
			}
		}
	}
	if early != 1 {
		t.Errorf("early span recorded %d times, want 1", early)
	}

	// Stale end time clamps instead of going negative.
	sp3 := tk.BeginAt(0, "clamp", 300, nil)
	if s := sp3.EndAt(120); s.Dur != 0 {
		t.Errorf("EndAt before start produced dur %v, want 0", s.Dur)
	}
}

// TestOpenSpanNilTrack: instrumented code must not need nil checks —
// BeginAt on a nil track hands back a span whose EndAt returns the record
// without touching a tracer.
func TestOpenSpanNilTrack(t *testing.T) {
	var tk *Track
	sp := tk.BeginAt(1, "work", tk.Now(), nil)
	sp.SetArg("k", 7)
	got := sp.EndAt(10)
	if got.Name != "work" || got.Args["k"] != 7 {
		t.Errorf("nil-track EndAt returned %+v, want the span record back", got)
	}
	var nilSp *OpenSpan
	nilSp.SetArg("k", 1) // must not panic
	if s := nilSp.EndAt(10); s.Name != "" {
		t.Errorf("nil OpenSpan EndAt returned %+v", s)
	}
}

// TestTrackCursor pins AlignTo/Emit cursor semantics: forward-only
// alignment, cursor at the furthest span end.
func TestTrackCursor(t *testing.T) {
	tr := NewTracer()
	tk := tr.Track("host", "app")
	tk.AlignTo(100)
	if tk.Now() != 100 {
		t.Fatalf("cursor %v after AlignTo(100)", tk.Now())
	}
	tk.AlignTo(50) // backwards: no-op
	if tk.Now() != 100 {
		t.Fatalf("AlignTo moved the cursor backwards to %v", tk.Now())
	}
	tk.Emit(0, "a", 100, 40, nil)
	if tk.Now() != 140 {
		t.Fatalf("cursor %v after span ending at 140", tk.Now())
	}
	tk.Emit(0, "b", 120, 10, nil) // ends before the cursor: no move
	if tk.Now() != 140 {
		t.Fatalf("an earlier span moved the cursor to %v", tk.Now())
	}
	if got := tr.Track("host", "app"); got != tk {
		t.Error("Track is not idempotent for the same (process, thread)")
	}
}
