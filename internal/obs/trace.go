package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"snapify/internal/simclock"
)

// Span is one completed slice of virtual time on a track. Start and Dur
// are virtual (simclock) — the tracer never reads the wall clock.
type Span struct {
	Process string // track process name (e.g. "host", "mic0")
	Thread  string // track thread name (e.g. "coid", "app/stream 3")
	Name    string
	Scope   uint64 // correlates spans across tracks; 0 = unscoped
	Start   simclock.Duration
	Dur     simclock.Duration
	Args    map[string]int64
}

// End returns the virtual end time of the span.
func (s Span) End() simclock.Duration { return s.Start + s.Dur }

// Tracer records spans across named tracks. A track is a (process,
// thread) pair and maps onto a Perfetto pid/tid lane; creation order
// fixes the numeric IDs so exports are deterministic.
type Tracer struct {
	mu        sync.Mutex
	tracks    map[[2]string]*Track
	order     []*Track
	procIDs   map[string]int
	spans     []Span
	nextScope uint64
	onEmit    func(Span)
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{
		tracks:  make(map[[2]string]*Track),
		procIDs: make(map[string]int),
	}
}

// Track returns the track for (process, thread), creating it on first
// use. Returns nil on a nil tracer.
func (t *Tracer) Track(process, thread string) *Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	key := [2]string{process, thread}
	if tk, ok := t.tracks[key]; ok {
		return tk
	}
	pid, ok := t.procIDs[process]
	if !ok {
		pid = len(t.procIDs) + 1
		t.procIDs[process] = pid
	}
	tk := &Track{
		tracer:  t,
		process: process,
		thread:  thread,
		pid:     pid,
		tid:     len(t.order) + 1,
	}
	t.tracks[key] = tk
	t.order = append(t.order, tk)
	return tk
}

// NewScope mints a unique nonzero scope ID used to correlate spans
// emitted on different tracks (e.g. the shard workers of one capture).
// Returns 0 on a nil tracer; scope 0 means "unscoped" everywhere.
func (t *Tracer) NewScope() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextScope++
	return t.nextScope
}

// SetOnEmit installs a callback invoked for every span the tracer
// records (the flight recorder's feed). The callback runs under the
// tracer lock and must be cheap; it must not call back into this tracer.
func (t *Tracer) SetOnEmit(fn func(Span)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.onEmit = fn
}

// ScopeSpans returns (a copy of) every span recorded under scope, in
// emission order. Scope 0 never matches.
func (t *Tracer) ScopeSpans(scope uint64) []Span {
	if t == nil || scope == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for _, s := range t.spans {
		if s.Scope == scope {
			out = append(out, s)
		}
	}
	return out
}

// Spans returns a copy of every recorded span in emission order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Track is one pid/tid lane of the trace. It keeps a cursor — the
// virtual time at which the next convenience Span() starts — advanced
// by every emission and by AlignTo.
type Track struct {
	tracer  *Tracer
	process string
	thread  string
	pid     int
	tid     int
	cursor  simclock.Duration
}

// AlignTo moves the track cursor forward to at (no-op if the cursor is
// already past it). Used to pin a device-side track onto the host's
// virtual timeline before remote work starts.
func (tk *Track) AlignTo(at simclock.Duration) {
	if tk == nil {
		return
	}
	tk.tracer.mu.Lock()
	defer tk.tracer.mu.Unlock()
	if at > tk.cursor {
		tk.cursor = at
	}
}

// Now returns the track cursor.
func (tk *Track) Now() simclock.Duration {
	if tk == nil {
		return 0
	}
	tk.tracer.mu.Lock()
	defer tk.tracer.mu.Unlock()
	return tk.cursor
}

// Emit records a span with an explicit start time and returns the
// record; the cursor advances to at least the span's end. Args may be
// nil. On a nil track it returns a zero-name span carrying start/dur so
// callers can still derive report fields from the return value.
func (tk *Track) Emit(scope uint64, name string, start, dur simclock.Duration, args map[string]int64) Span {
	if tk == nil {
		return Span{Name: name, Scope: scope, Start: start, Dur: dur, Args: args}
	}
	tk.tracer.mu.Lock()
	defer tk.tracer.mu.Unlock()
	s := Span{
		Process: tk.process,
		Thread:  tk.thread,
		Name:    name,
		Scope:   scope,
		Start:   start,
		Dur:     dur,
		Args:    args,
	}
	tk.tracer.spans = append(tk.tracer.spans, s)
	if end := start + dur; end > tk.cursor {
		tk.cursor = end
	}
	if tk.tracer.onEmit != nil {
		tk.tracer.onEmit(s)
	}
	return s
}

// Span emits a span starting at the track cursor.
func (tk *Track) Span(scope uint64, name string, dur simclock.Duration, args map[string]int64) Span {
	if tk == nil {
		return Span{Name: name, Scope: scope, Dur: dur, Args: args}
	}
	return tk.Emit(scope, name, tk.Now(), dur, args)
}

// An OpenSpan is an in-flight span begun with Track.Begin: the virtual
// start time is fixed, the duration still accumulating. Every span begun
// must be ended exactly once on every path out of the beginning function
// — `defer sp.End()` right after Begin is the idiomatic form. Ending
// twice is a no-op, so a deferred End composes with an explicit early
// EndAt.
type OpenSpan struct {
	tk    *Track
	scope uint64
	name  string
	start simclock.Duration
	args  map[string]int64
	ended bool
}

// Begin opens a span starting at the track cursor. Safe on a nil track:
// the returned span still carries name/scope/args and End stays a no-op
// recorder, so instrumented code paths need no nil checks.
func (tk *Track) Begin(scope uint64, name string, args map[string]int64) *OpenSpan {
	var start simclock.Duration
	if tk != nil {
		start = tk.Now()
	}
	return tk.BeginAt(scope, name, start, args)
}

// BeginAt opens a span with an explicit virtual start time.
func (tk *Track) BeginAt(scope uint64, name string, start simclock.Duration, args map[string]int64) *OpenSpan {
	return &OpenSpan{tk: tk, scope: scope, name: name, start: start, args: args}
}

// SetArg attaches (or overwrites) one argument on the still-open span.
// No-op after End.
func (o *OpenSpan) SetArg(key string, v int64) {
	if o == nil || o.ended {
		return
	}
	if o.args == nil {
		o.args = map[string]int64{}
	}
	o.args[key] = v
}

// End closes the span at the track cursor — virtual time as advanced by
// whatever was emitted since Begin — and records it. Second and later
// calls are no-ops returning a zero Span.
func (o *OpenSpan) End() Span {
	if o == nil || o.ended {
		return Span{}
	}
	at := o.start
	if o.tk != nil {
		if now := o.tk.Now(); now > at {
			at = now
		}
	}
	return o.EndAt(at)
}

// EndAt closes the span at an explicit virtual end time (clamped to the
// start, so a stale timestamp cannot produce a negative duration).
func (o *OpenSpan) EndAt(at simclock.Duration) Span {
	if o == nil || o.ended {
		return Span{}
	}
	o.ended = true
	dur := at - o.start
	if dur < 0 {
		dur = 0
	}
	return o.tk.Emit(o.scope, o.name, o.start, dur, o.args)
}

// chromeEvent is one entry of the Chrome trace-event JSON array.
// "X" events are complete spans (ts/dur in fractional microseconds, as
// the format requires); "M" events are process/thread name metadata.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace exports every recorded span as Chrome trace-event JSON
// ({"traceEvents": [...]}) loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. ts/dur are virtual microseconds; the exact virtual
// nanosecond duration rides in args.dur_ns (ints survive, floats
// round). Output is deterministic: metadata first in track-creation
// order, then spans sorted by (pid, tid, start, -dur, name).
func (t *Tracer) ChromeTrace() []byte {
	var events []chromeEvent
	if t != nil {
		t.mu.Lock()
		tracks := make([]*Track, len(t.order))
		copy(tracks, t.order)
		spans := make([]Span, len(t.spans))
		copy(spans, t.spans)
		scopes := t.nextScope
		t.mu.Unlock()

		// The scope ledger: how many scopes this tracer ever minted. The
		// validator uses it to reject spans referencing a scope id that was
		// never created (a corrupted or hand-edited trace).
		events = append(events, chromeEvent{
			Name: "scope_count", Ph: "M", Pid: 0, Tid: 0,
			Args: map[string]any{"count": int64(scopes)},
		})

		seenProc := make(map[int]bool)
		for _, tk := range tracks {
			if !seenProc[tk.pid] {
				seenProc[tk.pid] = true
				events = append(events, chromeEvent{
					Name: "process_name", Ph: "M", Pid: tk.pid, Tid: 0,
					Args: map[string]any{"name": tk.process},
				})
			}
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: tk.pid, Tid: tk.tid,
				Args: map[string]any{"name": tk.thread},
			})
		}
		type keyed struct {
			pid, tid int
			s        Span
		}
		ks := make([]keyed, 0, len(spans))
		for _, s := range spans {
			tk := t.Track(s.Process, s.Thread)
			ks = append(ks, keyed{tk.pid, tk.tid, s})
		}
		sort.SliceStable(ks, func(i, j int) bool {
			a, b := ks[i], ks[j]
			if a.pid != b.pid {
				return a.pid < b.pid
			}
			if a.tid != b.tid {
				return a.tid < b.tid
			}
			if a.s.Start != b.s.Start {
				return a.s.Start < b.s.Start
			}
			if a.s.Dur != b.s.Dur {
				return a.s.Dur > b.s.Dur // parents before children
			}
			return a.s.Name < b.s.Name
		})
		for _, k := range ks {
			args := map[string]any{"dur_ns": int64(k.s.Dur)}
			if k.s.Scope != 0 {
				args["scope"] = int64(k.s.Scope)
			}
			for key, v := range k.s.Args {
				args[key] = v
			}
			dur := float64(k.s.Dur) / 1e3
			events = append(events, chromeEvent{
				Name: k.s.Name, Ph: "X",
				Ts: float64(k.s.Start) / 1e3, Dur: &dur,
				Pid: k.pid, Tid: k.tid, Args: args,
			})
		}
	}
	doc := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		DisplayUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayUnit: "ms"}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		// Only map keys can make Marshal fail and ours are strings.
		panic(fmt.Sprintf("obs: chrome trace marshal: %v", err)) //nolint:paniclib // unreachable: a struct of strings, ints, and floats always marshals
	}
	return append(buf, '\n')
}

// ValidateChromeTrace checks that b is structurally valid Chrome
// trace-event JSON as produced by ChromeTrace: a non-empty traceEvents
// array of "X"/"M" events, every X span named, non-negative, carrying a
// dur_ns arg consistent with its microsecond dur, its (pid, tid) lane
// labeled by metadata, spans on one lane properly nested (contained
// or disjoint — partial overlap would render garbage in Perfetto), and
// every args.scope a positive integer no larger than the scope_count
// ledger (when the trace carries one): a span may not reference a scope
// the tracer never created.
func ValidateChromeTrace(b []byte) error {
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("trace: not valid JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("trace: empty traceEvents array")
	}
	type lane struct{ pid, tid int }
	procNamed := make(map[int]bool)
	laneNamed := make(map[lane]bool)
	type ispan struct {
		start, end int64
		name       string
	}
	lanes := make(map[lane][]ispan)
	nX := 0
	scopeCount := int64(-1) // -1: trace carries no scope ledger
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "scope_count" {
			if c, ok := ev.Args["count"].(float64); ok {
				scopeCount = int64(c)
			}
		}
	}
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			switch ev.Name {
			case "process_name":
				procNamed[ev.Pid] = true
			case "thread_name":
				laneNamed[lane{ev.Pid, ev.Tid}] = true
			}
		case "X":
			nX++
			if ev.Name == "" {
				return fmt.Errorf("trace: event %d: unnamed X event", i)
			}
			if ev.Ts < 0 || ev.Dur < 0 {
				return fmt.Errorf("trace: event %d (%s): negative ts/dur", i, ev.Name)
			}
			raw, ok := ev.Args["dur_ns"]
			if !ok {
				return fmt.Errorf("trace: event %d (%s): missing args.dur_ns", i, ev.Name)
			}
			durNS, ok := raw.(float64)
			if !ok {
				return fmt.Errorf("trace: event %d (%s): args.dur_ns not a number", i, ev.Name)
			}
			if diff := ev.Dur*1e3 - durNS; diff > 1 || diff < -1 {
				return fmt.Errorf("trace: event %d (%s): dur %.3fus disagrees with dur_ns %d",
					i, ev.Name, ev.Dur, int64(durNS))
			}
			if rawScope, ok := ev.Args["scope"]; ok {
				sc, ok := rawScope.(float64)
				if !ok || sc != float64(int64(sc)) || sc < 1 {
					return fmt.Errorf("trace: event %d (%s): args.scope %v is not a positive integer", i, ev.Name, rawScope)
				}
				if scopeCount >= 0 && int64(sc) > scopeCount {
					return fmt.Errorf("trace: event %d (%s): references scope %d, but only %d scope(s) were ever created",
						i, ev.Name, int64(sc), scopeCount)
				}
			}
			l := lane{ev.Pid, ev.Tid}
			start := int64(ev.Ts*1e3 + 0.5)
			lanes[l] = append(lanes[l], ispan{start, start + int64(durNS), ev.Name})
		default:
			return fmt.Errorf("trace: event %d (%s): unsupported phase %q", i, ev.Name, ev.Ph)
		}
	}
	if nX == 0 {
		return fmt.Errorf("trace: no X (span) events")
	}
	for l, spans := range lanes {
		if !procNamed[l.pid] {
			return fmt.Errorf("trace: pid %d has spans but no process_name metadata", l.pid)
		}
		if !laneNamed[l] {
			return fmt.Errorf("trace: pid %d tid %d has spans but no thread_name metadata", l.pid, l.tid)
		}
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].start != spans[j].start {
				return spans[i].start < spans[j].start
			}
			return spans[i].end > spans[j].end
		})
		var stack []ispan
		for _, s := range spans {
			for len(stack) > 0 && stack[len(stack)-1].end <= s.start {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && s.end > stack[len(stack)-1].end {
				return fmt.Errorf("trace: pid %d tid %d: span %q [%d,%d) partially overlaps %q [%d,%d)",
					l.pid, l.tid, s.name, s.start, s.end,
					stack[len(stack)-1].name, stack[len(stack)-1].start, stack[len(stack)-1].end)
			}
			stack = append(stack, s)
		}
	}
	return nil
}
