package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// DefaultFlightSpans is the ring capacity New() gives each platform's
// flight recorder: enough to hold the spans of a full capture or a few
// migration rounds, small enough to leave always-on.
const DefaultFlightSpans = 512

// FlightRecorder keeps a bounded ring of the most recent spans plus a
// baseline counter snapshot, cheap enough to run on every platform all
// the time. When something goes wrong — a chaos fault fires, a daemon
// crashes, Capture/Restore/Migrate returns an error — Trigger freezes
// the ring into a FlightDump: a validated Chrome trace of the last N
// spans and the counter deltas since the previous incident (or since
// boot). The dump is what a post-mortem would want and what the chaos
// tier asserts on.
type FlightRecorder struct {
	mu      sync.Mutex
	ring    []Span // fixed capacity; write index wraps
	next    int
	full    bool
	dropped int64 // spans overwritten after the ring first filled
	reg     *Registry
	base    map[string]int64 // counter snapshot at boot / last trigger
	seq     int
	last    *FlightDump
	dumpDir string
}

// NewFlightRecorder returns a recorder holding up to capacity spans
// (DefaultFlightSpans if capacity <= 0), diffing counters against reg
// (which may be nil).
func NewFlightRecorder(capacity int, reg *Registry) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightSpans
	}
	return &FlightRecorder{
		ring: make([]Span, capacity),
		reg:  reg,
		base: reg.counterSnapshot(),
	}
}

// SetDumpDir makes every Trigger also write its dump to dir as
// flight_<seq>.json (best-effort; failures are recorded on the dump).
// Empty dir disables file output.
func (f *FlightRecorder) SetDumpDir(dir string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dumpDir = dir
}

// Record appends one span to the ring, overwriting the oldest once
// full. It is installed as the tracer's onEmit callback, so it runs
// under the tracer lock: it takes only the recorder lock and never
// calls back into any tracer.
func (f *FlightRecorder) Record(s Span) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.full {
		f.dropped++
	}
	f.ring[f.next] = s
	f.next++
	if f.next == len(f.ring) {
		f.next = 0
		f.full = true
	}
}

// CounterDelta is one counter series that moved since the baseline.
type CounterDelta struct {
	Series string `json:"series"`
	Delta  int64  `json:"delta"`
}

// FlightDump is a frozen incident record: the ring contents rendered as
// a validated Chrome trace plus the counter movement around the
// incident. It round-trips through JSON (DecodeFlightDump) so
// `snapifyctl analyze flight` can read dumps written by SetDumpDir.
type FlightDump struct {
	Reason        string          `json:"reason"`
	Seq           int             `json:"seq"`
	SpanCount     int             `json:"span_count"`
	Dropped       int64           `json:"dropped"`
	Trace         json.RawMessage `json:"trace"`
	CounterDeltas []CounterDelta  `json:"counter_deltas,omitempty"`
	Path          string          `json:"path,omitempty"`
	WriteErr      string          `json:"write_err,omitempty"`
}

// Trigger freezes the ring into a FlightDump tagged with reason,
// resets the counter baseline, optionally writes the dump file, and
// returns it (also retrievable later via LastDump). Nil-safe.
func (f *FlightRecorder) Trigger(reason string) *FlightDump {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	spans := f.snapshotLocked()
	dropped := f.dropped
	f.seq++
	seq := f.seq
	now := f.reg.counterSnapshot()
	deltas := diffCounters(f.base, now)
	f.base = now
	dir := f.dumpDir
	f.mu.Unlock()

	// Re-emit the ring onto a fresh tracer so the dump is a
	// self-contained, schema-valid Chrome trace. A suffix subset of a
	// properly-nested lane is still properly nested, so validation
	// holds by construction; the scope ledger is preset to the highest
	// scope the ring references.
	tr := NewTracer()
	var maxScope uint64
	for _, s := range spans {
		if s.Scope > maxScope {
			maxScope = s.Scope
		}
	}
	tr.nextScope = maxScope
	for _, s := range spans {
		tr.Track(s.Process, s.Thread).Emit(s.Scope, s.Name, s.Start, s.Dur, s.Args)
	}
	d := &FlightDump{
		Reason:        reason,
		Seq:           seq,
		SpanCount:     len(spans),
		Dropped:       dropped,
		Trace:         json.RawMessage(tr.ChromeTrace()),
		CounterDeltas: deltas,
	}
	if dir != "" {
		path := filepath.Join(dir, fmt.Sprintf("flight_%03d.json", seq))
		if err := writeFileAtomic(path, d); err != nil {
			d.WriteErr = err.Error()
		} else {
			d.Path = path
		}
	}
	// Concurrent triggers render outside the lock and may finish in any
	// order; the latest incident, the highest Seq, is the one kept.
	f.mu.Lock()
	if f.last == nil || d.Seq > f.last.Seq {
		f.last = d
	}
	f.mu.Unlock()
	return d
}

// writeFileAtomic writes the dump via a temp file and rename, so a dump
// file either holds the complete JSON or does not exist — a trigger can
// fire on a teardown path racing process exit, and a truncated dump
// would defeat the post-mortem it exists for.
func writeFileAtomic(path string, d *FlightDump) error {
	b, err := d.JSON()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// LastDump returns the dump of the latest Trigger, the one with the
// highest Seq (nil if none yet).
func (f *FlightRecorder) LastDump() *FlightDump {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last
}

// snapshotLocked returns the ring contents oldest-first.
func (f *FlightRecorder) snapshotLocked() []Span {
	if !f.full {
		out := make([]Span, f.next)
		copy(out, f.ring[:f.next])
		return out
	}
	out := make([]Span, 0, len(f.ring))
	out = append(out, f.ring[f.next:]...)
	out = append(out, f.ring[:f.next]...)
	return out
}

// diffCounters returns the nonzero deltas between two counter
// snapshots, sorted by series name (series new since base count in
// full).
func diffCounters(base, now map[string]int64) []CounterDelta {
	keys := make([]string, 0, len(now))
	for k := range now {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []CounterDelta
	for _, k := range keys {
		if d := now[k] - base[k]; d != 0 {
			out = append(out, CounterDelta{Series: k, Delta: d})
		}
	}
	return out
}

// JSON renders the dump as indented JSON.
func (d *FlightDump) JSON() ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}

// DecodeFlightDump parses a dump written by JSON()/SetDumpDir and
// re-validates the embedded trace.
func DecodeFlightDump(b []byte) (*FlightDump, error) {
	var d FlightDump
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("flight: %w", err)
	}
	if err := ValidateChromeTrace([]byte(d.Trace)); err != nil {
		return nil, fmt.Errorf("flight: embedded trace invalid: %w", err)
	}
	return &d, nil
}

// Summary renders a short human-readable account of the dump.
func (d *FlightDump) Summary() string {
	if d == nil {
		return "no flight dump recorded\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "flight dump #%d: %s\n", d.Seq, d.Reason)
	fmt.Fprintf(&b, "  spans in ring: %d (dropped before window: %d)\n", d.SpanCount, d.Dropped)
	if d.Path != "" {
		fmt.Fprintf(&b, "  written to: %s\n", d.Path)
	}
	if d.WriteErr != "" {
		fmt.Fprintf(&b, "  write error: %s\n", d.WriteErr)
	}
	if len(d.CounterDeltas) == 0 {
		b.WriteString("  no counter movement since baseline\n")
	} else {
		b.WriteString("  counter deltas since baseline:\n")
		for _, cd := range d.CounterDeltas {
			fmt.Fprintf(&b, "    %-60s %+d\n", cd.Series, cd.Delta)
		}
	}
	return b.String()
}
