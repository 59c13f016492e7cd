package main

import (
	"fmt"
	"sort"

	"snapify/internal/obs"
	"snapify/internal/obs/analyze"
	"snapify/internal/simclock"
)

// benchSpan is one bench-side span: wall time around one call into a
// layer's public API (or around a whole op, layer "bench"). Parent is the
// index of the enclosing span, -1 at the top; spans of one op share OpID.
type benchSpan struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	OpID    int    `json:"op_id"`
}

// recorder keeps the traced run's spans in memory; they are written out
// when the run ends. A nil recorder (the untraced run) records nothing,
// so the end-to-end figures never pay for it.
type recorder struct {
	wall  simclock.WallTimer
	spans []benchSpan
	stack []int
	opID  int
}

func newRecorder() *recorder { return &recorder{wall: simclock.StartWall()} }

// op runs one workload op under a top-level span.
func (r *recorder) op(name string, fn func() error) error {
	if r != nil {
		r.opID++
	}
	return r.call("bench", name, fn)
}

// call runs fn — one call across a layer boundary — under a span.
func (r *recorder) call(layer, name string, fn func() error) error {
	if r == nil {
		return fn()
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	idx := len(r.spans)
	r.spans = append(r.spans, benchSpan{Name: name, Layer: layer, StartNs: r.wall.ElapsedNs(), Parent: parent, OpID: r.opID})
	r.stack = append(r.stack, idx)
	err := fn()
	r.spans[idx].EndNs = r.wall.ElapsedNs()
	r.stack = r.stack[:len(r.stack)-1]
	return err
}

// mark returns the current span count, so a repetition can later look at
// only its own spans.
func (r *recorder) mark() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// durations returns the wall durations of the spans named name recorded
// since mark.
func (r *recorder) durations(mark int, name string) []float64 {
	if r == nil {
		return nil
	}
	var out []float64
	for _, s := range r.spans[mark:] {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs))
		}
	}
	return out
}

// selfTimes folds the spans by layer: a span's self time is its duration
// minus the part its children cover (children of one parent never
// overlap — the bench is single-threaded at this level).
func (r *recorder) selfTimes() map[string]int64 {
	if r == nil {
		return nil
	}
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.EndNs - s.StartNs
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	out := map[string]int64{}
	for i, s := range r.spans {
		out[s.Layer] += self[i]
	}
	return out
}

// spanLayer maps the platform tracer's span names to the layer (the
// internal package) whose work the span covers. The critical-path blame
// is folded through this table; a name missing from it lands in "other".
var spanLayer = map[string]string{
	// core: the host-side protocol phases (internal/core).
	"snapify_pause":      "core",
	"pause_handshake":    "core",
	"host_drain":         "core",
	"device_drain":       "core",
	"snapify_capture":    "core",
	"snapify_resume":     "core",
	"snapify_restore":    "core",
	"restore_device":     "core",
	"restore_local":      "core",
	"restore_reconnect":  "core",
	"precopy_round":      "core",
	"migration_downtime": "core",
	// coi: the daemon's coordination and the agent's device-side work
	// (internal/coi).
	"drain_coordination":   "coi",
	"capture_coordination": "coi",
	"quiesce":              "coi",
	"save_local_store":     "coi",
	"restore_context":      "coi",
	"reload_local_store":   "coi",
	"precopy_stage":        "coi",
	// blcr: the checkpointer's data streams (internal/blcr, driving
	// snapifyio/scif/simnet underneath).
	"capture_stream": "blcr",
	"restore_stream": "blcr",
	"precopy_stream": "blcr",
	"stream_retry":   "blcr",
	// snapstore: digesting, have/need negotiation, collection.
	"store_negotiate": "snapstore",
	"precopy_digest":  "snapstore",
	"store_gc":        "snapstore",
	"fed_repair":      "snapstore",
}

// critLayers are the crit.* metric suffixes, most specific layer first:
// the order is also the blame precedence.
var critLayers = []string{"blcr", "snapstore", "coi", "core", "other", "idle"}

// critByLayer splits the window of the given platform spans by layer.
// The spans nest across lanes — core's snapify_capture and coi's
// capture_coordination are umbrellas over everything the lower layers do
// meanwhile — so each elementary interval (between two neighbouring span
// boundaries) is charged to the most specific layer with a span active in
// it: the data streams before the store, the store before coi's
// coordination, that before core's phases; no span at all is idle. The
// analyzer's own blame (analyze.CriticalPath) breaks such ties toward the
// span ending last, which hands every interval to the umbrella; it is
// still run, as the cross-check that the window tiles exactly. The parts
// sum to the window by integer equality, or the run fails.
func critByLayer(spans []obs.Span) (map[string]int64, error) {
	out := map[string]int64{}
	var live []obs.Span
	var cuts []int64
	for _, sp := range spans {
		if sp.Dur > 0 {
			live = append(live, sp)
			cuts = append(cuts, int64(sp.Start), int64(sp.End()))
		}
	}
	if len(live) == 0 {
		return out, nil // no spans: every layer idle, window 0
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	rank := map[string]int{}
	for i, l := range critLayers {
		rank[l] = i
	}
	for i := 1; i < len(cuts); i++ {
		lo, hi := cuts[i-1], cuts[i]
		if lo == hi {
			continue
		}
		best := "idle"
		for _, sp := range live {
			if int64(sp.Start) > lo || int64(sp.End()) < hi {
				continue
			}
			layer, ok := spanLayer[sp.Name]
			if !ok {
				layer = "other"
			}
			if rank[layer] < rank[best] {
				best = layer
			}
		}
		out[best] += hi - lo
	}
	rep, err := analyze.CriticalPath(live)
	if err != nil {
		return nil, err
	}
	var sum int64
	for _, l := range critLayers {
		sum += out[l]
	}
	if window := cuts[len(cuts)-1] - cuts[0]; sum != window || rep.EndToEndNs != window {
		return nil, fmt.Errorf("critical path: layers sum to %d ns, window is %d ns, the analyzer's %d ns", sum, window, rep.EndToEndNs)
	}
	out["window"] = sum
	return out, nil
}
