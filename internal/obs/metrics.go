package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// All metric values are int64: the simulation deals in bytes, message
// counts, and virtual nanoseconds, all of which are exact integers.
// Keeping floats out makes the exposition byte-stable across runs.

// Label is one name="value" pair on a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (no-op on nil, negative n ignored).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an int64 that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value (no-op on nil).
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value returns the current gauge value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed upper-bound buckets
// (Prometheus-style cumulative exposition: name_bucket{le=...},
// name_sum, name_count).
type Histogram struct {
	bounds []int64 // sorted upper bounds, exclusive of +Inf
	mu     sync.Mutex
	counts []int64 // len(bounds)+1; last is the +Inf bucket
	sum    int64
	count  int64
}

// Observe records one value (no-op on nil).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i]++
	h.sum += v
	h.count++
}

func (h *Histogram) quantileLocked(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	cum := int64(0)
	for i, bound := range h.bounds {
		prev := cum
		cum += h.counts[i]
		if float64(cum) >= rank {
			lower := int64(0)
			if i > 0 {
				lower = h.bounds[i-1]
			}
			if h.counts[i] == 0 {
				return bound
			}
			frac := (rank - float64(prev)) / float64(h.counts[i])
			return lower + int64(float64(bound-lower)*frac+0.5)
		}
	}
	if len(h.bounds) > 0 {
		return h.bounds[len(h.bounds)-1]
	}
	// Degenerate histogram with no finite buckets: fall back to the mean.
	return h.sum / h.count
}

// exposedQuantiles are the estimates rendered for every histogram
// series in Expose, as name_quantile{quantile="..."} lines.
var exposedQuantiles = []struct {
	label string
	q     float64
}{
	{"0.5", 0.5},
	{"0.9", 0.9},
	{"0.99", 0.99},
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type series struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]*series // keyed by rendered label string
}

// Registry holds metric families and renders them as Prometheus text
// exposition. Getter methods are idempotent: the same (name, labels)
// always returns the same instance, so hot paths may re-look-up.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	collectors []func(*Registry)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns (creating if needed) the counter series name{labels}.
// Returns nil — a valid no-op metric — on a nil registry.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, kindCounter, labels)
	if s == nil {
		return nil
	}
	return s.counter
}

// Gauge returns (creating if needed) the gauge series name{labels}.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, kindGauge, labels)
	if s == nil {
		return nil
	}
	return s.gauge
}

// Histogram returns (creating if needed) the histogram series
// name{labels} with the given upper bounds (sorted copies are taken;
// bounds are fixed at first creation and later calls reuse them).
func (r *Registry) Histogram(name, help string, bounds []int64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, kindHistogram)
	key := renderLabels(labels)
	if s, ok := f.series[key]; ok {
		return s.hist
	}
	bs := append([]int64(nil), bounds...)
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	s := &series{
		labels: append([]Label(nil), labels...),
		hist:   &Histogram{bounds: bs, counts: make([]int64, len(bs)+1)},
	}
	f.series[key] = s
	return s.hist
}

// RegisterCollector adds a callback run at the start of every Expose,
// letting lazily-computed state (e.g. simnet link stats) publish
// point-in-time gauges without continuous instrumentation.
func (r *Registry) RegisterCollector(fn func(*Registry)) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

func (r *Registry) lookup(name, help string, kind metricKind, labels []Label) *series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyLocked(name, help, kind)
	key := renderLabels(labels)
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labels: append([]Label(nil), labels...)}
	switch kind {
	case kindCounter:
		s.counter = &Counter{}
	case kindGauge:
		s.gauge = &Gauge{}
	}
	f.series[key] = s
	return s
}

func (r *Registry) familyLocked(name, help string, kind metricKind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	}
	return f
}

// counterSnapshot returns the current value of every counter series as
// "name{labels}" → value. The flight recorder diffs two snapshots to
// report what moved around an incident. Callers must iterate sorted
// keys before serializing.
func (r *Registry) counterSnapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64)
	for name, f := range r.families {
		if f.kind != kindCounter {
			continue
		}
		for k, s := range f.series {
			out[name+k] = s.counter.Value()
		}
	}
	return out
}

// renderLabels renders a sorted {k="v",...} string ("" for no labels).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// mergeLabels renders labels plus one extra pair (for histogram le).
func mergeLabels(labels []Label, extra Label) string {
	return renderLabels(append(append([]Label(nil), labels...), extra))
}

// Expose runs the registered collectors and renders every family in
// Prometheus text exposition format, sorted by family name then series
// label string, so output is deterministic. Returns "" on nil.
func (r *Registry) Expose() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	collectors := make([]func(*Registry), len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()
	for _, fn := range collectors {
		fn(r)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		f := r.families[name]
		kind := map[metricKind]string{
			kindCounter:   "counter",
			kindGauge:     "gauge",
			kindHistogram: "histogram",
		}[f.kind]
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, f.help, name, kind)
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", name, k, s.counter.Value())
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %d\n", name, k, s.gauge.Value())
			case kindHistogram:
				h := s.hist
				h.mu.Lock()
				cum := int64(0)
				for i, bound := range h.bounds {
					cum += h.counts[i]
					fmt.Fprintf(&b, "%s_bucket%s %d\n",
						name, mergeLabels(s.labels, L("le", fmt.Sprintf("%d", bound))), cum)
				}
				cum += h.counts[len(h.bounds)]
				fmt.Fprintf(&b, "%s_bucket%s %d\n", name, mergeLabels(s.labels, L("le", "+Inf")), cum)
				for _, eq := range exposedQuantiles {
					fmt.Fprintf(&b, "%s_quantile%s %d\n",
						name, mergeLabels(s.labels, L("quantile", eq.label)), h.quantileLocked(eq.q))
				}
				fmt.Fprintf(&b, "%s_sum%s %d\n", name, k, h.sum)
				fmt.Fprintf(&b, "%s_count%s %d\n", name, k, h.count)
				h.mu.Unlock()
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
