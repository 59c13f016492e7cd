package obs

import (
	"strings"
	"testing"
)

// TestExposeFormat pins the Prometheus text exposition: HELP/TYPE
// headers, families sorted by name, series sorted by label string,
// histograms as cumulative buckets with +Inf, quantile estimates,
// sum, and count.
func TestExposeFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_ops_total", "Operations.", L("op", "pause")).Add(3)
	r.Counter("zz_ops_total", "Operations.", L("op", "capture")).Inc()
	r.Gauge("aa_active", "Active things.").Set(2)
	h := r.Histogram("mm_chunk_bytes", "Chunk sizes.", []int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)

	want := `# HELP aa_active Active things.
# TYPE aa_active gauge
aa_active 2

# HELP mm_chunk_bytes Chunk sizes.
# TYPE mm_chunk_bytes histogram
mm_chunk_bytes_bucket{le="10"} 1
mm_chunk_bytes_bucket{le="100"} 2
mm_chunk_bytes_bucket{le="+Inf"} 3
mm_chunk_bytes_quantile{quantile="0.5"} 55
mm_chunk_bytes_quantile{quantile="0.9"} 100
mm_chunk_bytes_quantile{quantile="0.99"} 100
mm_chunk_bytes_sum 555
mm_chunk_bytes_count 3

# HELP zz_ops_total Operations.
# TYPE zz_ops_total counter
zz_ops_total{op="capture"} 1
zz_ops_total{op="pause"} 3

`
	if got := r.Expose(); got != want {
		t.Errorf("exposition drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHistogramQuantile pins the bucket-interpolation estimator behind
// the exposition's _quantile series: the lowest bucket anchors at 0,
// interior quantiles interpolate linearly within their covering bucket,
// and the +Inf bucket clamps to the highest finite bound.
func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_bytes", "Q.", []int64{100, 1000})
	quantile := func(label string) string {
		for _, line := range strings.Split(r.Expose(), "\n") {
			if v, ok := strings.CutPrefix(line, `q_bytes_quantile{quantile="`+label+`"} `); ok {
				return v
			}
		}
		return "missing"
	}
	if got := quantile("0.5"); got != "0" {
		t.Errorf("empty histogram p50 = %s, want 0", got)
	}
	for i := 0; i < 8; i++ {
		h.Observe(50) // 8 observations in (0, 100]
	}
	h.Observe(400)  // 1 in (100, 1000]
	h.Observe(5000) // 1 in (1000, +Inf]
	// p50: rank 5 of 10 lands in the first bucket → 0 + 100*(5/8) = 62.5 → 63.
	if got := quantile("0.5"); got != "63" {
		t.Errorf("p50 = %s, want 63", got)
	}
	// p90: rank 9 lands in the (100, 1000] bucket → 100 + 900*(1/1) = 1000.
	if got := quantile("0.9"); got != "1000" {
		t.Errorf("p90 = %s, want 1000", got)
	}
	// p99: rank 9.9 lands in +Inf → clamp to the highest finite bound.
	if got := quantile("0.99"); got != "1000" {
		t.Errorf("p99 = %s, want 1000", got)
	}
}

// TestExposeRoundTrip re-parses the exposition and checks every series
// line carries the value the registry holds — the property the
// Snapify-IO metrics-dump control message relies on.
func TestExposeRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("bytes_total", "Bytes.", L("node", "mic0"), L("mode", "write")).Add(12345)
	r.Gauge("streams", "Streams.", L("node", "mic0")).Set(4)

	values := make(map[string]string)
	for _, line := range strings.Split(r.Expose(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed exposition line %q", line)
		}
		values[name] = value
	}
	if got := values[`bytes_total{mode="write",node="mic0"}`]; got != "12345" {
		t.Errorf("counter round-trip got %q, want 12345", got)
	}
	if got := values[`streams{node="mic0"}`]; got != "4" {
		t.Errorf("gauge round-trip got %q, want 4", got)
	}
}

// TestRegistryIdempotent: the same (name, labels) always returns the same
// instance, regardless of label order.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "C.", L("x", "1"), L("y", "2"))
	b := r.Counter("c_total", "C.", L("y", "2"), L("x", "1"))
	if a != b {
		t.Error("label order changed the series identity")
	}
	h1 := r.Histogram("h_bytes", "H.", []int64{1, 2})
	h2 := r.Histogram("h_bytes", "H.", []int64{9, 9, 9}) // bounds fixed at creation
	if h1 != h2 {
		t.Error("histogram lookup is not idempotent")
	}
}

// TestCollectorsRunAtExpose: pull-based collectors publish point-in-time
// gauges when (and only when) Expose runs.
func TestCollectorsRunAtExpose(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.RegisterCollector(func(r *Registry) {
		calls++
		r.Gauge("pulled", "Pulled.").Set(int64(calls))
	})
	if calls != 0 {
		t.Fatal("collector ran before Expose")
	}
	if out := r.Expose(); !strings.Contains(out, "pulled 1\n") {
		t.Errorf("first exposition missing collected gauge:\n%s", out)
	}
	if out := r.Expose(); !strings.Contains(out, "pulled 2\n") {
		t.Errorf("collector did not run again on second Expose:\n%s", out)
	}
}

// TestNilRegistryIsNoOp pins the nil-safety contract: every method on a
// nil registry (and the nil metrics it hands out) is a no-op, so
// instrumented code never guards.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("c_total", "C.")
	g := r.Gauge("g", "G.")
	h := r.Histogram("h", "H.", []int64{1})
	c.Inc()
	c.Add(5)
	g.Set(3)
	h.Observe(42)
	if c.Value() != 0 || g.Value() != 0 || h != nil {
		t.Error("nil metrics accumulated values")
	}
	r.RegisterCollector(func(*Registry) { t.Error("collector ran on nil registry") })
	if got := r.Expose(); got != "" {
		t.Errorf("nil registry exposed %q", got)
	}
}

// TestCounterRejectsNegative: counters are monotone; negative deltas are
// dropped rather than corrupting the series.
func TestCounterRejectsNegative(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mono_total", "M.")
	c.Add(10)
	c.Add(-5)
	if c.Value() != 10 {
		t.Errorf("counter moved backwards: %d", c.Value())
	}
}
