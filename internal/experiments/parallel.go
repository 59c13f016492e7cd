package experiments

import (
	"fmt"

	"snapify/internal/core"
	"snapify/internal/obs"
	"snapify/internal/simclock"
	"snapify/internal/trace"
)

// ParallelCaptureStreams is the stream-count sweep of the parallel
// capture benchmark. The first entry must be 1: it is the serial baseline
// every other row's speedup is computed against.
var ParallelCaptureStreams = []int{1, 2, 4, 8}

// ParallelCaptureImageBytes is the default device image size: an 8
// GiB-class snapshot, the full memory of a 5110P-class card and the
// worst case of Fig 10's size sweep.
const ParallelCaptureImageBytes = 8 * simclock.GiB

// ParallelCaptureRow is one stream count's measurements.
type ParallelCaptureRow struct {
	Streams int `json:"streams"`
	// CaptureSeconds is the device capture's virtual wall-clock: the
	// slowest stream when Streams > 1.
	CaptureSeconds float64 `json:"capture_seconds"`
	// Speedup is the serial capture time divided by this row's.
	Speedup float64 `json:"speedup"`
	// ThroughputMiBs is ImageBytes / CaptureSeconds.
	ThroughputMiBs float64 `json:"throughput_mib_s"`
	// StreamSeconds is each worker's virtual time (absent when serial).
	StreamSeconds []float64 `json:"stream_seconds,omitempty"`
	// CaptureNs is the capture duration in exact virtual nanoseconds —
	// the same integer the capture_stream spans of the exported trace
	// carry, so trace and benchmark JSON can be diffed without rounding.
	CaptureNs int64 `json:"capture_ns"`
	// StreamNs is each worker's exact virtual nanoseconds (absent when
	// serial).
	StreamNs []int64 `json:"stream_ns,omitempty"`
	// SnapshotBytes is the context file size; identical across rows by
	// the golden-parity guarantee.
	SnapshotBytes int64 `json:"snapshot_bytes"`
}

// ParallelCaptureResult is the full sweep.
type ParallelCaptureResult struct {
	Benchmark  string               `json:"benchmark"`
	ImageBytes int64                `json:"image_bytes"`
	Rows       []ParallelCaptureRow `json:"rows"`

	tracer *obs.Tracer // the sweep platform's tracer, for TraceJSON
}

// TraceJSON exports the whole sweep's virtual-clock trace as Chrome
// trace-event JSON (load it at ui.perfetto.dev): the host application,
// the card's COI daemon, the offload process's agent, and one lane per
// Snapify-IO shard worker, all on the shared virtual timeline.
func (r *ParallelCaptureResult) TraceJSON() []byte {
	return r.tracer.ChromeTrace()
}

// ParallelCapture captures one offload process with an imageBytes-sized
// device heap once per entry of streams, through the full Snapify stack
// (pause protocol, BLCR, Snapify-IO, the SCIF fabric). Serial capture is
// bottlenecked by the card's page-table walk (Section 5's "memory
// snapshot" stage); striping the image across streams walks shards
// concurrently, so capture time approaches the shared PCIe link limit.
func ParallelCapture(imageBytes int64, streams []int) (*ParallelCaptureResult, error) {
	if len(streams) == 0 || streams[0] != 1 {
		return nil, fmt.Errorf("parallel capture: sweep must start with the serial baseline, got %v", streams)
	}
	r, err := newRig(serverFor(1, imageBytes), imageSpec("PC", "parallel capture sweep", imageBytes, 4), 1)
	if err != nil {
		return nil, err
	}
	defer r.stop()

	res := &ParallelCaptureResult{
		Benchmark: "parallel-capture", ImageBytes: imageBytes,
		tracer: r.plat.Obs.TracerOf(),
	}
	for _, n := range streams {
		rep, err := r.cycle(fmt.Sprintf("/bench/parallel/%d", n), core.CaptureOptions{Streams: n}, nil)
		if err != nil {
			return nil, fmt.Errorf("streams=%d %w", n, err)
		}
		row := ParallelCaptureRow{
			Streams:        n,
			CaptureSeconds: rep.Capture.Seconds(),
			CaptureNs:      int64(rep.Capture),
			SnapshotBytes:  rep.SnapshotBytes,
		}
		for _, d := range rep.CaptureStreamDurations {
			row.StreamSeconds = append(row.StreamSeconds, d.Seconds())
			row.StreamNs = append(row.StreamNs, int64(d))
		}
		if row.CaptureSeconds > 0 {
			row.Speedup = res.serialSeconds(row.CaptureSeconds)
			row.ThroughputMiBs = float64(imageBytes) / float64(simclock.MiB) / row.CaptureSeconds
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// replay re-runs the sweep a recorded document describes.
func (r *ParallelCaptureResult) replay() (Result, error) {
	streams := make([]int, len(r.Rows))
	for i, row := range r.Rows {
		streams[i] = row.Streams
	}
	return ParallelCapture(r.ImageBytes, streams)
}

// serialSeconds returns the speedup of a capture taking sec seconds over
// the serial baseline (row 0; 1.0 while computing the baseline itself).
func (r *ParallelCaptureResult) serialSeconds(sec float64) float64 {
	if len(r.Rows) == 0 {
		return 1.0
	}
	return r.Rows[0].CaptureSeconds / sec
}

// Render prints the sweep in the tables' layout.
func (r *ParallelCaptureResult) Render() string {
	t := trace.New(fmt.Sprintf("Parallel capture: %s device image, N Snapify-IO streams", sizeLabel(r.ImageBytes)),
		"Streams", "Capture (s)", "Speedup", "MiB/s")
	for _, row := range r.Rows {
		t.Row(fmt.Sprintf("%d", row.Streams),
			fmt.Sprintf("%.2f", row.CaptureSeconds),
			fmt.Sprintf("%.2fx", row.Speedup),
			fmt.Sprintf("%.0f", row.ThroughputMiBs))
	}
	return t.String()
}

// CheckShape verifies the acceptance claims: 4 streams beat serial by at
// least 2x, speedups are monotone up to 4 streams, and every row captured
// the same number of bytes (striping never changes the image).
func (r *ParallelCaptureResult) CheckShape() error {
	if len(r.Rows) == 0 {
		return fmt.Errorf("parallel capture: no rows")
	}
	for _, row := range r.Rows {
		if row.SnapshotBytes != r.Rows[0].SnapshotBytes {
			return fmt.Errorf("parallel capture: %d streams captured %d bytes, serial captured %d",
				row.Streams, row.SnapshotBytes, r.Rows[0].SnapshotBytes)
		}
		if row.Streams > 1 && len(row.StreamSeconds) != row.Streams {
			return fmt.Errorf("parallel capture: %d streams reported %d worker durations",
				row.Streams, len(row.StreamSeconds))
		}
	}
	prev := 0.0
	for _, row := range r.Rows {
		if row.Streams > 4 {
			break
		}
		if row.Speedup < prev {
			return fmt.Errorf("parallel capture: speedup fell from %.2fx to %.2fx at %d streams",
				prev, row.Speedup, row.Streams)
		}
		prev = row.Speedup
		if row.Streams == 4 && row.Speedup < 2.0 {
			return fmt.Errorf("parallel capture: 4 streams only %.2fx over serial, want >= 2x", row.Speedup)
		}
	}
	return nil
}
