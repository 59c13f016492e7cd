package experiments

import (
	"fmt"
	"os"

	"snapify/internal/core"
	"snapify/internal/faultinject"
	"snapify/internal/simclock"
	"snapify/internal/trace"
)

// FaultedCaptureImageBytes is the default device image of the faulted
// capture benchmark. It is deliberately smaller than the parallel sweep's
// 8 GiB image: the benchmark's object of study is the *relative* cost of
// riding out injected faults, and that ratio is size-independent once the
// image dwarfs the per-chunk protocol overhead.
const FaultedCaptureImageBytes = 1 * simclock.GiB

// FaultedCaptureRow is one capture's measurements (clean or faulted).
type FaultedCaptureRow struct {
	Label          string  `json:"label"`
	CaptureSeconds float64 `json:"capture_seconds"`
	CaptureNs      int64   `json:"capture_ns"`
	ThroughputMiBs float64 `json:"throughput_mib_s"`
	SnapshotBytes  int64   `json:"snapshot_bytes"`
}

// FaultedCaptureResult compares a clean capture against the same capture
// under an armed fault plan (DESIGN.md §10): the degraded path retries,
// replays from the per-stream watermark, and backs off on virtual-clock
// timers, so the faulted run finishes with an identical snapshot — just
// later. OverheadPct is that lateness.
type FaultedCaptureResult struct {
	Benchmark  string            `json:"benchmark"`
	ImageBytes int64             `json:"image_bytes"`
	Plan       faultinject.Plan  `json:"plan"`
	Clean      FaultedCaptureRow `json:"clean"`
	Faulted    FaultedCaptureRow `json:"faulted"`
	// FaultsFired is how many plan entries actually triggered;
	// FaultsPending is how many never saw matching traffic.
	FaultsFired   int     `json:"faults_fired"`
	FaultsPending int     `json:"faults_pending"`
	OverheadPct   float64 `json:"overhead_pct"`
	// RetryEvents and RetryBackoffNs total the stream_retry spans the
	// degraded run emitted. OverheadPct can be 0 while these are not:
	// a watermark-resumed stream often finishes before its slowest
	// unfaulted sibling, so the retry cost hides off the critical path.
	RetryEvents    int   `json:"retry_events"`
	RetryBackoffNs int64 `json:"retry_backoff_ns"`
}

// faultedCaptureFromPlan is FaultedCapture on the fault plan in the JSON
// file at planPath (what snapbench -faults names).
func faultedCaptureFromPlan(imageBytes int64, planPath string) (*FaultedCaptureResult, error) {
	data, err := os.ReadFile(planPath)
	if err != nil {
		return nil, fmt.Errorf("reading fault plan: %w", err)
	}
	plan, err := faultinject.ParsePlan(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", planPath, err)
	}
	return FaultedCapture(imageBytes, plan)
}

// replay re-runs the comparison a recorded document describes.
func (r *FaultedCaptureResult) replay() (Result, error) {
	return FaultedCapture(r.ImageBytes, r.Plan)
}

// FaultedCapture captures one offload process twice — once clean, once
// with plan armed on the fabric — through the full retry-enabled Snapify
// stack, and reports the degraded-path overhead. The capture runs with
// two Snapify-IO streams and a four-attempt retry policy, the same
// configuration the chaos test tier sweeps.
func FaultedCapture(imageBytes int64, plan faultinject.Plan) (*FaultedCaptureResult, error) {
	if len(plan) == 0 {
		return nil, fmt.Errorf("faulted capture: empty fault plan")
	}
	r, err := newRig(serverFor(1, imageBytes), imageSpec("FC", "faulted capture", imageBytes, 4), 1)
	if err != nil {
		return nil, err
	}
	defer r.stop()
	plat := r.plat

	opts := core.CaptureOptions{
		Streams: 2,
		Retry:   core.RetryPolicy{MaxAttempts: 4},
	}
	capture := func(label string, inj *faultinject.Injector) (FaultedCaptureRow, error) {
		rep, err := r.cycle("/bench/faults/"+label, opts, inj)
		if err != nil {
			return FaultedCaptureRow{}, fmt.Errorf("%s %w", label, err)
		}
		row := FaultedCaptureRow{
			Label:          label,
			CaptureSeconds: rep.Capture.Seconds(),
			CaptureNs:      int64(rep.Capture),
			SnapshotBytes:  rep.SnapshotBytes,
		}
		if row.CaptureSeconds > 0 {
			row.ThroughputMiBs = float64(imageBytes) / float64(simclock.MiB) / row.CaptureSeconds
		}
		return row, nil
	}

	res := &FaultedCaptureResult{
		Benchmark: "faulted-capture", ImageBytes: imageBytes, Plan: plan,
	}
	if res.Clean, err = capture("clean", nil); err != nil {
		return nil, err
	}

	inj := faultinject.New(plan, nil)
	inj.PublishMetrics(plat.Obs.MetricsOf())
	res.Faulted, err = capture("faulted", inj)
	if err != nil {
		// Retries exhausted: the run still must not leave a torn
		// snapshot, but as a benchmark it has nothing to measure.
		return nil, fmt.Errorf("faulted capture did not survive the plan (raise Retry.MaxAttempts or soften the plan): %w", err)
	}
	res.FaultsFired = int(inj.FiredTotal())
	res.FaultsPending = len(inj.Pending())
	if res.Clean.CaptureSeconds > 0 {
		res.OverheadPct = (res.Faulted.CaptureSeconds/res.Clean.CaptureSeconds - 1) * 100
	}
	// The clean capture ran fault-free, so every stream_retry span on
	// the platform's tracer belongs to the degraded run.
	for _, sp := range plat.Obs.TracerOf().Spans() {
		if sp.Name == "stream_retry" {
			res.RetryEvents++
			res.RetryBackoffNs += int64(sp.Dur)
		}
	}
	return res, nil
}

// Render prints the comparison in the tables' layout.
func (r *FaultedCaptureResult) Render() string {
	t := trace.New(fmt.Sprintf("Faulted capture: %s device image, 2 streams, retry x4, %d-fault plan",
		sizeLabel(r.ImageBytes), len(r.Plan)),
		"Run", "Capture (s)", "MiB/s", "Snapshot (B)")
	for _, row := range []FaultedCaptureRow{r.Clean, r.Faulted} {
		t.Row(row.Label,
			fmt.Sprintf("%.2f", row.CaptureSeconds),
			fmt.Sprintf("%.0f", row.ThroughputMiBs),
			fmt.Sprintf("%d", row.SnapshotBytes))
	}
	return t.String() + fmt.Sprintf("\nfaults fired: %d/%d, stream retries: %d (%.1f virtual ms backoff), degraded-path overhead: %+.1f%%",
		r.FaultsFired, r.FaultsFired+r.FaultsPending,
		r.RetryEvents, float64(r.RetryBackoffNs)/1e6, r.OverheadPct)
}

// CheckShape verifies the degraded-path claims: the faulted capture
// produced a byte-identical-sized snapshot, at least one planned fault
// actually triggered (a plan with no matching traffic measures nothing),
// and riding out faults never made the capture faster.
func (r *FaultedCaptureResult) CheckShape() error {
	if r.Faulted.SnapshotBytes != r.Clean.SnapshotBytes {
		return fmt.Errorf("faulted capture: snapshot is %d bytes, clean is %d — retry changed the image",
			r.Faulted.SnapshotBytes, r.Clean.SnapshotBytes)
	}
	if r.FaultsFired == 0 {
		return fmt.Errorf("faulted capture: no planned fault fired (%d pending) — the plan's sites/keys saw no traffic",
			r.FaultsPending)
	}
	if r.Faulted.CaptureNs < r.Clean.CaptureNs {
		return fmt.Errorf("faulted capture: faulted run (%.2fs) beat the clean run (%.2fs)",
			r.Faulted.CaptureSeconds, r.Clean.CaptureSeconds)
	}
	return nil
}
