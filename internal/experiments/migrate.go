package experiments

import (
	"fmt"
	"time"

	"snapify/internal/blcr"
	"snapify/internal/core"
	"snapify/internal/obs"
	"snapify/internal/simclock"
	"snapify/internal/trace"
	"snapify/internal/workloads"
)

// MigrateSweepSizes is the full image grid: live-migration downtime must
// stay roughly flat across it while stop-the-world downtime grows
// linearly, because the workload's per-call dirty set is fixed.
var MigrateSweepSizes = []int64{
	1 * simclock.GiB, 2 * simclock.GiB, 4 * simclock.GiB, 8 * simclock.GiB,
}

// MigrateSweepSmokeSizes is the CI grid: small images, same shape rules.
var MigrateSweepSmokeSizes = []int64{128 * simclock.MiB, 256 * simclock.MiB}

// MigrateSweepRounds bounds each live migration's pre-copy iterations.
const MigrateSweepRounds = 4

// MigrateRow is one image size's stop-the-world vs live comparison.
type MigrateRow struct {
	ImageBytes int64 `json:"image_bytes"`
	// StwDowntimeNs is the stop-the-world migration's downtime: the
	// process stands still for the entire capture and restore.
	StwDowntimeNs int64 `json:"stw_downtime_ns"`
	// LiveDowntimeNs is the live migration's downtime: pause, final delta
	// capture, adoption restore, resume.
	LiveDowntimeNs int64 `json:"live_downtime_ns"`
	// DowntimeRatio is live/stw — the headline win.
	DowntimeRatio float64 `json:"downtime_ratio"`
	// LiveTotalNs is the whole live migration on the virtual clock: every
	// round's upload and staging, the last round's pre-save of the local
	// store, then the downtime.
	LiveTotalNs int64 `json:"live_total_ns"`
	// UploadNs and StageNs are round 1's two halves, each moving the whole
	// image: the source card's digest -> negotiate -> ship pass into the
	// host store, then the destination card's pull of the same chunks out
	// of it into its staging area.
	UploadNs int64 `json:"upload_ns"`
	StageNs  int64 `json:"stage_ns"`
	// Rounds is how many pre-copy rounds ran before the switch-over.
	Rounds int `json:"rounds"`
	// PrecopyShippedBytes is what the rounds moved while the process ran.
	PrecopyShippedBytes int64 `json:"precopy_shipped_bytes"`
	// FinalDirtyBytes is the last round's dirty set — what was left for
	// the paused final capture.
	FinalDirtyBytes int64 `json:"final_dirty_bytes"`
	// ChecksumsMatch is the transparency probe: the live-migrated, the
	// stop-the-world-migrated, and the undisturbed run all finish with the
	// same device-side checksum.
	ChecksumsMatch bool `json:"checksums_match"`
}

// MigrateResult is the full sweep.
type MigrateResult struct {
	Benchmark string       `json:"benchmark"`
	Rows      []MigrateRow `json:"rows"`
	// RoundSpans / DowntimeSpans count the largest run's precopy_round and
	// migration_downtime spans on the trace (observability acceptance).
	RoundSpans    int `json:"round_spans"`
	DowntimeSpans int `json:"downtime_spans"`
	// ChunksAfterGC is the largest live run's store population after every
	// manifest was released and a GC ran: zero, or a refcount leaked.
	ChunksAfterGC int `json:"chunks_after_gc"`

	tracer *obs.Tracer
}

// TraceJSON exports the largest live run's virtual-clock trace as Chrome
// trace-event JSON: the precopy_round spans on the host track, the
// per-round precopy_stream/precopy_digest work on the card tracks, and
// the migration_downtime span marking the switch-over.
func (r *MigrateResult) TraceJSON() []byte { return r.tracer.ChromeTrace() }

// migrateSpec is the sweep's workload at one image size: the heap scales,
// the per-call dirty set does not (workloads touch a fixed working set
// each call), so pre-copy converges to the same final delta at every
// size. InPerCall must stay nonzero and within LocalStore: the kernel
// checksums the input window, and a zero transfer would leave it reading
// the buffer's per-launch background seed, making the checksum depend on
// the instance rather than the computation.
func migrateSpec(imageBytes int64) workloads.Spec {
	spec := imageSpec("MG", "migration sweep", imageBytes, 10)
	spec.ComputePerCall = 2 * time.Millisecond
	spec.InPerCall = 1 * simclock.MiB
	return spec
}

// migrateOne runs both migration flavors at one image size on fresh
// servers (deterministic replays, so the checksums are comparable) and
// returns the row plus the live run's rig, still up, for trace and store
// inspection.
func migrateOne(imageBytes int64) (*MigrateRow, *rig, error) {
	cfg := serverFor(2, imageBytes)
	spec := migrateSpec(imageBytes)
	row := &MigrateRow{ImageBytes: imageBytes}

	refSum, err := referenceChecksum(cfg, spec)
	if err != nil {
		return nil, nil, fmt.Errorf("reference run: %w", err)
	}

	stw, err := newRig(cfg, spec, 2)
	if err != nil {
		return nil, nil, err
	}
	stwSum, err := func() (uint64, error) {
		defer stw.stop()
		_, snap, err := core.Migrate(stw.in.CP, core.MigrateOptions{DeviceTo: 2, Path: "/bench/mig/stw"})
		if err != nil {
			return 0, err
		}
		row.StwDowntimeNs = int64(snap.Report.Downtime)
		return stw.in.Run()
	}()
	if err != nil {
		return nil, nil, fmt.Errorf("stop-the-world: %w", err)
	}

	live, err := newRig(cfg, spec, 2)
	if err != nil {
		return nil, nil, err
	}
	liveSum, err := liveMigrate(live, row)
	if err != nil {
		live.stop()
		return nil, nil, fmt.Errorf("live: %w", err)
	}

	if row.StwDowntimeNs > 0 {
		row.DowntimeRatio = float64(row.LiveDowntimeNs) / float64(row.StwDowntimeNs)
	}
	row.ChecksumsMatch = refSum == stwSum && refSum == liveSum
	return row, live, nil
}

// liveMigrate drives a pre-copy session by hand, one offload call between
// rounds — the process computes while its image moves — fills in row's live
// figures and runs the application to its final checksum.
func liveMigrate(r *rig, row *MigrateRow) (uint64, error) {
	in := r.in
	m, err := core.NewMigration(in.CP, core.MigrateOptions{
		DeviceTo: 2,
		Path:     "/bench/mig/live",
		Precopy:  core.PrecopyOptions{MaxRounds: MigrateSweepRounds},
	})
	if err != nil {
		return 0, err
	}
	for {
		rec, done, err := m.Round()
		if err != nil {
			return 0, fmt.Errorf("round %d: %w", rec.Round, err)
		}
		row.Rounds = rec.Round
		row.PrecopyShippedBytes += rec.ShippedBytes
		row.FinalDirtyBytes = rec.DirtyBytes
		row.LiveTotalNs += int64(rec.Duration + rec.StageDuration + rec.LocalStoreDuration)
		if rec.Round == 1 {
			row.UploadNs, row.StageNs = int64(rec.Duration), int64(rec.StageDuration)
		}
		if done {
			break
		}
		if !in.Done() {
			if _, err := in.RunCalls(1); err != nil {
				return 0, err
			}
		}
	}
	if _, err := m.Finish(); err != nil {
		return 0, err
	}
	row.LiveDowntimeNs = int64(m.Snapshot().Report.Downtime)
	row.LiveTotalNs += row.LiveDowntimeNs
	return in.Run()
}

// MigrateSweep compares stop-the-world and live migration downtime across
// the image-size grid at a fixed per-call dirty rate. Each size runs an
// undisturbed reference, a stop-the-world migration, and a session-driven
// live migration with work interleaved between rounds; the largest live
// run's platform is kept for trace and store-hygiene inspection.
func MigrateSweep(sizes []int64) (*MigrateResult, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("migrate sweep: empty size grid")
	}
	res := &MigrateResult{Benchmark: "migrate-sweep"}
	var last *rig
	for _, size := range sizes {
		row, r, err := migrateOne(size)
		if last != nil {
			last.stop()
		}
		if err != nil {
			return nil, fmt.Errorf("migrate sweep %s: %w", sizeLabel(size), err)
		}
		res.Rows = append(res.Rows, *row)
		last = r
	}
	defer last.stop()

	res.tracer = last.plat.Obs.TracerOf()
	for _, sp := range res.tracer.Spans() {
		switch sp.Name {
		case "precopy_round":
			res.RoundSpans++
		case "migration_downtime":
			res.DowntimeSpans++
		}
	}

	// Store hygiene on the largest run: release everything, collect, and
	// the store must be empty — pre-copy's intermediate manifests and the
	// aborted-round machinery may not leak a single chunk.
	var err error
	if res.ChunksAfterGC, err = drainStore(last.plat.Store); err != nil {
		return nil, err
	}
	return res, nil
}

// replay re-runs the sweep a recorded document describes.
func (r *MigrateResult) replay() (Result, error) {
	sizes := make([]int64, len(r.Rows))
	for i, row := range r.Rows {
		sizes[i] = row.ImageBytes
	}
	return MigrateSweep(sizes)
}

// Render prints the sweep in the tables' layout.
func (r *MigrateResult) Render() string {
	t := trace.New("Migration: stop-the-world vs live (pre-copy) downtime, fixed dirty rate",
		"Image", "STW downtime (s)", "Live downtime (ms)", "Ratio", "Rounds", "Pre-copy ship (MiB)", "Live total (s)", "Round 1 upload (s)", "Round 1 stage (s)", "Checksums")
	for _, row := range r.Rows {
		t.Row(sizeLabel(row.ImageBytes),
			fmt.Sprintf("%.2f", simclock.Duration(row.StwDowntimeNs).Seconds()),
			fmt.Sprintf("%.0f", simclock.Duration(row.LiveDowntimeNs).Seconds()*1000),
			fmt.Sprintf("%.3f", row.DowntimeRatio),
			fmt.Sprintf("%d", row.Rounds),
			fmt.Sprintf("%d", row.PrecopyShippedBytes/simclock.MiB),
			fmt.Sprintf("%.2f", simclock.Duration(row.LiveTotalNs).Seconds()),
			fmt.Sprintf("%.2f", simclock.Duration(row.UploadNs).Seconds()),
			fmt.Sprintf("%.2f", simclock.Duration(row.StageNs).Seconds()),
			fmt.Sprintf("%v", row.ChecksumsMatch))
	}
	return t.String() + fmt.Sprintf("\nspans: %d precopy_round, %d migration_downtime; chunks after release-all + GC: %d",
		r.RoundSpans, r.DowntimeSpans, r.ChunksAfterGC)
}

// stageMaxRatio bounds round 1's staging against the same round's upload.
// Both move every chunk of the image once and both are pipelined, so each
// costs its slowest stage per chunk: the upload the source card's 16 ms page
// walk of a 4 MiB chunk, the staging the destination card's 5 ms copy of it
// — 0.32x. Staging that adds its stages up per chunk again (a one-slot
// descriptor: 14.65 ms) costs 0.94x.
const stageMaxRatio = 0.5

// liveDigestPerChunk bounds what one more chunk of image adds to the live
// switch-over besides its page tables: the final capture's have/need
// round-trip carries the image's whole digest list to the host store,
// which commits a manifest naming every chunk, and the adopted restore
// reads that manifest back as its staging plan — 0.36 and 0.16 µs a
// 4 MiB chunk, 0.13 ms/GiB. The bound allows about twice that.
const liveDigestPerChunk = 1 * time.Microsecond

// liveGrowthBound is how much longer the live switch-over of a hi-byte
// image may stand still than that of a lo-byte one. Its floor — the
// quiesce, the runtime libraries, the messages — does not depend on the
// image, so only what scans the image counts: the final capture's
// page-table sweep and the adopted restore's page tables
// (blcr.PageTableCost each, 5.0 ms/GiB), plus the chunks' digest lists
// (liveDigestPerChunk): 36.79 ms over the 1-8 GiB grid. The bound is on
// the growth, not on a max/min ratio, because a ratio fails as the floor
// falls even when nothing grows faster.
func liveGrowthBound(lo, hi int64) simclock.Duration {
	d := hi - lo
	return 2*blcr.PageTableCost(simclock.Default(), d) + simclock.Duration(d/blcr.PageChunk)*liveDigestPerChunk
}

// CheckShape verifies the acceptance claims: live downtime undercuts
// stop-the-world at every size and by at least 6.7x (ratio <= 0.15) at
// the largest; stop-the-world downtime grows with the image while live
// downtime stays roughly flat (it grows at most by liveGrowthBound across
// the grid); every live run converged
// through at least two rounds with a final delta far below the image;
// round 1's staging took at most half its upload;
// all three checksums agree at every size; the trace carries the
// per-round and downtime spans; and the store is empty after GC.
func (r *MigrateResult) CheckShape() error {
	if len(r.Rows) == 0 {
		return fmt.Errorf("migrate sweep: no rows")
	}
	minLive, maxLive := r.Rows[0].LiveDowntimeNs, r.Rows[0].LiveDowntimeNs
	for i, row := range r.Rows {
		if !row.ChecksumsMatch {
			return fmt.Errorf("migrate sweep %s: checksums diverge — a migration was not byte-identical", sizeLabel(row.ImageBytes))
		}
		if row.LiveDowntimeNs >= row.StwDowntimeNs {
			return fmt.Errorf("migrate sweep %s: live downtime %v not below stop-the-world %v",
				sizeLabel(row.ImageBytes), simclock.Duration(row.LiveDowntimeNs), simclock.Duration(row.StwDowntimeNs))
		}
		if row.Rounds < 2 {
			return fmt.Errorf("migrate sweep %s: only %d pre-copy rounds; convergence needs at least a full pass and a delta pass",
				sizeLabel(row.ImageBytes), row.Rounds)
		}
		if row.FinalDirtyBytes*4 > row.ImageBytes {
			return fmt.Errorf("migrate sweep %s: final delta %d bytes did not converge below a quarter of the image",
				sizeLabel(row.ImageBytes), row.FinalDirtyBytes)
		}
		if limit := int64(stageMaxRatio * float64(row.UploadNs)); row.StageNs <= 0 || row.StageNs > limit {
			return fmt.Errorf("migrate sweep %s: round 1 staged in %d virtual ns, over %.2fx its upload's %d",
				sizeLabel(row.ImageBytes), row.StageNs, stageMaxRatio, row.UploadNs)
		}
		if i > 0 && row.StwDowntimeNs <= r.Rows[i-1].StwDowntimeNs {
			return fmt.Errorf("migrate sweep: stop-the-world downtime must grow with the image, but %s (%v) <= %s (%v)",
				sizeLabel(row.ImageBytes), simclock.Duration(row.StwDowntimeNs),
				sizeLabel(r.Rows[i-1].ImageBytes), simclock.Duration(r.Rows[i-1].StwDowntimeNs))
		}
		if row.LiveDowntimeNs < minLive {
			minLive = row.LiveDowntimeNs
		}
		if row.LiveDowntimeNs > maxLive {
			maxLive = row.LiveDowntimeNs
		}
	}
	last := r.Rows[len(r.Rows)-1]
	if last.DowntimeRatio > 0.15 {
		return fmt.Errorf("migrate sweep: live/stw downtime ratio %.3f at %s, want <= 0.15",
			last.DowntimeRatio, sizeLabel(last.ImageBytes))
	}
	if bound := liveGrowthBound(r.Rows[0].ImageBytes, last.ImageBytes); simclock.Duration(maxLive-minLive) > bound {
		return fmt.Errorf("migrate sweep: live downtime not flat across sizes: min %v, max %v (spread over the %v the image's growth explains)",
			simclock.Duration(minLive), simclock.Duration(maxLive), bound)
	}
	if r.RoundSpans < last.Rounds {
		return fmt.Errorf("migrate sweep: %d precopy_round spans for %d rounds", r.RoundSpans, last.Rounds)
	}
	if r.DowntimeSpans == 0 {
		return fmt.Errorf("migrate sweep: no migration_downtime span on the trace")
	}
	if r.ChunksAfterGC != 0 {
		return fmt.Errorf("migrate sweep: %d chunks survive release-all + GC — a refcount leaked", r.ChunksAfterGC)
	}
	return nil
}
