package core

import (
	"testing"
	"time"

	"snapify/internal/coi"
)

// liveOpts is the live-migration configuration the functional tests use:
// small chunks so dirty diffs resolve at a useful granularity, a bounded
// round budget, and the striped data path.
func liveOpts(path string) MigrateOptions {
	return MigrateOptions{
		DeviceTo: 2,
		Path:     path,
		Precopy:  PrecopyOptions{MaxRounds: 4},
		Capture:  CaptureOptions{ChunkBytes: 32 * 1024, Streams: 2},
	}
}

// TestLiveMigrateSessionRounds drives a Migration session by hand,
// interleaving pre-copy rounds with application work — the dirty set must
// shrink from "the whole image" to "what the interleaved work touched",
// and the switch-over must carry the computation byte-identically.
func TestLiveMigrateSessionRounds(t *testing.T) {
	r := newRig(t, "core_live_mig", 2)
	r.count(t, 20)

	m, err := NewMigration(r.cp, liveOpts("/snap/live"))
	if err != nil {
		t.Fatal(err)
	}
	first, done, err := m.Round()
	if err != nil {
		t.Fatal(err)
	}
	if first.Skipped {
		t.Fatal("round 1 skipped: the first round always ships the full image")
	}
	if first.DirtyBytes != first.ImageBytes {
		t.Errorf("round 1 dirty %d != image %d: everything is dirty on round 1", first.DirtyBytes, first.ImageBytes)
	}
	if first.ShippedBytes <= 0 || first.ChunksNeeded <= 0 {
		t.Errorf("round 1 shipped nothing: %+v", first)
	}

	// The process keeps computing between rounds; the next round's dirty
	// set is what that work touched, not the whole image.
	iters := uint64(40)
	r.count(t, iters)
	var last PrecopyRound
	for !done {
		last, done, err = m.Round()
		if err != nil {
			t.Fatal(err)
		}
		if last.DirtyBytes >= first.DirtyBytes {
			t.Errorf("round %d dirty %d did not shrink from round 1's %d", last.Round, last.DirtyBytes, first.DirtyBytes)
		}
		if !done {
			iters += 10
			r.count(t, iters)
		}
	}
	if _, _, err := m.Round(); err == nil {
		t.Error("Round after convergence must fail")
	}

	cp2, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if cp2.DeviceNode() != 2 {
		t.Errorf("process on %v after live migration, want mic1", cp2.DeviceNode())
	}
	rep := &m.Snapshot().Report
	if len(rep.Precopy) < 2 {
		t.Errorf("only %d pre-copy rounds recorded, want >= 2", len(rep.Precopy))
	}
	if rep.Downtime <= 0 {
		t.Error("no downtime recorded")
	}
	if want := rep.PauseTotal() + rep.Capture + rep.RestoreTotal() + rep.Resume; rep.Downtime != want {
		t.Errorf("downtime %v != pause+capture+restore+resume %v", rep.Downtime, want)
	}
	// The destination adopted the staged chunks and released the staging.
	if dst := coi.DaemonAt(r.plat, 2); len(dst.Staging().Paths()) != 0 {
		t.Errorf("staged chunks linger after adoption: %v", dst.Staging().Paths())
	}
	iters += 10
	if got := r.count(t, iters); got != refSum(iters) {
		t.Errorf("computation after live migration = %d, want %d", got, refSum(iters))
	}
	if _, err := m.Finish(); err == nil {
		t.Error("double Finish must fail")
	}
}

// TestLiveMigrateDowntimeBelowStopTheWorld runs the composed Migrate both
// ways on identical workloads: the live path's downtime must undercut the
// stop-the-world pause, and both must land the same bytes.
func TestLiveMigrateDowntimeBelowStopTheWorld(t *testing.T) {
	stwRig := newRig(t, "core_mig_stw", 2)
	stwRig.count(t, 20)
	_, stwSnap, err := Migrate(stwRig.cp, MigrateOptions{DeviceTo: 2, Path: "/snap/stw"})
	if err != nil {
		t.Fatal(err)
	}
	if len(stwSnap.Report.Precopy) != 0 {
		t.Errorf("stop-the-world migration ran %d pre-copy rounds", len(stwSnap.Report.Precopy))
	}

	liveRig := newRig(t, "core_mig_live", 2)
	liveRig.count(t, 20)
	_, liveSnap, err := Migrate(liveRig.cp, liveOpts("/snap/livecmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(liveSnap.Report.Precopy) == 0 {
		t.Fatal("live migration recorded no pre-copy rounds")
	}
	if liveSnap.Report.Downtime >= stwSnap.Report.Downtime {
		t.Errorf("live downtime %v not below stop-the-world %v", liveSnap.Report.Downtime, stwSnap.Report.Downtime)
	}
	// Byte-identical restores: both continuations compute the same sums.
	if a, b := stwRig.count(t, 40), liveRig.count(t, 40); a != b || a != refSum(40) {
		t.Errorf("continuations diverge: stw %d, live %d, want %d", a, b, refSum(40))
	}
}

// TestMigrateOptionValidation exercises the one-place option validation.
func TestMigrateOptionValidation(t *testing.T) {
	r := newRig(t, "core_mig_opts", 2)
	cases := []struct {
		name string
		opts MigrateOptions
	}{
		{"empty path", MigrateOptions{DeviceTo: 2}},
		{"host target", MigrateOptions{DeviceTo: 0, Path: "/snap/x"}},
		{"same device", MigrateOptions{DeviceTo: 1, Path: "/snap/x"}},
		{"negative rounds", MigrateOptions{DeviceTo: 2, Path: "/snap/x",
			Precopy: PrecopyOptions{MaxRounds: -1}}},
		{"precopy fields without rounds", MigrateOptions{DeviceTo: 2, Path: "/snap/x",
			Precopy: PrecopyOptions{DowntimeBudget: time.Millisecond}}},
		{"negative capture streams", MigrateOptions{DeviceTo: 2, Path: "/snap/x",
			Capture: CaptureOptions{Streams: -1}}},
		{"restore replicas", MigrateOptions{DeviceTo: 2, Path: "/snap/x",
			Restore: func() RestoreOptions {
				var o RestoreOptions
				o.Store.Enabled = true
				o.Store.Replicas = 2
				return o
			}()}},
	}
	for _, tc := range cases {
		if _, err := NewMigration(r.cp, tc.opts); err == nil {
			t.Errorf("%s: NewMigration accepted %+v", tc.name, tc.opts)
		}
	}

	// A stop-the-world session rejects Round but allows Finish.
	m, err := NewMigration(r.cp, MigrateOptions{DeviceTo: 2, Path: "/snap/stwsess"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Round(); err == nil {
		t.Error("Round on a stop-the-world session must fail")
	}
	if _, err := m.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestLiveMigrateDowntimeBudgetEndsTheRounds: once round 1 has measured
// the shipping bandwidth, a round whose dirty set ships within
// DowntimeBudget at that bandwidth is a probe. It ships nothing, stages
// nothing and ends the rounds; the final capture carries the delta, and
// the computation continues exactly. With a budget too small for the
// same dirty set the round ships as usual.
func TestLiveMigrateDowntimeBudgetEndsTheRounds(t *testing.T) {
	for _, tc := range []struct {
		budget   time.Duration
		wantSkip bool
	}{{50 * time.Millisecond, true}, {time.Nanosecond, false}} {
		t.Run(tc.budget.String(), func(t *testing.T) {
			r := newRig(t, "core_mig_budget", 2)
			r.count(t, 20)
			opts := liveOpts("/snap/budget")
			opts.Precopy.DowntimeBudget = tc.budget
			m, err := NewMigration(r.cp, opts)
			if err != nil {
				t.Fatal(err)
			}
			first, done, err := m.Round()
			if err != nil {
				t.Fatal(err)
			}
			if first.Skipped || done || first.ShippedBytes == 0 {
				t.Fatalf("round 1 = %+v, done %v: with no bandwidth measured yet it must ship", first, done)
			}
			r.count(t, 30)

			floor := int64(float64(first.ShippedBytes) / float64(first.Duration) * float64(tc.budget))
			staging := coi.DaemonAt(r.plat, 2).Staging()
			staged, chunks := staging.StagedBytes(m.ctxPath()), r.plat.Store.Stats().Chunks
			rec, done, err := m.Round()
			if err != nil {
				t.Fatal(err)
			}
			if fits := rec.DirtyBytes > 0 && rec.DirtyBytes <= floor; fits != tc.wantSkip {
				t.Fatalf("round 2 dirtied %d bytes against a %d-byte floor; the case needs fits=%v", rec.DirtyBytes, floor, tc.wantSkip)
			}
			if rec.Skipped != tc.wantSkip {
				t.Fatalf("round 2 skipped %v, want %v: %+v", rec.Skipped, tc.wantSkip, rec)
			}
			if tc.wantSkip {
				if rec.ShippedBytes != 0 || rec.ChunksNeeded != 0 || rec.StageDuration != 0 {
					t.Errorf("skipped round moved data: %+v", rec)
				}
				if got := staging.StagedBytes(m.ctxPath()); got != staged {
					t.Errorf("skipped round changed the staged bytes %d -> %d", staged, got)
				}
				if got := r.plat.Store.Stats().Chunks; got != chunks {
					t.Errorf("skipped round changed the store's chunks %d -> %d", chunks, got)
				}
				if !done {
					t.Error("a skipped round did not end the rounds")
				}
				if _, _, err := m.Round(); err == nil {
					t.Error("Round after a skipped round must fail")
				}
			} else if rec.ShippedBytes == 0 || rec.StageDuration == 0 {
				t.Errorf("round over the floor shipped or staged nothing: %+v", rec)
			}
			if _, err := m.Finish(); err != nil {
				t.Fatal(err)
			}
			if got := r.count(t, 40); got != refSum(40) {
				t.Errorf("computation after the migration = %d, want %d", got, refSum(40))
			}
		})
	}
}
