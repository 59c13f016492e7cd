package core

// Store-backed capture and restore at the core layer: swap cycles that
// ship only missing chunks, and the refusal of base and delta captures,
// which the store (holding whole images only) has no place for. The
// chaos-under-fault cases live in chaos_store_test.go.

import (
	"errors"
	"testing"

	"snapify/internal/coi"
	"snapify/internal/simclock"
)

// storeOpts is the capture configuration of the store tests: a striped
// data path with chunks small enough that a touched counter page leaves
// most of the image deduplicable.
func storeOpts() CaptureOptions {
	o := chaosOpts()
	o.ChunkBytes = 32 * 1024
	o.Store.Enabled = true
	return o
}

func TestStoreSwapRoundTrip(t *testing.T) {
	r := newRig(t, "core_store_swap", 1)
	buf, _ := r.cp.CreateBuffer(512 * 1024)
	pattern := make([]byte, 512*1024)
	for i := range pattern {
		pattern[i] = byte(i * 11)
	}
	buf.Write(pattern, 0) //nolint:errcheck
	r.count(t, 33)

	ctx := "/snap/store/" + coi.ContextFileName
	snap, err := Swapout("/snap/store", r.cp, storeOpts())
	if err != nil {
		t.Fatal(err)
	}
	// The context lives in the store, not as a plain host file; the
	// sidecar artifacts (runtime libraries) stay plain.
	if r.plat.Host().FS.Exists(ctx) {
		t.Error("store-mode capture left a plain context file")
	}
	if !r.plat.Host().FS.Exists("/snap/store/runtime_libs") {
		t.Error("runtime libraries missing from store-mode snapshot")
	}
	if !r.plat.Store.Has(ctx) {
		t.Fatal("no committed manifest for the captured context")
	}
	if snap.Report.ShippedBytes <= 0 || snap.Report.ShippedBytes > snap.Report.SnapshotBytes {
		t.Errorf("shipped %d of %d snapshot bytes", snap.Report.ShippedBytes, snap.Report.SnapshotBytes)
	}
	if problems, _ := r.plat.Store.Verify(); len(problems) != 0 {
		t.Fatalf("store inconsistent after capture: %v", problems)
	}

	ropts := RestoreOptions{}
	ropts.Store.Enabled = true
	if _, err := Swapin(snap, 1, ropts); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, len(pattern))
	if err := buf.Read(back, 0); err != nil {
		t.Fatal(err)
	}
	for i := range back {
		if back[i] != pattern[i] {
			t.Fatalf("buffer corrupted at %d after store swap", i)
		}
	}
	if got := r.count(t, 66); got != refSum(66) {
		t.Errorf("post-swap count = %d, want %d", got, refSum(66))
	}

	// A second cycle re-ships only what changed: the counter page, not
	// the 512 KiB buffer or the untouched background.
	snap2, err := Swapout("/snap/store", r.cp, storeOpts())
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Report.ShippedBytes >= snap2.Report.SnapshotBytes {
		t.Errorf("warm swap shipped %d of %d bytes: no dedup", snap2.Report.ShippedBytes, snap2.Report.SnapshotBytes)
	}
	if _, err := Swapin(snap2, 1, ropts); err != nil {
		t.Fatal(err)
	}
	if got := r.count(t, 99); got != refSum(99) {
		t.Errorf("post-second-swap count = %d, want %d", got, refSum(99))
	}

	// Dropping the snapshot empties the store.
	if _, err := r.plat.Store.Release(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.plat.Store.GC(0); err != nil {
		t.Fatal(err)
	}
	if s := r.plat.Store.Stats(); s.Manifests != 0 || s.Chunks != 0 {
		t.Errorf("store not empty after release + gc: %+v", s)
	}
}

func TestStoreRestorePrecheckFailsFast(t *testing.T) {
	r := newRig(t, "core_store_precheck", 1)
	r.count(t, 10)
	snap, err := Swapout("/snap/nostore", r.cp, chaosOpts()) // plain capture
	if err != nil {
		t.Fatal(err)
	}
	ropts := RestoreOptions{}
	ropts.Store.Enabled = true
	if _, err := Swapin(snap, 1, ropts); err == nil {
		t.Fatal("store-asserting restore of a plain snapshot must fail fast")
	}
	// The plain restore still works.
	if _, err := Swapin(snap, 1, RestoreOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := r.count(t, 20); got != refSum(20) {
		t.Errorf("post-swap count = %d, want %d", got, refSum(20))
	}
}

// TestStoreRefusesBaseAndDeltaCaptures: the store holds whole images, so
// a base or a delta capture with the store enabled fails validation before
// any request leaves the host. Nothing is left behind — no manifest, no
// pending upload, no chunk, no context or delta file — and the paused
// handle resumes and computes on.
func TestStoreRefusesBaseAndDeltaCaptures(t *testing.T) {
	r := newRig(t, "core_store_nodelta", 1)
	r.count(t, 10)
	s := NewSnapshot("/snap/nodelta", r.cp)
	if err := Pause(s); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		capture func(CaptureOptions) error
	}{{"base", s.CaptureBase}, {"delta", s.CaptureDelta}} {
		if err := c.capture(storeOpts()); !errors.Is(err, errStoreNotFull) {
			t.Errorf("%s capture with the store enabled: err = %v, want errStoreNotFull", c.name, err)
		}
	}
	if st := r.plat.Store.Stats(); st.Manifests != 0 || st.Chunks != 0 {
		t.Errorf("refused captures left store state: %+v", st)
	}
	if n := r.plat.Store.PendingUploads(); n != 0 {
		t.Errorf("refused captures left %d pending uploads", n)
	}
	for _, f := range []string{coi.ContextFileName, coi.DeltaFileName} {
		if p := "/snap/nodelta/" + f; r.plat.Host().FS.Exists(p) {
			t.Errorf("refused captures left %s on the host", p)
		}
	}
	if err := Resume(s); err != nil {
		t.Fatal(err)
	}
	if got := r.count(t, 30); got != refSum(30) {
		t.Errorf("count after the refused captures = %d, want %d", got, refSum(30))
	}
}

// coldStoreCapture is the virtual time of the first cold store capture
// this test process ran; it outlives one run of the test, so -count=N
// compares N runs.
var coldStoreCapture simclock.Duration

// TestColdStoreCaptureDeterministic: a cold one-stream store capture — the
// pipelined digest → negotiate → ship pass — is priced from sizes alone.
// Fresh platforms in one process, and (scripts/verify.sh: -count=50 at
// GOMAXPROCS 1 and 8) any number of runs, report one Report.Capture value
// to the nanosecond.
func TestColdStoreCaptureDeterministic(t *testing.T) {
	for i := 0; i < 2; i++ {
		r := newRig(t, "core_store_deterministic", 1)
		r.count(t, 20)
		opts := CaptureOptions{ChunkBytes: 256 * 1024}
		opts.Store.Enabled = true
		s := NewSnapshot("/snap/det", r.cp)
		if err := s.Pause(); err != nil {
			t.Fatal(err)
		}
		if err := s.Capture(opts); err != nil {
			t.Fatal(err)
		}
		if err := s.Wait(); err != nil {
			t.Fatal(err)
		}
		if s.Report.ShippedBytes != s.Report.SnapshotBytes || s.Report.CaptureStreams != 1 {
			t.Fatalf("not a cold one-stream capture: %+v", s.Report)
		}
		if coldStoreCapture == 0 {
			coldStoreCapture = s.Report.Capture
		}
		if s.Report.Capture != coldStoreCapture {
			t.Fatalf("cold store capture took %d virtual ns, an earlier identical one %d", s.Report.Capture, coldStoreCapture)
		}
	}
}
