package core

// Store-backed capture and restore at the core layer: swap cycles that
// ship only missing chunks, and delta chains whose parent manifest lives
// only in the content-addressed store (ISSUE 5). The chaos-under-fault
// cases live in chaos_store_test.go.

import (
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

// TestStoreDeltaChainParentOnlyInStore restores a base+delta chain where
// neither file exists outside the store: the base's refcount tracks its
// delta child, and releasing the chain cascades the store back to empty.
func TestStoreDeltaChainParentOnlyInStore(t *testing.T) {
	r := newRig(t, "core_store_chain", 1)
	r.count(t, 10)

	baseCtx := "/snap/sbase/" + coi.ContextFileName
	deltaPath := "/snap/sdelta/" + coi.DeltaFileName
	base := NewSnapshot("/snap/sbase", r.cp)
	if err := Pause(base); err != nil {
		t.Fatal(err)
	}
	bopts := storeOpts()
	bopts.Terminate = false
	if err := base.CaptureBase(bopts); err != nil {
		t.Fatal(err)
	}
	if err := Wait(base); err != nil {
		t.Fatal(err)
	}
	if err := Resume(base); err != nil {
		t.Fatal(err)
	}
	r.count(t, 30)

	d := NewSnapshot("/snap/sdelta", r.cp)
	if err := Pause(d); err != nil {
		t.Fatal(err)
	}
	dopts := storeOpts()
	dopts.Store.Parent = baseCtx
	if err := d.CaptureDelta(dopts); err != nil {
		t.Fatal(err)
	}
	if err := Wait(d); err != nil {
		t.Fatal(err)
	}

	if r.plat.Host().FS.Exists(baseCtx) || r.plat.Host().FS.Exists(deltaPath) {
		t.Fatal("chain files exist outside the store")
	}
	bm, _, err := r.plat.Store.Manifest(baseCtx)
	if err != nil {
		t.Fatal(err)
	}
	if bm.Refs != 2 {
		t.Errorf("base refs %d, want 2 (holder + delta child)", bm.Refs)
	}
	dm, _, err := r.plat.Store.Manifest(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	if dm.Parent != baseCtx {
		t.Errorf("delta parent %q, want %q", dm.Parent, baseCtx)
	}

	ropts := RestoreOptions{}
	ropts.Store.Enabled = true
	if _, err := d.RestoreChain("/snap/sbase", []string{"/snap/sdelta"}, 1, ropts); err != nil {
		t.Fatalf("restore chain from store: %v", err)
	}
	if err := d.Resume(); err != nil {
		t.Fatal(err)
	}
	if got := r.count(t, 50); got != refSum(50) {
		t.Errorf("restored computation = %d, want %d", got, refSum(50))
	}

	// Releasing the delta cascades onto the base; releasing the base's own
	// holder reference empties the store.
	if _, err := r.plat.Store.Release(deltaPath); err != nil {
		t.Fatal(err)
	}
	if bm, _, err := r.plat.Store.Manifest(baseCtx); err != nil || bm.Refs != 1 {
		t.Fatalf("base after delta release: refs=%v err=%v", bm, err)
	}
	if _, err := r.plat.Store.Release(baseCtx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.plat.Store.GC(0); err != nil {
		t.Fatal(err)
	}
	if s := r.plat.Store.Stats(); s.Manifests != 0 || s.Chunks != 0 {
		t.Errorf("store not empty after chain release + gc: %+v", s)
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
