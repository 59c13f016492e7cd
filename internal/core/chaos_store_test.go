package core

// Chaos cases for the dedup store data path (ISSUE 5): a daemon crash
// mid-dedup-upload, a crash between a manifest's temp and final writes,
// and a crash mid-GC sweep. The contract matches the plain chaos tier —
// atomic-or-retryable — plus the store's own invariants: no dangling
// manifest, no pinned orphan chunk, a clean Verify after recovery,
// and a byte-identical restore when the operation succeeds.
// scripts/verify.sh runs these twice under -race via the TestChaos filter.

import (
	"errors"
	"testing"

	"snapify/internal/coi"
	"snapify/internal/faultinject"
	"snapify/internal/simnet"
	"snapify/internal/snapstore"
)

// chaosStoreOpts is chaosOpts routed through the dedup store.
func chaosStoreOpts() CaptureOptions {
	o := chaosOpts()
	o.ChunkBytes = 32 * 1024
	o.Store.Enabled = true
	return o
}

// assertStoreConsistent is the post-fault store fsck: Verify finds
// nothing wrong, and after a GC nothing reclaimable lingers.
func assertStoreConsistent(t *testing.T, r *rig) {
	t.Helper()
	if problems, _ := r.plat.Store.Verify(); len(problems) != 0 {
		t.Errorf("store inconsistent: %v", problems)
	}
	if _, _, err := r.plat.Store.GC(0); err != nil {
		t.Fatalf("recovery gc: %v", err)
	}
	if s := r.plat.Store.Stats(); s.ReclaimableChunks != 0 {
		t.Errorf("orphan chunks survive gc: %+v", s)
	}
}

// TestChaosStoreDaemonCrashMidUpload kills the host Snapify-IO daemon in
// the middle of a dedup upload. The retry budget lets the capture
// re-negotiate: chunks that landed before the crash are found as "have"
// and drop out of the need set, and the capture either completes (with a
// byte-identical restore) or fails cleanly with no dangling manifest.
func TestChaosStoreDaemonCrashMidUpload(t *testing.T) {
	r := newRig(t, "core_chaos_store", 1)
	r.count(t, 20)
	ctx := "/snap/chstore/" + coi.ContextFileName
	s := NewSnapshot("/snap/chstore", r.cp)
	if err := Pause(s); err != nil {
		t.Fatal(err)
	}
	arm(r, faultinject.Fault{Site: faultinject.SiteDaemon, Key: simnet.HostNode.String(), Kind: faultinject.Crash, Nth: 2})
	err := s.Capture(chaosStoreOpts())
	if err == nil {
		err = Wait(s)
	}
	disarm(r)
	assertNoPartials(t, r.plat)
	if err != nil {
		// Clean failure: the snapshot is absent from the store (never a
		// torn or dangling manifest) and recovery leaves no orphans.
		t.Logf("store capture failed cleanly: %v", err)
		if r.plat.Store.Has(ctx) {
			if problems, _ := r.plat.Store.Verify(); len(problems) != 0 {
				t.Errorf("committed-but-unreported manifest inconsistent: %v", problems)
			}
		}
		if problems, _ := r.plat.Store.Verify(); len(problems) != 0 {
			t.Errorf("store inconsistent after failed capture: %v", problems)
		}
		if _, _, err := r.plat.Store.GC(0); err != nil {
			t.Fatalf("gc after failed capture: %v", err)
		}
		return
	}
	if !r.plat.Store.Has(ctx) {
		t.Fatal("capture succeeded but no manifest committed")
	}
	assertStoreConsistent(t, r)
	ropts := RestoreOptions{Streams: 2, Retry: RetryPolicy{MaxAttempts: 4}}
	ropts.Store.Enabled = true
	if _, err := Swapin(s, 1, ropts); err != nil {
		t.Fatalf("swap-in after faulted store capture: %v", err)
	}
	if got := r.count(t, 40); got != refSum(40) {
		t.Errorf("restored computation = %d, want %d", got, refSum(40))
	}
}

// TestChaosStoreCommitCrash crashes the daemon between the manifest's
// temp and final writes. The snapshot is atomically absent; the capture
// retry re-negotiates, finds every chunk resident, and commits during
// the negotiation with not one data byte re-shipped.
func TestChaosStoreCommitCrash(t *testing.T) {
	r := newRig(t, "core_chaos_store", 1)
	r.count(t, 20)
	ctx := "/snap/chcommit/" + coi.ContextFileName
	s := NewSnapshot("/snap/chcommit", r.cp)
	if err := Pause(s); err != nil {
		t.Fatal(err)
	}
	arm(r, faultinject.Fault{Site: faultinject.SiteStore, Key: "commit", Kind: faultinject.Crash, Nth: 1})
	err := s.Capture(chaosStoreOpts())
	if err == nil {
		err = Wait(s)
	}
	disarm(r)
	assertNoPartials(t, r.plat)
	if err != nil {
		t.Fatalf("retry must ride out a single commit crash: %v", err)
	}
	if !r.plat.Store.Has(ctx) {
		t.Fatal("no committed manifest after retried commit")
	}
	// The retried commit reused the same temp name, so nothing stale
	// lingers and Verify is clean.
	assertStoreConsistent(t, r)
	ropts := RestoreOptions{}
	ropts.Store.Enabled = true
	if _, err := Swapin(s, 1, ropts); err != nil {
		t.Fatal(err)
	}
	if got := r.count(t, 40); got != refSum(40) {
		t.Errorf("restored computation = %d, want %d", got, refSum(40))
	}
}

// TestChaosStoreGCCrash interrupts a GC sweep mid-scan. The sweep only
// ever deletes garbage, so the partial run is harmless and a re-run
// converges on the empty store.
func TestChaosStoreGCCrash(t *testing.T) {
	r := newRig(t, "core_chaos_store", 1)
	r.count(t, 20)
	ctx := "/snap/chgc/" + coi.ContextFileName
	if _, err := Swapout("/snap/chgc", r.cp, chaosStoreOpts()); err != nil {
		t.Fatal(err)
	}
	before := r.plat.Store.Stats()
	if before.Chunks < 2 {
		t.Fatalf("need at least 2 chunks to interrupt a sweep, have %d", before.Chunks)
	}
	// Drop the snapshot: every chunk becomes garbage.
	if _, err := r.plat.Store.Release(ctx); err != nil {
		t.Fatal(err)
	}
	arm(r, faultinject.Fault{Site: faultinject.SiteStore, Key: "gc", Kind: faultinject.Crash, Nth: 2})
	gs, _, err := r.plat.Store.GC(0)
	disarm(r)
	if !errors.Is(err, snapstore.ErrInterrupted) {
		t.Fatalf("interrupted gc returned %v, want ErrInterrupted", err)
	}
	if gs.ChunksScanned != 2 || gs.ChunksReclaimed != 1 {
		t.Errorf("interrupted gc stats: %+v", gs)
	}
	if problems, _ := r.plat.Store.Verify(); len(problems) != 0 {
		t.Errorf("store inconsistent after interrupted gc: %v", problems)
	}
	// The re-run converges: zero chunks, zero manifests, nothing dangling.
	if _, _, err := r.plat.Store.GC(0); err != nil {
		t.Fatal(err)
	}
	if s := r.plat.Store.Stats(); s.Chunks != 0 || s.Manifests != 0 {
		t.Errorf("gc re-run did not converge: %+v", s)
	}
	if problems, _ := r.plat.Store.Verify(); len(problems) != 0 {
		t.Errorf("store inconsistent after recovery: %v", problems)
	}
}

// TestChaosStoreDaemonCrashMidWindow kills the host Snapify-IO daemon
// inside the third window of a windowed upload: after the window's
// negotiation, before its last chunk. The daemon comes back with no
// upload; the agent finishes the digest list it was still computing,
// offers it whole in one message, and ships only what the store still
// lacks — from the reads the pass kept. The manifest names exactly the
// frozen image, the restore runs on it, nothing stays pending, and
// releasing the snapshot collects the store to zero.
func TestChaosStoreDaemonCrashMidWindow(t *testing.T) {
	const window = 8 // coi's storeWindow
	const landed = 2*window + 2
	r := newRig(t, "core_chaos_store_window", 1)
	r.count(t, 20)
	ctx := "/snap/chwin/" + coi.ContextFileName
	s := NewSnapshot("/snap/chwin", r.cp)
	if err := Pause(s); err != nil {
		t.Fatal(err)
	}
	opts := chaosStoreOpts()
	opts.Streams = 1
	op := r.offload(t)
	want := oracleDigests(t, r, op.Proc(), opts.ChunkBytes)
	// The host daemon's chunk service point counts every chunk it is asked
	// to drain: the crash takes the third chunk of the third window.
	arm(r, faultinject.Fault{Site: faultinject.SiteDaemon, Key: simnet.HostNode.String(), Kind: faultinject.Crash, Nth: landed + 1})
	err := s.Capture(opts)
	if err == nil {
		err = Wait(s)
	}
	disarm(r)
	assertNoPartials(t, r.plat)
	if err != nil {
		t.Fatalf("retry must ride out a daemon crash mid-window: %v", err)
	}

	var windows []map[string]int64
	for _, sp := range r.plat.Obs.TracerOf().Spans() {
		if sp.Name == "store_negotiate" {
			windows = append(windows, sp.Args)
		}
	}
	if len(windows) != 4 {
		t.Fatalf("%d negotiations %v, want three windows and one whole-list retry", len(windows), windows)
	}
	for k, w := range windows[:3] {
		if w["chunks_total"] != window || w["chunks_needed"] != window {
			t.Errorf("window %d offered %d chunks, %d needed; want %d of %d", k, w["chunks_total"], w["chunks_needed"], window, window)
		}
	}
	retry := windows[3]
	if retry["chunks_total"] != int64(len(want)) {
		t.Errorf("the retry offered %d digests, want the whole list of %d in one message", retry["chunks_total"], len(want))
	}
	if retry["chunks_needed"] <= 0 || retry["chunks_needed"] > int64(len(want)-landed) {
		t.Errorf("the retry needed %d of %d chunks with %d landed before the crash", retry["chunks_needed"], len(want), landed)
	}
	if sp := lastDigestSpan(t, r, "store_digest"); sp["chunks_rehashed"]+sp["chunks_swept"] != sp["chunks_total"] || sp["chunks_total"] != int64(len(want)) {
		t.Errorf("the pass did not finish its digest list for the retry: %v", sp)
	}

	assertCacheIs(t, op, opts.ChunkBytes, want, "retried capture")
	assertManifestIs(t, r, ctx, want, "retried capture")
	if n := r.plat.Store.PendingUploads(); n != 0 {
		t.Errorf("%d uploads pending after the retried capture", n)
	}
	ropts := RestoreOptions{Streams: 2}
	ropts.Store.Enabled = true
	if _, err := Swapin(s, 1, ropts); err != nil {
		t.Fatalf("swap-in after the retried capture: %v", err)
	}
	if got := r.count(t, 40); got != refSum(40) {
		t.Errorf("restored computation = %d, want %d", got, refSum(40))
	}
	if _, err := r.plat.Store.Release(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.plat.Store.GC(0); err != nil {
		t.Fatal(err)
	}
	if st := r.plat.Store.Stats(); st.Chunks != 0 || st.Manifests != 0 {
		t.Errorf("release + gc left %+v", st)
	}
}
