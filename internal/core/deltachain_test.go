package core_test

// An external test package: the benchmark apps (internal/workloads)
// reach core through internal/mpi, so core's own test package cannot
// import them.

import (
	"testing"
	"time"

	"snapify/internal/coi"
	"snapify/internal/core"
	"snapify/internal/platform/platformtest"
	"snapify/internal/simclock"
	"snapify/internal/workloads"
)

// TestDeltaChainRestoreParentOnlyInStore is the chain case on a real
// benchmark app rather than a counter kernel: a running workload is
// checkpointed as a store-resident base + terminating delta — neither
// file ever exists outside the store — restored through the overlay,
// and run to completion.
func TestDeltaChainRestoreParentOnlyInStore(t *testing.T) {
	plat := platformtest.Start(t, platformtest.Options{Devices: 1})
	in, err := workloads.Launch(plat, workloads.Spec{
		Code: "DC", Name: "DC",
		HostMem:        8 * simclock.MiB,
		DeviceMem:      64 * simclock.MiB,
		LocalStore:     16 * simclock.MiB,
		Calls:          4,
		StepsPerCall:   2,
		ComputePerCall: time.Millisecond,
		InPerCall:      16 * simclock.KiB,
		OutPerCall:     16 * simclock.KiB,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.RunCalls(1); err != nil {
		t.Fatal(err)
	}

	var copts core.CaptureOptions
	copts.Streams = 2
	copts.ChunkBytes = 256 * 1024
	copts.Store.Enabled = true
	baseCtx := "/snap/dcbase/" + coi.ContextFileName

	base := core.NewSnapshot("/snap/dcbase", in.CP)
	if err := core.Pause(base); err != nil {
		t.Fatal(err)
	}
	if err := base.CaptureBase(copts); err != nil {
		t.Fatal(err)
	}
	if err := core.Wait(base); err != nil {
		t.Fatal(err)
	}
	if err := core.Resume(base); err != nil {
		t.Fatal(err)
	}
	if _, err := in.RunCalls(1); err != nil {
		t.Fatal(err)
	}

	dopts := copts
	dopts.Terminate = true
	dopts.Store.Parent = baseCtx
	d := core.NewSnapshot("/snap/dcdelta", in.CP)
	if err := core.Pause(d); err != nil {
		t.Fatal(err)
	}
	if err := d.CaptureDelta(dopts); err != nil {
		t.Fatal(err)
	}
	if err := core.Wait(d); err != nil {
		t.Fatal(err)
	}

	deltaPath := "/snap/dcdelta/" + coi.DeltaFileName
	if plat.Host().FS.Exists(baseCtx) || plat.Host().FS.Exists(deltaPath) {
		t.Fatal("chain files exist outside the store")
	}
	bm, _, err := plat.Store.Manifest(baseCtx)
	if err != nil {
		t.Fatal(err)
	}
	if bm.Refs != 2 {
		t.Errorf("base refs %d, want 2 (holder + delta child)", bm.Refs)
	}

	var ropts core.RestoreOptions
	ropts.Store.Enabled = true
	if _, err := d.RestoreChain("/snap/dcbase", []string{"/snap/dcdelta"}, 1, ropts); err != nil {
		t.Fatalf("restore chain from store: %v", err)
	}
	if err := d.Resume(); err != nil {
		t.Fatal(err)
	}
	// The job runs to completion from the restored chain.
	if _, err := in.Run(); err != nil {
		t.Fatalf("run to completion after chain restore: %v", err)
	}
	in.Close()

	// Releasing the chain cascades the store back to empty.
	if _, err := plat.Store.Release(deltaPath); err != nil {
		t.Fatal(err)
	}
	if _, err := plat.Store.Release(baseCtx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := plat.Store.GC(0); err != nil {
		t.Fatal(err)
	}
	if st := plat.Store.Stats(); st.Manifests != 0 || st.Chunks != 0 {
		t.Errorf("store not empty after chain release + gc: %+v", st)
	}
}
