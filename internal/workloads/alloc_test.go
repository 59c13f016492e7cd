package workloads

import (
	"runtime"
	"testing"

	"snapify/internal/simclock"
)

// allocBytesPerRun returns the heap bytes f allocates per run, averaged
// over runs (testing.AllocsPerRun counts allocations, not bytes).
func allocBytesPerRun(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestRunCallsSteadyStateAllocs is the offload call's allocation gate: once
// the app has written all of its local store, one more call writes only
// into spans it already owns, reads the kernel's input in place and takes
// its staging from the pool, so what it allocates is the call's messages,
// not its transfers (InPerCall + OutPerCall, plus InPerCall/StepsPerCall
// per kernel call, before).
func TestRunCallsSteadyStateAllocs(t *testing.T) {
	s, _ := ByCode("MD")
	s.Calls = 1 << 20
	s.LocalStore = 4 * s.InPerCall
	in, err := Launch(newPlat(t, 1), s, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if _, err := in.RunCalls(16); err != nil { // wrap the local store four times
		t.Fatal(err)
	}
	var runErr error
	got := allocBytesPerRun(50, func() {
		if _, err := in.RunCalls(1); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	t.Logf("RunCalls(1): %.0f B/call (transfers %d B)", got, s.InPerCall+s.OutPerCall)
	if got >= float64(64*simclock.KiB) {
		t.Errorf("steady-state RunCalls(1) allocates %.0f B, want < %d", got, 64*simclock.KiB)
	}
}
