package workloads

import (
	"runtime"
	"testing"
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

// maxCallGarbage bounds what one steady-state offload call allocates: its
// run request and result on both ends of the pipeline, the control
// record's two writes and the kernel's own bookkeeping (≈ 4.8 KiB).
// offload_run makes about 1 260 calls a pass, so a few hundred bytes more
// per call are what this gate is for. race_test.go raises it under -race.
var maxCallGarbage = 5200.0

// TestRunCallsSteadyStateAllocs is the offload call's allocation gate: once
// the app has written all of its local store, one more call writes only
// into spans it already owns, reads the kernel's input in place and takes
// its staging from the pool, so what it allocates is the call's messages,
// not its transfers (InPerCall + OutPerCall, plus InPerCall/StepsPerCall
// per kernel call, before).
func TestRunCallsSteadyStateAllocs(t *testing.T) {
	// sync.Pool keeps a returned buffer in its P's private slot, which no
	// other P takes from: with more than one P, a call that lands on
	// another P allocates its 80 KiB of staging anew (about 1.6 KiB per
	// call over the 50 runs, in about half the windows). That is where the
	// pool sits, not what a call leaves behind, so the test runs on one P
	// from before its warm-up (a change of P count empties the pool).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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
	if got > maxCallGarbage {
		t.Errorf("steady-state RunCalls(1) allocates %.0f B, want ≤ %.0f", got, maxCallGarbage)
	}
}
