package simclock

import "time"

// WallTimer measures real elapsed wall-clock time of the simulator
// harness itself — the one sanctioned wall-clock reading in the tree,
// and bench/ (the benchmark harness, BENCHMARK.json) its one caller.
// Everything the paper's figures, snapbench and the in-tree BENCH_*.json
// report is virtual time from the cost model; what the *simulator* costs
// to run is bench/'s question alone. Wall readings are machine-dependent
// and must never feed a deterministic artifact.
type WallTimer struct {
	start time.Time
}

// StartWall starts a wall-clock timer.
func StartWall() WallTimer {
	return WallTimer{start: time.Now()}
}

// ElapsedNs returns the real nanoseconds since StartWall.
func (w WallTimer) ElapsedNs() int64 {
	if w.start.IsZero() {
		return 0
	}
	return time.Since(w.start).Nanoseconds()
}
