package simclock

// Stage is the cost function of one stage of a chunked transfer pipeline:
// given a chunk of n bytes it returns the virtual time the stage needs to
// process that chunk.
type Stage func(bytes int64) Duration

// Rate returns a Stage with the given throughput in bytes per second.
func Rate(bandwidth int64) Stage {
	return func(n int64) Duration { return xfer(n, bandwidth) }
}

// Max returns the larger of two durations; it expresses phases that run
// concurrently (e.g. the host-side and device-side snapshot captures in
// Fig 10a overlap, so the checkpoint pays the maximum of the two).
func Max(a, b Duration) Duration {
	if a > b {
		return a
	}
	return b
}

// MaxAll returns the maximum of the given durations (0 if none).
func MaxAll(ds ...Duration) Duration {
	var mx Duration
	for _, d := range ds {
		if d > mx {
			mx = d
		}
	}
	return mx
}
