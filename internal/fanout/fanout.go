// Package fanout runs the parallel snapshot data path's workers: the
// checkpointer and the COI daemon each cut their work into at most one
// shard per stream up front and run one worker per shard with Run.
package fanout

import (
	"sync"
	"sync/atomic"
)

// Run executes fn(i) for every i in [0, items), each on a goroutine of its
// own, and waits for all of them. Callers pass one item per stream, so the
// stream count bounds the goroutines. It returns the first error in item
// order (all items run regardless — snapshot shards must not be silently
// skipped, and a striped sink is only consistent once every worker has
// finished or aborted).
func Run(items int, fn func(i int) error) error {
	errs := make([]error, max(items, 0))
	var panicked any
	var once sync.Once
	var wg sync.WaitGroup
	// Each goroutine takes the next item as it starts, so item 0 starts
	// first whatever order the scheduler runs new goroutines in: the
	// shared link prices a transfer by the flows in flight when it starts
	// (ROADMAP item 1b), and the baselines were recorded with stream 0
	// leading.
	var next atomic.Int64
	for range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := int(next.Add(1) - 1)
			// A panic in fn is a bug, not a recoverable fault — but it
			// must not strand the sibling workers or the caller's
			// WaitGroup. Capture it, let the siblings finish, and
			// re-raise on the caller's goroutine after the join.
			defer func() {
				if r := recover(); r != nil {
					once.Do(func() { panicked = r })
				}
			}()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked) //nolint:paniclib // re-raising a worker's panic on the caller's goroutine, not originating one
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
