//go:build race

package workloads

// The race detector allocates its own bookkeeping on the goroutine
// hand-offs of every offload call (≈ 15 KiB a call), so under -race the
// allocation gate only bounds a call at 64 KiB.
func init() { maxCallGarbage = 64 << 10 }
