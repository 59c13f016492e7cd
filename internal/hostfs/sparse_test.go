package hostfs

import (
	"runtime"
	"testing"

	"snapify/internal/blob"
	"snapify/internal/simclock"
)

const stripeChunk = 4 * simclock.MiB

// assembleStriped writes 4 stripes of n chunks each into one sparse file,
// interleaved chunk by chunk the way parallel streams deliver them, and
// commits it. Chunks are synthetic, so a 4 GiB assembly costs descriptors,
// not bytes.
func assembleStriped(t testing.TB, fs *FS, n int) {
	stripe := int64(n) * stripeChunk
	sw, err := fs.CreateSparse("/snap/ctx", 4*stripe)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < int64(n); k++ {
		for s := int64(0); s < 4; s++ {
			if _, err := sw.WriteBlobAt(s*stripe+k*stripeChunk, blob.Synthetic(uint64(s+1), stripeChunk)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sw.Commit(); err != nil {
		t.Fatal(err)
	}
}

// allocBytesPerRun is testing.AllocsPerRun for allocated bytes rather
// than allocation count: one warm-up call, then the mean over runs.
func allocBytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestStripedAssemblyAllocatesLinearly is the scaling gate of the striped
// write path: quadrupling the chunks of a 4-stream assembly may at most
// about quadruple the bytes it allocates. A writer that rebuilds the
// whole extent list on every chunk allocates quadratically and fails by
// a wide margin (about 15x). The allocation count is logged too; it grows
// by only about n log n under such a writer, too close to linear to gate.
func TestStripedAssemblyAllocatesLinearly(t *testing.T) {
	const n = 64
	fs := New(simclock.Default())
	var bytes [2]float64
	for i, chunks := range []int{n, 4 * n} {
		bytes[i] = allocBytesPerRun(3, func() { assembleStriped(t, fs, chunks) })
		allocs := testing.AllocsPerRun(3, func() { assembleStriped(t, fs, chunks) })
		t.Logf("4 stripes x %d chunks: %.0f bytes, %.0f allocations", chunks, bytes[i], allocs)
	}
	if ratio := bytes[1] / bytes[0]; ratio > 5 {
		t.Errorf("4x the chunks allocated %.1fx the bytes, want <= 5x (linear)", ratio)
	}
}

// TestStripedAssemblyContent checks an interleaved assembly, a torn
// chunk replayed whole, and that the file appears only at Commit.
func TestStripedAssemblyContent(t *testing.T) {
	fs := New(simclock.Default())
	sw, err := fs.CreateSparse("/snap/ctx", 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		off  int64
		data string
	}{{0, "ab"}, {4, "ef"}, {2, "c"}, {6, "gh"}, {2, "cd"}} {
		if _, err := sw.WriteBlobAt(w.off, blob.FromBytes([]byte(w.data))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sw.WriteBlobAt(7, blob.FromBytes([]byte("xy"))); err == nil {
		t.Error("write past the end succeeded")
	}
	if _, _, err := fs.ReadFile("/snap/ctx"); err == nil {
		t.Error("file visible before Commit")
	}
	if err := sw.Commit(); err != nil {
		t.Fatal(err)
	}
	got, _, err := fs.ReadFile("/snap/ctx")
	if err != nil {
		t.Fatal(err)
	}
	if s := string(got.Bytes()); s != "abcdefgh" {
		t.Errorf("assembled %q, want %q", s, "abcdefgh")
	}
	if _, err := sw.WriteBlobAt(0, blob.Zeros(1)); err == nil {
		t.Error("write after Commit succeeded")
	}
}
