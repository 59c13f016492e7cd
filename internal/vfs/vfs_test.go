package vfs_test

import (
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"snapify/internal/blob"
	"snapify/internal/phi"
	"snapify/internal/simclock"
	"snapify/internal/vfs"
)

// node is one kind of node file system under test, with the card's budget
// (nil on the host).
type node struct {
	name string
	fs   *vfs.FS
	bud  *phi.MemBudget
}

// used returns the bytes the card's file system holds in its budget; the
// host has none.
func (n node) used() int64 {
	if n.bud == nil {
		return 0
	}
	return n.bud.Used()
}

// nodes returns a fresh host FS and a fresh card FS over a budget of
// capacity bytes, both priced by model.
func nodes(model *simclock.Model, capacity int64) []node {
	bud := phi.NewMemBudget(capacity)
	return []node{
		{name: "host", fs: vfs.NewHost(model)},
		{name: "card", fs: vfs.NewCard(model, bud), bud: bud},
	}
}

// forEachNode runs f as a subtest on each node kind.
func forEachNode(t *testing.T, capacity int64, f func(t *testing.T, n node)) {
	for _, n := range nodes(simclock.Default(), capacity) {
		t.Run(n.name, func(t *testing.T) { f(t, n) })
	}
}

// readAll drains r in chunks of max bytes, checking each chunk's cost.
func readAll(t *testing.T, r vfs.Reader, max int64) blob.Blob {
	t.Helper()
	var parts []blob.Blob
	for {
		c, d, err := r.Next(max)
		if err == io.EOF {
			return blob.Concat(parts...)
		}
		if err != nil {
			t.Fatal(err)
		}
		if d <= 0 {
			t.Error("chunk read cost must be positive")
		}
		parts = append(parts, c)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	forEachNode(t, 1<<20, func(t *testing.T, n node) {
		content := blob.FromBytes([]byte("snapshot of an offload process"))
		d, err := n.fs.WriteFile("/snapshots/app1/ctx", content)
		if err != nil {
			t.Fatal(err)
		}
		if d <= 0 {
			t.Error("write cost must be positive")
		}
		got, rd, err := n.fs.ReadFile("/snapshots/app1/ctx")
		if err != nil {
			t.Fatal(err)
		}
		if rd <= 0 {
			t.Error("read cost must be positive")
		}
		if !blob.Equal(got, content) {
			t.Error("content mismatch")
		}
		if n.bud != nil && n.used() != content.Len() {
			t.Errorf("budget used = %d, want %d", n.used(), content.Len())
		}
	})
}

// TestStreamingWriterAndReader: a file streamed in parts appears only at
// Close and reads back whole, by size and by range.
func TestStreamingWriterAndReader(t *testing.T) {
	forEachNode(t, 1<<20, func(t *testing.T, n node) {
		w, err := n.fs.Create("stream")
		if err != nil {
			t.Fatal(err)
		}
		a := blob.FromBytes([]byte("part one|"))
		b := blob.Synthetic(4, 10*1024)
		for _, part := range []blob.Blob{a, b} {
			if _, err := w.WriteBlob(part); err != nil {
				t.Fatal(err)
			}
		}
		if n.fs.Exists("stream") {
			t.Error("file visible before Close")
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := n.fs.Open("stream")
		if err != nil {
			t.Fatal(err)
		}
		if r.Size() != a.Len()+b.Len() {
			t.Errorf("Size = %d", r.Size())
		}
		if !blob.Equal(readAll(t, r, 1024), blob.Concat(a, b)) {
			t.Error("streamed content mismatch")
		}
		if sz, err := n.fs.Size("stream"); err != nil || sz != a.Len()+b.Len() {
			t.Errorf("Size(stream) = %d, %v", sz, err)
		}
		rr, err := n.fs.OpenRange("stream", 5, 9000)
		if err != nil {
			t.Fatal(err)
		}
		if got := readAll(t, rr, 4096); !blob.Equal(got, blob.Concat(a, b).Slice(5, 9000)) {
			t.Error("range content mismatch")
		}
	})
}

// TestWriterVisibilityAtClose: a streamed file is visible from Close on,
// and its writer refuses writes once closed.
func TestWriterVisibilityAtClose(t *testing.T) {
	forEachNode(t, 1000, func(t *testing.T, n node) {
		w, err := n.fs.Create("f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.WriteBlob(blob.FromBytes([]byte("abc"))); err != nil {
			t.Fatal(err)
		}
		if n.fs.Exists("f") {
			t.Error("file visible before Close")
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !n.fs.Exists("f") {
			t.Error("file not visible after Close")
		}
		if _, err := w.WriteBlob(blob.Zeros(1)); err == nil {
			t.Error("write after Close must fail")
		}
	})
}

// TestReaderChunks: a reader hands a file out in chunks of at most the
// asked size, each with a positive cost.
func TestReaderChunks(t *testing.T) {
	forEachNode(t, 1<<20, func(t *testing.T, n node) {
		content := blob.Synthetic(9, 10*1024)
		if _, err := n.fs.WriteFile("f", content); err != nil {
			t.Fatal(err)
		}
		r, err := n.fs.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		if r.Size() != content.Len() {
			t.Errorf("Size = %d", r.Size())
		}
		for {
			c, d, err := r.Next(4096)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if c.Len() > 4096 {
				t.Errorf("chunk of %d bytes, asked for at most 4096", c.Len())
			}
			if d <= 0 {
				t.Error("chunk read cost must be positive")
			}
		}
		r, err = n.fs.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		if !blob.Equal(readAll(t, r, 4096), content) {
			t.Error("chunked read content mismatch")
		}
	})
}

// TestStreamedRoundTrip drives each node kind the way the snapshot
// transport does: stream a file in, read it back, abort a second one and
// miss a third.
func TestStreamedRoundTrip(t *testing.T) {
	forEachNode(t, 1<<20, func(t *testing.T, n node) {
		w, err := n.fs.Create("/vfs/file")
		if err != nil {
			t.Fatal(err)
		}
		content := blob.Concat(blob.FromBytes([]byte("header")), blob.Synthetic(5, 10000))
		if _, err := w.WriteBlob(content); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := n.fs.Open("/vfs/file")
		if err != nil {
			t.Fatal(err)
		}
		if r.Size() != content.Len() {
			t.Errorf("Size = %d, want %d", r.Size(), content.Len())
		}
		if !blob.Equal(readAll(t, r, 4096), content) {
			t.Error("round trip content mismatch")
		}

		w2, err := n.fs.Create("/vfs/aborted")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w2.WriteBlob(blob.Zeros(10)); err != nil {
			t.Fatal(err)
		}
		w2.Abort()
		if _, err := n.fs.Open("/vfs/aborted"); err == nil {
			t.Error("aborted file visible")
		}
		if _, err := n.fs.Open("/vfs/missing"); err == nil {
			t.Error("missing file opened")
		}
	})
}

func TestAbortDiscards(t *testing.T) {
	forEachNode(t, 1<<20, func(t *testing.T, n node) {
		base := n.used()
		w, err := n.fs.Create("f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.WriteBlob(blob.Zeros(10)); err != nil {
			t.Fatal(err)
		}
		w.Abort()
		if n.fs.Exists("f") {
			t.Error("aborted file visible")
		}
		if _, err := w.WriteBlob(blob.Zeros(1)); err == nil {
			t.Error("write after Abort must fail")
		}
		if n.used() != base {
			t.Errorf("budget used = %d after abort, want %d", n.used(), base)
		}
	})
}

func TestListRemoveAll(t *testing.T) {
	forEachNode(t, 1<<20, func(t *testing.T, n node) {
		for path, size := range map[string]int64{"/tmp/coi_procs/1/a": 10, "/tmp/coi_procs/1/b": 20, "/tmp/other": 30} {
			if _, err := n.fs.WriteFile(path, blob.Zeros(size)); err != nil {
				t.Fatal(err)
			}
		}
		if got := n.fs.List("/tmp/coi_procs/1/"); len(got) != 2 || got[0] != "/tmp/coi_procs/1/a" || got[1] != "/tmp/coi_procs/1/b" {
			t.Fatalf("List = %v", got)
		}
		if removed := n.fs.RemoveAll("/tmp/coi_procs/"); removed != 2 {
			t.Fatalf("RemoveAll = %d, want 2", removed)
		}
		if n.fs.Exists("/tmp/coi_procs/1/a") || n.fs.Exists("/tmp/coi_procs/1/b") {
			t.Error("RemoveAll left a file under the prefix")
		}
		if !n.fs.Exists("/tmp/other") {
			t.Error("unrelated file removed")
		}
		if n.bud != nil && n.used() != 30 {
			t.Errorf("budget used = %d, want 30", n.used())
		}
	})
}

func TestMissingFileErrors(t *testing.T) {
	forEachNode(t, 100, func(t *testing.T, n node) {
		if _, _, err := n.fs.ReadFile("nope"); !errors.Is(err, vfs.ErrNotExist) {
			t.Errorf("ReadFile: %v", err)
		}
		if err := n.fs.Remove("nope"); !errors.Is(err, vfs.ErrNotExist) {
			t.Errorf("Remove: %v", err)
		}
		if _, err := n.fs.Open("nope"); !errors.Is(err, vfs.ErrNotExist) {
			t.Errorf("Open: %v", err)
		}
		if _, err := n.fs.OpenRange("nope", 0, 0); !errors.Is(err, vfs.ErrNotExist) {
			t.Errorf("OpenRange: %v", err)
		}
		if _, err := n.fs.Size("nope"); !errors.Is(err, vfs.ErrNotExist) {
			t.Errorf("Size: %v", err)
		}
		if _, err := n.fs.Create(""); err == nil {
			t.Error(`Create("") must fail`)
		}
		if _, err := n.fs.CreateSparse("", 1); err == nil {
			t.Error(`CreateSparse("") must fail`)
		}
		if _, err := n.fs.CreateSparse("s", -1); err == nil {
			t.Error("CreateSparse of a negative size must fail")
		}
	})
}

// TestCapacityEnforced, TestOverwriteReleasesOld and
// TestStreamingWriterAbort are the streaming half of the capacity rule on
// a card: a write fails at the chunk that no longer fits, a failed or
// aborted write holds nothing, and removing or replacing a file releases
// its bytes.
func TestCapacityEnforced(t *testing.T) {
	bud := phi.NewMemBudget(1000)
	fs := vfs.NewCard(simclock.Default(), bud)
	if _, err := fs.WriteFile("a", blob.Zeros(600)); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteFile("b", blob.Zeros(600)); !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	if bud.Used() != 600 {
		t.Errorf("budget used = %d after failed write, want 600", bud.Used())
	}
	if err := fs.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteFile("b", blob.Zeros(600)); err != nil {
		t.Fatalf("retry after remove failed: %v", err)
	}
}

func TestOverwriteReleasesOld(t *testing.T) {
	bud := phi.NewMemBudget(1000)
	fs := vfs.NewCard(simclock.Default(), bud)
	if _, err := fs.WriteFile("f", blob.Zeros(700)); err != nil {
		t.Fatal(err)
	}
	// Replacing needs old and new at once: 700 + 200 fits in 1000.
	if _, err := fs.WriteFile("f", blob.Zeros(200)); err != nil {
		t.Fatal(err)
	}
	if bud.Used() != 200 {
		t.Errorf("budget used = %d after overwrite, want 200", bud.Used())
	}
	if sz, err := fs.Size("f"); err != nil || sz != 200 {
		t.Errorf("Size(f) = %d, %v, want 200", sz, err)
	}
}

func TestStreamingWriterAbort(t *testing.T) {
	bud := phi.NewMemBudget(1000)
	fs := vfs.NewCard(simclock.Default(), bud)
	w, err := fs.Create("big")
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		_, err := w.WriteBlob(blob.Zeros(400))
		if fits := i < 2; (err == nil) != fits {
			t.Fatalf("chunk %d: err = %v, want fits = %v", i, err, fits)
		}
	}
	w.Abort()
	if bud.Used() != 0 {
		t.Errorf("budget used = %d after abort, want 0", bud.Used())
	}
	if fs.Exists("big") {
		t.Error("aborted file visible")
	}
}

// TestCardSparseReservation is the sparse half of the capacity rule: a
// sparse file reserves its whole size at CreateSparse, Abort gives it
// back, Commit over an existing file releases the old one, and a sparse
// file larger than the free card memory fails at create.
func TestCardSparseReservation(t *testing.T) {
	bud := phi.NewMemBudget(1000)
	fs := vfs.NewCard(simclock.Default(), bud)
	base := bud.Used()

	sw, err := fs.CreateSparse("/ctx", 300)
	if err != nil {
		t.Fatal(err)
	}
	if bud.Used() != base+300 {
		t.Errorf("budget used = %d after CreateSparse(300), want %d", bud.Used(), base+300)
	}
	if !fs.Exists("/ctx" + vfs.PartialSuffix) {
		t.Error("no partial marker while the sparse writer is open")
	}
	sw.Abort()
	if bud.Used() != base {
		t.Errorf("budget used = %d after Abort, want %d", bud.Used(), base)
	}
	if fs.Exists("/ctx"+vfs.PartialSuffix) || fs.Exists("/ctx") {
		t.Error("aborted sparse file left a trace")
	}

	if _, err := fs.WriteFile("/ctx", blob.Zeros(400)); err != nil {
		t.Fatal(err)
	}
	sw, err = fs.CreateSparse("/ctx", 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.WriteBlobAt(0, blob.Synthetic(3, 100)); err != nil {
		t.Fatal(err)
	}
	if err := sw.Commit(); err != nil {
		t.Fatal(err)
	}
	if bud.Used() != base+100 {
		t.Errorf("budget used = %d after Commit over a 400-byte file, want %d", bud.Used(), base+100)
	}

	if _, err := fs.CreateSparse("/huge", bud.Free()+1); !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("CreateSparse beyond free memory: err = %v, want ErrNoSpace", err)
	}
	if bud.Used() != base+100 || fs.Exists("/huge"+vfs.PartialSuffix) {
		t.Errorf("failed CreateSparse left budget used = %d (want %d) or a partial marker", bud.Used(), base+100)
	}
}

// TestPriceTable holds every operation on both node kinds to its formula,
// the one the separate host and card file systems charged. The model's
// five constants are all distinct, so a price taken from the wrong one
// shows.
func TestPriceTable(t *testing.T) {
	m := *simclock.Default()
	m.HostFSWriteBandwidth = 3 * simclock.GiB
	m.HostFSReadCachedBandwidth = 5 * simclock.GiB
	m.HostFSOpLatency = 41 * time.Microsecond
	m.RamFSBandwidth = 700 * simclock.MiB
	m.RamFSOpLatency = 23 * time.Microsecond
	prices := map[string]struct {
		write, read int64
		op          simclock.Duration
	}{
		"host": {m.HostFSWriteBandwidth, m.HostFSReadCachedBandwidth, m.HostFSOpLatency},
		"card": {m.RamFSBandwidth, m.RamFSBandwidth, m.RamFSOpLatency},
	}
	const size = 10*simclock.MiB + 12345
	content := blob.Synthetic(7, size)
	for _, n := range nodes(&m, 1<<40) {
		t.Run(n.name, func(t *testing.T) {
			p := prices[n.name]
			write, read := simclock.Rate(p.write), simclock.Rate(p.read)
			check := func(op string, got, want simclock.Duration) {
				t.Helper()
				if got != want {
					t.Errorf("%s charged %d ns, want %d", op, got, want)
				}
			}

			d, err := n.fs.WriteFile("/f", content)
			if err != nil {
				t.Fatal(err)
			}
			check("WriteFile", d, write(size)+p.op)
			_, d, err = n.fs.ReadFile("/f")
			if err != nil {
				t.Fatal(err)
			}
			check("ReadFile", d, p.op+read(size))

			w, err := n.fs.Create("/g")
			if err != nil {
				t.Fatal(err)
			}
			d, err = w.WriteBlob(content)
			if err != nil {
				t.Fatal(err)
			}
			check("Writer.WriteBlob", d, write(size))
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			r, err := n.fs.Open("/g")
			if err != nil {
				t.Fatal(err)
			}
			_, d, err = r.Next(simclock.MiB)
			if err != nil {
				t.Fatal(err)
			}
			check("Open+Next", d, read(simclock.MiB))
			r, err = n.fs.OpenRange("/g", simclock.MiB, 5000)
			if err != nil {
				t.Fatal(err)
			}
			_, d, err = r.Next(simclock.MiB)
			if err != nil {
				t.Fatal(err)
			}
			check("OpenRange+Next", d, read(5000))

			sw, err := n.fs.CreateSparse("/s", size)
			if err != nil {
				t.Fatal(err)
			}
			d, err = sw.WriteBlobAt(4096, blob.Synthetic(8, simclock.MiB))
			if err != nil {
				t.Fatal(err)
			}
			check("SparseWriter.WriteBlobAt", d, write(simclock.MiB))
			sw.Abort()
		})
	}
}

const stripeChunk = 4 * simclock.MiB

// assembleStriped writes 4 stripes of n chunks each into one sparse file,
// interleaved chunk by chunk the way parallel streams deliver them, and
// commits it. Chunks are synthetic, so a 4 GiB assembly costs descriptors,
// not bytes.
func assembleStriped(t testing.TB, fs *vfs.FS, n int) {
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
	for range runs {
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
	const chunks = 64
	forEachNode(t, 1<<40, func(t *testing.T, n node) {
		var bytes [2]float64
		for i, c := range []int{chunks, 4 * chunks} {
			bytes[i] = allocBytesPerRun(3, func() { assembleStriped(t, n.fs, c) })
			allocs := testing.AllocsPerRun(3, func() { assembleStriped(t, n.fs, c) })
			t.Logf("4 stripes x %d chunks: %.0f bytes, %.0f allocations", c, bytes[i], allocs)
		}
		if ratio := bytes[1] / bytes[0]; ratio > 5 {
			t.Errorf("4x the chunks allocated %.1fx the bytes, want <= 5x (linear)", ratio)
		}
	})
}

// TestStripedAssemblyContent checks an interleaved assembly, a torn
// chunk replayed whole, and that the file appears only at Commit.
func TestStripedAssemblyContent(t *testing.T) {
	forEachNode(t, 1<<20, func(t *testing.T, n node) {
		sw, err := n.fs.CreateSparse("/snap/ctx", 8)
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
		if _, _, err := n.fs.ReadFile("/snap/ctx"); err == nil {
			t.Error("file visible before Commit")
		}
		if err := sw.Commit(); err != nil {
			t.Fatal(err)
		}
		got, _, err := n.fs.ReadFile("/snap/ctx")
		if err != nil {
			t.Fatal(err)
		}
		if s := string(got.Bytes()); s != "abcdefgh" {
			t.Errorf("assembled %q, want %q", s, "abcdefgh")
		}
		if _, err := sw.WriteBlobAt(0, blob.Zeros(1)); err == nil {
			t.Error("write after Commit succeeded")
		}
		if paths := n.fs.List("/snap/"); len(paths) != 1 || strings.HasSuffix(paths[0], vfs.PartialSuffix) {
			t.Errorf("after Commit the FS holds %v, want only the file", paths)
		}
	})
}
