package blob

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSnapshotRangeMatchesBytes(t *testing.T) {
	buf := NewBuffer(1000, 33)
	buf.WriteAt([]byte("alpha"), 100)
	buf.WriteAt([]byte("beta"), 500)
	whole := buf.Snapshot().Bytes()
	for _, c := range []struct{ off, n int64 }{
		{0, 0}, {0, 1000}, {90, 30}, {100, 5}, {102, 500}, {999, 1},
	} {
		got := buf.SnapshotRange(c.off, c.n).Bytes()
		if !bytes.Equal(got, whole[c.off:c.off+c.n]) {
			t.Errorf("SnapshotRange(%d,%d) mismatch", c.off, c.n)
		}
	}
}

func TestWriteBlobMatchingBackgroundIsFree(t *testing.T) {
	src := NewBuffer(1<<20, 7)
	src.WriteAt([]byte("dirty"), 4096)
	snap := src.Snapshot()

	dst := NewBuffer(1<<20, 7)
	dst.WriteAt(bytes.Repeat([]byte{0xFF}, 1<<20), 0) // fully dirty before the transfer
	dst.WriteBlob(0, snap)
	if dst.DirtyBytes() != 5 {
		t.Errorf("DirtyBytes = %d after background-matching WriteBlob, want 5", dst.DirtyBytes())
	}
	if !Equal(dst.Snapshot(), snap) {
		t.Error("content mismatch after WriteBlob")
	}
}

func TestWriteBlobForeignBackground(t *testing.T) {
	src := NewBuffer(4096, 7)
	src.WriteAt([]byte("x"), 0)
	dst := NewBuffer(8192, 9)
	dst.WriteBlob(2048, src.Snapshot())
	want := src.Snapshot().Bytes()
	got := make([]byte, 4096)
	dst.ReadAt(got, 2048)
	if !bytes.Equal(got, want) {
		t.Error("foreign-background WriteBlob content mismatch")
	}
	// Outside the written window the destination background is intact.
	head := make([]byte, 2048)
	dst.ReadAt(head, 0)
	wantHead := make([]byte, 2048)
	Materialize(9, 0, wantHead)
	if !bytes.Equal(head, wantHead) {
		t.Error("WriteBlob disturbed content outside its range")
	}
}

func TestClearOverlaySplitsSpans(t *testing.T) {
	buf := NewBuffer(100, 5)
	buf.WriteAt(bytes.Repeat([]byte{1}, 50), 10) // overlay [10,60)
	// Write background-matching blob over [20,40): clears that window.
	bg := Synthetic(5, 100).Slice(20, 20)
	buf.WriteBlob(20, bg)
	want := make([]byte, 100)
	Materialize(5, 0, want)
	for i := 10; i < 20; i++ {
		want[i] = 1
	}
	for i := 40; i < 60; i++ {
		want[i] = 1
	}
	got := buf.Snapshot().Bytes()
	if !bytes.Equal(got, want) {
		t.Error("clearOverlay content mismatch")
	}
}

// TestRDMAQuick models RDMA transfers between buffers against flat byte
// slices: WriteBlob(SnapshotRange(...)) must behave exactly like copy().
func TestRDMAQuick(t *testing.T) {
	const size = 2048
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		seedA, seedB := uint64(r.Int63()), uint64(r.Int63())
		a, b := NewBuffer(size, seedA), NewBuffer(size, seedB)
		refA, refB := make([]byte, size), make([]byte, size)
		Materialize(seedA, 0, refA)
		Materialize(seedB, 0, refB)
		for op := 0; op < 30; op++ {
			off := r.Int63n(size)
			n := r.Int63n(size - off)
			dstOff := r.Int63n(size - n + 1)
			switch r.Intn(3) {
			case 0: // app write to a
				p := make([]byte, n)
				r.Read(p)
				a.WriteAt(p, off)
				copy(refA[off:], p)
			case 1: // rdma a[off..] -> b[dstOff..]
				b.WriteBlob(dstOff, a.SnapshotRange(off, n))
				copy(refB[dstOff:dstOff+n], refA[off:off+n])
			case 2: // rdma b[off..] -> a[dstOff..]
				a.WriteBlob(dstOff, b.SnapshotRange(off, n))
				copy(refA[dstOff:dstOff+n], refB[off:off+n])
			}
		}
		return bytes.Equal(a.Snapshot().Bytes(), refA) && bytes.Equal(b.Snapshot().Bytes(), refB)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestZeroSeedExtentIsOffsetFree pins the one invariant behind the
// store-restore path: a seed-0 extent is zeros wherever it is read, so its
// stream offset must never make two zero runs look different. The store
// dedups every zero chunk to one chunk file, so a restore writes chunk k of
// a zero-background region from an extent cut at some unrelated offset.
func TestZeroSeedExtentIsOffsetFree(t *testing.T) {
	// Every way of building a zero extent pins Off to 0.
	z := Zeros(1 << 20)
	for _, b := range []Blob{z.Slice(4096, 8192), NewBuffer(1<<20, 0).SnapshotRange(12345, 100)} {
		for _, e := range b.Extents() {
			if e.Off != 0 {
				t.Fatalf("zero-seed extent built with Off %d, want 0", e.Off)
			}
		}
	}

	// Writing zeros cut at offset 4096 to position 512 KiB of a
	// zero-background buffer is a no-op, and clears any overlay there.
	buf := NewBuffer(1<<20, 0)
	buf.WriteAt([]byte{1, 2, 3}, 512*1024+10)
	buf.WriteBlob(512*1024, z.Slice(4096, 64*1024))
	if got := buf.DirtyBytes(); got != 0 {
		t.Fatalf("zero extent at a foreign offset materialized %d overlay bytes", got)
	}
	// An extent that still carries a nonzero Off (built by hand) is
	// treated the same.
	buf.WriteBlob(0, Blob{extents: []Extent{{Seed: 0, Off: 777, Size: 4096}}, size: 4096})
	if got := buf.DirtyBytes(); got != 0 {
		t.Fatalf("hand-built zero extent materialized %d overlay bytes", got)
	}

	// Equality of zero runs does not depend on where they were cut.
	if !Equal(z.Slice(0, 4096), z.Slice(8192, 4096)) {
		t.Fatal("two zero slices compare unequal")
	}

	// A nonzero seed stays offset-sensitive: its stream differs by offset.
	s := Synthetic(42, 1<<20)
	if Equal(s.Slice(0, 4096), s.Slice(8192, 4096)) {
		t.Fatal("two different windows of a seeded stream compare equal")
	}
	sb := NewBuffer(1<<20, 42)
	sb.WriteBlob(8192, s.Slice(0, 4096))
	if got := sb.DirtyBytes(); got != 4096 {
		t.Fatalf("seeded extent at a foreign offset left %d overlay bytes, want 4096", got)
	}
	sb.WriteBlob(8192, s.Slice(8192, 4096))
	if got := sb.DirtyBytes(); got != 0 {
		t.Fatalf("seeded extent at its own offset left %d overlay bytes, want 0", got)
	}
}
