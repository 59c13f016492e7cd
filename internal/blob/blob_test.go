package blob

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromBytesRoundTrip(t *testing.T) {
	in := []byte("hello snapify")
	b := FromBytes(in)
	if b.Len() != int64(len(in)) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(in))
	}
	if !bytes.Equal(b.Bytes(), in) {
		t.Fatalf("Bytes = %q, want %q", b.Bytes(), in)
	}
	in[0] = 'X' // must not alias
	if b.Bytes()[0] == 'X' {
		t.Fatal("FromBytes aliases caller's slice")
	}
}

func TestZerosAndSynthetic(t *testing.T) {
	z := Zeros(100)
	for i, v := range z.Bytes() {
		if v != 0 {
			t.Fatalf("Zeros[%d] = %d", i, v)
		}
	}
	s := Synthetic(42, 100)
	if bytes.Equal(s.Bytes(), z.Bytes()) {
		t.Fatal("seeded synthetic equals zeros")
	}
	s2 := Synthetic(42, 100)
	if !bytes.Equal(s.Bytes(), s2.Bytes()) {
		t.Fatal("synthetic content not deterministic")
	}
}

func TestSliceMatchesBytes(t *testing.T) {
	b := Concat(FromBytes([]byte("abcdefgh")), Synthetic(7, 64), FromBytes([]byte("XYZ")))
	whole := b.Bytes()
	for _, c := range []struct{ off, n int64 }{
		{0, 0}, {0, 8}, {3, 10}, {8, 64}, {70, 5}, {0, 75}, {74, 1},
	} {
		got := b.Slice(c.off, c.n).Bytes()
		want := whole[c.off : c.off+c.n]
		if !bytes.Equal(got, want) {
			t.Errorf("Slice(%d,%d) = %q, want %q", c.off, c.n, got, want)
		}
	}
}

func TestSliceOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Zeros(10).Slice(5, 6)
}

func TestEqualFastPathAndMixed(t *testing.T) {
	a := Synthetic(5, 1000)
	b := Synthetic(5, 1000)
	if !Equal(a, b) {
		t.Fatal("identical synthetic blobs not equal")
	}
	// Mixed: literal copy of synthetic content must compare equal.
	lit := FromBytes(a.Bytes())
	if !Equal(a, lit) {
		t.Fatal("literal materialization not equal to synthetic source")
	}
	// Shifted synthetic stream differs.
	c := Synthetic(5, 1001).Slice(1, 1000)
	if Equal(a, c) {
		t.Fatal("shifted synthetic stream compared equal")
	}
	if Equal(a, Zeros(1000)) {
		t.Fatal("seeded synthetic equals zeros")
	}
	if Equal(a, Synthetic(5, 999)) {
		t.Fatal("different sizes compared equal")
	}
}

func TestLiteralBytes(t *testing.T) {
	b := Concat(FromBytes(make([]byte, 100)), Synthetic(1, 900))
	if b.LiteralBytes() != 100 {
		t.Fatalf("LiteralBytes = %d, want 100", b.LiteralBytes())
	}
	if b.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", b.Len())
	}
}

func TestHashDistinguishesContent(t *testing.T) {
	a := Synthetic(5, 4096)
	if a.Hash() != FromBytes(a.Bytes()).Hash() {
		t.Fatal("hash depends on representation, not content")
	}
	if a.Hash() == Synthetic(6, 4096).Hash() {
		t.Fatal("different seeds hash equal")
	}
}

func TestForEachChunk(t *testing.T) {
	b := Synthetic(3, 10*1024)
	var got []byte
	var sizes []int64
	err := b.ForEachChunk(4096, func(c Blob) error {
		got = append(got, c.Bytes()...)
		sizes = append(sizes, c.Len())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, b.Bytes()) {
		t.Fatal("chunked content differs from whole")
	}
	want := []int64{4096, 4096, 2048}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("chunk sizes = %v, want %v", sizes, want)
		}
	}
}

func TestBufferWriteReadBasic(t *testing.T) {
	buf := NewBuffer(64, 0)
	buf.WriteAt([]byte("abc"), 10)
	p := make([]byte, 5)
	buf.ReadAt(p, 9)
	if !bytes.Equal(p, []byte{0, 'a', 'b', 'c', 0}) {
		t.Fatalf("ReadAt = %v", p)
	}
}

func TestBufferMergeAdjacentAndOverlapping(t *testing.T) {
	buf := NewBuffer(100, 0)
	buf.WriteAt([]byte("aaaa"), 10) // [10,14)
	buf.WriteAt([]byte("bbbb"), 14) // adjacent -> [10,18)
	buf.WriteAt([]byte("cc"), 12)   // overlap inside
	// The content merges; the spans do not: one literal extent per span.
	if lits := literalExtents(buf.Snapshot()); lits != 2 {
		t.Fatalf("two adjacent spans snapshot as %d literal extents, want 2", lits)
	}
	p := make([]byte, 8)
	buf.ReadAt(p, 10)
	if string(p) != "aaccbbbb" {
		t.Fatalf("content = %q", p)
	}
	if buf.DirtyBytes() != 8 {
		t.Fatalf("DirtyBytes = %d, want 8", buf.DirtyBytes())
	}
}

func TestBufferSnapshotRestoreRoundTrip(t *testing.T) {
	buf := NewBuffer(1<<16, 77)
	buf.WriteAt([]byte("snapshot me"), 1234)
	buf.WriteAt(bytes.Repeat([]byte{0xAB}, 100), 40000)
	snap := buf.Snapshot()
	if snap.Len() != buf.Size() {
		t.Fatalf("snapshot len %d != size %d", snap.Len(), buf.Size())
	}

	// Restore into a fresh buffer with the same background seed.
	fresh := NewBuffer(1<<16, 77)
	fresh.WriteBlob(0, snap)
	if !Equal(fresh.Snapshot(), snap) {
		t.Fatal("restore(snapshot) not content-identical")
	}
	// The restore must collapse background extents, not materialize 64 KiB.
	if fresh.DirtyBytes() != buf.DirtyBytes() {
		t.Fatalf("restore dirty bytes %d, want %d", fresh.DirtyBytes(), buf.DirtyBytes())
	}

	// Restore into a buffer with a different seed: still content-identical,
	// now fully materialized.
	alien := NewBuffer(1<<16, 99)
	alien.WriteBlob(0, snap)
	if !Equal(alien.Snapshot(), snap) {
		t.Fatal("cross-seed restore not content-identical")
	}
}

func TestBufferOutOfRangePanics(t *testing.T) {
	buf := NewBuffer(10, 0)
	for _, f := range []func(){
		func() { buf.WriteAt([]byte("xyz"), 8) },
		func() { buf.ReadAt(make([]byte, 3), 8) },
		func() { buf.WriteAt([]byte("x"), -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic on out-of-range access")
				}
			}()
			f()
		}()
	}
}

// TestBufferQuickAgainstReference drives a Buffer and a plain []byte
// reference model with identical random operations and requires identical
// observable content throughout.
func TestBufferQuickAgainstReference(t *testing.T) {
	const size = 4096
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		bg := uint64(r.Int63())
		buf := NewBuffer(size, bg)
		ref := make([]byte, size)
		Materialize(bg, 0, ref)
		for op := 0; op < 50; op++ {
			off := r.Int63n(size)
			n := r.Int63n(size - off)
			switch r.Intn(3) {
			case 0: // write
				p := make([]byte, n)
				r.Read(p)
				buf.WriteAt(p, off)
				copy(ref[off:], p)
			case 1: // read
				p := make([]byte, n)
				buf.ReadAt(p, off)
				if !bytes.Equal(p, ref[off:off+n]) {
					return false
				}
			case 2: // snapshot + restore into clone
				snap := buf.Snapshot()
				if !bytes.Equal(snap.Bytes(), ref) {
					return false
				}
				clone := NewBuffer(size, bg)
				clone.WriteBlob(0, snap)
				if !bytes.Equal(clone.Snapshot().Bytes(), ref) {
					return false
				}
			}
		}
		return bytes.Equal(buf.Snapshot().Bytes(), ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSliceQuick verifies Slice against materialized content for random
// extent mixes.
func TestSliceQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var parts []Blob
		for i := 0; i < 1+r.Intn(6); i++ {
			if r.Intn(2) == 0 {
				p := make([]byte, 1+r.Intn(200))
				r.Read(p)
				parts = append(parts, FromBytes(p))
			} else {
				parts = append(parts, Synthetic(uint64(r.Int63()), int64(1+r.Intn(200))))
			}
		}
		b := Concat(parts...)
		whole := b.Bytes()
		for i := 0; i < 20; i++ {
			off := r.Int63n(b.Len() + 1)
			n := r.Int63n(b.Len() - off + 1)
			s := b.Slice(off, n)
			if s.Len() != n {
				return false
			}
			if !bytes.Equal(s.Bytes(), whole[off:off+n]) {
				return false
			}
			if !Equal(s, FromBytes(whole[off:off+n])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMaterializeWindowIndependence(t *testing.T) {
	// Materializing in windows must agree with one shot, at any alignment.
	whole := make([]byte, 257)
	Materialize(11, 3, whole)
	for w := 1; w <= 64; w *= 4 {
		got := make([]byte, len(whole))
		for off := 0; off < len(whole); off += w {
			end := off + w
			if end > len(whole) {
				end = len(whole)
			}
			Materialize(11, 3+int64(off), got[off:end])
		}
		if !bytes.Equal(got, whole) {
			t.Fatalf("window %d materialization differs", w)
		}
	}
}
