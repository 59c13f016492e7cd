package blob

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomBlob returns an n-byte blob of one to three extents, each literal,
// a slice of a seeded synthetic stream, or zeros.
func randomBlob(r *rand.Rand, n int64) Blob {
	var parts []Blob
	for n > 0 {
		k := 1 + r.Int63n(n)
		if len(parts) == 2 {
			k = n
		}
		switch r.Intn(3) {
		case 0:
			p := make([]byte, k)
			r.Read(p)
			parts = append(parts, FromBytes(p))
		case 1:
			skip := r.Int63n(64)
			parts = append(parts, Synthetic(uint64(1+r.Intn(3)), skip+k).Slice(skip, k))
		default:
			parts = append(parts, Zeros(k))
		}
		n -= k
	}
	return Concat(parts...)
}

// TestSparseQuickAgainstFlat drives Sparse with random positioned writes
// (overlapping rewrites included) and checks every read against a flat
// byte model, and the assembled extents against the Splice chain the
// striped writers used to build.
func TestSparseQuickAgainstFlat(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		size := r.Int63n(4096)
		s := NewSparse(size)
		ref := make([]byte, size)
		chain := Zeros(size)
		for i := 0; i < 20; i++ {
			off := r.Int63n(size + 1)
			src := randomBlob(r, r.Int63n(size-off+1))
			s.WriteAt(off, src)
			copy(ref[off:], src.Bytes())
			if src.Len() > 0 { // Splice of nothing still splits an extent
				chain = Splice(chain, off, src)
			}

			lo := r.Int63n(size + 1)
			n := r.Int63n(size - lo + 1)
			if got := s.Slice(lo, n); got.Len() != n || !bytes.Equal(got.Bytes(), ref[lo:lo+n]) {
				t.Logf("seed %d: Slice(%d, %d) differs from the model", seed, lo, n)
				return false
			}
		}
		got := s.Blob()
		if got.Len() != size || !bytes.Equal(got.Bytes(), ref) {
			t.Logf("seed %d: Blob differs from the model", seed)
			return false
		}
		if !reflect.DeepEqual(got.Extents(), chain.Extents()) {
			t.Logf("seed %d: extents %v, Splice chain %v", seed, got.Extents(), chain.Extents())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSparseStripedReplay replays the stripe sink's injected fault: a
// chunk lands half-written, then the whole chunk is sent again at the same
// offset, while another stripe fills the rest. The replay must win and
// leave no trace of the torn write.
func TestSparseStripedReplay(t *testing.T) {
	const chunk = 64
	s := NewSparse(4 * chunk)
	ref := make([]byte, 4*chunk)
	write := func(off int64, b Blob) {
		s.WriteAt(off, b)
		copy(ref[off:], b.Bytes())
	}
	for stripe := int64(0); stripe < 4; stripe++ {
		whole := Synthetic(uint64(10+stripe), chunk)
		if stripe == 2 {
			torn := make([]byte, chunk/2)
			for i := range torn {
				torn[i] = 0xEE
			}
			write(stripe*chunk, FromBytes(torn))
		}
		write(stripe*chunk, whole)
	}
	if !bytes.Equal(s.Blob().Bytes(), ref) {
		t.Fatal("replayed assembly differs from the model")
	}
	if got := s.Blob().LiteralBytes(); got != 0 {
		t.Errorf("literal bytes = %d, want 0: the replay must replace the torn write", got)
	}
	if len(s.pieces) != 4 {
		t.Errorf("pieces = %d, want one per chunk", len(s.pieces))
	}
}

func TestSparsePreservesSyntheticExtents(t *testing.T) {
	s := NewSparse(1 << 20)
	s.WriteAt(0, Synthetic(9, 1<<20))
	s.WriteAt(1000, FromBytes(make([]byte, 64)))
	if got := s.Blob().LiteralBytes(); got != 64 {
		t.Errorf("literal bytes = %d, want 64 (background must stay synthetic)", got)
	}
}

func TestSparseOutOfRangePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"negative size":    func() { NewSparse(-1) },
		"write past end":   func() { NewSparse(5).WriteAt(3, Zeros(3)) },
		"write before 0":   func() { NewSparse(5).WriteAt(-1, Zeros(1)) },
		"slice past end":   func() { NewSparse(5).Slice(3, 3) },
		"slice before 0":   func() { NewSparse(5).Slice(-1, 1) },
		"negative slice n": func() { NewSparse(5).Slice(2, -1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f()
		})
	}
}
