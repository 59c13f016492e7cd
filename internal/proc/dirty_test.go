package proc

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"snapify/internal/blob"
	"snapify/internal/phi"
)

// blobOf returns n literal bytes.
func blobOf(n int) blob.Blob { return blob.FromBytes(make([]byte, n)) }

func TestRangeSetCoalescing(t *testing.T) {
	var s rangeSet
	s.add(10, 5) // [10,15)
	s.add(20, 5) // [10,15) [20,25)
	s.add(15, 5) // adjacent: [10,25)
	if got := s.ranges(); len(got) != 1 || got[0] != (ByteRange{10, 15}) {
		t.Fatalf("ranges = %v", got)
	}
	s.add(5, 2) // [5,7) [10,25)
	s.add(0, 1) // [0,1) [5,7) [10,25)
	if got := s.ranges(); len(got) != 3 {
		t.Fatalf("ranges = %v", got)
	}
	s.add(0, 30) // swallow everything
	if got := s.ranges(); len(got) != 1 || got[0] != (ByteRange{0, 30}) {
		t.Fatalf("ranges = %v", got)
	}
	if spanBytes(s.spans) != 30 {
		t.Fatalf("bytes = %d", spanBytes(s.spans))
	}
	s.reset()
	if len(s.ranges()) != 0 || spanBytes(s.spans) != 0 {
		t.Fatal("reset did not clear")
	}
	s.add(3, 0) // no-op
	if len(s.ranges()) != 0 {
		t.Fatal("zero-length add changed the set")
	}
}

// TestRangeSetQuickAgainstBitmap compares the range set against a boolean
// bitmap reference under random inserts.
func TestRangeSetQuickAgainstBitmap(t *testing.T) {
	const size = 2048
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var s rangeSet
		ref := make([]bool, size)
		for op := 0; op < 40; op++ {
			off := r.Int63n(size)
			n := r.Int63n(size - off)
			s.add(off, n)
			for i := off; i < off+n; i++ {
				ref[i] = true
			}
		}
		// Same total coverage.
		var want int64
		for _, b := range ref {
			if b {
				want++
			}
		}
		if spanBytes(s.spans) != want {
			return false
		}
		// Ranges are sorted, disjoint, non-adjacent, and cover exactly ref.
		got := make([]bool, size)
		prevEnd := int64(-1)
		for _, rg := range s.ranges() {
			if rg.Off <= prevEnd {
				return false // overlapping or adjacent (should have merged)
			}
			prevEnd = rg.End()
			for i := rg.Off; i < rg.End(); i++ {
				got[i] = true
			}
		}
		for i := range ref {
			if ref[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRegionDirtyTracking(t *testing.T) {
	p := New("p", 1, 1, phi.NewMemBudget(1<<40))
	r, _ := p.AddRegion("heap", RegionHeap, 4096, 0)
	if spanBytes(r.DirtyRanges()) != 0 {
		t.Fatal("fresh region dirty")
	}
	r.WriteAt([]byte("abc"), 100)
	r.WriteAt(bytes.Repeat([]byte{1}, 50), 200)
	if got := spanBytes(r.DirtyRanges()); got != 53 {
		t.Fatalf("dirty = %d, want 53", got)
	}
	r.MarkClean()
	if spanBytes(r.DirtyRanges()) != 0 {
		t.Fatal("MarkClean did not clear")
	}
	// Overlapping rewrite counts once.
	r.WriteAt(make([]byte, 100), 0)
	r.WriteAt(make([]byte, 100), 50)
	if got := spanBytes(r.DirtyRanges()); got != 150 {
		t.Fatalf("dirty = %d, want 150", got)
	}
}

// TestEpochTrackerArmsLazily: a region nobody has cut records nothing in
// the digest-epoch set however much it is written; the first cut arms it
// and reports the whole region, and from then on every mutator feeds it.
func TestEpochTrackerArmsLazily(t *testing.T) {
	r := newRegion("r", RegionHeap, 64*1024, 0)
	for i := 0; i < 100; i++ {
		r.WriteAt([]byte{1, 2, 3}, int64(i)*97)
	}
	if r.epoch != nil {
		t.Fatal("writes armed the epoch tracker before any cut")
	}
	if got := r.CutEpoch(); len(got) != 1 || got[0] != (ByteRange{0, 64 * 1024}) {
		t.Fatalf("first cut = %v, want the whole region", got)
	}
	if got := r.CutEpoch(); len(got) != 0 {
		t.Fatalf("cut with no write in between = %v, want empty", got)
	}

	r.WriteAt([]byte{9}, 5000)                             // page 1
	r.WriteAt(bytes.Repeat([]byte{7}, 20), 3*EpochPage+10) // page 3
	r.WriteBlob(8*EpochPage-1, blobOf(2))                  // straddles pages 7 and 8
	want := []ByteRange{{EpochPage, EpochPage}, {3 * EpochPage, EpochPage}, {7 * EpochPage, 2 * EpochPage}}
	got := r.CutEpoch()
	if len(got) != len(want) {
		t.Fatalf("cut = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cut = %v, want %v", got, want)
		}
	}
	r.WriteBlob(0, blobOf(64*1024))
	if got := r.CutEpoch(); len(got) != 1 || got[0] != (ByteRange{0, 64 * 1024}) {
		t.Fatalf("cut after a whole-region write = %v, want the whole region", got)
	}

	r.DropEpoch()
	r.WriteAt([]byte{1}, 0)
	if r.epoch != nil {
		t.Fatal("a dropped tracker must stay disarmed until the next cut")
	}
}

// TestEpochTrackerCoalesces: a long-running writer hammering a hot area
// keeps the armed tracker at O(1) spans, and a region whose size is not a
// page multiple never reports a range past its end.
func TestEpochTrackerCoalesces(t *testing.T) {
	r := newRegion("hot", RegionHeap, 10*EpochPage+100, 0)
	r.CutEpoch()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		r.WriteAt([]byte{byte(i)}, 2*EpochPage+rng.Int63n(3*EpochPage))
	}
	if n := len(r.epoch.spans); n != 1 {
		t.Fatalf("hot region holds %d spans after 10000 writes, want 1", n)
	}
	r.WriteAt([]byte{1}, 10*EpochPage+99)
	got := r.CutEpoch()
	if len(got) != 2 || got[0] != (ByteRange{2 * EpochPage, 3 * EpochPage}) || got[1] != (ByteRange{10 * EpochPage, 100}) {
		t.Fatalf("cut = %v", got)
	}
}

// TestEpochIndependentOfMarkClean: the delta checkpoint's clean mark and
// the digest epoch's cut are separate ledgers of the same writes.
func TestEpochIndependentOfMarkClean(t *testing.T) {
	r := newRegion("r", RegionHeap, 8*EpochPage, 0)
	r.MarkClean()
	r.CutEpoch()
	r.WriteAt([]byte{1}, 100)
	r.MarkClean()
	r.WriteAt([]byte{2}, 5*EpochPage)
	if got := r.CutEpoch(); len(got) != 2 {
		t.Fatalf("MarkClean hid a write from the epoch: cut = %v", got)
	}
	if got := r.DirtyRanges(); len(got) != 1 || got[0] != (ByteRange{5 * EpochPage, 1}) {
		t.Fatalf("CutEpoch disturbed the delta ledger: dirty = %v", got)
	}
	r.WriteAt([]byte{3}, 200)
	if got := r.DirtyRanges(); len(got) != 2 {
		t.Fatalf("delta ledger after a cut = %v, want both writes since MarkClean", got)
	}
}

// spanBytes is the total length of a set of ranges.
func spanBytes(rs []ByteRange) int64 {
	var n int64
	for _, r := range rs {
		n += r.Len
	}
	return n
}
