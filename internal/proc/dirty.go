package proc

import "sort"

// rangeSet tracks dirty byte ranges of a region since the last clean mark,
// coalescing overlapping and adjacent inserts. It backs the incremental
// checkpointing extension: a delta checkpoint serializes only these
// ranges.
type rangeSet struct {
	spans []ByteRange // sorted by Off, non-overlapping, non-adjacent
}

// ByteRange is one contiguous dirty range.
type ByteRange struct {
	Off, Len int64
}

// End returns the exclusive end offset.
func (r ByteRange) End() int64 { return r.Off + r.Len }

// add inserts [off, off+n), merging as needed.
func (s *rangeSet) add(off, n int64) {
	if n <= 0 {
		return
	}
	end := off + n
	lo := sort.Search(len(s.spans), func(i int) bool { return s.spans[i].End() >= off })
	hi := sort.Search(len(s.spans), func(i int) bool { return s.spans[i].Off > end })
	if lo == hi {
		s.spans = append(s.spans, ByteRange{})
		copy(s.spans[lo+1:], s.spans[lo:])
		s.spans[lo] = ByteRange{Off: off, Len: n}
		return
	}
	newOff := s.spans[lo].Off
	if off < newOff {
		newOff = off
	}
	newEnd := s.spans[hi-1].End()
	if end > newEnd {
		newEnd = end
	}
	s.spans[lo] = ByteRange{Off: newOff, Len: newEnd - newOff}
	s.spans = append(s.spans[:lo+1], s.spans[hi:]...)
}

// ranges returns the coalesced dirty ranges.
func (s *rangeSet) ranges() []ByteRange {
	out := make([]ByteRange, len(s.spans))
	copy(out, s.spans)
	return out
}

// reset clears the set.
func (s *rangeSet) reset() { s.spans = nil }
