package blob

import (
	"fmt"
	"slices"
	"sort"
)

// Sparse is a fixed-size content assembled from positioned blob writes,
// such as the stripes of one snapshot arriving over parallel streams.
// Ranges never written read as zeros.
//
// It keeps Buffer's sorted-span discipline over immutable blobs: a write
// binary-searches the pieces it overlaps, trims the two at its edges, and
// replaces the covered run in place, so its cost is logarithmic in the
// number of pieces plus the size of the run it covers — never the size of
// the whole assembly. Extents pass through as they are, so synthetic
// background is never materialized.
//
// Sparse is not safe for concurrent use.
type Sparse struct {
	size   int64
	pieces []piece // sorted by off, non-overlapping, non-empty; may be adjacent
}

type piece struct {
	off int64
	b   Blob
}

func (p piece) end() int64 { return p.off + p.b.size }

// NewSparse returns an all-zero Sparse of size bytes.
func NewSparse(size int64) *Sparse {
	if size < 0 {
		panic(fmt.Sprintf("blob: negative sparse size %d", size)) //nolint:paniclib // caller bug: a negative size is unconstructible input, not a runtime condition
	}
	return &Sparse{size: size}
}

// Len returns the content size in bytes.
func (s *Sparse) Len() int64 { return s.size }

// search returns the index of the first piece ending after off.
func (s *Sparse) search(off int64) int {
	return sort.Search(len(s.pieces), func(i int) bool { return s.pieces[i].end() > off })
}

// WriteAt replaces [off, off+src.Len()) with src; where it overlaps an
// earlier write, the later one wins.
func (s *Sparse) WriteAt(off int64, src Blob) {
	end := off + src.size
	if off < 0 || end > s.size {
		panic(fmt.Sprintf("blob: sparse write [%d,%d) out of range of %d", off, end, s.size)) //nolint:paniclib // caller bug: write bounds, mirroring built-in slice semantics
	}
	if src.size == 0 {
		return
	}
	lo := s.search(off)
	hi := lo + sort.Search(len(s.pieces)-lo, func(i int) bool { return s.pieces[lo+i].off >= end })
	var edges [3]piece
	repl := edges[:0]
	if lo < hi && s.pieces[lo].off < off {
		p := s.pieces[lo]
		repl = append(repl, piece{off: p.off, b: p.b.Slice(0, off-p.off)})
	}
	repl = append(repl, piece{off: off, b: src})
	if lo < hi && s.pieces[hi-1].end() > end {
		p := s.pieces[hi-1]
		repl = append(repl, piece{off: end, b: p.b.Slice(end-p.off, p.end()-end)})
	}
	s.pieces = slices.Replace(s.pieces, lo, hi, repl...)
}

// Slice returns the content of [off, off+n). It panics if the range is out
// of bounds.
func (s *Sparse) Slice(off, n int64) Blob {
	end := off + n
	if off < 0 || n < 0 || end > s.size {
		panic(fmt.Sprintf("blob: sparse slice [%d,%d) out of range of %d", off, end, s.size)) //nolint:paniclib // caller bug: slice bounds, mirroring built-in slice semantics
	}
	if n == 0 {
		return Blob{}
	}
	first := s.search(off)
	if first < len(s.pieces) && s.pieces[first].off <= off && end <= s.pieces[first].end() {
		p := s.pieces[first] // the range lies inside one piece: slice it
		return p.b.Slice(off-p.off, n)
	}
	var out []Extent
	pos := off
	for i := first; i < len(s.pieces) && s.pieces[i].off < end; i++ {
		p := s.pieces[i]
		if p.off > pos {
			out = append(out, Extent{Size: p.off - pos})
			pos = p.off
		}
		take := min(p.end(), end) - pos
		out = p.b.appendRange(out, pos-p.off, take)
		pos += take
	}
	if pos < end {
		out = append(out, Extent{Size: end - pos})
	}
	return Blob{extents: out, size: n}
}

// Blob returns the whole content, concatenating the pieces once.
func (s *Sparse) Blob() Blob { return s.Slice(0, s.size) }
