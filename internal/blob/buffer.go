package blob

import (
	"fmt"
	"slices"
	"sort"
)

// Buffer is a mutable, fixed-size memory content: a synthetic background
// (what the memory held when allocated) plus an overlay of every range the
// application has actually written. It is the content representation of a
// simulated process's memory regions and COI buffers.
//
// Three cost rules keep it at memory speed:
//
//   - A written byte is copied once: in place into the span that covers
//     it, or into a fresh span of exactly the range it lands in when that
//     range is a gap or a span shared with a Blob. Spans are never regrown
//     or merged.
//   - Literal bytes are shared, never copied, between a Buffer and the
//     Blobs it gives out or takes in: a snapshot's literal extents alias
//     the spans they come from, and WriteBlob adopts a literal extent as a
//     span. Either marks the span shared, and a later write into a shared
//     span copies only the bytes it writes (the Blob stays immutable).
//   - A read generates background only where no span covers it.
//
// Buffer is not safe for concurrent use, including concurrent snapshots
// (a snapshot marks spans shared); the owning process model serializes
// access (a real process's memory has no internal locking either).
type Buffer struct {
	size   int64
	seed   uint64
	writes []span // sorted by off, non-overlapping, non-empty; may be adjacent
}

type span struct {
	off  int64
	data []byte
	// shared means a Blob may alias data: it is read-only, and a write
	// into it goes to a fresh span instead (copy on write).
	shared bool
}

func (w span) end() int64 { return w.off + int64(len(w.data)) }

// NewBuffer returns a Buffer of size bytes of background content seed
// (seed 0 = zero-filled, like fresh anonymous memory).
func NewBuffer(size int64, seed uint64) *Buffer {
	if size < 0 {
		panic(fmt.Sprintf("blob: negative buffer size %d", size)) //nolint:paniclib // caller bug: a negative size is unconstructible input, not a runtime condition
	}
	return &Buffer{size: size, seed: seed}
}

// Size returns the buffer size in bytes.
func (b *Buffer) Size() int64 { return b.size }

// DirtyBytes returns the number of overlay (written) bytes.
func (b *Buffer) DirtyBytes() int64 {
	var n int64
	for _, w := range b.writes {
		n += int64(len(w.data))
	}
	return n
}

// Untouched reports whether no byte of [off, off+n) was written: the
// range still holds the background it was allocated with. A WriteBlob of
// that same background counts as no write (it clears the overlay).
func (b *Buffer) Untouched(off, n int64) bool {
	end := off + n
	if off < 0 || n < 0 || end > b.size {
		panic(fmt.Sprintf("blob: Untouched [%d,%d) out of range of %d", off, end, b.size)) //nolint:paniclib // caller bug: query bounds, mirroring built-in slice semantics
	}
	i := b.search(off)
	return i == len(b.writes) || b.writes[i].off >= end
}

// search returns the index of the first span ending after off.
func (b *Buffer) search(off int64) int {
	return sort.Search(len(b.writes), func(i int) bool { return b.writes[i].end() > off })
}

// WriteAt copies p into the buffer at off: in place wherever an unshared
// span already covers the range, into a fresh span of exactly its length
// for each gap and for each part of a shared span it writes.
func (b *Buffer) WriteAt(p []byte, off int64) {
	end := off + int64(len(p))
	if off < 0 || end > b.size {
		panic(fmt.Sprintf("blob: write [%d,%d) out of range of %d", off, end, b.size)) //nolint:paniclib // caller bug: write bounds, mirroring built-in slice semantics
	}
	for i, pos := b.search(off), off; pos < end; {
		stop := end
		if i < len(b.writes) {
			switch w := b.writes[i]; {
			case w.off > pos: // a gap
				stop = min(stop, w.off)
			case !w.shared:
				pos += int64(copy(w.data[pos-w.off:], p[pos-off:]))
				i++
				continue
			default:
				stop = min(stop, w.end())
			}
		}
		i = b.replace(i, pos, stop, span{off: pos, data: slices.Clone(p[pos-off : stop-off])})
		pos = stop
	}
}

// ReadAt fills p with buffer content at off: overlay bytes are copied, and
// background is generated only for the gaps between spans.
func (b *Buffer) ReadAt(p []byte, off int64) {
	end := off + int64(len(p))
	if off < 0 || end > b.size {
		panic(fmt.Sprintf("blob: read [%d,%d) out of range of %d", off, end, b.size)) //nolint:paniclib // caller bug: read bounds, mirroring built-in slice semantics
	}
	pos := off
	for i := b.search(off); i < len(b.writes) && b.writes[i].off < end; i++ {
		w := b.writes[i]
		if w.off > pos {
			Materialize(b.seed, pos, p[pos-off:w.off-off])
			pos = w.off
		}
		pos += int64(copy(p[pos-off:], w.data[pos-w.off:]))
	}
	Materialize(b.seed, pos, p[pos-off:])
}

// Snapshot returns an immutable Blob of the buffer's current content:
// literal extents for written ranges, synthetic extents for untouched
// background.
func (b *Buffer) Snapshot() Blob { return b.SnapshotRange(0, b.size) }

// WriteBlob writes src into the buffer at off. A literal extent replaces
// the overlay under it with one shared span aliasing the extent's bytes (a
// restore adopts what it receives instead of copying it); a synthetic
// extent that already matches the buffer's own background at that position
// is a no-op (this is the fast path that lets RDMA transfers and restores
// of mostly-untouched gigabyte regions stay cheap); any other synthetic
// extent is materialized in bounded windows.
func (b *Buffer) WriteBlob(off int64, src Blob) {
	if off < 0 || off+src.Len() > b.size {
		panic(fmt.Sprintf("blob: WriteBlob [%d,%d) out of range of %d", off, off+src.Len(), b.size)) //nolint:paniclib // caller bug: write bounds, mirroring built-in slice semantics
	}
	pos := off
	for _, e := range src.Extents() {
		switch {
		case e.IsLiteral():
			b.replace(b.search(pos), pos, pos+e.Size, span{off: pos, data: e.Literal[:e.Size:e.Size], shared: true})
		case e.Seed == b.seed && streamOff(e.Seed, e.Off) == streamOff(b.seed, pos):
			// Identical background: nothing to write, but any overlay
			// previously covering this range must be cleared so the
			// background shows through again.
			b.replace(b.search(pos), pos, pos+e.Size)
		default:
			buf := make([]byte, cmpChunk)
			for done := int64(0); done < e.Size; {
				n := e.Size - done
				if n > cmpChunk {
					n = cmpChunk
				}
				Materialize(e.Seed, e.Off+done, buf[:n])
				b.WriteAt(buf[:n], pos+done)
				done += n
			}
		}
		pos += e.Size
	}
}

// replace swaps the overlay over [off, end) for mid, which must lie within
// it; lo is the index of the first span ending after off. A span crossing
// either edge is trimmed to its part outside the range and keeps its
// shared flag. It returns the index of the first span at or after end.
func (b *Buffer) replace(lo int, off, end int64, mid ...span) int {
	hi := lo
	for hi < len(b.writes) && b.writes[hi].off < end {
		hi++
	}
	var partsBuf [3]span
	parts := partsBuf[:0]
	if lo < hi && b.writes[lo].off < off {
		w := b.writes[lo]
		parts = append(parts, span{off: w.off, data: w.data[: off-w.off : off-w.off], shared: w.shared})
	}
	parts = append(parts, mid...)
	next := lo + len(parts)
	if lo < hi && b.writes[hi-1].end() > end {
		w := b.writes[hi-1]
		parts = append(parts, span{off: end, data: w.data[end-w.off:], shared: w.shared})
	}
	b.writes = slices.Replace(b.writes, lo, hi, parts...)
	return next
}

// SnapshotRange returns an immutable Blob of the buffer content in
// [off, off+n): one literal extent aliasing each span it covers (the span
// becomes shared; nothing is copied), one synthetic extent per gap.
func (b *Buffer) SnapshotRange(off, n int64) Blob {
	end := off + n
	if off < 0 || n < 0 || end > b.size {
		panic(fmt.Sprintf("blob: SnapshotRange [%d,%d) out of range of %d", off, end, b.size)) //nolint:paniclib // caller bug: snapshot bounds, mirroring built-in slice semantics
	}
	if n == 0 {
		return Blob{}
	}
	// The range touches at most the spans [lo, hi]: each gives an extent,
	// and so does a gap before each and after the last.
	lo, hi := b.search(off), b.search(end)
	out := Blob{extents: make([]Extent, 0, 2*(hi-lo)+3), size: n}
	pos := off
	for i := lo; i < len(b.writes) && b.writes[i].off < end; i++ {
		w := &b.writes[i]
		if w.off > pos {
			out.extents = append(out.extents, Extent{Seed: b.seed, Off: streamOff(b.seed, pos), Size: w.off - pos})
			pos = w.off
		}
		a, z := pos-w.off, min(w.end(), end)-w.off
		// A capped capacity keeps a consumer's append off the span.
		out.extents = append(out.extents, Extent{Literal: w.data[a:z:z], Size: z - a})
		w.shared = true
		pos = w.off + z
	}
	if pos < end {
		out.extents = append(out.extents, Extent{Seed: b.seed, Off: streamOff(b.seed, pos), Size: end - pos})
	}
	return out
}

// Visit calls fn with the content of [off, off+n) in order, as consecutive
// slices: span bytes in place, background generated into a scratch of at
// most visitScratch bytes. fn must not modify or retain its argument.
func (b *Buffer) Visit(off, n int64, fn func(p []byte)) {
	end := off + n
	if off < 0 || n < 0 || end > b.size {
		panic(fmt.Sprintf("blob: Visit [%d,%d) out of range of %d", off, end, b.size)) //nolint:paniclib // caller bug: visit bounds, mirroring built-in slice semantics
	}
	var scratch []byte
	background := func(pos, stop int64) {
		for pos < stop {
			if scratch == nil {
				scratch = make([]byte, min(stop-pos, visitScratch))
			}
			k := min(stop-pos, int64(len(scratch)))
			Materialize(b.seed, pos, scratch[:k])
			fn(scratch[:k])
			pos += k
		}
	}
	pos := off
	for i := b.search(off); i < len(b.writes) && b.writes[i].off < end; i++ {
		w := b.writes[i]
		background(pos, w.off)
		pos = max(pos, w.off)
		hi := min(w.end(), end) - w.off
		fn(w.data[pos-w.off : hi : hi])
		pos = w.off + hi
	}
	background(pos, end)
}

// visitScratch bounds the background a Visit generates per fn call.
const visitScratch = 32 << 10
