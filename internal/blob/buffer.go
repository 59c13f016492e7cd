package blob

import (
	"fmt"
	"sort"
)

// Buffer is a mutable, fixed-size memory content: a synthetic background
// (what the memory held when allocated) plus an overlay of every range the
// application has actually written. It is the content representation of a
// simulated process's memory regions and COI buffers.
//
// Buffer is not safe for concurrent use; the owning process model
// serializes access (a real process's memory has no internal locking
// either).
type Buffer struct {
	size   int64
	seed   uint64
	writes []span // sorted by off, non-overlapping, non-adjacent
}

type span struct {
	off  int64
	data []byte
}

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

// WriteAt copies p into the buffer at off.
func (b *Buffer) WriteAt(p []byte, off int64) {
	if off < 0 || off+int64(len(p)) > b.size {
		panic(fmt.Sprintf("blob: write [%d,%d) out of range of %d", off, off+int64(len(p)), b.size)) //nolint:paniclib // caller bug: write bounds, mirroring built-in slice semantics
	}
	if len(p) == 0 {
		return
	}
	end := off + int64(len(p))

	// Fast path: the write lands entirely inside one existing span (the
	// steady state once a hot region has coalesced) — copy in place.
	lo := sort.Search(len(b.writes), func(i int) bool {
		return b.writes[i].off+int64(len(b.writes[i].data)) >= off
	})
	if lo < len(b.writes) {
		if w := b.writes[lo]; w.off <= off && end <= w.off+int64(len(w.data)) {
			copy(w.data[off-w.off:], p)
			return
		}
	}

	// Append fast path: the write overlaps or abuts the tail of exactly
	// one span and extends it (the steady state of sequential writers) —
	// extend with append, which amortizes instead of re-copying the span.
	hiProbe := sort.Search(len(b.writes), func(i int) bool {
		return b.writes[i].off > end
	})
	if hiProbe == lo+1 {
		w := &b.writes[lo]
		wEnd := w.off + int64(len(w.data))
		if off >= w.off && off <= wEnd && end > wEnd {
			inPlace := wEnd - off // bytes overwriting existing data
			copy(w.data[off-w.off:], p[:inPlace])
			w.data = append(w.data, p[inPlace:]...)
			return
		}
	}

	// Slow path: merge all spans overlapping or adjacent to [off, end)
	// with the new data into a single span.
	hi := sort.Search(len(b.writes), func(i int) bool {
		return b.writes[i].off > end
	})
	if lo == hi {
		// No overlap/adjacency: insert a fresh span.
		data := make([]byte, len(p))
		copy(data, p)
		b.writes = append(b.writes, span{})
		copy(b.writes[lo+1:], b.writes[lo:])
		b.writes[lo] = span{off: off, data: data}
		return
	}
	first, last := b.writes[lo], b.writes[hi-1]
	newOff := first.off
	if off < newOff {
		newOff = off
	}
	newEnd := last.off + int64(len(last.data))
	if end > newEnd {
		newEnd = end
	}
	merged := make([]byte, newEnd-newOff)
	for _, w := range b.writes[lo:hi] {
		copy(merged[w.off-newOff:], w.data)
	}
	copy(merged[off-newOff:], p)
	b.writes[lo] = span{off: newOff, data: merged}
	b.writes = append(b.writes[:lo+1], b.writes[hi:]...)
}

// Fill writes n copies of v starting at off.
func (b *Buffer) Fill(v byte, off, n int64) {
	p := make([]byte, n)
	if v != 0 {
		for i := range p {
			p[i] = v
		}
	}
	b.WriteAt(p, off)
}

// ReadAt fills p with buffer content at off.
func (b *Buffer) ReadAt(p []byte, off int64) {
	if off < 0 || off+int64(len(p)) > b.size {
		panic(fmt.Sprintf("blob: read [%d,%d) out of range of %d", off, off+int64(len(p)), b.size)) //nolint:paniclib // caller bug: read bounds, mirroring built-in slice semantics
	}
	Materialize(b.seed, off, p)
	lo := sort.Search(len(b.writes), func(i int) bool {
		return b.writes[i].off+int64(len(b.writes[i].data)) > off
	})
	end := off + int64(len(p))
	for i := lo; i < len(b.writes) && b.writes[i].off < end; i++ {
		w := b.writes[i]
		s, e := w.off, w.off+int64(len(w.data))
		if s < off {
			s = off
		}
		if e > end {
			e = end
		}
		copy(p[s-off:e-off], w.data[s-w.off:e-w.off])
	}
}

// Snapshot returns an immutable Blob of the buffer's current content:
// literal extents for written ranges, synthetic extents for untouched
// background.
func (b *Buffer) Snapshot() Blob { return b.SnapshotRange(0, b.size) }

// Restore overwrites the buffer's entire content from a blob of the same
// size. Literal extents become overlay writes; synthetic extents with the
// buffer's own seed and matching stream offset collapse back to background.
func (b *Buffer) Restore(src Blob) {
	if src.Len() != b.size {
		panic(fmt.Sprintf("blob: restore size %d into buffer of %d", src.Len(), b.size)) //nolint:paniclib // caller bug: a restore image matches the buffer size by protocol construction
	}
	b.writes = nil
	b.WriteBlob(0, src)
}

// WriteBlob copies src into the buffer at off. Literal extents become
// overlay writes; a synthetic extent that already matches the buffer's own
// background at that position is a no-op (this is the fast path that lets
// RDMA transfers and restores of mostly-untouched gigabyte regions stay
// cheap); any other synthetic extent is materialized in bounded windows.
func (b *Buffer) WriteBlob(off int64, src Blob) {
	if off < 0 || off+src.Len() > b.size {
		panic(fmt.Sprintf("blob: WriteBlob [%d,%d) out of range of %d", off, off+src.Len(), b.size)) //nolint:paniclib // caller bug: write bounds, mirroring built-in slice semantics
	}
	pos := off
	for _, e := range src.Extents() {
		switch {
		case e.IsLiteral():
			b.WriteAt(e.Literal, pos)
		case e.Seed == b.seed && streamOff(e.Seed, e.Off) == streamOff(b.seed, pos):
			// Identical background: nothing to write, but any overlay
			// previously covering this range must be cleared so the
			// background shows through again.
			b.clearOverlay(pos, e.Size)
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

// clearOverlay removes overlay data in [off, off+n), exposing background.
func (b *Buffer) clearOverlay(off, n int64) {
	if n <= 0 {
		return
	}
	end := off + n
	var out []span
	for _, w := range b.writes {
		ws, we := w.off, w.off+int64(len(w.data))
		if we <= off || ws >= end {
			out = append(out, w)
			continue
		}
		if ws < off {
			out = append(out, span{off: ws, data: w.data[:off-ws]})
		}
		if we > end {
			out = append(out, span{off: end, data: w.data[end-ws:]})
		}
	}
	b.writes = out
}

// SnapshotRange returns an immutable Blob of the buffer content in
// [off, off+n).
func (b *Buffer) SnapshotRange(off, n int64) Blob {
	if off < 0 || n < 0 || off+n > b.size {
		panic(fmt.Sprintf("blob: SnapshotRange [%d,%d) out of range of %d", off, off+n, b.size)) //nolint:paniclib // caller bug: snapshot bounds, mirroring built-in slice semantics
	}
	if n == 0 {
		return Blob{}
	}
	var out Blob
	end := off + n
	pos := off
	lo := sort.Search(len(b.writes), func(i int) bool {
		return b.writes[i].off+int64(len(b.writes[i].data)) > off
	})
	for i := lo; i < len(b.writes) && b.writes[i].off < end; i++ {
		w := b.writes[i]
		ws, we := w.off, w.off+int64(len(w.data))
		if ws < pos {
			ws = pos
		}
		if we > end {
			we = end
		}
		if ws > pos {
			out.extents = append(out.extents, Extent{Seed: b.seed, Off: streamOff(b.seed, pos), Size: ws - pos})
			out.size += ws - pos
		}
		data := make([]byte, we-ws)
		copy(data, w.data[ws-w.off:we-w.off])
		out.extents = append(out.extents, Extent{Literal: data, Size: int64(len(data))})
		out.size += int64(len(data))
		pos = we
	}
	if pos < end {
		out.extents = append(out.extents, Extent{Seed: b.seed, Off: streamOff(b.seed, pos), Size: end - pos})
		out.size += end - pos
	}
	return out
}
