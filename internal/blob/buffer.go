package blob

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
)

// Buffer is a mutable, fixed-size memory content: a synthetic background
// (what the memory held when allocated) plus an overlay of every range the
// application has actually written. It is the content representation of a
// simulated process's memory regions and COI buffers.
//
// Two cost rules keep it at memory speed: a written byte is copied once
// (into the span that covers it, or into a fresh span of exactly the
// uncovered gap — spans are never regrown or merged), and a read generates
// background only where no span covers it.
//
// Buffer is not safe for concurrent use; the owning process model
// serializes access (a real process's memory has no internal locking
// either).
type Buffer struct {
	size   int64
	seed   uint64
	writes []span // sorted by off, non-overlapping, non-empty; may be adjacent
}

type span struct {
	off  int64
	data []byte
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

// search returns the index of the first span ending after off.
func (b *Buffer) search(off int64) int {
	return sort.Search(len(b.writes), func(i int) bool { return b.writes[i].end() > off })
}

// WriteAt copies p into the buffer at off: in place wherever a span already
// covers the range, into a fresh span of exactly its length for each gap.
func (b *Buffer) WriteAt(p []byte, off int64) {
	end := off + int64(len(p))
	if off < 0 || end > b.size {
		panic(fmt.Sprintf("blob: write [%d,%d) out of range of %d", off, end, b.size)) //nolint:paniclib // caller bug: write bounds, mirroring built-in slice semantics
	}
	for i, pos := b.search(off), off; pos < end; i++ {
		if i < len(b.writes) && b.writes[i].off <= pos {
			w := b.writes[i]
			pos += int64(copy(w.data[pos-w.off:], p[pos-off:]))
			continue
		}
		gapEnd := end
		if i < len(b.writes) {
			gapEnd = min(gapEnd, b.writes[i].off)
		}
		data := slices.Clone(p[pos-off : gapEnd-off])
		b.writes = slices.Insert(b.writes, i, span{off: pos, data: data})
		pos = gapEnd
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
	lo := b.search(off)
	hi := lo
	for hi < len(b.writes) && b.writes[hi].off < end {
		hi++
	}
	if lo == hi {
		return
	}
	var keep []span
	if w := b.writes[lo]; w.off < off {
		keep = append(keep, span{off: w.off, data: w.data[:off-w.off]})
	}
	if w := b.writes[hi-1]; w.end() > end {
		keep = append(keep, span{off: end, data: w.data[end-w.off:]})
	}
	b.writes = slices.Replace(b.writes, lo, hi, keep...)
}

// SnapshotRange returns an immutable Blob of the buffer content in
// [off, off+n). Each maximal run of adjacent spans becomes one literal
// extent.
func (b *Buffer) SnapshotRange(off, n int64) Blob {
	end := off + n
	if off < 0 || n < 0 || end > b.size {
		panic(fmt.Sprintf("blob: SnapshotRange [%d,%d) out of range of %d", off, end, b.size)) //nolint:paniclib // caller bug: snapshot bounds, mirroring built-in slice semantics
	}
	if n == 0 {
		return Blob{}
	}
	var out Blob
	add := func(e Extent) {
		out.extents = append(out.extents, e)
		out.size += e.Size
	}
	pos := off
	var runBuf [4][]byte // most runs are a span or two: no allocation
	run := runBuf[:0]
	for i := b.search(off); i < len(b.writes) && b.writes[i].off < end; {
		if ws := b.writes[i].off; ws > pos {
			add(Extent{Seed: b.seed, Off: streamOff(b.seed, pos), Size: ws - pos})
			pos = ws
		}
		run = run[:0]
		for ; i < len(b.writes) && b.writes[i].off <= pos && pos < end; i++ {
			w := b.writes[i]
			part := w.data[pos-w.off : min(w.end(), end)-w.off]
			run = append(run, part)
			pos += int64(len(part))
		}
		// Join allocates without zeroing: every byte is written once.
		data := bytes.Join(run, nil)
		add(Extent{Literal: data, Size: int64(len(data))})
	}
	if pos < end {
		add(Extent{Seed: b.seed, Off: streamOff(b.seed, pos), Size: end - pos})
	}
	return out
}
