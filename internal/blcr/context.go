// Package blcr reimplements, at the process-model level, the Berkeley Lab
// Checkpoint/Restart tool that MPSS ships for Xeon Phi native applications
// and that Snapify drives for offload processes.
//
// A checkpoint serializes a proc.Process into a *context file*: a header,
// a burst of small metadata records (process identity, threads, region
// table — BLCR's signature many-small-writes preamble, which is what makes
// plain NFS storage slow in Table 4), followed by each region's pages in
// large chunks. A restart parses the context file and rebuilds the process
// on a target node, subject to that node's memory budget — so restoring a
// 4 GiB snapshot onto a nearly-full card fails exactly the way the paper
// says local storage must (Section 3).
//
// The checkpointer is storage-agnostic: it writes to any stream.Sink and
// reads from any stream.Source, which is how Snapify-IO, the NFS variants,
// and the local file systems all plug in unchanged (the paper passes
// Snapify-IO's file descriptor straight to BLCR the same way, Section 6).
package blcr

import (
	"encoding/binary"
	"fmt"
	"io"

	"snapify/internal/blob"
	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/stream"
)

// This file is the context-file codec: planFull and planDelta are the only
// code that lays out a context or delta file, reader.record the only
// decoder of the record frame. What carries a plan's bytes to storage (one
// sink, or striped shards) and what feeds a file's bytes to the parser (a
// sequential source, or windowed range reads) live in checkpoint.go,
// restart.go and parallel.go. DESIGN.md has the format table.

// Record tags. The values are part of the format, so they are spelled out:
// 0xB1C4 was reserved for a per-run page record that was never written or
// read, and must stay unused for the trailer to keep its number.
const (
	tagHeader     uint16 = 0xB1C0
	tagProcMeta   uint16 = 0xB1C1
	tagThread     uint16 = 0xB1C2
	tagRegionMeta uint16 = 0xB1C3
	tagTrailer    uint16 = 0xB1C5

	tagDeltaHeader  uint16 = 0xB1D0
	tagDeltaRegion  uint16 = 0xB1D1
	tagDeltaRange   uint16 = 0xB1D2
	tagDeltaTrailer uint16 = 0xB1D3
)

// formatVersion is the context-file version this package writes.
const formatVersion = 3

// magic identifies a context file.
const magic = "CR_CONTEXT"

// metaRecordSize pads small metadata records to BLCR-like sizes: the real
// tool emits dozens of sub-hundred-byte writes before the page loop.
const metaRecordSize = 96

// maxRecord bounds the frame length a reader accepts.
const maxRecord = 1 << 20

// rec encodes one small metadata record as a literal blob: tag, length,
// then the payload strings/ints in a simple length-prefixed wire format.
type recEncoder struct{ buf []byte }

func (e *recEncoder) u16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }
func (e *recEncoder) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *recEncoder) str(s string) {
	e.u64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *recEncoder) record(tag uint16, fill func(*recEncoder)) blob.Blob {
	e.buf = e.buf[:0]
	e.u16(tag)
	fill(e)
	if len(e.buf) < metaRecordSize {
		e.buf = append(e.buf, make([]byte, metaRecordSize-len(e.buf))...)
	}
	// Length-prefix the whole record so the decoder can stream it.
	framed := binary.BigEndian.AppendUint64(nil, uint64(len(e.buf)))
	framed = append(framed, e.buf...)
	return blob.FromBytes(framed)
}

// seg is one element of a context-file layout: either a small metadata
// record (meta non-empty) or a run of region pages.
type seg struct {
	meta      blob.Blob
	walkBytes int64 // producer-stage size charged for a meta record
	region    *proc.Region
	regOff    int64
	n         int64             // page-run length; meta segments use len(meta)
	extraWalk simclock.Duration // flat cost (delta dirty-page-table walk)
}

func (s seg) fileLen() int64 {
	if s.region != nil {
		return s.n
	}
	return s.meta.Len()
}

// plan is a fully laid-out context file.
type plan struct {
	segs  []seg
	total int64
	st    Stats // counts only; Duration filled by the runner
}

func (p *plan) add(s seg) {
	p.segs = append(p.segs, s)
	p.total += s.fileLen()
}

func (p *plan) addMeta(b blob.Blob, walkBytes int64) {
	p.add(seg{meta: b, walkBytes: walkBytes})
	p.st.MetaWrites++
	p.st.Bytes += b.Len()
}

// planFull lays out a full context file: header, process metadata, one
// record per thread, then per region a metadata record followed by its
// pages, and a trailer.
func (c *Checkpointer) planFull(p *proc.Process) *plan {
	enc := &recEncoder{}
	pl := &plan{}
	regions := p.Regions()
	threads := p.ThreadNames()
	// The page walk of a full checkpoint is charged on each record's
	// framed length.
	meta := func(b blob.Blob) { pl.addMeta(b, b.Len()) }

	meta(enc.record(tagHeader, func(e *recEncoder) {
		e.str(magic)
		e.u64(formatVersion)
	}))
	meta(enc.record(tagProcMeta, func(e *recEncoder) {
		e.str(p.Name())
		e.u64(uint64(p.PID()))
		e.u64(uint64(p.Node()))
		e.u64(uint64(len(threads)))
		e.u64(uint64(len(regions)))
	}))
	// One small record per thread — part of BLCR's small-write preamble.
	for _, name := range threads {
		meta(enc.record(tagThread, func(e *recEncoder) { e.str(name) }))
		pl.st.Threads++
	}
	// Local-store regions are memory-mapped files (COI buffers, Section 2):
	// like the real BLCR, only the mapping is recorded — the content is
	// external, saved separately by Snapify's pause phase. This is why the
	// paper reports snapshot size and local-store size as distinct
	// quantities (Fig 10b).
	for _, r := range regions {
		pinned := uint64(0)
		if r.Pinned() {
			pinned = 1
		}
		external := uint64(0)
		if r.Kind() == proc.RegionLocalStore {
			external = 1
		}
		meta(enc.record(tagRegionMeta, func(e *recEncoder) {
			e.str(r.Name())
			e.u64(uint64(r.Kind()))
			e.u64(r.Seed())
			e.u64(uint64(r.Size()))
			e.u64(pinned)
			e.u64(external)
		}))
		if external == 0 && r.Size() > 0 {
			pl.add(seg{region: r, regOff: 0, n: r.Size()})
			pl.st.Bytes += r.Size()
		}
		pl.st.Regions++
	}
	meta(enc.record(tagTrailer, func(e *recEncoder) {
		e.u64(uint64(len(regions)))
	}))
	return pl
}

// planDelta lays out a delta file: header, then per region a record naming
// it and its dirty-range count, each range as an offset/length record
// followed by the range's bytes, and a trailer. Local-store regions are
// included (their deltas are cheap).
func (c *Checkpointer) planDelta(p *proc.Process) *plan {
	enc := &recEncoder{}
	pl := &plan{}
	regions := p.Regions()
	onHost := p.Node().IsHost()

	pl.addMeta(enc.record(tagDeltaHeader, func(e *recEncoder) {
		e.str(magic)
		e.u64(formatVersion)
		e.u64(uint64(len(regions)))
	}), metaRecordSize)
	for _, r := range regions {
		ranges := r.DirtyRanges()
		pl.addMeta(enc.record(tagDeltaRegion, func(e *recEncoder) {
			e.str(r.Name())
			e.u64(uint64(len(ranges)))
		}), metaRecordSize)
		// Dirty detection walks the whole region's page tables even where
		// nothing changed; the cost rides on the region's record.
		pl.segs[len(pl.segs)-1].extraWalk = c.walkStage(onHost, r.Size()) / 8
		for _, rg := range ranges {
			pl.addMeta(enc.record(tagDeltaRange, func(e *recEncoder) {
				e.u64(uint64(rg.Off))
				e.u64(uint64(rg.Len))
			}), metaRecordSize)
			if rg.Len > 0 {
				pl.add(seg{region: r, regOff: rg.Off, n: rg.Len})
				pl.st.Bytes += rg.Len
			}
		}
		pl.st.Regions++
	}
	pl.addMeta(enc.record(tagDeltaTrailer, func(e *recEncoder) {
		e.u64(uint64(len(regions)))
	}), metaRecordSize)
	return pl
}

// recDecoder reads the fields of one record body. It is bounds-checked
// and sticky: the first field that does not fit the record sets err and
// every later read returns zero, so a parser reads a whole record and
// checks err once.
type recDecoder struct {
	buf []byte
	err error
}

// next returns the record's next n bytes, or nil once the record ran out.
func (d *recDecoder) next(n uint64) []byte {
	if d.err == nil && n > uint64(len(d.buf)) {
		d.err = badContext("record cut short: field of %d bytes, %d left", n, len(d.buf))
	}
	if d.err != nil {
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *recDecoder) u16() uint16 {
	if b := d.next(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (d *recDecoder) u64() uint64 {
	if b := d.next(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// i64 reads a count, size or offset: a u64 that must fit an int64.
func (d *recDecoder) i64() int64 {
	v := d.u64()
	if d.err == nil && v > 1<<63-1 {
		d.err = badContext("implausible count or size %d", v)
	}
	if d.err != nil {
		return 0
	}
	return int64(v)
}

func (d *recDecoder) str() string { return string(d.next(d.u64())) }

// ErrBadContext reports a malformed or truncated context file.
type ErrBadContext struct{ Reason string }

func (e *ErrBadContext) Error() string { return "blcr: bad context file: " + e.Reason }

func badContext(format string, args ...any) error {
	return &ErrBadContext{Reason: fmt.Sprintf(format, args...)}
}

// reader buffers a context or delta file's bytes as its feeder delivers
// them and charges the restore-side producer stage per piece. Page content
// stays in blob form (synthetic background is never materialized).
type reader struct {
	c *Checkpointer
	// feed returns the file's next bytes and their transport cost, io.EOF
	// at the end of the file: a sequential stream.Source (Restart,
	// ApplyDelta) or windowed range reads (RestartParallel).
	feed   func() (blob.Blob, stream.Cost, error)
	acc    *simclock.PipelineAccum
	onHost bool      // restore target is the host (set once the spawner ran)
	adopt  bool      // pages are adopted in place, not copied (RestartAdopted)
	geo    *Geometry // records the image's shape as it is parsed; nil for deltas

	pending blob.Blob
	off     int64
	// fed counts the bytes fed into pending so far; holes are the
	// stretches of them, in that count, that came as holes and whose copy
	// is owed until they land (copyTo, take) or are skipped.
	fed   int64
	holes []span
}

// span is the stretch [from, to) of a reader's fed bytes.
type span struct{ from, to int64 }

// sequential feeds a reader from src, PageChunk at a time.
func sequential(src stream.Source) func() (blob.Blob, stream.Cost, error) {
	return func() (blob.Blob, stream.Cost, error) { return src.Next(PageChunk) }
}

func (r *reader) buffered() int64 { return r.pending.Len() - r.off }

// fill buffers at least n bytes of the file. A plain piece is charged its
// restore-side producer stage as it arrives; a hole's copy waits until we
// know where its bytes land.
func (r *reader) fill(n int64) error {
	for r.buffered() < n {
		piece, cost, err := r.feed()
		if err == io.EOF {
			return badContext("truncated context file")
		}
		if err != nil {
			return err
		}
		if cost.Hole {
			stream.Observe(r.acc, cost)
			if k := len(r.holes) - 1; k >= 0 && r.holes[k].to == r.fed {
				r.holes[k].to += piece.Len()
			} else {
				r.holes = append(r.holes, span{r.fed, r.fed + piece.Len()})
			}
		} else {
			// Restore-side producer stage: writing the pages into memory
			// — or, on the adoption path, only installing page-table
			// entries over frames that are already resident.
			if r.adopt {
				stream.Observe(r.acc, cost, PageTableCost(r.c.model, piece.Len()))
			} else {
				stream.Observe(r.acc, cost, r.c.copyStage(r.onHost, piece.Len()))
			}
		}
		r.fed += piece.Len()
		if r.off > 0 {
			r.pending, r.off = r.pending.Slice(r.off, r.buffered()), 0
		}
		r.pending = blob.Concat(r.pending, piece)
	}
	return nil
}

// run returns the length, at most n, of the buffered bytes from here on
// that are all hole or all not, and which they are.
func (r *reader) run(n int64) (int64, bool) {
	at := r.fed - r.buffered()
	for len(r.holes) > 0 && r.holes[0].to <= at {
		r.holes = r.holes[1:] // consumed, or skipped by a scan
	}
	switch {
	case len(r.holes) == 0 || r.holes[0].from >= at+n:
		return n, false
	case r.holes[0].from > at:
		return r.holes[0].from - at, false
	}
	return min(r.holes[0].to-at, n), true
}

// take returns the file's next n bytes as a blob. Hole bytes among them
// are parsed, not skipped, so their copy is charged now.
func (r *reader) take(n int64) (blob.Blob, error) {
	if err := r.fill(n); err != nil {
		return blob.Blob{}, err
	}
	b := r.pending.Slice(r.off, n)
	for end := r.off + n; r.off < end; {
		k, hole := r.run(end - r.off)
		if hole {
			r.acc.Add(r.c.copyStage(r.onHost, k))
		}
		r.off += k
	}
	return b, nil
}

// record reads the next framed record — an 8-byte big-endian length, then
// that many bytes starting with the tag — and checks the tag is want.
func (r *reader) record(want uint16, what string) (*recDecoder, error) {
	hdr, err := r.take(8)
	if err != nil {
		return nil, err
	}
	frame := hdr.Bytes()
	n := binary.BigEndian.Uint64(frame)
	if n == 0 || n > maxRecord {
		return nil, badContext("implausible record length %d", n)
	}
	body, err := r.take(int64(n))
	if err != nil {
		return nil, err
	}
	dec := &recDecoder{buf: body.Bytes()}
	if r.geo != nil {
		r.geo.addMeta(append(frame, dec.buf...))
	}
	if tag := dec.u16(); dec.err != nil || tag != want {
		return nil, badContext("expected %s, got tag %#x", what, tag)
	}
	return dec, nil
}
