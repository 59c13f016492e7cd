package blcr

import (
	"fmt"

	"snapify/internal/blob"
	"snapify/internal/proc"
	"snapify/internal/simclock"
)

// Layout is a checkpoint's byte-exact context-file layout, computed
// without writing a byte anywhere. The dedup-aware capture path walks it
// window by window (DigestPass): digest a few chunks, negotiate their
// have/need set against the store, ship the missing ones from the same
// reads — the bytes are, offset for offset, what the one-sink and striped
// transports write from the same plan.
type Layout struct {
	c      *Checkpointer
	pl     *plan
	onHost bool
}

// LayoutFull lays out the full-checkpoint format of an already-quiesced
// process.
func (c *Checkpointer) LayoutFull(p *proc.Process) (*Layout, error) {
	if p.State() != proc.Running {
		return nil, fmt.Errorf("blcr: cannot lay out %s process %s", p.State(), p.Name())
	}
	return &Layout{c: c, pl: c.planFull(p), onHost: p.Node().IsHost()}, nil
}

// LayoutDelta lays out the delta-checkpoint format (dirty ranges only).
// Regions are NOT marked clean: the caller does that itself once the
// capture is verified end-to-end, exactly like the delta writers.
func (c *Checkpointer) LayoutDelta(p *proc.Process) (*Layout, error) {
	if p.State() != proc.Running {
		return nil, fmt.Errorf("blcr: cannot lay out %s process %s", p.State(), p.Name())
	}
	return &Layout{c: c, pl: c.planDelta(p), onHost: p.Node().IsHost()}, nil
}

// Size is the laid-out context file's exact byte length.
func (l *Layout) Size() int64 { return l.pl.total }

// Stats returns the layout's counts (Bytes, MetaWrites, Regions,
// Threads); Duration is zero — laying out moves no data.
func (l *Layout) Stats() Stats { return l.pl.st }

// Range materializes bytes [off, off+n) of the laid-out context file.
// Out-of-range requests are clipped to the file.
func (l *Layout) Range(off, n int64) blob.Blob {
	if off < 0 {
		off = 0
	}
	if off+n > l.pl.total {
		n = l.pl.total - off
	}
	if n <= 0 {
		return blob.FromBytes(nil)
	}
	var parts []blob.Blob
	pos := int64(0)
	for _, sg := range l.pl.segs {
		fl := sg.fileLen()
		segStart, segEnd := pos, pos+fl
		pos = segEnd
		if segEnd <= off {
			continue
		}
		if segStart >= off+n {
			break
		}
		s := segStart
		if off > s {
			s = off
		}
		e := segEnd
		if off+n < e {
			e = off + n
		}
		if sg.region == nil {
			parts = append(parts, sg.meta.Slice(s-segStart, e-s))
		} else {
			parts = append(parts, sg.region.SnapshotRange(sg.regOff+(s-segStart), e-s))
		}
	}
	return blob.Concat(parts...)
}

// ChunkDigests materializes the whole layout and digests it in chunk-sized
// pieces (<=0 means PageChunk). It is a reference implementation: the full
// recompute every windowed DigestPass is checked against
// (TestDigestPassMatchesOracle, TestDigestPassFullOnAnyShapeChange,
// TestDigestPassAbandonedHalfWaySeedsNothing, TestRestartRecordsGeometry),
// and nothing a capture runs; bench/'s layout-digest probe times it. The
// digest function lives in internal/snapstore; keeping it a parameter keeps blcr
// free of hash imports (snapifylint's storegate pins that). The duration
// is Materialize's: the walk and the copy of the whole image, summed.
func (l *Layout) ChunkDigests(chunk int64, digest func(blob.Blob) string) ([]string, simclock.Duration) {
	chunk = chunkOrDefault(chunk)
	img, dur := l.Materialize()
	digests := make([]string, (l.Size()+chunk-1)/chunk)
	for i := range digests {
		off := int64(i) * chunk
		digests[i] = digest(img.Slice(off, min(chunk, l.Size()-off)))
	}
	return digests, dur
}

// Materialize snapshots the whole laid-out context file into one
// immutable blob. It is a reference implementation: the image the
// full-recompute oracles digest (ChunkDigests here; internal/core's
// TestDigestCacheDifferential, TestChaosPrecopyWriterRace,
// TestChaosLostDirtyRangeIsInvisibleToVerify and
// TestStoreRestoreDifferential). The returned duration is the
// cost of reading it in one serial pass — a page-table walk plus a
// memcpy-rate copy of the image on the process's node, plus any
// dirty-detection walks the delta layout carries. No capture pays it: a
// DigestPass prices the same walk and copy chunk by chunk, overlapped with
// the shipping.
func (l *Layout) Materialize() (blob.Blob, simclock.Duration) {
	img := l.Range(0, l.pl.total)
	dur := l.c.walkStage(l.onHost, l.pl.total) + l.c.copyStage(l.onHost, l.pl.total)
	for _, sg := range l.pl.segs {
		dur += sg.extraWalk
	}
	return img, dur
}

// pteBytesPerByte is the page-table overhead ratio: one 8-byte entry
// describes one 4 KiB page, so scanning (or installing) the page tables
// that cover n bytes of memory touches n/512 bytes. A warm DigestPass
// charges that scan (at memcpy rate) to collect the dirty bits the
// hardware already keeps, then walks and copies only the dirty chunks.
const pteBytesPerByte = 512
