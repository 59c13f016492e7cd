package blcr

import (
	"fmt"

	"snapify/internal/blob"
	"snapify/internal/proc"
	"snapify/internal/simclock"
)

// Layout is a checkpoint's byte-exact context-file layout, computed
// without writing a byte anywhere. The dedup-aware capture path uses
// it in three steps: digest the image chunk by chunk (ChunkDigests),
// negotiate a have/need set against the store, then ship only the
// missing ranges (Range) — the bytes are, offset for offset, what the
// one-sink and striped transports write from the same plan.
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

// ChunkDigests digests the layout in chunk-sized windows (<=0 means
// PageChunk) using the supplied digest function — the function lives in
// internal/snapstore; keeping it a parameter keeps blcr free of hash
// imports (snapifylint's storegate pins that). The returned duration is
// the virtual cost of the digest pass: one page-table walk plus one
// memcpy-rate read of the image on the process's node, plus any
// dirty-detection walks the delta layout carries.
func (l *Layout) ChunkDigests(chunk int64, digest func(blob.Blob) string) ([]string, simclock.Duration) {
	pass := l.DigestWhole(chunk, digest)
	return pass.Digests(), pass.Dur
}

// Materialize snapshots the whole laid-out context file into one
// immutable blob. The pre-copy rounds of a live migration depend on
// this immutability: the process keeps running (and writing) after the
// call, but digests computed from the returned blob and chunks shipped
// from it always describe the same point-in-time image — never a torn
// mix of old and new pages. The returned duration is the cost of the
// full read pass: a page-table walk plus a memcpy-rate copy of the
// image on the process's node (the same formula ChunkDigests charges),
// plus any dirty-detection walks the delta layout carries.
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
// that cover n bytes of memory touches n/512 bytes.
const pteBytesPerByte = 512

// RescanCost is the virtual cost of re-reading an image whose dirty set
// the hardware already knows: a PTE-granularity scan of the whole page
// table (to collect dirty bits) plus a walk and memcpy-rate read of only
// the dirty bytes. An incremental DigestPass charges it for exactly the
// bytes it re-read.
func (c *Checkpointer) RescanCost(onHost bool, totalBytes, dirtyBytes int64) simclock.Duration {
	return c.copyStage(onHost, totalBytes/pteBytesPerByte) + c.walkStage(onHost, dirtyBytes) + c.copyStage(onHost, dirtyBytes)
}
