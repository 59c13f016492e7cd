package blcr

import (
	"io"

	"snapify/internal/blob"
	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/stream"
)

// This file is the restore half of live migration's staging protocol:
// the destination card accumulated the context image in its own memory
// while the source process kept running, so the final restore does not
// move the pages again — it adopts them.

// RestartAdopted rebuilds a process from a context image that is already
// resident in the target node's memory (the pre-copy staging area of a
// live migration). The record-parse loop is exactly Restart's — the
// resulting process is byte-identical to one restored over Snapify-IO —
// but the per-page cost is adoption, not copying: the staged frames are
// donated to the new process and only their page-table entries are
// installed, so the charged time scales with the page count, not the
// image size. The caller is responsible for having verified the staged
// image against the committed manifest before adopting it.
func (c *Checkpointer) RestartAdopted(img blob.Blob, spawn Spawner) (*proc.Process, *Stats, error) {
	// Transport cost is zero — the bytes crossed the fabric during the
	// pre-copy rounds, charged there — so the only time the restart
	// accrues is the adoption stage the reader charges per piece.
	var off int64
	feed := func() (blob.Blob, stream.Cost, error) {
		if off >= img.Len() {
			return blob.Blob{}, stream.Cost{}, io.EOF
		}
		b := img.Slice(off, min(img.Len()-off, PageChunk))
		off += b.Len()
		return b, stream.Cost{}, nil
	}
	return c.restartFrom(feed, simclock.NewPipelineAccum(), spawn, true)
}

// PageTableCost is the time to touch the page-table entries that cover n
// bytes of a card's memory: n/pteBytesPerByte bytes at memcpy rate. It
// prices adoption, where the frames are donated and only their entries are
// installed, so the charge scales with the page count, not the bytes —
// RestartAdopted's per-page rule, and the coi daemon's for a local-store
// file it adopts — and the scan of a buffer's dirty bits that tells a
// live switch-over whether the buffer's pre-saved file is current.
func PageTableCost(m *simclock.Model, n int64) simclock.Duration {
	return m.PhiMemcpy(n / pteBytesPerByte)
}
