package blcr

import (
	"io"

	"snapify/internal/blob"
	"snapify/internal/proc"
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
	return c.restartFrom(feed, spawn, true)
}
