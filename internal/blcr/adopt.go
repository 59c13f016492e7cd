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
	return c.restartFrom(&residentSource{img: img}, spawn, true)
}

// residentSource feeds an already-resident image to the restart parser.
// Transport cost is zero — the bytes crossed the fabric during the
// pre-copy rounds, charged there — so the only time the restart accrues
// is the adoption stage the reader charges per piece.
type residentSource struct {
	img blob.Blob
	off int64
}

func (s *residentSource) Next(max int64) (blob.Blob, stream.Cost, error) {
	if s.off >= s.img.Len() {
		return blob.FromBytes(nil), stream.Cost{}, io.EOF
	}
	n := s.img.Len() - s.off
	if n > max {
		n = max
	}
	b := s.img.Slice(s.off, n)
	s.off += n
	return b, stream.Cost{}, nil
}

func (s *residentSource) Size() int64 { return s.img.Len() }

func (s *residentSource) Close() error { return nil }
