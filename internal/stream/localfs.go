package stream

import (
	"snapify/internal/blob"
	"snapify/internal/simclock"
	"snapify/internal/vfs"
)

// FSSink writes a stream to a node's own file system as a local file: the
// path a host-process checkpoint takes (no PCIe hop, page-cache speed) and
// the "Local" storage mode of Table 4 on a card, where capacity errors
// surface from WriteBlob once the snapshot no longer fits in card memory.
type FSSink struct{ w *vfs.Writer }

// NewHostFSSink opens path on fs, the host's or a card's, for streaming
// writes.
func NewHostFSSink(fs *vfs.FS, path string) (*FSSink, error) {
	w, err := fs.Create(path)
	if err != nil {
		return nil, err
	}
	return &FSSink{w: w}, nil
}

// WriteBlob implements Sink.
func (s *FSSink) WriteBlob(b blob.Blob) (Cost, error) {
	d, err := s.w.WriteBlob(b)
	return Cost{Stages: []simclock.Duration{d}}, err
}

// Close implements Sink.
func (s *FSSink) Close() error { return s.w.Close() }

// Abort implements Sink.
func (s *FSSink) Abort() { s.w.Abort() }

// FSSource reads a stream from a node's own file system.
type FSSource struct{ r vfs.Reader }

// NewHostFSSource opens path on fs, the host's or a card's, for streaming
// reads.
func NewHostFSSource(fs *vfs.FS, path string) (*FSSource, error) {
	r, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	return &FSSource{r: r}, nil
}

// Next implements Source.
func (s *FSSource) Next(max int64) (blob.Blob, Cost, error) {
	b, d, err := s.r.Next(max)
	return b, Cost{Stages: []simclock.Duration{d}}, err
}

// Close implements Source.
func (s *FSSource) Close() error { return nil }
