package stream

import (
	"snapify/internal/blob"
	"snapify/internal/hostfs"
	"snapify/internal/ramfs"
	"snapify/internal/simclock"
)

// HostFSSink writes a stream to the host file system as a local file (the
// path a host-process checkpoint takes: no PCIe hop, page-cache speed).
type HostFSSink struct{ w *hostfs.Writer }

// NewHostFSSink opens path on fs for streaming writes.
func NewHostFSSink(fs *hostfs.FS, path string) (*HostFSSink, error) {
	w, err := fs.Create(path)
	if err != nil {
		return nil, err
	}
	return &HostFSSink{w: w}, nil
}

// WriteBlob implements Sink.
func (s *HostFSSink) WriteBlob(b blob.Blob) (Cost, error) {
	d, err := s.w.WriteBlob(b)
	return Cost{Stages: []simclock.Duration{d}}, err
}

// Close implements Sink.
func (s *HostFSSink) Close() error { return s.w.Close() }

// Abort implements Sink.
func (s *HostFSSink) Abort() { s.w.Abort() }

// HostFSSource reads a stream from the host file system.
type HostFSSource struct{ r *hostfs.Reader }

// NewHostFSSource opens path on fs for streaming reads.
func NewHostFSSource(fs *hostfs.FS, path string) (*HostFSSource, error) {
	r, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	return &HostFSSource{r: r}, nil
}

// Next implements Source.
func (s *HostFSSource) Next(max int64) (blob.Blob, Cost, error) {
	b, d, err := s.r.Next(max)
	return b, Cost{Stages: []simclock.Duration{d}}, err
}

// Close implements Source.
func (s *HostFSSource) Close() error { return nil }

// RamFSSink writes a stream to a coprocessor's RAM file system — the
// "Local" storage mode of Table 4. Capacity errors surface from WriteBlob
// when the snapshot no longer fits in card memory.
type RamFSSink struct{ w *ramfs.Writer }

// NewRamFSSink opens path on fs for streaming writes.
func NewRamFSSink(fs *ramfs.FS, path string) (*RamFSSink, error) {
	w, err := fs.Create(path)
	if err != nil {
		return nil, err
	}
	return &RamFSSink{w: w}, nil
}

// WriteBlob implements Sink.
func (s *RamFSSink) WriteBlob(b blob.Blob) (Cost, error) {
	d, err := s.w.WriteBlob(b)
	return Cost{Stages: []simclock.Duration{d}}, err
}

// Close implements Sink.
func (s *RamFSSink) Close() error { return s.w.Close() }

// Abort implements Sink.
func (s *RamFSSink) Abort() { s.w.Abort() }

// RamFSSource reads a stream from a coprocessor's RAM file system.
type RamFSSource struct{ r *ramfs.Reader }

// NewRamFSSource opens path on fs for streaming reads.
func NewRamFSSource(fs *ramfs.FS, path string) (*RamFSSource, error) {
	r, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	return &RamFSSource{r: r}, nil
}

// Next implements Source.
func (s *RamFSSource) Next(max int64) (blob.Blob, Cost, error) {
	b, d, err := s.r.Next(max)
	return b, Cost{Stages: []simclock.Duration{d}}, err
}

// Close implements Source.
func (s *RamFSSource) Close() error { return nil }
