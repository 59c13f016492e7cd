package blcr

import (
	"fmt"
	"sync"

	"snapify/internal/blob"
	"snapify/internal/simclock"
	"snapify/internal/stream"
	"snapify/internal/vfs"
)

// StripeSet shares one fixed-size sparse file among parallel stripe sinks
// — the local-file-system counterpart of the Snapify-IO daemon's striped
// assembly. Each Sink writes a disjoint byte range; the file becomes
// visible once the closed stripes cover the whole size, and is discarded
// if any stripe aborts.
type StripeSet struct {
	mu      sync.Mutex
	sw      *vfs.SparseWriter
	total   int64
	covered int64
	refs    int
	aborted bool
	settled bool
}

// NewStripeSet creates the backing sparse file of total bytes on fs.
func NewStripeSet(fs *vfs.FS, path string, total int64) (*StripeSet, error) {
	sw, err := fs.CreateSparse(path, total)
	if err != nil {
		return nil, err
	}
	return &StripeSet{sw: sw, total: total}, nil
}

// Sink returns a stripe sink for the byte range [off, off+n).
func (s *StripeSet) Sink(off, n int64) (stream.Sink, error) {
	if off < 0 || n <= 0 || off+n > s.total {
		return nil, fmt.Errorf("stream: stripe [%d,%d) outside file of %d bytes", off, off+n, s.total)
	}
	s.mu.Lock()
	s.refs++
	s.mu.Unlock()
	return &stripeSink{set: s, off: off, end: off + n, length: n}, nil
}

// release drops one stripe: a clean close credits its length toward
// coverage (stripes are disjoint, so full coverage means the file is
// complete); an abort poisons the set, and the last stripe out discards
// the file.
func (s *StripeSet) release(length int64, abort bool) error {
	s.mu.Lock()
	s.refs--
	if abort {
		s.aborted = true
	} else {
		s.covered += length
	}
	commit := !s.aborted && !s.settled && s.covered >= s.total
	discard := s.aborted && !s.settled && s.refs == 0
	if commit || discard {
		s.settled = true
	}
	s.mu.Unlock()
	if commit {
		return s.sw.Commit()
	}
	if discard {
		s.sw.Abort()
	}
	return nil
}

type stripeSink struct {
	set    *StripeSet
	off    int64
	end    int64
	length int64
	closed bool
}

// WriteBlob implements Sink, appending within the stripe's range.
func (w *stripeSink) WriteBlob(b blob.Blob) (stream.Cost, error) {
	if w.closed {
		return stream.Cost{}, fmt.Errorf("stream: write on closed stripe")
	}
	if w.off+b.Len() > w.end {
		return stream.Cost{}, fmt.Errorf("stream: chunk [%d,%d) overruns stripe ending at %d", w.off, w.off+b.Len(), w.end)
	}
	d, err := w.set.sw.WriteBlobAt(w.off, b)
	if err != nil {
		return stream.Cost{}, err
	}
	w.off += b.Len()
	return stream.Cost{Stages: []simclock.Duration{d}}, nil
}

// Close implements Sink.
func (w *stripeSink) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	return w.set.release(w.length, false)
}

// Abort implements Sink.
func (w *stripeSink) Abort() {
	if w.closed {
		return
	}
	w.closed = true
	w.set.release(0, true) //nolint:errcheck // abort path: discarding the partial file is the handling
}

// NewRangeSource opens bytes [off, off+n) of the file at path on a node
// file system as a Source (the read side of a parallel restart from local
// storage).
func NewRangeSource(fs *vfs.FS, path string, off, n int64) (stream.Source, error) {
	r, err := fs.OpenRange(path, off, n)
	if err != nil {
		return nil, err
	}
	return vfsSource{r: r}, nil
}

type vfsSource struct{ r vfs.Reader }

func (s vfsSource) Next(max int64) (blob.Blob, stream.Cost, error) {
	b, d, err := s.r.Next(max)
	return b, stream.Cost{Stages: []simclock.Duration{d}}, err
}

func (s vfsSource) Size() int64  { return s.r.Size() }
func (s vfsSource) Close() error { return nil }
