package snapstore

import (
	"io"

	"snapify/internal/blob"
	"snapify/internal/simclock"
	"snapify/internal/vfs"
)

// FS overlays the store on a node file system: reads of a path with a
// committed manifest assemble the snapshot from store chunks; every
// other operation passes through. Mounting this as the host daemon's
// file system makes the file read path — striped parallel restores,
// size probes, any plain Snapify-IO read — work
// unchanged against store-resident snapshots. (A one-stream swap-in and a
// migration's staging pull chunks over Snapify-IO's store-mode read stream
// instead, which serves chunk indices rather than byte ranges.)
type FS struct {
	store *Store
	under vfs.NodeFS
}

// Overlay mounts the store over under.
func Overlay(store *Store, under vfs.NodeFS) *FS {
	return &FS{store: store, under: under}
}

// Create passes through: plain (non-store) snapshot writes land on the
// underlying file system exactly as before.
func (f *FS) Create(path string) (vfs.Writer, error) { return f.under.Create(path) }

// CreateSparse passes through for striped plain writes.
func (f *FS) CreateSparse(path string, size int64) (vfs.SparseWriter, error) {
	return f.under.(vfs.SparseFS).CreateSparse(path, size)
}

// Open prefers a plain file at path, falling back to the store.
func (f *FS) Open(path string) (vfs.Reader, error) {
	if r, err := f.under.Open(path); err == nil {
		return r, nil
	}
	return f.openStore(path, -1, -1)
}

// OpenRange prefers a plain file, falling back to the store.
func (f *FS) OpenRange(path string, off, n int64) (vfs.Reader, error) {
	if r, err := f.under.(vfs.RangeFS).OpenRange(path, off, n); err == nil {
		return r, nil
	}
	return f.openStore(path, off, n)
}

// openStore builds a chunk-assembling reader over [off, off+n) of the
// store-resident snapshot at path (off < 0 means the whole file).
func (f *FS) openStore(path string, off, n int64) (vfs.Reader, error) {
	m, _, err := f.store.Manifest(path)
	if err != nil {
		return nil, err
	}
	if off < 0 {
		off, n = 0, m.Size
	}
	if off+n > m.Size {
		return nil, io.ErrUnexpectedEOF
	}
	return &chunkReader{store: f.store, m: m, off: off, end: off + n, total: n}, nil
}

// chunkReader streams a byte range of a manifest by lazily fetching the
// chunks it crosses. Each chunk's read cost is charged once, on the
// Next call that first touches it — back-to-back small Nexts inside one
// chunk don't re-pay the chunk fetch.
type chunkReader struct {
	store *Store
	m     *Manifest
	off   int64 // next byte to return
	end   int64
	total int64 // length of the opened range, constant across Next

	cur      blob.Blob // chunk currently buffered
	curIdx   int
	curValid bool
}

// Size returns the length of the opened range.
func (r *chunkReader) Size() int64 { return r.total }

// Next returns the next at most max bytes and the virtual time to fetch
// them from the store.
func (r *chunkReader) Next(max int64) (blob.Blob, simclock.Duration, error) {
	if r.off >= r.end {
		return blob.Blob{}, 0, io.EOF
	}
	idx := int(r.off / r.m.ChunkBytes)
	var dur simclock.Duration
	if !r.curValid || r.curIdx != idx {
		b, d, err := r.store.ReadChunk(r.m.Chunks[idx])
		if err != nil {
			return blob.Blob{}, d, err
		}
		r.cur, r.curIdx, r.curValid = b, idx, true
		dur += d
	}
	chunkStart := int64(idx) * r.m.ChunkBytes
	n := chunkStart + r.cur.Len() - r.off
	if n > max {
		n = max
	}
	if rem := r.end - r.off; n > rem {
		n = rem
	}
	out := r.cur.Slice(r.off-chunkStart, n)
	r.off += n
	return out, dur, nil
}

// Compile-time checks mirroring the vfs adapters: the overlay serves
// every interface the Snapify-IO daemon relies on.
var (
	_ vfs.NodeFS   = (*FS)(nil)
	_ vfs.SparseFS = (*FS)(nil)
	_ vfs.RangeFS  = (*FS)(nil)
)
