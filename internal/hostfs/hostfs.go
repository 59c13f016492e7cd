// Package hostfs models the host's file system: effectively unlimited
// capacity backed by secondary storage, fronted by the page cache.
//
// Two timing behaviours matter to the paper. Writes land in the page cache
// and are flushed to disk asynchronously — so a snapshot streaming from the
// coprocessor overlaps its disk writeback with the PCIe transfer, which is
// why Snapify-IO writes (device to host) outrun reads (Section 7). Reads
// come from the cache: every file the simulation reads, it wrote.
package hostfs

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"snapify/internal/blob"
	"snapify/internal/simclock"
)

// ErrNotExist is returned for operations on missing files.
var ErrNotExist = errors.New("hostfs: file does not exist")

type file struct {
	content blob.Blob
}

// FS is the host file system.
type FS struct {
	model *simclock.Model

	mu    sync.Mutex
	files map[string]*file
}

// New returns an empty host file system.
func New(model *simclock.Model) *FS {
	return &FS{model: model, files: make(map[string]*file)}
}

// WriteFile atomically stores content at path and returns the virtual time
// until the write is durable in the page cache (not the async flush).
func (fs *FS) WriteFile(path string, content blob.Blob) (simclock.Duration, error) {
	w, err := fs.Create(path)
	if err != nil {
		return 0, err
	}
	d, err := w.WriteBlob(content)
	if err != nil {
		w.Abort()
		return d, err
	}
	return d + fs.model.HostFSOpLatency, w.Close()
}

// ReadFile returns the content at path and the virtual read time.
func (fs *FS) ReadFile(path string) (blob.Blob, simclock.Duration, error) {
	fs.mu.Lock()
	f, ok := fs.files[path]
	fs.mu.Unlock()
	if !ok {
		return blob.Blob{}, 0, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	return f.content, fs.model.HostFSOpLatency + simclock.Rate(fs.model.HostFSReadCachedBandwidth)(f.content.Len()), nil
}

// Remove deletes the file at path.
func (fs *FS) Remove(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[path]; !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	delete(fs.files, path)
	return nil
}

// RemoveAll deletes every file whose path has the given prefix and returns
// the number removed.
func (fs *FS) RemoveAll(prefix string) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var victims []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			victims = append(victims, p)
		}
	}
	for _, p := range victims {
		delete(fs.files, p)
	}
	return len(victims)
}

// Exists reports whether path holds a file.
func (fs *FS) Exists(path string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[path]
	return ok
}

// Size returns the size of the file at path.
func (fs *FS) Size(path string) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	return f.content.Len(), nil
}

// List returns the paths with the given prefix, sorted.
func (fs *FS) List(prefix string) []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var out []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Writer streams a file into the FS.
type Writer struct {
	fs    *FS
	path  string
	parts []blob.Blob
	done  bool
}

// Create opens a streaming writer for path; the file becomes visible at
// Close.
func (fs *FS) Create(path string) (*Writer, error) {
	if path == "" {
		return nil, errors.New("hostfs: empty path")
	}
	return &Writer{fs: fs, path: path}, nil
}

// WriteBlob appends content, returning the virtual page-cache write time.
func (w *Writer) WriteBlob(content blob.Blob) (simclock.Duration, error) {
	if w.done {
		return 0, errors.New("hostfs: write on closed writer")
	}
	w.parts = append(w.parts, content)
	return simclock.Rate(w.fs.model.HostFSWriteBandwidth)(content.Len()), nil
}

// Close makes the file visible.
func (w *Writer) Close() error {
	if w.done {
		return nil
	}
	w.done = true
	w.fs.mu.Lock()
	w.fs.files[w.path] = &file{content: blob.Concat(w.parts...)}
	w.fs.mu.Unlock()
	return nil
}

// Abort discards the partial file.
func (w *Writer) Abort() { w.done = true }

// SparseWriter fills disjoint ranges of a fixed-size file; parallel
// Snapify-IO streams striping one snapshot each write their own ranges.
// The ranges accumulate in a blob.Sparse, so each write costs a search of
// the pieces written so far and the file is concatenated once, at Commit.
// WriteBlobAt is safe for concurrent use.
type SparseWriter struct {
	fs   *FS
	path string
	size int64

	mu      sync.Mutex
	content *blob.Sparse
	done    bool
}

// PartialSuffix marks an in-progress sparse assembly on the file
// system: CreateSparse registers "<path>.partial" so a crashed or
// abandoned assembly is observable (and must be cleaned up), exactly
// like the temp file a real striped writer would leave behind. Commit
// and Abort both remove it.
const PartialSuffix = ".partial"

// CreateSparse opens a positioned writer over a file of exactly size
// bytes, initially zero; the file becomes visible at Commit. While the
// writer is open, "<path>.partial" is visible in its place.
func (fs *FS) CreateSparse(path string, size int64) (*SparseWriter, error) {
	if path == "" {
		return nil, errors.New("hostfs: empty path")
	}
	if size < 0 {
		return nil, fmt.Errorf("hostfs: negative sparse size %d", size)
	}
	fs.mu.Lock()
	fs.files[path+PartialSuffix] = &file{content: blob.Zeros(0)}
	fs.mu.Unlock()
	return &SparseWriter{fs: fs, path: path, size: size, content: blob.NewSparse(size)}, nil
}

// WriteBlobAt writes content at the given offset, returning the virtual
// page-cache write time.
func (w *SparseWriter) WriteBlobAt(off int64, content blob.Blob) (simclock.Duration, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return 0, errors.New("hostfs: write on closed sparse writer")
	}
	if off < 0 || off+content.Len() > w.size {
		return 0, fmt.Errorf("hostfs: sparse write [%d,%d) outside file of %d bytes", off, off+content.Len(), w.size)
	}
	w.content.WriteAt(off, content)
	return simclock.Rate(w.fs.model.HostFSWriteBandwidth)(content.Len()), nil
}

// Commit makes the file visible. The per-range write costs were already
// charged by WriteBlobAt; committing is a metadata operation.
func (w *SparseWriter) Commit() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return nil
	}
	w.done = true
	content := w.content.Blob()
	w.fs.mu.Lock()
	delete(w.fs.files, w.path+PartialSuffix)
	w.fs.files[w.path] = &file{content: content}
	w.fs.mu.Unlock()
	return nil
}

// Abort discards the partial file, removing its ".partial" marker.
func (w *SparseWriter) Abort() {
	w.mu.Lock()
	if w.done {
		w.mu.Unlock()
		return
	}
	w.done = true
	w.mu.Unlock()
	w.fs.mu.Lock()
	delete(w.fs.files, w.path+PartialSuffix)
	w.fs.mu.Unlock()
}

// Reader streams a file out of the FS in chunks.
type Reader struct {
	content blob.Blob
	bw      int64
	off     int64
}

// Open returns a streaming reader for path.
func (fs *FS) Open(path string) (*Reader, error) {
	fs.mu.Lock()
	f, ok := fs.files[path]
	fs.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	return &Reader{content: f.content, bw: fs.model.HostFSReadCachedBandwidth}, nil
}

// OpenRange returns a streaming reader over bytes [off, off+n) of the
// file at path (the read side of striped transfers).
func (fs *FS) OpenRange(path string, off, n int64) (*Reader, error) {
	fs.mu.Lock()
	f, ok := fs.files[path]
	fs.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	if off < 0 || n < 0 || off+n > f.content.Len() {
		return nil, fmt.Errorf("hostfs: range [%d,%d) outside %s (%d bytes)", off, off+n, path, f.content.Len())
	}
	return &Reader{content: f.content.Slice(off, n), bw: fs.model.HostFSReadCachedBandwidth}, nil
}

// Size returns the total file size.
func (r *Reader) Size() int64 { return r.content.Len() }

// Next returns the next chunk of at most max bytes and its virtual read
// time, or io.EOF after the last chunk.
func (r *Reader) Next(max int64) (blob.Blob, simclock.Duration, error) {
	if r.off >= r.content.Len() {
		return blob.Blob{}, 0, io.EOF
	}
	n := max
	if rem := r.content.Len() - r.off; rem < n {
		n = rem
	}
	chunk := r.content.Slice(r.off, n)
	r.off += n
	return chunk, simclock.Rate(r.bw)(n), nil
}
