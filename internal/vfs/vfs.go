// Package vfs models the file system local to one node of a Xeon Phi
// server. Every storage transport (Snapify-IO daemons, the NFS client,
// scp, the local sinks) reads and writes through it.
//
// The host and a card run the same file system at two prices and two
// capacity rules, set by the node kind:
//
//   - The host's file system is a page cache over secondary storage, with
//     no capacity limit. Writes land in the cache and are flushed
//     asynchronously, so a snapshot streaming from a card overlaps its
//     disk writeback with the PCIe transfer, which is why Snapify-IO
//     writes (device to host) outrun reads (Section 7). Reads come from
//     the cache: every file the simulation reads, it wrote.
//   - A card has no directly accessible storage: its root file system
//     lives in the card's own physical memory, so every file byte draws on
//     the Budget its processes allocate from. A snapshot larger than the
//     free card memory cannot be stored locally, and even one that fits
//     starves other applications (Section 3, "Storing and retrieving
//     snapshots").
package vfs

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
var ErrNotExist = errors.New("vfs: file does not exist")

// ErrNoSpace is returned when a write would exceed a card's memory budget.
var ErrNoSpace = errors.New("vfs: no space left on device")

// PartialSuffix marks an in-progress sparse assembly on the file system:
// CreateSparse registers "<path>.partial" so a crashed or abandoned
// assembly is observable (and must be cleaned up), exactly like the temp
// file a real striped writer would leave behind. Commit and Abort both
// remove it.
const PartialSuffix = ".partial"

// Budget arbitrates a card's physical memory between its file system and
// its processes' memory; phi.MemBudget implements it.
type Budget interface {
	// Reserve claims n bytes, or returns an error if they are not available.
	Reserve(n int64) error
	// Release returns n bytes.
	Release(n int64)
}

// Reader streams a file out; Next returns io.EOF after the last chunk.
type Reader interface {
	Next(max int64) (blob.Blob, simclock.Duration, error)
	Size() int64
}

// FS is one node's file system.
//
// Capacity rule: every byte a card's FS holds is reserved from its
// budget. A streaming write reserves as each chunk arrives, a sparse file
// reserves its whole size at CreateSparse, and replacing a file, removing
// it or aborting a write releases its bytes. The host's FS has no budget.
type FS struct {
	writeBW, readBW int64
	opLatency       simclock.Duration
	budget          Budget // nil on the host

	mu    sync.Mutex
	files map[string]blob.Blob
}

// NewHost returns an empty host file system: page-cache write and cached
// read bandwidth, the host's per-op latency, no capacity limit.
func NewHost(model *simclock.Model) *FS {
	return &FS{
		writeBW:   model.HostFSWriteBandwidth,
		readBW:    model.HostFSReadCachedBandwidth,
		opLatency: model.HostFSOpLatency,
		files:     make(map[string]blob.Blob),
	}
}

// NewCard returns an empty RAM file system of a card drawing its capacity
// from budget: RAM-fs bandwidth both ways and the card's per-op latency.
func NewCard(model *simclock.Model, budget Budget) *FS {
	return &FS{
		writeBW:   model.RamFSBandwidth,
		readBW:    model.RamFSBandwidth,
		opLatency: model.RamFSOpLatency,
		budget:    budget,
		files:     make(map[string]blob.Blob),
	}
}

// reserve claims n bytes of the card's budget.
func (fs *FS) reserve(n int64) error {
	if fs.budget == nil {
		return nil
	}
	if err := fs.budget.Reserve(n); err != nil {
		return fmt.Errorf("%w: %v", ErrNoSpace, err)
	}
	return nil
}

// release returns n bytes to the card's budget.
func (fs *FS) release(n int64) {
	if fs.budget != nil {
		fs.budget.Release(n)
	}
}

// install makes content visible at path (dropping its sparse marker if
// asked), releasing what a file it replaces held.
func (fs *FS) install(path string, content blob.Blob, sparse bool) {
	fs.mu.Lock()
	if sparse {
		delete(fs.files, path+PartialSuffix)
	}
	old, had := fs.files[path]
	fs.files[path] = content
	fs.mu.Unlock()
	if had {
		fs.release(old.Len())
	}
}

// lookup returns the content at path.
func (fs *FS) lookup(path string) (blob.Blob, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	content, ok := fs.files[path]
	return content, ok
}

func notExist(path string) error { return fmt.Errorf("%w: %s", ErrNotExist, path) }

// WriteFile atomically stores content at path, replacing any existing
// file, and returns the virtual time of the write (on the host, until it
// is durable in the page cache, not the async flush).
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
	return d + fs.opLatency, w.Close()
}

// ReadFile returns the content at path and the virtual read time.
func (fs *FS) ReadFile(path string) (blob.Blob, simclock.Duration, error) {
	content, ok := fs.lookup(path)
	if !ok {
		return blob.Blob{}, 0, notExist(path)
	}
	return content, fs.opLatency + simclock.Rate(fs.readBW)(content.Len()), nil
}

// Remove deletes the file at path, releasing its bytes.
func (fs *FS) Remove(path string) error {
	fs.mu.Lock()
	content, ok := fs.files[path]
	delete(fs.files, path)
	fs.mu.Unlock()
	if !ok {
		return notExist(path)
	}
	fs.release(content.Len())
	return nil
}

// RemoveAll deletes every file whose path has the given prefix and returns
// the number removed. The COI daemon uses it to clean up an offload
// process's temporary files.
func (fs *FS) RemoveAll(prefix string) int {
	fs.mu.Lock()
	var n int
	var freed int64
	for p, content := range fs.files {
		if strings.HasPrefix(p, prefix) {
			n++
			freed += content.Len()
			delete(fs.files, p)
		}
	}
	fs.mu.Unlock()
	fs.release(freed)
	return n
}

// Exists reports whether path holds a file.
func (fs *FS) Exists(path string) bool {
	_, ok := fs.lookup(path)
	return ok
}

// Size returns the size of the file at path.
func (fs *FS) Size(path string) (int64, error) {
	content, ok := fs.lookup(path)
	if !ok {
		return 0, notExist(path)
	}
	return content.Len(), nil
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
	fs       *FS
	path     string
	parts    []blob.Blob
	reserved int64
	done     bool
}

// Create opens a streaming writer for path. The file becomes visible
// atomically at Close; an Abort discards it.
func (fs *FS) Create(path string) (*Writer, error) {
	if path == "" {
		return nil, errors.New("vfs: empty path")
	}
	return &Writer{fs: fs, path: path}, nil
}

// WriteBlob appends content, returning the virtual time of the write. On
// ErrNoSpace the writer keeps earlier chunks reserved until Abort.
func (w *Writer) WriteBlob(content blob.Blob) (simclock.Duration, error) {
	if w.done {
		return 0, errors.New("vfs: write on closed writer")
	}
	if err := w.fs.reserve(content.Len()); err != nil {
		return 0, err
	}
	w.reserved += content.Len()
	w.parts = append(w.parts, content)
	return simclock.Rate(w.fs.writeBW)(content.Len()), nil
}

// Close makes the file visible, replacing any previous content at the path.
func (w *Writer) Close() error {
	if w.done {
		return nil
	}
	w.done = true
	w.fs.install(w.path, blob.Concat(w.parts...), false)
	return nil
}

// Abort discards the partial file and releases its reservation.
func (w *Writer) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.fs.release(w.reserved)
}

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

// CreateSparse opens a positioned writer over a file of exactly size
// bytes, initially zero, reserving all of them; the file becomes visible
// at Commit. While the writer is open, "<path>.partial" is visible in its
// place.
func (fs *FS) CreateSparse(path string, size int64) (*SparseWriter, error) {
	if path == "" {
		return nil, errors.New("vfs: empty path")
	}
	if size < 0 {
		return nil, fmt.Errorf("vfs: negative sparse size %d", size)
	}
	if err := fs.reserve(size); err != nil {
		return nil, err
	}
	fs.mu.Lock()
	fs.files[path+PartialSuffix] = blob.Zeros(0)
	fs.mu.Unlock()
	return &SparseWriter{fs: fs, path: path, size: size, content: blob.NewSparse(size)}, nil
}

// WriteBlobAt writes content at the given offset, returning the virtual
// write time.
func (w *SparseWriter) WriteBlobAt(off int64, content blob.Blob) (simclock.Duration, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return 0, errors.New("vfs: write on closed sparse writer")
	}
	if off < 0 || off+content.Len() > w.size {
		return 0, fmt.Errorf("vfs: sparse write [%d,%d) outside file of %d bytes", off, off+content.Len(), w.size)
	}
	w.content.WriteAt(off, content)
	return simclock.Rate(w.fs.writeBW)(content.Len()), nil
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
	w.fs.install(w.path, w.content.Blob(), true)
	return nil
}

// Abort discards the partial file, removing its ".partial" marker and
// releasing its reservation.
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
	w.fs.release(w.size)
}

// fileReader streams a file out of the FS in chunks.
type fileReader struct {
	content blob.Blob
	bw      int64
	off     int64
}

// Open returns a streaming reader for path.
func (fs *FS) Open(path string) (Reader, error) {
	content, ok := fs.lookup(path)
	if !ok {
		return nil, notExist(path)
	}
	return &fileReader{content: content, bw: fs.readBW}, nil
}

// OpenRange returns a streaming reader over bytes [off, off+n) of the
// file at path (the read side of striped transfers).
func (fs *FS) OpenRange(path string, off, n int64) (Reader, error) {
	content, ok := fs.lookup(path)
	if !ok {
		return nil, notExist(path)
	}
	if off < 0 || n < 0 || off+n > content.Len() {
		return nil, fmt.Errorf("vfs: range [%d,%d) outside %s (%d bytes)", off, off+n, path, content.Len())
	}
	return &fileReader{content: content.Slice(off, n), bw: fs.readBW}, nil
}

// Size returns the total file size.
func (r *fileReader) Size() int64 { return r.content.Len() }

// Next returns the next chunk of at most max bytes and its virtual read
// time, or io.EOF after the last chunk.
func (r *fileReader) Next(max int64) (blob.Blob, simclock.Duration, error) {
	if r.off >= r.content.Len() {
		return blob.Blob{}, 0, io.EOF
	}
	n := min(max, r.content.Len()-r.off)
	chunk := r.content.Slice(r.off, n)
	r.off += n
	return chunk, simclock.Rate(r.bw)(n), nil
}
