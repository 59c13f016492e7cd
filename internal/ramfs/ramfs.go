// Package ramfs models the Xeon Phi's RAM-backed root file system.
//
// The coprocessor has no directly accessible storage: its file system lives
// in the card's own physical memory, so every file byte competes with
// process memory. The FS therefore draws capacity from a Budget shared with
// the process allocator (implemented by internal/phi). This reproduces the
// paper's central storage constraint: a snapshot larger than the free card
// memory cannot be stored locally, and even a snapshot that fits starves
// other applications (Section 3, "Storing and retrieving snapshots").
package ramfs

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

// ErrNoSpace is returned when a write would exceed the card's memory budget.
var ErrNoSpace = errors.New("ramfs: no space left on device")

// ErrNotExist is returned for operations on missing files.
var ErrNotExist = errors.New("ramfs: file does not exist")

// Budget arbitrates the card's physical memory between the file system and
// process memory. internal/phi provides the implementation.
type Budget interface {
	// Reserve claims n bytes, or returns an error if they are not available.
	Reserve(n int64) error
	// Release returns n bytes.
	Release(n int64)
}

// FS is a RAM-backed file system.
type FS struct {
	model  *simclock.Model
	budget Budget

	mu    sync.Mutex
	files map[string]blob.Blob
	open  map[string]int // writers in progress, guards concurrent create
}

// New returns an empty file system drawing capacity from budget.
func New(model *simclock.Model, budget Budget) *FS {
	return &FS{
		model:  model,
		budget: budget,
		files:  make(map[string]blob.Blob),
		open:   make(map[string]int),
	}
}

// WriteFile atomically stores content at path, replacing any existing file.
// It returns the virtual time of the write.
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
	return d + fs.model.RamFSOpLatency, w.Close()
}

// ReadFile returns the content at path and the virtual read time.
func (fs *FS) ReadFile(path string) (blob.Blob, simclock.Duration, error) {
	fs.mu.Lock()
	content, ok := fs.files[path]
	fs.mu.Unlock()
	if !ok {
		return blob.Blob{}, 0, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	d := fs.model.RamFSOpLatency + simclock.Rate(fs.model.RamFSBandwidth)(content.Len())
	return content, d, nil
}

// Remove deletes the file at path, releasing its memory.
func (fs *FS) Remove(path string) error {
	fs.mu.Lock()
	content, ok := fs.files[path]
	if ok {
		delete(fs.files, path)
	}
	fs.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	fs.budget.Release(content.Len())
	return nil
}

// RemoveAll deletes every file whose path has the given prefix and returns
// the number removed. The COI daemon uses it to clean up an offload
// process's temporary files.
func (fs *FS) RemoveAll(prefix string) int {
	fs.mu.Lock()
	var victims []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			victims = append(victims, p)
		}
	}
	var freed int64
	for _, p := range victims {
		freed += fs.files[p].Len()
		delete(fs.files, p)
	}
	fs.mu.Unlock()
	fs.budget.Release(freed)
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
	content, ok := fs.files[path]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotExist, path)
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

// Usage returns the total bytes held by files.
func (fs *FS) Usage() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var n int64
	for _, c := range fs.files {
		n += c.Len()
	}
	return n
}

// Writer streams a file into the FS, reserving budget as chunks arrive.
type Writer struct {
	fs       *FS
	path     string
	parts    []blob.Blob
	reserved int64
	done     bool
}

// Create opens a streaming writer for path. The file becomes visible
// atomically at Close; an Abort releases everything.
func (fs *FS) Create(path string) (*Writer, error) {
	if path == "" {
		return nil, errors.New("ramfs: empty path")
	}
	fs.mu.Lock()
	fs.open[path]++
	fs.mu.Unlock()
	return &Writer{fs: fs, path: path}, nil
}

// WriteBlob appends content, returning the virtual time of the write.
// On ErrNoSpace the writer keeps earlier chunks reserved until Abort.
func (w *Writer) WriteBlob(content blob.Blob) (simclock.Duration, error) {
	if w.done {
		return 0, errors.New("ramfs: write on closed writer")
	}
	if err := w.fs.budget.Reserve(content.Len()); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrNoSpace, err)
	}
	w.reserved += content.Len()
	w.parts = append(w.parts, content)
	return simclock.Rate(w.fs.model.RamFSBandwidth)(content.Len()), nil
}

// Close makes the file visible, replacing any previous content at the path.
func (w *Writer) Close() error {
	if w.done {
		return nil
	}
	w.done = true
	content := blob.Concat(w.parts...)
	fs := w.fs
	fs.mu.Lock()
	old, had := fs.files[w.path]
	fs.files[w.path] = content
	fs.open[w.path]--
	if fs.open[w.path] == 0 {
		delete(fs.open, w.path)
	}
	fs.mu.Unlock()
	if had {
		fs.budget.Release(old.Len())
	}
	return nil
}

// Abort discards the partial file and releases its reservation.
func (w *Writer) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.fs.budget.Release(w.reserved)
	w.fs.mu.Lock()
	w.fs.open[w.path]--
	if w.fs.open[w.path] == 0 {
		delete(w.fs.open, w.path)
	}
	w.fs.mu.Unlock()
}

// SparseWriter fills disjoint ranges of a fixed-size file. Its full size
// is reserved against the memory budget up front (the card must hold the
// whole file either way); the ranges accumulate in a blob.Sparse and the
// file is concatenated once and made visible at Commit. WriteBlobAt is
// safe for concurrent use.
type SparseWriter struct {
	fs   *FS
	path string
	size int64

	mu      sync.Mutex
	content *blob.Sparse
	done    bool
}

// CreateSparse opens a positioned writer over a file of exactly size
// bytes, initially zero. On ErrNoSpace nothing is reserved.
func (fs *FS) CreateSparse(path string, size int64) (*SparseWriter, error) {
	if path == "" {
		return nil, errors.New("ramfs: empty path")
	}
	if size < 0 {
		return nil, fmt.Errorf("ramfs: negative sparse size %d", size)
	}
	if err := fs.budget.Reserve(size); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoSpace, err)
	}
	fs.mu.Lock()
	fs.open[path]++
	fs.files[path+PartialSuffix] = blob.Zeros(0)
	fs.mu.Unlock()
	return &SparseWriter{fs: fs, path: path, size: size, content: blob.NewSparse(size)}, nil
}

// PartialSuffix marks an in-progress sparse assembly, mirroring
// hostfs.PartialSuffix: visible from CreateSparse until Commit/Abort.
const PartialSuffix = ".partial"

// WriteBlobAt writes content at the given offset, returning the virtual
// time of the write.
func (w *SparseWriter) WriteBlobAt(off int64, content blob.Blob) (simclock.Duration, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return 0, errors.New("ramfs: write on closed sparse writer")
	}
	if off < 0 || off+content.Len() > w.size {
		return 0, fmt.Errorf("ramfs: sparse write [%d,%d) outside file of %d bytes", off, off+content.Len(), w.size)
	}
	w.content.WriteAt(off, content)
	return simclock.Rate(w.fs.model.RamFSBandwidth)(content.Len()), nil
}

// Commit makes the file visible, replacing any previous content at the
// path. The per-range write costs were already charged by WriteBlobAt.
func (w *SparseWriter) Commit() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return nil
	}
	w.done = true
	fs := w.fs
	content := w.content.Blob()
	fs.mu.Lock()
	delete(fs.files, w.path+PartialSuffix)
	old, had := fs.files[w.path]
	fs.files[w.path] = content
	fs.open[w.path]--
	if fs.open[w.path] == 0 {
		delete(fs.open, w.path)
	}
	fs.mu.Unlock()
	if had {
		fs.budget.Release(old.Len())
	}
	return nil
}

// Abort discards the partial file and releases its reservation.
func (w *SparseWriter) Abort() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return
	}
	w.done = true
	w.fs.budget.Release(w.size)
	w.fs.mu.Lock()
	delete(w.fs.files, w.path+PartialSuffix)
	w.fs.open[w.path]--
	if w.fs.open[w.path] == 0 {
		delete(w.fs.open, w.path)
	}
	w.fs.mu.Unlock()
}

// OpenRange returns a streaming reader over bytes [off, off+n) of the file
// at path.
func (fs *FS) OpenRange(path string, off, n int64) (*Reader, error) {
	fs.mu.Lock()
	content, ok := fs.files[path]
	fs.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	if off < 0 || n < 0 || off+n > content.Len() {
		return nil, fmt.Errorf("ramfs: range [%d,%d) outside %s (%d bytes)", off, off+n, path, content.Len())
	}
	return &Reader{fs: fs, content: content.Slice(off, n)}, nil
}

// Reader streams a file out of the FS in chunks.
type Reader struct {
	fs      *FS
	content blob.Blob
	off     int64
}

// Open returns a streaming reader for path.
func (fs *FS) Open(path string) (*Reader, error) {
	fs.mu.Lock()
	content, ok := fs.files[path]
	fs.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	return &Reader{fs: fs, content: content}, nil
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
	return chunk, simclock.Rate(r.fs.model.RamFSBandwidth)(n), nil
}
