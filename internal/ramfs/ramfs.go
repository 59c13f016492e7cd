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
