// Package vfs defines the node-local file system contract shared by every
// storage transport (Snapify-IO daemons, the NFS client, scp) and provides
// adapters for the two concrete file systems of a Xeon Phi server: the
// host file system and a card's RAM file system.
package vfs

import (
	"snapify/internal/blob"
	"snapify/internal/hostfs"
	"snapify/internal/ramfs"
	"snapify/internal/simclock"
)

// NodeFS is the file system local to one SCIF node.
type NodeFS interface {
	Create(path string) (Writer, error)
	Open(path string) (Reader, error)
}

// Writer streams a file in. The file becomes visible at Close; Abort
// discards the partial file.
type Writer interface {
	WriteBlob(b blob.Blob) (simclock.Duration, error)
	Close() error
	Abort()
}

// Reader streams a file out; Next returns io.EOF after the last chunk.
type Reader interface {
	Next(max int64) (blob.Blob, simclock.Duration, error)
	Size() int64
}

// SparseFS is implemented by node file systems that support positioned
// (striped) writes: several writers fill disjoint ranges of one
// fixed-size file concurrently. The Snapify-IO daemon uses it to assemble
// a capture striped across parallel streams.
type SparseFS interface {
	// CreateSparse opens a positioned writer over a file of exactly size
	// bytes, initially zero.
	CreateSparse(path string, size int64) (SparseWriter, error)
}

// SparseWriter writes byte ranges of a fixed-size file. The file becomes
// visible at Commit; Abort discards it. WriteBlobAt is safe for concurrent
// use.
type SparseWriter interface {
	WriteBlobAt(off int64, b blob.Blob) (simclock.Duration, error)
	Commit() error
	Abort()
}

// RangeFS is implemented by node file systems that can open a reader over
// a byte range of a file (the read side of striped transfers).
type RangeFS interface {
	// OpenRange streams bytes [off, off+n) of the file at path.
	OpenRange(path string, off, n int64) (Reader, error)
}

// Host adapts a hostfs.FS to NodeFS.
func Host(fs *hostfs.FS) NodeFS { return hostAdapter{fs} }

type hostAdapter struct{ fs *hostfs.FS }

func (h hostAdapter) Create(path string) (Writer, error) { return h.fs.Create(path) }
func (h hostAdapter) Open(path string) (Reader, error)   { return h.fs.Open(path) }
func (h hostAdapter) CreateSparse(path string, size int64) (SparseWriter, error) {
	return h.fs.CreateSparse(path, size)
}
func (h hostAdapter) OpenRange(path string, off, n int64) (Reader, error) {
	return h.fs.OpenRange(path, off, n)
}

// Ram adapts a ramfs.FS to NodeFS.
func Ram(fs *ramfs.FS) NodeFS { return ramAdapter{fs} }

type ramAdapter struct{ fs *ramfs.FS }

func (r ramAdapter) Create(path string) (Writer, error) { return r.fs.Create(path) }
func (r ramAdapter) Open(path string) (Reader, error)   { return r.fs.Open(path) }

// Compile-time checks that the host adapter implements the optional
// interfaces. A card's RAM file system implements neither: striped
// captures and restores always land on, and read from, the host.
var (
	_ SparseFS = hostAdapter{}
	_ RangeFS  = hostAdapter{}
)
