package snapifyio

import (
	"sync"

	"snapify/internal/blob"
)

// slot is the registered RDMA staging buffer of one handler. It implements
// scif.Memory over a blob.Sparse, so chunk content passes through with its
// extents intact: literal bytes are really copied, synthetic background
// travels as descriptors, and multi-gigabyte snapshots never materialize in
// the staging path (the virtual-time cost is charged on the full size
// regardless; see internal/blob). A write replaces only the pieces it
// covers, so refilling the slot chunk after chunk never copies the rest.
type slot struct {
	mu      sync.Mutex
	content *blob.Sparse
}

func newSlot(size int64) *slot {
	return &slot{content: blob.NewSparse(size)}
}

// Size implements scif.Memory.
func (s *slot) Size() int64 { return s.content.Len() }

// SnapshotRange implements scif.Memory.
func (s *slot) SnapshotRange(off, n int64) blob.Blob {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.content.Slice(off, n)
}

// WriteBlob implements scif.Memory.
func (s *slot) WriteBlob(off int64, src blob.Blob) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.content.WriteAt(off, src)
}
