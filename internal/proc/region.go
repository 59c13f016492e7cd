package proc

import (
	"fmt"
	"sync"

	"snapify/internal/blob"
)

// RegionKind classifies a memory region. BLCR serializes all kinds; the
// kinds matter to COI (local store handling) and to reporting.
type RegionKind int

const (
	// RegionData is statically allocated program data.
	RegionData RegionKind = iota
	// RegionHeap is malloc'd private memory.
	RegionHeap
	// RegionStack is a thread stack.
	RegionStack
	// RegionLocalStore backs a COI buffer: files memory-mapped into a
	// contiguous range (Section 2). The pause phase streams these to the
	// host snapshot directory separately from the BLCR context.
	RegionLocalStore
)

func (k RegionKind) String() string {
	switch k {
	case RegionData:
		return "data"
	case RegionHeap:
		return "heap"
	case RegionStack:
		return "stack"
	case RegionLocalStore:
		return "local-store"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Region is one contiguous memory region of a process. It implements
// scif.Memory, with internal locking so RDMA from a peer and application
// writes can interleave safely.
type Region struct {
	name string
	kind RegionKind
	seed uint64

	mu     sync.Mutex
	buf    *blob.Buffer
	pinned bool
	dirty  rangeSet // writes since the last MarkClean (incremental CR)
	// epoch is the digest-epoch dirty set: the pages written since the
	// last CutEpoch. It is independent of dirty — a delta checkpoint's
	// MarkClean does not touch it and a CutEpoch does not touch dirty —
	// and nil until a chunk-digest cache exists for the process, so a
	// process that is never store-captured pays one not-taken branch per
	// write and nothing else.
	epoch *rangeSet
}

// EpochPage is the granularity of the digest-epoch dirty set (the
// hardware's dirty bits are per page). Rounding writes out to pages lets
// neighbouring small writes coalesce, so a hot region stays a handful of
// spans however long it runs.
const EpochPage = 4096

func newRegion(name string, kind RegionKind, size int64, seed uint64) *Region {
	return &Region{name: name, kind: kind, seed: seed, buf: blob.NewBuffer(size, seed)}
}

// Name returns the region name.
func (r *Region) Name() string { return r.name }

// Kind returns the region kind.
func (r *Region) Kind() RegionKind { return r.kind }

// Seed returns the region's background seed. Restores recreate regions with
// the same seed so untouched background collapses instead of materializing.
func (r *Region) Seed() uint64 { return r.seed }

// Size returns the region size in bytes.
func (r *Region) Size() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.Size()
}

// Pin marks the region's pages pinned for RDMA; pinned pages cannot be
// swapped out by the Phi OS (one of the paper's arguments against relying
// on OS swap, Section 1).
func (r *Region) Pin() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pinned = true
}

// Pinned reports whether the region is pinned.
func (r *Region) Pinned() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pinned
}

// WriteAt copies p into the region at off.
func (r *Region) WriteAt(p []byte, off int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf.WriteAt(p, off)
	r.wrote(off, int64(len(p)))
}

// wrote records a mutation of [off, off+n) in every dirty tracker. Every
// mutator of the region's content ends here; a mutator that skipped it
// would let a stale chunk digest be carried forward undetectably (see
// CutEpoch). Caller holds r.mu.
func (r *Region) wrote(off, n int64) {
	r.dirty.add(off, n)
	if r.epoch != nil && n > 0 {
		lo := off &^ (EpochPage - 1)
		hi := (off + n + EpochPage - 1) &^ (EpochPage - 1)
		r.epoch.add(lo, hi-lo)
	}
}

// ReadAt fills p from the region at off.
func (r *Region) ReadAt(p []byte, off int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf.ReadAt(p, off)
}

// Visit calls fn with the content of [off, off+n) in consecutive slices,
// under the region lock (see blob.Buffer.Visit). fn must not modify or
// retain its argument, nor call back into the region.
func (r *Region) Visit(off, n int64, fn func(p []byte)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf.Visit(off, n, fn)
}

// SnapshotRange returns the content of [off, off+n). Part of scif.Memory.
func (r *Region) SnapshotRange(off, n int64) blob.Blob {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.SnapshotRange(off, n)
}

// Snapshot returns the whole region content.
func (r *Region) Snapshot() blob.Blob {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.Snapshot()
}

// WriteBlob overwrites [off, off+src.Len()) with src. Part of scif.Memory.
func (r *Region) WriteBlob(off int64, src blob.Blob) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf.WriteBlob(off, src)
	r.wrote(off, src.Len())
}

// Untouched reports whether [off, off+n) holds no page: the region's
// background is zeros (seed 0) and no byte of the range has been written
// since the region was allocated, or since a write of that same
// background cleared it. It is the simulator's "no page present" bit. The
// content of such a range is zeros, which is what lets a digest pass name
// it without reading it.
func (r *Region) Untouched(off, n int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seed == 0 && r.buf.Untouched(off, n)
}

// DirtyRanges returns the coalesced byte ranges written since the last
// MarkClean — the payload of an incremental checkpoint.
func (r *Region) DirtyRanges() []ByteRange {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dirty.ranges()
}

// MarkClean resets the dirty tracking; the checkpointer calls it after a
// full or incremental capture, so the next delta is relative to this one.
func (r *Region) MarkClean() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dirty.reset()
}

// CutEpoch ends the region's current digest epoch and starts the next: it
// returns the page-rounded ranges written since the previous cut (clipped
// to the region) and resets the set, under one hold of the region lock.
// The first cut arms the tracker and reports the whole region — nothing
// is known about writes before it. A consumer must cut before it reads
// the content it will digest: a write landing between the two is then
// seen twice (in the content and in the next epoch), never zero times.
func (r *Region) CutEpoch() []ByteRange {
	r.mu.Lock()
	defer r.mu.Unlock()
	size := r.buf.Size()
	if r.epoch == nil {
		r.epoch = &rangeSet{}
		return []ByteRange{{Off: 0, Len: size}}
	}
	out := r.epoch.spans
	r.epoch.spans = nil
	if n := len(out); n > 0 && out[n-1].End() > size {
		out[n-1].Len = size - out[n-1].Off
	}
	return out
}

// DropEpoch disarms the digest-epoch tracker: the cache it served is
// gone, so writes stop paying for it until the next CutEpoch.
func (r *Region) DropEpoch() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.epoch = nil
}

// DirtyBytes returns the overlay (actually written) byte count.
func (r *Region) DirtyBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.DirtyBytes()
}
