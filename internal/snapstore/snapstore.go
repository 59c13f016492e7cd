// Package snapstore is a chunked, content-addressed snapshot repository
// on the host file system (DESIGN.md §11).
//
// Snapshot images are split into fixed-size chunks keyed by SHA-256 and
// stored once; per-snapshot manifests list the chunk digests that
// reassemble one whole context image. The capture data path negotiates a
// have/need chunk set window by window while it streams (Snapify-IO
// msgStoreWindow) and ships only the chunks the store lacks — the dedup
// that makes repeated swap-out of a mostly-unchanged offload process
// cheap: an unchanged chunk costs a digest, never a byte. Delta files
// are plain files; the store holds no delta chains.
//
// Consistency contract: a manifest is committed atomically
// (temp-then-final write; a crash in between leaves the snapshot
// absent, never torn), chunk writes are idempotent (same digest, same
// content), and GC — mark from manifests plus in-flight uploads, sweep
// unreferenced chunks — is safe to re-run after any interruption.
package snapstore

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"snapify/internal/blob"
	"snapify/internal/faultinject"
	"snapify/internal/obs"
	"snapify/internal/simclock"
	"snapify/internal/vfs"
)

// ErrInterrupted reports an operation cut short by an injected daemon
// crash (SiteStore). The store is left consistent; the operation can be
// re-run.
var ErrInterrupted = errors.New("snapstore: interrupted by injected crash")

// Store is the content-addressed snapshot repository. Safe for
// concurrent use; the parallel upload streams of one capture and the
// control plane (GC, Verify, ctl) share one Store.
type Store struct {
	model *simclock.Model
	fs    *vfs.FS
	obs   *obs.Obs
	// injector supplies the fault injector lazily: chaos plans are armed
	// on the fabric after the Platform (and Store) are built.
	injector func() *faultinject.Injector

	mu      sync.Mutex
	uploads map[string]*upload

	chunksPut    *obs.Counter
	chunkHits    *obs.Counter
	bytesShipped *obs.Counter
	bytesLogical *obs.Counter
	gcChunks     *obs.Counter
	gcBytes      *obs.Counter
	commits      *obs.Counter
}

// upload is one negotiated dedup upload in flight. Its digest list fills
// window by window, from chunk 0 up; it pins the digests it knows so far
// against GC until committed or aborted, so a concurrent sweep can never
// reclaim a chunk the writer was told the store already has.
type upload struct {
	path       string // normalized snapshot path
	size       int64
	chunkBytes int64
	digests    []string // chunks 0..len-1, as the windows so far declared them
	have       []bool   // chunk present when its window was negotiated or put since
	// missing holds the digests some window found absent. Such a digest
	// stays needed wherever it recurs, whether or not the earlier copy has
	// landed since: the need sets add up to the one the whole list would
	// have got in a single message, whatever the windows and whatever is
	// still in flight between them.
	missing   map[string]bool
	committed bool
}

// complete reports whether every window arrived and every chunk landed.
func (up *upload) complete() bool {
	if len(up.digests) != chunkCount(up.size, up.chunkBytes) {
		return false
	}
	for _, ok := range up.have {
		if !ok {
			return false
		}
	}
	return true
}

// New builds a Store over the host file system. injector may be nil or
// return nil; faults then never fire.
func New(model *simclock.Model, fs *vfs.FS, o *obs.Obs, injector func() *faultinject.Injector) *Store {
	reg := o.MetricsOf()
	st := &Store{
		model:    model,
		fs:       fs,
		obs:      o,
		injector: injector,
		uploads:  make(map[string]*upload),
		chunksPut: reg.Counter("snapstore_chunks_put_total",
			"Chunks shipped to and written by the store."),
		chunkHits: reg.Counter("snapstore_chunk_hits_total",
			"Chunks a negotiation found already present (dedup hits)."),
		bytesShipped: reg.Counter("snapstore_bytes_shipped_total",
			"Bytes physically shipped into the store."),
		bytesLogical: reg.Counter("snapstore_bytes_logical_total",
			"Logical snapshot bytes committed (pre-dedup)."),
		gcChunks: reg.Counter("snapstore_gc_reclaimed_chunks_total",
			"Chunks reclaimed by GC sweeps."),
		gcBytes: reg.Counter("snapstore_gc_reclaimed_bytes_total",
			"Bytes reclaimed by GC sweeps."),
		commits: reg.Counter("snapstore_manifests_committed_total",
			"Manifests committed (temp-then-final renames)."),
	}
	reg.RegisterCollector(func(r *obs.Registry) {
		s := st.Stats()
		r.Gauge("snapstore_chunks", "Unique chunks resident in the store.").Set(int64(s.Chunks))
		r.Gauge("snapstore_manifests", "Manifests resident in the store.").Set(int64(s.Manifests))
		r.Gauge("snapstore_stored_bytes", "Physical chunk bytes resident.").Set(s.StoredBytes)
		r.Gauge("snapstore_logical_bytes", "Logical snapshot bytes referenced.").Set(s.LogicalBytes)
	})
	return st
}

func (st *Store) fire(key string) *faultinject.Fault {
	if st.injector == nil {
		return nil
	}
	return st.injector().Fire(faultinject.SiteStore, key)
}

// ErrBadWindow reports a negotiation window that does not fit the upload
// it claims to continue: it reaches past the declared geometry, restates
// the geometry differently, leaves a gap, names a path with no upload
// open, or offers a chunk name that is not a digest (64 lowercase hex
// characters). The upload, if any, is left as it was.
var ErrBadWindow = errors.New("snapstore: window does not continue the upload")

// Negotiate registers a dedup upload for the snapshot at path from its
// whole digest list at once and returns which chunk indices the store
// lacks: the one-window case of NegotiateWindow, which Federation.ShipDir
// uses. If nothing is missing the manifest commits immediately (committed
// reports this) and no data streams at all. The store holds whole images
// only, so parent must be empty; the argument survives for existing
// callers.
func (st *Store) Negotiate(path, parent string, size, chunkBytes int64, digests []string) (need []int, committed bool, dur simclock.Duration, err error) {
	if parent != "" {
		return nil, false, 0, fmt.Errorf("snapstore: negotiate %s: the store holds whole images; parent %s names a delta chain", path, parent)
	}
	if size >= 0 && chunkBytes > 0 {
		if want := chunkCount(size, chunkBytes); len(digests) != want {
			return nil, false, 0, fmt.Errorf("snapstore: negotiate %s: %d digests for %d bytes in %d-byte chunks (want %d)", path, len(digests), size, chunkBytes, want)
		}
	}
	return st.NegotiateWindow(path, size, chunkBytes, 0, digests)
}

// NegotiateWindow offers the store the digests of chunks first,
// first+1, ... of the image (size bytes in chunkBytes chunks) going to the
// snapshot at path, and returns which of them the store lacks. A writer
// that digests as it ships sends its list in such windows, in order:
// first == 0 opens the upload — replacing a pending one for the path, the
// retry path after a mid-upload crash: chunks already shipped are found
// and drop out of the need set — and each later window must continue
// exactly where the last ended, under the same geometry (ErrBadWindow
// otherwise). A chunk whose digest is ZeroDigest of its length is never
// needed: the first time the store lacks it, the host writes the chunk
// file itself (one host FS write, no transfer), so a zero chunk never
// crosses PCIe or the cluster network and every manifest chunk still has
// a file. When the window that completes the list finds that no
// window had a chunk missing, the manifest commits on the spot (committed
// reports this) and no stream ever opens; otherwise it commits when the
// stream that brought the last missing chunk closes — never in between, so
// the outcome does not depend on how far the shipping has got when a
// window arrives.
func (st *Store) NegotiateWindow(path string, size, chunkBytes int64, first int, digests []string) (need []int, committed bool, dur simclock.Duration, err error) {
	if size < 0 || chunkBytes <= 0 {
		return nil, false, 0, fmt.Errorf("snapstore: negotiate %s: bad geometry size=%d chunkBytes=%d", path, size, chunkBytes)
	}
	if count := chunkCount(size, chunkBytes); first < 0 || first > count || len(digests) > count-first {
		return nil, false, 0, fmt.Errorf("%w: %s: chunks [%d,%d) of %d", ErrBadWindow, path, first, first+len(digests), count)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	path = normPath(path)
	up := st.uploads[path]
	if first > 0 {
		if up == nil || up.committed {
			return nil, false, 0, fmt.Errorf("%w: %s: no upload open for chunk %d", ErrBadWindow, path, first)
		}
		if up.size != size || up.chunkBytes != chunkBytes || first != len(up.digests) {
			return nil, false, 0, fmt.Errorf("%w: %s: chunk %d of %d bytes in %d-byte chunks, upload is at chunk %d of %d in %d",
				ErrBadWindow, path, first, size, chunkBytes, len(up.digests), up.size, up.chunkBytes)
		}
	}
	for i, d := range digests {
		if !isDigest(d) {
			return nil, false, 0, fmt.Errorf("%w: %s: chunk %d is named %q, not a digest", ErrBadWindow, path, first+i, d)
		}
	}
	geo := Manifest{Size: size, ChunkBytes: chunkBytes}
	zero := func(i int) bool { return digests[i] == ZeroDigest(geo.chunkLen(first+i)) }
	for i, d := range digests {
		if cp := chunkPath(d); zero(i) && !st.fs.Exists(cp) {
			wd, err := st.fs.WriteFile(cp, blob.Zeros(geo.chunkLen(first+i)))
			dur += wd
			if err != nil {
				return nil, false, dur, err
			}
			st.chunksPut.Inc()
		}
	}
	if first == 0 {
		up = &upload{path: path, size: size, chunkBytes: chunkBytes, missing: make(map[string]bool)}
		st.uploads[path] = up
	}
	for i, d := range digests {
		if !zero(i) && (up.missing[d] || !st.fs.Exists(chunkPath(d))) {
			up.missing[d] = true
			need = append(need, first+i)
		} else {
			st.chunkHits.Inc()
		}
		up.digests = append(up.digests, d)
		up.have = append(up.have, !up.missing[d])
	}
	// Metadata cost: one fs round-trip plus an in-memory index scan of
	// the window's digests (a real store answers have/need from an index,
	// not per-chunk stats).
	dur += st.model.HostFSOpLatency + st.model.HostMemcpy(64*int64(len(digests)))
	if len(up.missing) == 0 && up.complete() {
		d, err := st.commitLocked(up)
		dur += d
		if err != nil {
			return nil, false, dur, err
		}
		return nil, true, dur, nil
	}
	return need, false, dur, nil
}

// PutChunkAt stores one chunk of a negotiated upload. off must be
// chunk-aligned; content is digest-verified against the negotiated
// digest before it is admitted (a corrupted transfer is rejected, not
// stored under a name it doesn't match). Idempotent: re-shipping a
// chunk that already landed is a no-op replay.
func (st *Store) PutChunkAt(path string, off int64, content blob.Blob) (simclock.Duration, error) {
	// Hash before taking the lock: content is immutable, and a chunk's
	// digest must not serialize the other stripes' calls behind it.
	got := Digest(content)
	st.mu.Lock()
	defer st.mu.Unlock()
	up := st.uploads[normPath(path)]
	if up == nil {
		return 0, fmt.Errorf("snapstore: put %s: no negotiated upload", path)
	}
	if off < 0 || off%up.chunkBytes != 0 || off >= up.size {
		return 0, fmt.Errorf("snapstore: put %s: offset %d not a chunk boundary of %d-byte chunks in %d bytes", path, off, up.chunkBytes, up.size)
	}
	idx := int(off / up.chunkBytes)
	if idx >= len(up.digests) {
		return 0, fmt.Errorf("snapstore: put %s: chunk %d is past the %d the negotiated windows cover", path, idx, len(up.digests))
	}
	m := Manifest{Size: up.size, ChunkBytes: up.chunkBytes}
	if content.Len() != m.chunkLen(idx) {
		return 0, fmt.Errorf("snapstore: put %s: chunk %d is %d bytes, want %d", path, idx, content.Len(), m.chunkLen(idx))
	}
	// Verifying the digest re-reads the chunk once at memcpy rate.
	dur := st.model.HostMemcpy(content.Len())
	if got != up.digests[idx] {
		return dur, fmt.Errorf("snapstore: put %s: chunk %d digest mismatch (got %.12s, want %.12s)", path, idx, got, up.digests[idx])
	}
	if cp := chunkPath(up.digests[idx]); !st.fs.Exists(cp) {
		d, err := st.fs.WriteFile(cp, content)
		dur += d
		if err != nil {
			return dur, err
		}
		st.chunksPut.Inc()
	}
	if !up.have[idx] {
		up.have[idx] = true
		st.bytesShipped.Add(content.Len())
	}
	return dur, nil
}

// CloseUpload finishes a negotiated upload: if every window arrived and
// every chunk is present the manifest commits atomically and CloseUpload
// reports committed; otherwise the upload stays pending (the writer
// detached or died mid-stream — a retry re-negotiates). Idempotent across the parallel
// streams of one capture: the first complete close commits, later
// closes see committed.
func (st *Store) CloseUpload(path string) (bool, simclock.Duration, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	up := st.uploads[normPath(path)]
	if up == nil {
		return false, 0, fmt.Errorf("snapstore: close %s: no negotiated upload", path)
	}
	if up.committed {
		return true, 0, nil
	}
	if !up.complete() {
		return false, 0, nil
	}
	dur, err := st.commitLocked(up)
	return err == nil, dur, err
}

// AbortUpload drops a pending upload, unpinning its digests. Chunks
// already written stay — they are content-addressed, so a retry (or an
// unrelated snapshot) reuses them, and GC reclaims them if nobody does.
func (st *Store) AbortUpload(path string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.uploads, normPath(path))
}

// DigestPlan returns the digest list the destination of a live
// migration should stage against: the pending negotiated upload for
// path when one is in flight with its whole list declared (the current
// pre-copy round's image), else the committed manifest. committed distinguishes the two; ok is false
// when neither exists. The charged duration mirrors Negotiate's
// metadata cost — one fs round-trip plus an index scan of the list.
func (st *Store) DigestPlan(path string) (size, chunkBytes int64, digests []string, committed, ok bool, dur simclock.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	p := normPath(path)
	if up := st.uploads[p]; up != nil && !up.committed && len(up.digests) == chunkCount(up.size, up.chunkBytes) {
		dur = st.model.HostFSOpLatency + st.model.HostMemcpy(64*int64(len(up.digests)))
		return up.size, up.chunkBytes, append([]string(nil), up.digests...), false, true, dur
	}
	m, d, err := st.manifestLocked(p)
	if err != nil {
		return 0, 0, nil, false, false, d
	}
	dur = d + st.model.HostMemcpy(64*int64(len(m.Chunks)))
	return m.Size, m.ChunkBytes, m.Chunks, true, true, dur
}

// PendingUploads counts negotiated uploads that have not committed —
// the in-flight state a chaos test asserts is cleaned up after a fault.
func (st *Store) PendingUploads() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, up := range st.uploads {
		if !up.committed {
			n++
		}
	}
	return n
}

// AbortAll drops every pending upload — the Snapify-IO daemon crashed
// and its stream state is gone. Durable chunks and committed manifests
// are unaffected.
func (st *Store) AbortAll() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for p, up := range st.uploads {
		if !up.committed {
			delete(st.uploads, p)
		}
	}
}

// commitLocked writes the manifest for a completed upload with the
// temp-then-final dance; a manifest already at the path is replaced
// whole. Caller holds st.mu.
func (st *Store) commitLocked(up *upload) (simclock.Duration, error) {
	mp := manifestPath(up.path)
	m := &Manifest{
		Path:       up.path,
		Size:       up.size,
		ChunkBytes: up.chunkBytes,
		Chunks:     append([]string(nil), up.digests...),
	}
	dur, err := st.fs.WriteFile(mp+TmpSuffix, m.encode())
	if err != nil {
		return dur, err
	}
	if f := st.fire("commit"); f != nil && f.Kind == faultinject.Crash {
		// Crashed between temp and final: the snapshot is absent, the
		// stale temp is GC fodder, the upload dies with the daemon.
		delete(st.uploads, up.path)
		return dur, fmt.Errorf("%w: commit of %s", ErrInterrupted, up.path)
	}
	d, err := st.fs.WriteFile(mp, m.encode())
	dur += d
	if err != nil {
		return dur, err
	}
	if err := st.fs.Remove(mp + TmpSuffix); err != nil {
		return dur, err
	}
	up.committed = true
	st.commits.Inc()
	st.bytesLogical.Add(up.size)
	return dur, nil
}

// Release removes the committed manifest of the snapshot at path — the
// owner no longer wants it — charging one metadata operation; the next GC
// reclaims any chunks nothing else references. Releasing a path with no
// committed manifest is an error.
func (st *Store) Release(path string) (simclock.Duration, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	p := normPath(path)
	// The committed upload entry kept for idempotent CloseUpload replays
	// has outlived its purpose once the owner releases the snapshot.
	if up := st.uploads[p]; up != nil && up.committed {
		delete(st.uploads, p)
	}
	return st.model.HostFSOpLatency, st.fs.Remove(manifestPath(p))
}

// manifestLocked reads and decodes the manifest for the snapshot at
// path. Caller holds st.mu.
func (st *Store) manifestLocked(path string) (*Manifest, simclock.Duration, error) {
	b, dur, err := st.fs.ReadFile(manifestPath(normPath(path)))
	if err != nil {
		return nil, dur, err
	}
	m, err := decodeManifest(b)
	return m, dur, err
}

// Manifest returns the committed manifest for the snapshot at path.
func (st *Store) Manifest(path string) (*Manifest, simclock.Duration, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.manifestLocked(path)
}

// Has reports whether a committed manifest exists for the snapshot at
// path.
func (st *Store) Has(path string) bool {
	return st.fs.Exists(manifestPath(normPath(path)))
}

// ReadChunk returns the content of the chunk with the given digest,
// charging one host file-system read of its chunk file.
func (st *Store) ReadChunk(digest string) (blob.Blob, simclock.Duration, error) {
	return st.fs.ReadFile(chunkPath(digest))
}

// List returns the snapshot paths with committed manifests, sorted.
func (st *Store) List() []string {
	var out []string
	for _, mp := range st.fs.List(ManifestPrefix) {
		if strings.HasSuffix(mp, TmpSuffix) {
			continue
		}
		out = append(out, strings.TrimPrefix(mp, ManifestPrefix))
	}
	return out
}

// Stats summarizes the store for snapifyctl and the metrics collector.
type Stats struct {
	Manifests         int
	Chunks            int
	StoredBytes       int64 // physical chunk bytes resident
	LogicalBytes      int64 // sum of manifest sizes (pre-dedup)
	ReclaimableChunks int
	ReclaimableBytes  int64 // unreferenced chunk bytes a GC would sweep
}

// DedupRatio is logical over stored bytes — how many snapshot bytes
// each resident byte serves. 0 when the store is empty.
func (s Stats) DedupRatio() float64 {
	if s.StoredBytes == 0 {
		return 0
	}
	return float64(s.LogicalBytes) / float64(s.StoredBytes)
}

// Stats walks the manifests and chunk files. Metadata-only; it charges
// no virtual time (the ctl surface reports, it doesn't simulate).
func (st *Store) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	var s Stats
	live := st.referencedLocked()
	for _, mp := range st.fs.List(ManifestPrefix) {
		if strings.HasSuffix(mp, TmpSuffix) {
			continue
		}
		s.Manifests++
		if b, _, err := st.fs.ReadFile(mp); err == nil {
			if m, err := decodeManifest(b); err == nil {
				s.LogicalBytes += m.Size
			}
		}
	}
	for _, cp := range st.fs.List(ChunkPrefix) {
		n, err := st.fs.Size(cp)
		if err != nil {
			continue
		}
		s.Chunks++
		s.StoredBytes += n
		if !live[strings.TrimPrefix(cp, ChunkPrefix)] {
			s.ReclaimableChunks++
			s.ReclaimableBytes += n
		}
	}
	return s
}

// referencedLocked builds the mark set: every digest referenced by a
// committed manifest or pinned by a pending upload. Caller holds st.mu.
func (st *Store) referencedLocked() map[string]bool {
	live := make(map[string]bool)
	for _, mp := range st.fs.List(ManifestPrefix) {
		if strings.HasSuffix(mp, TmpSuffix) {
			continue
		}
		b, _, err := st.fs.ReadFile(mp)
		if err != nil {
			continue
		}
		m, err := decodeManifest(b)
		if err != nil {
			continue
		}
		for _, d := range m.Chunks {
			live[d] = true
		}
	}
	for _, up := range st.uploads {
		// A committed upload's chunks are protected by its manifest (or
		// fair game once that manifest is released): the entry lingers
		// only so late CloseUpload calls from sibling streams stay
		// idempotent, and must not pin anything.
		if up.committed {
			continue
		}
		for _, d := range up.digests {
			live[d] = true
		}
	}
	return live
}
