package snapstore

import (
	"errors"
	"io"
	"strings"
	"testing"

	"snapify/internal/blob"
	"snapify/internal/faultinject"
	"snapify/internal/hostfs"
	"snapify/internal/obs"
	"snapify/internal/simclock"
	"snapify/internal/vfs"
)

// env is a store over a fresh host file system with a swappable fault
// injector (nil means no faults), mirroring how the platform wires the
// injector in lazily.
type env struct {
	st  *Store
	fs  *hostfs.FS
	inj *faultinject.Injector
}

func newEnv(t *testing.T) *env {
	t.Helper()
	m := simclock.Default()
	e := &env{fs: hostfs.New(m)}
	e.st = New(m, e.fs, obs.New(), func() *faultinject.Injector { return e.inj })
	return e
}

func (e *env) arm(f faultinject.Fault) { e.inj = faultinject.New(faultinject.Plan{f}, nil) }
func (e *env) disarm()                 { e.inj = nil }

// testContent builds deterministic literal content so different seeds
// give chunk sets that never collide.
func testContent(seed byte, n int64) blob.Blob {
	data := make([]byte, n)
	for i := range data {
		data[i] = seed + byte(i%251)
	}
	return blob.FromBytes(data)
}

// putAll drives the full writer protocol: negotiate, ship every needed
// chunk, close. It returns how many chunks the store asked for.
func putAll(t *testing.T, e *env, path, parent string, content blob.Blob, chunkBytes int64) int {
	t.Helper()
	digests := ChunkDigests(content, chunkBytes)
	need, committed, _, err := e.st.Negotiate(path, parent, content.Len(), chunkBytes, digests)
	if err != nil {
		t.Fatalf("negotiate %s: %v", path, err)
	}
	if committed {
		return 0
	}
	m := Manifest{Size: content.Len(), ChunkBytes: chunkBytes}
	for _, idx := range need {
		off := int64(idx) * chunkBytes
		if _, err := e.st.PutChunkAt(path, off, content.Slice(off, m.chunkLen(idx))); err != nil {
			t.Fatalf("put %s chunk %d: %v", path, idx, err)
		}
	}
	committed, _, err = e.st.CloseUpload(path)
	if err != nil {
		t.Fatalf("close %s: %v", path, err)
	}
	if !committed {
		t.Fatalf("close %s: upload complete but not committed", path)
	}
	return len(need)
}

// readAll assembles a store-resident snapshot through the overlay.
func readAll(t *testing.T, e *env, path string) blob.Blob {
	t.Helper()
	r, err := Overlay(e.st, vfs.Host(e.fs)).Open(path)
	if err != nil {
		t.Fatalf("overlay open %s: %v", path, err)
	}
	var parts []blob.Blob
	for {
		b, _, err := r.Next(1 << 20)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("overlay read %s: %v", path, err)
		}
		parts = append(parts, b)
	}
	return blob.Concat(parts...)
}

func TestUploadCommitAndCrossSnapshotDedup(t *testing.T) {
	e := newEnv(t)
	const chunk = 4096
	content := testContent(1, 4*chunk+100) // 5 chunks, last one short

	if got := putAll(t, e, "/snap/a/ctx", "", content, chunk); got != 5 {
		t.Fatalf("cold upload shipped %d chunks, want 5", got)
	}
	if !e.st.Has("/snap/a/ctx") {
		t.Fatal("manifest missing after commit")
	}
	// Same content under a second path: the negotiation finds every chunk
	// resident and commits without a single put.
	if got := putAll(t, e, "/snap/b/ctx", "", content, chunk); got != 0 {
		t.Fatalf("identical re-upload shipped %d chunks, want 0", got)
	}
	s := e.st.Stats()
	if s.Manifests != 2 || s.Chunks != 5 {
		t.Fatalf("stats after dedup: %+v", s)
	}
	if s.LogicalBytes != 2*content.Len() || s.StoredBytes != content.Len() {
		t.Fatalf("logical/stored bytes: %+v", s)
	}
	if r := s.DedupRatio(); r < 1.9 || r > 2.1 {
		t.Fatalf("dedup ratio %.2f, want ~2", r)
	}
	if got := readAll(t, e, "/snap/b/ctx"); !blob.Equal(got, content) {
		t.Fatal("deduped snapshot does not reassemble byte-identical")
	}
}

// ReadChunk serves a chunk's content at exactly the cost of one host
// file-system read of its chunk file, leaves the store as it found it,
// and fails for a digest the store does not hold.
func TestReadChunkIsOneHostFileRead(t *testing.T) {
	e := newEnv(t)
	const chunk = 1024
	content := testContent(3, 4*chunk)
	putAll(t, e, "/snap/a", "", content, chunk)
	for i, d := range ChunkDigests(content, chunk) {
		for range 2 {
			b, dur, err := e.st.ReadChunk(d)
			if err != nil {
				t.Fatalf("read chunk %d: %v", i, err)
			}
			if !blob.Equal(b, content.Slice(int64(i)*chunk, chunk)) {
				t.Fatalf("chunk %d content differs", i)
			}
			if _, want, _ := e.fs.ReadFile(chunkPath(d)); dur != want {
				t.Fatalf("chunk %d read cost %v, want the host file read's %v", i, dur, want)
			}
		}
	}
	if s := e.st.Stats(); s.Chunks != 4 || s.StoredBytes != content.Len() {
		t.Fatalf("stats after reads: %+v", s)
	}
	if problems, _ := e.st.Verify(); len(problems) != 0 {
		t.Fatalf("verify after reads: %v", problems)
	}
	if _, _, err := e.st.ReadChunk(Digest(testContent(9, chunk))); err == nil {
		t.Fatal("read of a chunk the store never held succeeded")
	}
}

func TestPutChunkVerifiesDigestAndAlignment(t *testing.T) {
	e := newEnv(t)
	const chunk = 4096
	content := testContent(2, 2*chunk)
	digests := ChunkDigests(content, chunk)
	if _, _, _, err := e.st.Negotiate("/snap/p/ctx", "", content.Len(), chunk, digests); err != nil {
		t.Fatal(err)
	}
	// Right length, wrong bytes: rejected before anything is stored.
	if _, err := e.st.PutChunkAt("/snap/p/ctx", 0, testContent(99, chunk)); err == nil {
		t.Fatal("corrupt chunk admitted")
	}
	if e.fs.Exists(chunkPath(digests[0])) {
		t.Fatal("rejected chunk landed on disk")
	}
	if _, err := e.st.PutChunkAt("/snap/p/ctx", chunk/2, content.Slice(0, chunk)); err == nil {
		t.Fatal("misaligned offset admitted")
	}
	if _, err := e.st.PutChunkAt("/snap/p/ctx", 0, content.Slice(0, chunk)); err != nil {
		t.Fatal(err)
	}
	// Replaying the same chunk is a no-op, not an error.
	if _, err := e.st.PutChunkAt("/snap/p/ctx", 0, content.Slice(0, chunk)); err != nil {
		t.Fatalf("idempotent replay failed: %v", err)
	}
	if _, err := e.st.PutChunkAt("/snap/nobody", 0, content.Slice(0, chunk)); err == nil {
		t.Fatal("put without a negotiated upload admitted")
	}
}

func TestNegotiateRejectsBadGeometryAndParent(t *testing.T) {
	e := newEnv(t)
	const chunk = 4096
	content := testContent(3, 2*chunk)
	digests := ChunkDigests(content, chunk)
	if _, _, _, err := e.st.Negotiate("/snap/g", "", content.Len(), 0, digests); err == nil {
		t.Fatal("zero chunkBytes accepted")
	}
	if _, _, _, err := e.st.Negotiate("/snap/g", "", content.Len(), chunk, digests[:1]); err == nil {
		t.Fatal("digest count mismatch accepted")
	}
	if _, _, _, err := e.st.Negotiate("/snap/g", "/snap/noparent", content.Len(), chunk, digests); err == nil {
		t.Fatal("missing parent accepted")
	}
	if _, _, _, err := e.st.Negotiate("/snap/g", "/snap/g", content.Len(), chunk, digests); err == nil {
		t.Fatal("self-parent accepted")
	}
}

func TestReleaseCascadesDeltaChain(t *testing.T) {
	e := newEnv(t)
	const chunk = 4096
	base := testContent(4, 3*chunk)
	delta := testContent(5, 2*chunk)
	putAll(t, e, "/snap/base/ctx", "", base, chunk)
	putAll(t, e, "/snap/d1/delta", "/snap/base/ctx", delta, chunk)

	m, _, err := e.st.Manifest("/snap/base/ctx")
	if err != nil {
		t.Fatal(err)
	}
	if m.Refs != 2 {
		t.Fatalf("base refs %d, want 2 (holder + child)", m.Refs)
	}
	dm, _, err := e.st.Manifest("/snap/d1/delta")
	if err != nil {
		t.Fatal(err)
	}
	if dm.Parent != "/snap/base/ctx" || dm.Refs != 1 {
		t.Fatalf("delta manifest: %+v", dm)
	}
	if problems, _ := e.st.Verify(); len(problems) != 0 {
		t.Fatalf("verify: %v", problems)
	}

	// Releasing the delta cascades one reference off the base.
	if _, err := e.st.Release("/snap/d1/delta"); err != nil {
		t.Fatal(err)
	}
	if e.st.Has("/snap/d1/delta") {
		t.Fatal("released delta manifest still present")
	}
	m, _, err = e.st.Manifest("/snap/base/ctx")
	if err != nil {
		t.Fatal(err)
	}
	if m.Refs != 1 {
		t.Fatalf("base refs %d after delta release, want 1", m.Refs)
	}
	if _, err := e.st.Release("/snap/base/ctx"); err != nil {
		t.Fatal(err)
	}
	s := e.st.Stats()
	if s.Manifests != 0 || s.ReclaimableChunks != 5 {
		t.Fatalf("stats after release-all: %+v", s)
	}
	gs, _, err := e.st.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if gs.ChunksReclaimed != 5 || e.st.Stats().Chunks != 0 {
		t.Fatalf("gc after release-all: %+v, stats %+v", gs, e.st.Stats())
	}
}

func TestPendingUploadPinsChunksUntilAbort(t *testing.T) {
	e := newEnv(t)
	const chunk = 4096
	content := testContent(6, 2*chunk)
	digests := ChunkDigests(content, chunk)
	if _, _, _, err := e.st.Negotiate("/snap/pin", "", content.Len(), chunk, digests); err != nil {
		t.Fatal(err)
	}
	if _, err := e.st.PutChunkAt("/snap/pin", 0, content.Slice(0, chunk)); err != nil {
		t.Fatal(err)
	}
	// The in-flight upload shields its shipped chunk from a concurrent GC.
	gs, _, err := e.st.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if gs.ChunksReclaimed != 0 || gs.ChunksLive != 1 {
		t.Fatalf("gc swept a pinned chunk: %+v", gs)
	}
	e.st.AbortUpload("/snap/pin")
	gs, _, err = e.st.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if gs.ChunksReclaimed != 1 || e.st.Stats().Chunks != 0 {
		t.Fatalf("gc after abort: %+v", gs)
	}
}

// TestCommittedUploadDoesNotPinChunks is the regression for the GC leak:
// a committed upload entry lingers (so late CloseUpload replays from
// sibling streams stay idempotent) but must not pin chunks once the
// snapshot itself is released.
func TestCommittedUploadDoesNotPinChunks(t *testing.T) {
	e := newEnv(t)
	const chunk = 4096
	content := testContent(7, 3*chunk)
	putAll(t, e, "/snap/lin/ctx", "", content, chunk)
	// A late close replay still reports committed.
	committed, _, err := e.st.CloseUpload("/snap/lin/ctx")
	if err != nil || !committed {
		t.Fatalf("close replay: committed=%v err=%v", committed, err)
	}
	if _, err := e.st.Release("/snap/lin/ctx"); err != nil {
		t.Fatal(err)
	}
	gs, _, err := e.st.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if gs.ChunksReclaimed != 3 || e.st.Stats().Chunks != 0 {
		t.Fatalf("lingering committed upload pinned chunks: %+v", gs)
	}
}

// TestRenegotiateResumesPartialUpload is the mid-upload crash retry path:
// chunks shipped before the writer died drop out of the second need set.
func TestRenegotiateResumesPartialUpload(t *testing.T) {
	e := newEnv(t)
	const chunk = 4096
	content := testContent(8, 3*chunk)
	digests := ChunkDigests(content, chunk)
	need, _, _, err := e.st.Negotiate("/snap/re", "", content.Len(), chunk, digests)
	if err != nil {
		t.Fatal(err)
	}
	if len(need) != 3 {
		t.Fatalf("cold need %v", need)
	}
	if _, err := e.st.PutChunkAt("/snap/re", 0, content.Slice(0, chunk)); err != nil {
		t.Fatal(err)
	}
	e.st.AbortAll() // the daemon died; stream state is gone

	need, committed, _, err := e.st.Negotiate("/snap/re", "", content.Len(), chunk, digests)
	if err != nil {
		t.Fatal(err)
	}
	if committed || len(need) != 2 {
		t.Fatalf("retry negotiation: committed=%v need=%v, want the 2 unshipped chunks", committed, need)
	}
	m := Manifest{Size: content.Len(), ChunkBytes: chunk}
	for _, idx := range need {
		off := int64(idx) * chunk
		if _, err := e.st.PutChunkAt("/snap/re", off, content.Slice(off, m.chunkLen(idx))); err != nil {
			t.Fatal(err)
		}
	}
	if committed, _, err := e.st.CloseUpload("/snap/re"); err != nil || !committed {
		t.Fatalf("retry close: committed=%v err=%v", committed, err)
	}
	if got := readAll(t, e, "/snap/re"); !blob.Equal(got, content) {
		t.Fatal("resumed upload does not reassemble byte-identical")
	}
}

func TestCommitCrashLeavesSnapshotAbsentAndGCRecovers(t *testing.T) {
	e := newEnv(t)
	const chunk = 4096
	content := testContent(9, 2*chunk)
	digests := ChunkDigests(content, chunk)
	if _, _, _, err := e.st.Negotiate("/snap/cc", "", content.Len(), chunk, digests); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		off := int64(i) * chunk
		if _, err := e.st.PutChunkAt("/snap/cc", off, content.Slice(off, chunk)); err != nil {
			t.Fatal(err)
		}
	}
	e.arm(faultinject.Fault{Site: faultinject.SiteStore, Key: "commit", Kind: faultinject.Crash, Nth: 1})
	if _, _, err := e.st.CloseUpload("/snap/cc"); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("crashed commit returned %v, want ErrInterrupted", err)
	}
	e.disarm()
	// Atomic-or-absent: no manifest, a stale temp, both chunks orphaned.
	if e.st.Has("/snap/cc") {
		t.Fatal("crashed commit left a committed manifest")
	}
	staleTmp := false
	for _, mp := range e.fs.List(ManifestPrefix) {
		if strings.HasSuffix(mp, TmpSuffix) {
			staleTmp = true
		}
	}
	if !staleTmp {
		t.Fatal("crashed commit left no stale temp manifest to sweep")
	}
	if problems, _ := e.st.Verify(); len(problems) == 0 {
		t.Fatal("verify did not flag the stale temp manifest")
	}
	gs, _, err := e.st.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if gs.TmpSwept != 1 || gs.ChunksReclaimed != 2 {
		t.Fatalf("recovery gc: %+v", gs)
	}
	if problems, _ := e.st.Verify(); len(problems) != 0 {
		t.Fatalf("store inconsistent after recovery gc: %v", problems)
	}
	// The retry path works: a fresh upload of the same snapshot commits.
	putAll(t, e, "/snap/cc", "", content, chunk)
	if got := readAll(t, e, "/snap/cc"); !blob.Equal(got, content) {
		t.Fatal("post-recovery upload does not reassemble byte-identical")
	}
}

func TestGCCrashIsResumable(t *testing.T) {
	e := newEnv(t)
	const chunk = 4096
	content := testContent(10, 4*chunk)
	putAll(t, e, "/snap/gcc/ctx", "", content, chunk)
	if _, err := e.st.Release("/snap/gcc/ctx"); err != nil {
		t.Fatal(err)
	}
	e.arm(faultinject.Fault{Site: faultinject.SiteStore, Key: "gc", Kind: faultinject.Crash, Nth: 2})
	gs, _, err := e.st.GC(0)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("crashed gc returned %v, want ErrInterrupted", err)
	}
	if gs.ChunksScanned != 2 || gs.ChunksReclaimed != 1 {
		t.Fatalf("interrupted gc stats: %+v", gs)
	}
	e.disarm()
	// The sweep only deletes garbage, so the re-run converges.
	if _, _, err := e.st.GC(0); err != nil {
		t.Fatal(err)
	}
	if s := e.st.Stats(); s.Chunks != 0 || s.ReclaimableChunks != 0 {
		t.Fatalf("gc re-run did not converge: %+v", s)
	}
	if problems, _ := e.st.Verify(); len(problems) != 0 {
		t.Fatalf("verify after interrupted+resumed gc: %v", problems)
	}
}

func TestVerifyDetectsCorruptionAndMissingChunks(t *testing.T) {
	e := newEnv(t)
	const chunk = 4096
	content := testContent(11, 2*chunk)
	digests := ChunkDigests(content, chunk)
	putAll(t, e, "/snap/v/ctx", "", content, chunk)
	if problems, _ := e.st.Verify(); len(problems) != 0 {
		t.Fatalf("clean store flagged: %v", problems)
	}
	// Flip a chunk's content under its digest name.
	if _, err := e.fs.WriteFile(chunkPath(digests[0]), testContent(12, chunk)); err != nil {
		t.Fatal(err)
	}
	problems, _ := e.st.Verify()
	if len(problems) != 1 || !strings.Contains(problems[0], "digests to") {
		t.Fatalf("corrupt chunk not flagged: %v", problems)
	}
	// Remove the other chunk: the manifest's reference dangles.
	if err := e.fs.Remove(chunkPath(digests[1])); err != nil {
		t.Fatal(err)
	}
	problems, _ = e.st.Verify()
	found := false
	for _, p := range problems {
		if strings.Contains(p, "missing") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing chunk not flagged: %v", problems)
	}
}

func TestOverlayRangeAndPassthroughReads(t *testing.T) {
	e := newEnv(t)
	const chunk = 4096
	content := testContent(13, 3*chunk+200)
	putAll(t, e, "/snap/o/ctx", "", content, chunk)
	fs := Overlay(e.st, vfs.Host(e.fs))

	if got := readAll(t, e, "/snap/o/ctx"); !blob.Equal(got, content) {
		t.Fatal("whole-file overlay read differs")
	}
	// A range crossing a chunk boundary.
	off, n := int64(chunk-100), int64(chunk+300)
	r, err := fs.OpenRange("/snap/o/ctx", off, n)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != n {
		t.Fatalf("range size %d, want %d", r.Size(), n)
	}
	var parts []blob.Blob
	for {
		b, _, err := r.Next(512)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, b)
	}
	if got := blob.Concat(parts...); !blob.Equal(got, content.Slice(off, n)) {
		t.Fatal("range overlay read differs")
	}
	// A range past the end fails fast.
	if _, err := fs.OpenRange("/snap/o/ctx", content.Len()-10, 20); err == nil {
		t.Fatal("out-of-range open succeeded")
	}
	// Plain files pass through untouched.
	plain := testContent(14, 1000)
	if _, err := e.fs.WriteFile("/plain/file", plain); err != nil {
		t.Fatal(err)
	}
	pr, err := fs.Open("/plain/file")
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := pr.Next(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if !blob.Equal(b, plain) {
		t.Fatal("passthrough read differs")
	}
}

// TestDigestKeysZeroChunksTogether: zeros are the same content wherever
// they sit, so every all-zero window of one length shares one leaf-cache
// entry whatever its stream offset, and every all-zero chunk of one size
// one whole-blob entry, however it was cut out of its image — a
// zero-background region is otherwise hashed (and materialized) once per
// window position.
func TestDigestKeysZeroChunksTogether(t *testing.T) {
	const chunk = 4*digestWindow + 100 // a short last window too
	img := blob.Zeros(8 * chunk)
	// One dirty record per chunk, so its windows go through the leaf path.
	dirty := func(k int64) blob.Blob {
		return overwrite(img.Slice(k*chunk, chunk), 17, []byte("record"))
	}
	first, firstDirty := Digest(img.Slice(0, chunk)), Digest(dirty(0))
	blobsMu.Lock()
	blobsBefore := len(blobs)
	blobsMu.Unlock()
	leavesBefore := (leaves.gens[0].n + leaves.gens[1].n)
	for k := int64(1); k < 8; k++ {
		if d := Digest(img.Slice(k*chunk, chunk)); d != first {
			t.Fatalf("zero chunk %d digests to %s, chunk 0 to %s", k, d, first)
		}
		if d := Digest(dirty(k)); d != firstDirty {
			t.Fatalf("dirty zero chunk %d digests to %s, chunk 0 to %s", k, d, firstDirty)
		}
	}
	blobsMu.Lock()
	blobsAfter := len(blobs)
	blobsMu.Unlock()
	if blobsAfter != blobsBefore {
		t.Errorf("zero chunks at 7 more offsets added %d whole-blob cache entries, want 0", blobsAfter-blobsBefore)
	}
	if n := (leaves.gens[0].n + leaves.gens[1].n); n != leavesBefore {
		t.Errorf("zero windows at 7 more offsets added %d leaf cache entries, want 0", n-leavesBefore)
	}
}

// TestNegotiateWindowsAddUpToTheWholeList: a digest list offered in
// windows gets, window by window, the need set the whole list gets in one
// message — duplicates of a chunk an earlier window shipped included, so
// the bytes a capture ships do not depend on how it cuts its windows or on
// what has landed in between — pins only the digests it knows so far, and
// commits at the close that follows the last chunk, never before the last
// window arrived.
func TestNegotiateWindowsAddUpToTheWholeList(t *testing.T) {
	const chunk = 4096
	// Seven chunks: A B Z | Z C A | Z — zeros and A recur across windows.
	a, b, c, z := testContent(31, chunk), testContent(32, chunk), testContent(33, chunk), blob.Zeros(chunk)
	content := blob.Concat(a, b, z, z, c, a, z)
	digests := ChunkDigests(content, chunk)

	whole := newEnv(t)
	wantNeed, _, _, err := whole.st.Negotiate("/snap/w", "", content.Len(), chunk, digests)
	if err != nil || len(wantNeed) != 7 {
		t.Fatalf("whole-list need %v err %v, want all seven", wantNeed, err)
	}

	e := newEnv(t)
	var gotNeed []int
	for first := 0; first < len(digests); first += 3 {
		end := min(first+3, len(digests))
		need, committed, _, err := e.st.NegotiateWindow("/snap/w", "", content.Len(), chunk, first, digests[first:end])
		if err != nil || committed {
			t.Fatalf("window at %d: committed=%v err=%v", first, committed, err)
		}
		gotNeed = append(gotNeed, need...)
		// Everything the window needs lands before the next is offered —
		// the worst case for a store that answered from residency alone.
		for _, idx := range need {
			if _, err := e.st.PutChunkAt("/snap/w", int64(idx)*chunk, content.Slice(int64(idx)*chunk, chunk)); err != nil {
				t.Fatalf("put chunk %d: %v", idx, err)
			}
		}
		if _, err := e.st.PutChunkAt("/snap/w", int64(end)*chunk, z); end < len(digests) && err == nil {
			t.Fatalf("chunk %d was admitted before a window declared its digest", end)
		}
		if committed, _, err := e.st.CloseUpload("/snap/w"); end < len(digests) && (committed || err != nil) {
			t.Fatalf("close after the window at %d: committed=%v err=%v, want pending", first, committed, err)
		}
		// A sweep between windows keeps what the known windows name and
		// has nothing else to find.
		if gs, _, err := e.st.GC(0); err != nil || gs.ChunksReclaimed != 0 {
			t.Fatalf("gc after the window at %d reclaimed %d chunks (err %v)", first, gs.ChunksReclaimed, err)
		}
	}
	if len(gotNeed) != len(wantNeed) {
		t.Fatalf("windowed need %v, whole-list need %v", gotNeed, wantNeed)
	}
	for i := range gotNeed {
		if gotNeed[i] != wantNeed[i] {
			t.Fatalf("windowed need %v, whole-list need %v", gotNeed, wantNeed)
		}
	}
	if committed, _, err := e.st.CloseUpload("/snap/w"); err != nil || !committed {
		t.Fatalf("final close: committed=%v err=%v", committed, err)
	}
	if got := readAll(t, e, "/snap/w"); !blob.Equal(got, content) {
		t.Fatal("windowed upload does not reassemble byte-identical")
	}

	// The same image again under another path: nothing is missing, so the
	// window that completes the list commits on the spot — and only that one.
	for first := 0; first < len(digests); first += 3 {
		end := min(first+3, len(digests))
		need, committed, _, err := e.st.NegotiateWindow("/snap/w2", "", content.Len(), chunk, first, digests[first:end])
		if err != nil || len(need) != 0 || committed != (end == len(digests)) {
			t.Fatalf("resident window at %d: need=%v committed=%v err=%v", first, need, committed, err)
		}
	}
	if e.st.PendingUploads() != 0 || !e.st.Has("/snap/w2") {
		t.Fatalf("after the resident upload: %d pending, manifest present %v", e.st.PendingUploads(), e.st.Has("/snap/w2"))
	}
}

// TestNegotiateWindowRefusesWhatDoesNotContinueTheUpload: a window past
// the declared geometry, one that restates the geometry differently, one
// that leaves a gap or repeats, and one for a path with no upload open
// (never opened, committed, or aborted) are all ErrBadWindow, and leave
// the upload they named exactly as it was.
func TestNegotiateWindowRefusesWhatDoesNotContinueTheUpload(t *testing.T) {
	e := newEnv(t)
	const chunk = 4096
	content := testContent(41, 5*chunk)
	d := ChunkDigests(content, chunk)
	size := content.Len()
	refused := func(what string, path string, size, chunkBytes int64, first int, digests []string) {
		t.Helper()
		if _, _, _, err := e.st.NegotiateWindow(path, "", size, chunkBytes, first, digests); !errors.Is(err, ErrBadWindow) {
			t.Errorf("%s: err = %v, want ErrBadWindow", what, err)
		}
	}
	refused("no upload open", "/snap/r", size, chunk, 2, d[2:4])
	refused("first window past the geometry", "/snap/r", size, chunk, 0, append(d[:5:5], "extra"))
	refused("negative first chunk", "/snap/r", size, chunk, -1, d[:1])

	if _, _, _, err := e.st.NegotiateWindow("/snap/r", "", size, chunk, 0, d[:2]); err != nil {
		t.Fatal(err)
	}
	refused("gap", "/snap/r", size, chunk, 3, d[3:])
	refused("repeat", "/snap/r", size, chunk, 1, d[1:3])
	refused("past the geometry", "/snap/r", size, chunk, 2, append(d[2:5:5], "extra"))
	refused("different size", "/snap/r", size-chunk, chunk, 2, d[2:4])
	refused("different chunk size", "/snap/r", size, 2*chunk, 2, d[2:3])
	if _, _, _, err := e.st.NegotiateWindow("/snap/r", "/snap/other", size, chunk, 2, d[2:]); !errors.Is(err, ErrBadWindow) {
		t.Errorf("different parent: err = %v, want ErrBadWindow", err)
	}
	// None of that moved the upload: the window it is waiting for fits.
	need, _, _, err := e.st.NegotiateWindow("/snap/r", "", size, chunk, 2, d[2:])
	if err != nil || len(need) != 3 {
		t.Fatalf("the continuing window: need=%v err=%v", need, err)
	}
	for idx := 0; idx < 5; idx++ {
		if _, err := e.st.PutChunkAt("/snap/r", int64(idx)*chunk, content.Slice(int64(idx)*chunk, chunk)); err != nil {
			t.Fatal(err)
		}
	}
	if committed, _, err := e.st.CloseUpload("/snap/r"); err != nil || !committed {
		t.Fatalf("close: committed=%v err=%v", committed, err)
	}
	refused("committed upload", "/snap/r", size, chunk, 5, nil)

	if _, _, _, err := e.st.NegotiateWindow("/snap/gone", "", size, chunk, 0, d[:2]); err != nil {
		t.Fatal(err)
	}
	e.st.AbortAll()
	refused("upload lost to a daemon crash", "/snap/gone", size, chunk, 2, d[2:])
}
