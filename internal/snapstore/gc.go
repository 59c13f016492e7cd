package snapstore

import (
	"fmt"
	"strings"

	"snapify/internal/faultinject"
	"snapify/internal/simclock"
)

// GCStats reports one GC run.
type GCStats struct {
	ChunksScanned   int
	ChunksReclaimed int
	BytesReclaimed  int64
	TmpSwept        int // stale mid-commit temp manifests removed
	ChunksLive      int
}

// GC reclaims unreferenced chunks: mark every digest reachable from a
// committed manifest or a pending upload, sweep chunk files outside the
// mark set, and remove stale mid-commit temp manifests. at positions
// the emitted store_gc span on the host timeline.
//
// The sweep consults the fault injector once per examined chunk
// (SiteStore, key "gc"); a Crash fault abandons the sweep where it
// stands and returns ErrInterrupted. That is always safe: the sweep
// only ever deletes garbage, so a re-run converges on the same end
// state.
func (st *Store) GC(at simclock.Duration) (GCStats, simclock.Duration, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	var gs GCStats
	live := st.referencedLocked()
	dur := st.model.HostFSOpLatency // directory scan
	var sweepErr error
	// The span is open for the whole run and closed on every path out —
	// including an injected-crash abandon — so an interrupted sweep still
	// shows up on the timeline with whatever it reclaimed.
	sp := st.obs.TracerOf().Track("host", "snapstore").BeginAt(0, "store_gc", at, nil)
	defer func() {
		sp.SetArg("chunks_reclaimed", int64(gs.ChunksReclaimed))
		sp.SetArg("bytes_reclaimed", gs.BytesReclaimed)
		sp.SetArg("chunks_live", int64(gs.ChunksLive))
		sp.EndAt(at + dur)
	}()
	for _, mp := range st.fs.List(ManifestPrefix) {
		if !strings.HasSuffix(mp, TmpSuffix) {
			continue
		}
		// A temp manifest only outlives its commit if the daemon died
		// between the temp and final writes; the snapshot is absent, so
		// the temp is pure garbage.
		if err := st.fs.Remove(mp); err == nil {
			gs.TmpSwept++
			dur += st.model.HostFSOpLatency
		}
	}
	for _, cp := range st.fs.List(ChunkPrefix) {
		gs.ChunksScanned++
		if f := st.fire("gc"); f != nil && f.Kind == faultinject.Crash {
			sweepErr = fmt.Errorf("%w: gc sweep after %d chunks", ErrInterrupted, gs.ChunksScanned)
			break
		}
		if live[strings.TrimPrefix(cp, ChunkPrefix)] {
			gs.ChunksLive++
			continue
		}
		n, err := st.fs.Size(cp)
		if err != nil {
			continue
		}
		if err := st.fs.Remove(cp); err != nil {
			continue
		}
		gs.ChunksReclaimed++
		gs.BytesReclaimed += n
		dur += st.model.HostFSOpLatency
	}
	st.gcChunks.Add(int64(gs.ChunksReclaimed))
	st.gcBytes.Add(gs.BytesReclaimed)
	return gs, dur, sweepErr
}

// Verify is the store's fsck. It re-digests every chunk against its
// name, decodes every manifest, and checks that every chunk a manifest
// references exists. It returns a description of each problem found
// (empty means clean).
func (st *Store) Verify() ([]string, simclock.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	var problems []string
	var dur simclock.Duration
	for _, cp := range st.fs.List(ChunkPrefix) {
		b, d, err := st.fs.ReadFile(cp)
		dur += d
		if err != nil {
			problems = append(problems, fmt.Sprintf("chunk %s: %v", cp, err))
			continue
		}
		dur += st.model.HostMemcpy(b.Len())
		if got := Digest(b); got != strings.TrimPrefix(cp, ChunkPrefix) {
			problems = append(problems, fmt.Sprintf("chunk %s: content digests to %s", cp, got))
		}
	}
	for _, mp := range st.fs.List(ManifestPrefix) {
		if strings.HasSuffix(mp, TmpSuffix) {
			problems = append(problems, fmt.Sprintf("stale temp manifest %s (crashed commit; run gc)", mp))
			continue
		}
		b, d, err := st.fs.ReadFile(mp)
		dur += d
		if err != nil {
			problems = append(problems, fmt.Sprintf("manifest %s: %v", mp, err))
			continue
		}
		m, err := decodeManifest(b)
		if err != nil {
			problems = append(problems, fmt.Sprintf("manifest %s: %v", mp, err))
			continue
		}
		path := strings.TrimPrefix(mp, ManifestPrefix)
		for i, dg := range m.Chunks {
			if !st.fs.Exists(chunkPath(dg)) {
				problems = append(problems, fmt.Sprintf("manifest %s: chunk %d (%.12s) missing", path, i, dg))
			}
		}
	}
	return problems, dur
}
