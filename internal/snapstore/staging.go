package snapstore

import (
	"fmt"
	"sort"
	"sync"

	"snapify/internal/blob"
)

// Staging is the destination side of live migration's pre-copy protocol:
// the VM-migration analog of "pages received into destination memory
// ahead of the switch-over". Each pre-copy round the source ships its
// dirty chunks into the host store; the destination card then pulls the
// changed chunks down and parks them here, keyed by the snapshot path
// whose manifest has not committed yet. Across rounds the staged digest
// list converges on the final image, so the switch-over restore only
// patches the last round's stragglers and adopts the rest in place.
//
// Every staged chunk is digest-verified on arrival, and a Plan against
// the committed manifest re-verifies the whole set before an adoption —
// a stale or corrupted staging area degrades to extra fetches, never to
// a wrong image.
type Staging struct {
	mu      sync.Mutex
	entries map[string]*stageEntry
}

// stageEntry is the staged state of one not-yet-committed snapshot.
type stageEntry struct {
	size       int64
	chunkBytes int64
	want       []string    // authoritative digest plan of the last Plan call
	got        []string    // digest each staged chunk verified against ("" = empty slot)
	chunks     []blob.Blob // staged content, indexed like want
}

// NewStaging returns an empty staging area.
func NewStaging() *Staging {
	return &Staging{entries: make(map[string]*stageEntry)}
}

// Plan reconciles the staging area for path against an authoritative
// digest plan (a pending upload's digests mid-migration, the committed
// manifest's at restore time) and returns the chunk indices that still
// need fetching — missing slots plus any staged chunk the new plan
// disagrees with. A geometry change (the image grew or shrank between
// rounds) resets the entry; correctness is unaffected, the next fetch
// set is just larger.
func (sg *Staging) Plan(path string, size, chunkBytes int64, want []string) []int {
	sg.mu.Lock()
	defer sg.mu.Unlock()
	path = normPath(path)
	e := sg.entries[path]
	if e == nil || e.size != size || e.chunkBytes != chunkBytes || len(e.want) != len(want) {
		e = &stageEntry{
			size:       size,
			chunkBytes: chunkBytes,
			got:        make([]string, len(want)),
			chunks:     make([]blob.Blob, len(want)),
		}
		sg.entries[path] = e
	}
	e.want = append([]string(nil), want...)
	var need []int
	for i, d := range e.want {
		if e.got[i] != d {
			need = append(need, i)
		}
	}
	return need
}

// SetChunk stages the fetched content of chunk idx. The content is
// digest-verified against the current plan before it is admitted, so a
// corrupted (or raced) fetch is rejected rather than staged.
func (sg *Staging) SetChunk(path string, idx int, content blob.Blob) error {
	// Hash before taking the lock (content is immutable).
	got := Digest(content)
	sg.mu.Lock()
	defer sg.mu.Unlock()
	e := sg.entries[normPath(path)]
	if e == nil {
		return fmt.Errorf("snapstore: stage %s: no staging plan", path)
	}
	if idx < 0 || idx >= len(e.want) {
		return fmt.Errorf("snapstore: stage %s: chunk %d out of %d", path, idx, len(e.want))
	}
	m := Manifest{Size: e.size, ChunkBytes: e.chunkBytes}
	if content.Len() != m.chunkLen(idx) {
		return fmt.Errorf("snapstore: stage %s: chunk %d is %d bytes, want %d", path, idx, content.Len(), m.chunkLen(idx))
	}
	if got != e.want[idx] {
		return fmt.Errorf("snapstore: stage %s: chunk %d digest mismatch (got %.12s, want %.12s)", path, idx, got, e.want[idx])
	}
	e.chunks[idx] = content
	e.got[idx] = e.want[idx]
	return nil
}

// Image assembles the staged snapshot for path if every chunk of the
// current plan has arrived and verified; ok=false otherwise.
func (sg *Staging) Image(path string) (blob.Blob, bool) {
	sg.mu.Lock()
	defer sg.mu.Unlock()
	e := sg.entries[normPath(path)]
	if e == nil || len(e.want) == 0 {
		return blob.FromBytes(nil), false
	}
	for i, d := range e.want {
		if e.got[i] != d {
			return blob.FromBytes(nil), false
		}
	}
	return blob.Concat(e.chunks...), true
}

// Has reports whether a staging entry exists for path.
func (sg *Staging) Has(path string) bool {
	sg.mu.Lock()
	defer sg.mu.Unlock()
	_, ok := sg.entries[normPath(path)]
	return ok
}

// StagedBytes returns how many verified bytes are parked for path.
func (sg *Staging) StagedBytes(path string) int64 {
	sg.mu.Lock()
	defer sg.mu.Unlock()
	e := sg.entries[normPath(path)]
	if e == nil {
		return 0
	}
	var n int64
	for i := range e.want {
		if e.got[i] != "" && e.got[i] == e.want[i] {
			n += e.chunks[i].Len()
		}
	}
	return n
}

// Paths lists the staged snapshot paths, sorted.
func (sg *Staging) Paths() []string {
	sg.mu.Lock()
	defer sg.mu.Unlock()
	out := make([]string, 0, len(sg.entries))
	for p := range sg.entries {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Drop discards the staged state for path (migration aborted, or the
// adoption consumed it).
func (sg *Staging) Drop(path string) {
	sg.mu.Lock()
	defer sg.mu.Unlock()
	delete(sg.entries, normPath(path))
}
