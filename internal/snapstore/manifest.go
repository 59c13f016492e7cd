package snapstore

import (
	"encoding/json"
	"fmt"
	"strings"

	"snapify/internal/blob"
)

// Store layout on the host VFS (DESIGN.md §11):
//
//	/snapstore/chunks/<hex-sha256>     one file per unique chunk content
//	/snapstore/manifests<snapshot path> one manifest per stored snapshot
//
// Manifests are tiny JSON documents; chunks are the bulk bytes. A chunk
// file's name IS its content digest, so Verify can fsck the store by
// re-digesting, and identical content across snapshots (or tenants)
// lands on the same file exactly once.
const (
	// ChunkPrefix is the VFS directory holding content-addressed chunks.
	ChunkPrefix = "/snapstore/chunks/"
	// ManifestPrefix is the VFS directory holding snapshot manifests.
	ManifestPrefix = "/snapstore/manifests"
	// TmpSuffix marks a manifest mid-commit. Commit writes the temp name
	// first, then the final name, then removes the temp — a crash between
	// the two leaves the snapshot absent (never torn), and GC sweeps the
	// stale temp (the atomic-or-absent guarantee, PR 4).
	TmpSuffix = ".tmp"
)

// Manifest records one stored snapshot: the logical geometry of a whole
// context image and the ordered chunk digests that reassemble it. Its one
// holder is the snapshot itself; Release removes it.
type Manifest struct {
	Path       string   `json:"path"`
	Size       int64    `json:"size"`
	ChunkBytes int64    `json:"chunk_bytes"`
	Chunks     []string `json:"chunks"`
}

// ZeroChunks counts the chunks whose digest is ZeroDigest of their
// length: the ones no upload ever ships.
func (m *Manifest) ZeroChunks() int {
	n := 0
	for i, d := range m.Chunks {
		if d == ZeroDigest(m.chunkLen(i)) {
			n++
		}
	}
	return n
}

// chunkLen returns the byte length of chunk i (the final chunk may be
// short).
func (m *Manifest) chunkLen(i int) int64 {
	off := int64(i) * m.ChunkBytes
	n := m.Size - off
	if n > m.ChunkBytes {
		n = m.ChunkBytes
	}
	return n
}

// chunkCount returns how many chunks a size/chunkBytes geometry needs.
func chunkCount(size, chunkBytes int64) int {
	if size <= 0 || chunkBytes <= 0 {
		return 0
	}
	return int((size + chunkBytes - 1) / chunkBytes)
}

func (m *Manifest) encode() blob.Blob {
	data, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("snapstore: encoding manifest: %v", err)) //nolint:paniclib // caller bug: Manifest holds only marshalable fields, so failure is unconstructible
	}
	return blob.FromBytes(data)
}

func decodeManifest(b blob.Blob) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(b.Bytes(), &m); err != nil {
		return nil, fmt.Errorf("snapstore: decoding manifest: %w", err)
	}
	if m.ChunkBytes <= 0 || m.Size < 0 {
		return nil, fmt.Errorf("snapstore: manifest %s: bad geometry size=%d chunk_bytes=%d", m.Path, m.Size, m.ChunkBytes)
	}
	if got, want := len(m.Chunks), chunkCount(m.Size, m.ChunkBytes); got != want {
		return nil, fmt.Errorf("snapstore: manifest %s: %d chunks for %d bytes in %d-byte chunks (want %d)",
			m.Path, got, m.Size, m.ChunkBytes, want)
	}
	for i, d := range m.Chunks {
		if !isDigest(d) {
			return nil, fmt.Errorf("snapstore: manifest %s: chunk %d is named %q, not a digest", m.Path, i, d)
		}
	}
	return &m, nil
}

// normPath canonicalizes a snapshot path so manifest keys are stable no
// matter how the caller spells the path.
func normPath(p string) string {
	if !strings.HasPrefix(p, "/") {
		return "/" + p
	}
	return p
}

// manifestPath maps a snapshot path to its manifest's VFS key.
func manifestPath(snapshot string) string {
	return ManifestPrefix + normPath(snapshot)
}

// chunkPath maps a digest to its chunk file's VFS key.
func chunkPath(digest string) string {
	return ChunkPrefix + digest
}
