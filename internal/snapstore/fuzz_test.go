package snapstore

import (
	"strings"
	"testing"

	"snapify/internal/blob"
)

// FuzzDecodeManifest throws arbitrary bytes at the manifest decoder.
// The decoder is the store's parsing surface for data read back off the
// host VFS (and, with federation, off the wire from a peer), so it must
// reject malformed documents with an error — never panic — and any
// document it accepts must have a positive chunk size and a non-negative
// size, satisfy the store's geometry invariant, name every chunk by a
// digest (64 lowercase hex characters) and survive a re-encode round trip
// unchanged.
func FuzzDecodeManifest(f *testing.F) {
	aa, bb := Digest(blob.Synthetic(1, 64)), Digest(blob.Synthetic(2, 36))
	valid := &Manifest{Path: "/snap/job0/context", Size: 100, ChunkBytes: 64, Chunks: []string{aa, bb}}
	single := &Manifest{Path: "/snap/job0/buf0", Size: 64, ChunkBytes: 64, Chunks: []string{aa}}
	empty := &Manifest{Path: "/snap/empty", Size: 0, ChunkBytes: 64}
	f.Add(valid.encode().Bytes())
	f.Add(single.encode().Bytes())
	f.Add(empty.encode().Bytes())
	// Chunk names that are not digests: short, long, upper-case, non-hex.
	for _, name := range []string{"aa", aa + "0", strings.ToUpper(aa), aa[:63] + "g"} {
		bad := &Manifest{Path: "/snap/bad", Size: 64, ChunkBytes: 64, Chunks: []string{name}}
		f.Add(bad.encode().Bytes())
	}
	f.Add([]byte(`{"path":"/x","size":100,"chunk_bytes":64,"refs":1,"chunks":["aa"]}`)) // count mismatch
	f.Add([]byte(`{"path":"/x","size":100,"chunk_b`))                                   // truncated
	f.Add([]byte(`{"path":"/x","size":-5,"chunk_bytes":64,"refs":1,"chunks":[]}`))      // negative size
	f.Add([]byte(``))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(blob.FromBytes(data))
		if err != nil {
			return // rejected input: the only requirement is "no panic"
		}
		if m.ChunkBytes <= 0 || m.Size < 0 {
			t.Fatalf("accepted manifest with size %d in %d-byte chunks", m.Size, m.ChunkBytes)
		}
		if got, want := len(m.Chunks), chunkCount(m.Size, m.ChunkBytes); got != want {
			t.Fatalf("accepted manifest with %d chunks, geometry wants %d (size %d, chunk %d)",
				got, want, m.Size, m.ChunkBytes)
		}
		for i, d := range m.Chunks {
			if !isDigest(d) {
				t.Fatalf("accepted manifest whose chunk %d is named %q", i, d)
			}
		}
		// Accepted documents must round-trip: encode is how the store
		// persists what it just validated.
		back, err := decodeManifest(m.encode())
		if err != nil {
			t.Fatalf("re-decoding an accepted manifest failed: %v", err)
		}
		if back.Path != m.Path || back.Size != m.Size || back.ChunkBytes != m.ChunkBytes ||
			len(back.Chunks) != len(m.Chunks) {
			t.Fatalf("round trip changed the manifest: %+v -> %+v", m, back)
		}
		for i := range m.Chunks {
			if back.Chunks[i] != m.Chunks[i] {
				t.Fatalf("round trip changed chunk %d: %q -> %q", i, m.Chunks[i], back.Chunks[i])
			}
		}
	})
}
