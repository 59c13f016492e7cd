package snapstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"snapify/internal/blob"
)

// referenceDigest is the chunk-address spec computed from flat bytes:
// SHA-256 over the length (u64 little-endian) and the SHA-256 of each
// 64 KiB window, in order, the last one possibly short.
func referenceDigest(b []byte) string {
	const window = 64 << 10
	root := sha256.New()
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(b)))
	root.Write(hdr[:])
	for off := 0; off < len(b); off += window {
		leaf := sha256.Sum256(b[off:min(off+window, len(b))])
		root.Write(leaf[:])
	}
	return hex.EncodeToString(root.Sum(nil))
}

// resetDigestCaches empties both digest caches, so the next Digest runs
// cold.
func resetDigestCaches() {
	blobsMu.Lock()
	blobs = make(map[synKey]string)
	blobsMu.Unlock()
	leaves.mu.Lock()
	leaves.cur, leaves.gens = 0, [2]leafGen{}
	leaves.mu.Unlock()
}

// extentSizes are the recipe's extent lengths: window edges, one byte
// either side of them, and odd sizes, so extents straddle window edges.
var extentSizes = []int64{1, 17, 4096, digestWindow - 1, digestWindow, digestWindow + 1, 2*digestWindow + 333, 3*digestWindow - 5}

// recipeExtent appends one extent to parts: kind selects literal, zero or
// seeded content; seed and off pick a seeded extent's stream.
func recipeExtent(parts []blob.Blob, kind byte, size int64, seed uint64, off int64) []blob.Blob {
	switch kind % 3 {
	case 0:
		lit := make([]byte, size)
		blob.Materialize(seed|1, off+7, lit)
		return append(parts, blob.FromBytes(lit))
	case 1:
		return append(parts, blob.Zeros(size))
	default:
		return append(parts, blob.Synthetic(seed|1, off+size).Slice(off, size))
	}
}

// overwrite returns b with lit written over it at off.
func overwrite(b blob.Blob, off int64, lit []byte) blob.Blob {
	end := off + int64(len(lit))
	return blob.Concat(b.Slice(0, off), blob.FromBytes(lit), b.Slice(end, b.Len()-end))
}

// checkDigest holds b to the spec and to "same bytes, same name".
func checkDigest(t *testing.T, b blob.Blob) {
	t.Helper()
	flat := b.Bytes()
	want := referenceDigest(flat)
	if got := Digest(b); got != want {
		t.Fatalf("Digest of %d bytes in %d extents = %s, reference %s", b.Len(), len(b.Extents()), got, want)
	}
	if got := Digest(blob.FromBytes(flat)); got != want {
		t.Fatalf("Digest of the same %d bytes as one literal = %s, reference %s", b.Len(), got, want)
	}
}

// TestDigestMatchesReference: Digest of random literal / zero / seeded
// extent mixes equals the spec computed from the flat bytes, equals the
// digest of the same bytes as one literal, answers the same warm and cold,
// and moves on any one-byte change.
func TestDigestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	checkDigest(t, blob.Blob{})
	for iter := 0; iter < 60; iter++ {
		var parts []blob.Blob
		for n := 1 + rng.Intn(6); n > 0; n-- {
			size := extentSizes[rng.Intn(len(extentSizes))]
			parts = recipeExtent(parts, byte(rng.Intn(3)), size, uint64(rng.Intn(4)), int64(rng.Intn(3*digestWindow)))
		}
		b := blob.Concat(parts...)
		resetDigestCaches()
		cold := Digest(b)
		checkDigest(t, b)
		if warm := Digest(b); warm != cold {
			t.Fatalf("iter %d: warm digest %s, cold %s", iter, warm, cold)
		}
		for k := 0; k < 3; k++ {
			p := rng.Int63n(b.Len())
			flipped := overwrite(b, p, []byte{b.Slice(p, 1).Bytes()[0] ^ byte(1+rng.Intn(255))})
			if Digest(flipped) == cold {
				t.Fatalf("iter %d: changing byte %d of %d left the digest at %s", iter, p, b.Len(), cold)
			}
		}
		if Digest(blob.Concat(b, blob.Zeros(1))) == cold {
			t.Fatalf("iter %d: appending a zero byte left the digest unchanged", iter)
		}
	}
}

// FuzzDigest holds Digest to the reference over fuzzed extent recipes:
// each 4-byte group is one extent (kind, size index, seed, stream offset).
func FuzzDigest(f *testing.F) {
	f.Add([]byte{0, 3, 1, 0})
	f.Add([]byte{1, 4, 0, 0, 2, 6, 2, 9, 0, 0, 1, 1})
	f.Add([]byte{2, 7, 3, 200, 0, 5, 0, 0, 1, 6, 0, 0, 2, 2, 1, 5})
	f.Fuzz(func(t *testing.T, recipe []byte) {
		var parts []blob.Blob
		for i := 0; i+4 <= len(recipe) && len(parts) < 8; i += 4 {
			size := extentSizes[int(recipe[i+1])%len(extentSizes)]
			parts = recipeExtent(parts, recipe[i], size, uint64(recipe[i+2]%4), int64(recipe[i+3])*1021)
		}
		checkDigest(t, blob.Concat(parts...))
	})
}

// TestLeafCacheStaysBounded: however many distinct windows are hashed,
// the leaf cache holds at most two generations, and an entry in use
// survives the resets.
func TestLeafCacheStaysBounded(t *testing.T) {
	resetDigestCaches()
	hot := blob.Synthetic(9, 2).Slice(1, 1)
	want := Digest(blob.Concat(blob.Zeros(digestWindow), hot))
	// Each blob's second window is a distinct one-byte synthetic leaf.
	for i := int64(0); i < 3*leafSlots; i++ {
		Digest(blob.Concat(blob.Zeros(digestWindow), blob.Synthetic(5, i+1).Slice(i, 1)))
		if n := (leaves.gens[0].n + leaves.gens[1].n); n > 2*leafGenMax {
			t.Fatalf("after %d distinct leaves the cache holds %d entries, bound %d", i+1, n, 2*leafGenMax)
		}
		if _, ok := leaves.get(keyOf(9, 1, 1)); !ok {
			t.Fatalf("the leaf in use was dropped after %d distinct leaves", i+1)
		}
	}
	if got := Digest(blob.Concat(blob.Zeros(digestWindow), hot)); got != want {
		t.Fatalf("digest after the resets %s, before %s", got, want)
	}
}

// BenchmarkDigest times one 4 MiB chunk digest: fully synthetic (served
// whole from the cache), one literal page in a synthetic chunk, a zero
// chunk with one 24-byte dirty record, and a fully literal chunk (real
// content, nothing cached).
func BenchmarkDigest(b *testing.B) {
	const chunk = 4 << 20
	syn := blob.Synthetic(0xD16E57, chunk)
	page := make([]byte, 4096)
	page[0] = 1
	lit := make([]byte, chunk)
	blob.Materialize(0x11, 0, lit)
	for _, c := range []struct {
		name string
		b    blob.Blob
	}{
		{"synthetic-cached", syn},
		{"literal-page", overwrite(syn, 4096, page)},
		{"zero-dirty-record", overwrite(blob.Zeros(chunk), 1<<20, page[:24])},
		{"literal", blob.FromBytes(lit)},
	} {
		b.Run(c.name, func(b *testing.B) {
			Digest(c.b)
			b.SetBytes(chunk)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Digest(c.b)
			}
		})
	}
}
