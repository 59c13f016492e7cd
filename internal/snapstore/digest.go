package snapstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"snapify/internal/blob"
)

// This file is the only place in the tree that computes chunk digests
// (snapifylint's storegate analyzer pins that): every layer that needs a
// content address — the card-side layout walk, the daemon's upload
// verification, the staging fetch check, federation shipping, the fsck in
// Verify — calls Digest. Keeping the hash in one package is what makes
// "same bytes, same name" a global invariant instead of a per-caller
// convention.
//
// A chunk's address is a two-level hash: SHA-256 over the content length
// (u64 little-endian) followed by the SHA-256 of each digestWindow-sized
// window of the content, in order (windows start at content offsets 0,
// digestWindow, …; the last may be short). It is still a pure function
// of the bytes, and as collision resistant as SHA-256: the root fixes
// the length and every window's hash in order. The split is what lets a
// chunk holding one dirty record skip re-hashing the untouched
// background around it — a window lying inside one synthetic extent is
// a pure function of (seed, stream offset, length), so its leaf hash
// comes from a bounded cache, and only windows holding a literal byte,
// or straddling two extents, are hashed from their bytes.

// digestWindow is the leaf grain of a chunk address. It is part of the
// address: changing it renames every chunk. It also bounds how much
// synthetic content is materialized at a time, so digesting a chunk never
// holds more than one materialized window.
const digestWindow = 64 * 1024

// synKey identifies a synthetic extent's content, a pure function of
// (seed, stream offset, size). Seed 0 is zeros at every offset, so its
// key carries the size alone and every zero run of one length shares an
// entry.
type synKey struct {
	seed      uint64
	off, size int64
}

func keyOf(seed uint64, off, size int64) synKey {
	if seed == 0 {
		off = 0
	}
	return synKey{seed: seed, off: off, size: size}
}

// The two caches are separate: a content of at most one window has a
// root digest that differs from its leaf hash under the same synKey.
var (
	// blobs holds the hex root digest of whole fully synthetic blobs, so
	// the repeated-swap hot path (untouched background chunks) is one map
	// lookup. On overflow it resets rather than evicting: entries are
	// cheap to recompute and the working set of one run fits.
	blobsMu sync.Mutex
	blobs   = make(map[synKey]string)

	// leaves holds the SHA-256 of synthetic windows.
	leaves leafCache
)

// blobsMax bounds the whole-blob cache.
const blobsMax = 1 << 15

// leafSlotBits sizes each leaf-cache generation: an open-addressed table
// of 1<<leafSlotBits slots, retired at half load so probes stay short. A
// swap cycle's working set — the background windows of the chunks that
// hold literal data, 64 per 4 MiB chunk — is about a thousand windows
// for a 256 MiB image, one generation's worth.
const (
	leafSlotBits = 11
	leafSlots    = 1 << leafSlotBits
	leafGenMax   = leafSlots / 2
)

type leafEntry struct {
	key  synKey
	sum  [sha256.Size]byte
	used bool
}

type leafGen struct {
	n     int
	slots [leafSlots]leafEntry
}

// leafCache is a bounded map from a synthetic window's key to its
// SHA-256, reset by generations: when the current generation reaches
// leafGenMax entries the older one is cleared and becomes current, and a
// hit in the older one is copied forward, so entries in use survive a
// reset. Both generations are fixed arrays without pointers, so the
// cache lives outside the garbage-collected heap: it neither allocates
// nor raises the collector's heap goal, which a pair of maps of the same
// capacity did by about 1 MiB of peak RSS.
type leafCache struct {
	mu   sync.Mutex
	cur  int // index into gens of the current generation
	gens [2]leafGen
}

// slot returns k's home slot: a splitmix-style mix, so window-aligned
// offsets (low bits all zero) spread over the table.
func (k synKey) slot() int {
	h := k.seed ^ uint64(k.off)*0x9e3779b97f4a7c15 ^ uint64(k.size)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	return int(h >> (64 - leafSlotBits))
}

// find returns k's entry in g, or the empty slot where it belongs. The
// probe ends: a generation is never more than half full.
func (g *leafGen) find(k synKey) (*leafEntry, bool) {
	i := k.slot()
	for g.slots[i].used {
		if g.slots[i].key == k {
			return &g.slots[i], true
		}
		i = (i + 1) & (leafSlots - 1)
	}
	return &g.slots[i], false
}

func (c *leafCache) get(k synKey) ([sha256.Size]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.gens[c.cur].find(k); ok {
		return e.sum, true
	}
	e, ok := c.gens[1-c.cur].find(k)
	if !ok {
		return [sha256.Size]byte{}, false
	}
	sum := e.sum
	c.putLocked(k, sum)
	return sum, true
}

func (c *leafCache) put(k synKey, sum [sha256.Size]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(k, sum)
}

func (c *leafCache) putLocked(k synKey, sum [sha256.Size]byte) {
	if c.gens[c.cur].n == leafGenMax {
		c.cur = 1 - c.cur
		c.gens[c.cur] = leafGen{}
	}
	g := &c.gens[c.cur]
	e, ok := g.find(k)
	if !ok {
		e.key, e.used = k, true
		g.n++
	}
	e.sum = sum
}

// syntheticLeaf returns the SHA-256 of n bytes of stream seed at off,
// materializing them into buf only on a cache miss.
func syntheticLeaf(seed uint64, off, n int64, buf *[digestWindow]byte) [sha256.Size]byte {
	k := keyOf(seed, off, n)
	if d, ok := leaves.get(k); ok {
		return d
	}
	blob.Materialize(seed, off, buf[:n])
	d := sha256.Sum256(buf[:n])
	leaves.put(k, d)
	return d
}

// Digest returns the blob's content address in hex: SHA-256 over its
// length and its windows' SHA-256s (see the top of this file). A window
// inside one synthetic extent takes its leaf from the cache; every other
// window is hashed from its bytes, materializing synthetic pieces one
// window at a time. Whole fully synthetic blobs are served from a cache.
func Digest(b blob.Blob) string {
	exts := b.Extents()
	var key synKey
	whole := len(exts) == 1 && !exts[0].IsLiteral()
	if whole {
		key = keyOf(exts[0].Seed, exts[0].Off, exts[0].Size)
		blobsMu.Lock()
		d, ok := blobs[key]
		blobsMu.Unlock()
		if ok {
			return d
		}
	}
	total := b.Len()
	root, leaf := sha256.New(), sha256.New()
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(total))
	root.Write(hdr[:])
	var buf [digestWindow]byte
	var sum [sha256.Size]byte
	pos := int64(0) // content offset of the next byte to hash
	for _, e := range exts {
		for o := int64(0); o < e.Size; {
			winEnd := min(pos-pos%digestWindow+digestWindow, total)
			n := min(e.Size-o, winEnd-pos)
			if !e.IsLiteral() && pos%digestWindow == 0 && pos+n == winEnd {
				// The whole window lies inside this synthetic extent.
				sum = syntheticLeaf(e.Seed, e.Off+o, n, &buf)
				root.Write(sum[:])
			} else {
				if e.IsLiteral() {
					leaf.Write(e.Literal[o : o+n])
				} else {
					blob.Materialize(e.Seed, e.Off+o, buf[:n])
					leaf.Write(buf[:n])
				}
				if pos+n == winEnd {
					root.Write(leaf.Sum(sum[:0]))
					leaf.Reset()
				}
			}
			pos += n
			o += n
		}
	}
	d := hex.EncodeToString(root.Sum(nil))
	if whole {
		blobsMu.Lock()
		if len(blobs) >= blobsMax {
			blobs = make(map[synKey]string)
		}
		blobs[key] = d
		blobsMu.Unlock()
	}
	return d
}

// ChunkDigests splits content into chunkBytes-sized pieces (the last may
// be short) and returns their digests in order — the have/need unit of
// the dedup-aware transfer protocol. It is a reference implementation:
// no capture runs it. The store tests (TestPutChunkVerifiesDigestAndAlignment,
// TestNegotiateWindowsAddUpToTheWholeList, TestVerifyDetectsCorruptionAndMissingChunks
// and the rest of snapstore_test.go), internal/core's digest-cache oracle
// (TestDigestCacheDifferential, TestChaosLostDirtyRangeIsInvisibleToVerify),
// TestStoreRestoreDifferential and Snapify-IO's store-read tests compare
// the product's digest lists against it.
func ChunkDigests(content blob.Blob, chunkBytes int64) []string {
	if chunkBytes <= 0 || content.Len() == 0 {
		return nil
	}
	out := make([]string, 0, (content.Len()+chunkBytes-1)/chunkBytes)
	content.ForEachChunk(chunkBytes, func(chunk blob.Blob) error { //nolint:errcheck // the callback never fails
		out = append(out, Digest(chunk))
		return nil
	})
	return out
}
