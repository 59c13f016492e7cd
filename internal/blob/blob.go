// Package blob represents large byte contents as sequences of extents.
//
// The paper's evaluation moves snapshots of up to 4 GiB between a Xeon Phi
// coprocessor and the host. Reproducing that with flat []byte buffers would
// make the simulation memory-bound on the build machine without adding any
// fidelity: the interesting bytes are the ones the application computed.
// A Blob therefore stores content as a sequence of extents, each either
//
//   - Literal: real bytes, copied byte-for-byte by every transport, or
//   - Synthetic: a (seed, size) descriptor of deterministically generated
//     background content (seed 0 is all-zeros, matching untouched anonymous
//     memory). Synthetic content can be materialized on demand, so equality
//     and hashing remain content-true.
//
// Transports charge the full virtual-time cost for both kinds (see
// internal/simclock), so the performance model is unaffected by the
// representation.
package blob

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
)

// Extent is one contiguous run of content.
type Extent struct {
	// Literal holds real bytes. If nil the extent is synthetic.
	Literal []byte
	// Seed selects the deterministic background pattern for a synthetic
	// extent. Seed 0 generates zeros.
	Seed uint64
	// Off is the offset into the seed's infinite stream at which this
	// extent starts; slicing a synthetic extent preserves content.
	Off int64
	// Size is the extent length in bytes. For literal extents it equals
	// len(Literal).
	Size int64
}

// IsLiteral reports whether the extent carries real bytes.
func (e Extent) IsLiteral() bool { return e.Literal != nil }

// Blob is an immutable sequence of extents. The zero value is an empty blob.
type Blob struct {
	extents []Extent
	size    int64
}

// FromBytes returns a blob holding a copy of b.
func FromBytes(b []byte) Blob {
	if len(b) == 0 {
		return Blob{}
	}
	c := slices.Clone(b)
	return Blob{extents: []Extent{{Literal: c, Size: int64(len(c))}}, size: int64(len(c))}
}

// Synthetic returns a blob of size bytes of deterministic content generated
// from seed, starting at stream offset 0.
func Synthetic(seed uint64, size int64) Blob {
	if size < 0 {
		panic(fmt.Sprintf("blob: negative size %d", size)) //nolint:paniclib // caller bug: a negative size is unconstructible input, not a runtime condition
	}
	if size == 0 {
		return Blob{}
	}
	return Blob{extents: []Extent{{Seed: seed, Size: size}}, size: size}
}

// Zeros returns a blob of size zero bytes.
func Zeros(size int64) Blob { return Synthetic(0, size) }

// Len returns the blob's length in bytes.
func (b Blob) Len() int64 { return b.size }

// Extents returns the underlying extents. Callers must not mutate the
// returned slices.
func (b Blob) Extents() []Extent { return b.extents }

// Concat returns the concatenation of blobs.
func Concat(blobs ...Blob) Blob {
	var out Blob
	for _, b := range blobs {
		out.extents = append(out.extents, b.extents...)
		out.size += b.size
	}
	return out
}

// Slice returns the sub-blob [off, off+n). It panics if the range is out of
// bounds.
func (b Blob) Slice(off, n int64) Blob {
	if off < 0 || n < 0 || off+n > b.size {
		panic(fmt.Sprintf("blob: slice [%d,%d) out of range of %d", off, off+n, b.size)) //nolint:paniclib // caller bug: slice bounds, mirroring built-in slice semantics
	}
	if n == 0 {
		return Blob{}
	}
	if n == b.size {
		return b // the whole blob: immutable, so the slice shares its extents
	}
	return Blob{extents: b.appendRange(nil, off, n), size: n}
}

// appendRange appends the extents of [off, off+n) to dst; the range must
// lie within b.
func (b Blob) appendRange(dst []Extent, off, n int64) []Extent {
	pos := int64(0)
	for _, e := range b.extents {
		if n == 0 {
			break
		}
		end := pos + e.Size
		if end <= off {
			pos = end
			continue
		}
		// Overlap of [off, off+n) with [pos, end).
		start := off - pos
		if start < 0 {
			start = 0
		}
		take := e.Size - start
		if take > n {
			take = n
		}
		if e.IsLiteral() {
			dst = append(dst, Extent{Literal: e.Literal[start : start+take], Size: take})
		} else {
			dst = append(dst, Extent{Seed: e.Seed, Off: streamOff(e.Seed, e.Off+start), Size: take})
		}
		off += take
		n -= take
		pos = end
	}
	return dst
}

// streamOff canonicalizes a synthetic stream offset. Seed 0 is zeros
// wherever it is read, so its offset carries no information and is pinned
// to 0; every site that builds a synthetic extent or compares two stream
// positions goes through here. The snapshot store dedups all zero chunks
// to one chunk file, so a restore hands zero extents back at offsets
// unrelated to where they land — an offset-sensitive comparison would
// materialize them (gigabytes of literal zeros in a region's overlay) and
// key identical zero chunks apart in digest caches.
func streamOff(seed uint64, off int64) int64 {
	if seed == 0 {
		return 0
	}
	return off
}

// gen8 returns the 8 background bytes of stream seed at 8-aligned offset,
// using a splitmix64-style mix. Seed 0 yields zeros.
func gen8(seed uint64, alignedOff int64) uint64 {
	if seed == 0 {
		return 0
	}
	z := seed + 0x9e3779b97f4a7c15*uint64(alignedOff/8+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Materialize fills dst with the synthetic stream of seed starting at off:
// one little-endian gen8 word per aligned 8 bytes, byte by byte only for an
// unaligned head and tail.
func Materialize(seed uint64, off int64, dst []byte) {
	if seed == 0 {
		clear(dst)
		return
	}
	i := 0
	for ; i < len(dst) && (off+int64(i))&7 != 0; i++ {
		dst[i] = genByte(seed, off+int64(i))
	}
	for ; len(dst)-i >= 8; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], gen8(seed, off+int64(i)))
	}
	for ; i < len(dst); i++ {
		dst[i] = genByte(seed, off+int64(i))
	}
}

// genByte returns the background byte of stream seed at pos.
func genByte(seed uint64, pos int64) byte {
	return byte(gen8(seed, pos&^7) >> (8 * uint(pos&7)))
}

// CopyTo materializes the blob into dst, which must hold at least Len()
// bytes.
func (b Blob) CopyTo(dst []byte) {
	pos := int64(0)
	for _, e := range b.extents {
		sliceOrGen(e, 0, e.Size, dst[pos:pos+e.Size])
		pos += e.Size
	}
}

// Bytes materializes the whole blob. Intended for tests and small blobs.
func (b Blob) Bytes() []byte {
	out := make([]byte, b.size)
	b.CopyTo(out)
	return out
}

// LiteralBytes returns the number of bytes held as literal extents; the
// remainder is synthetic background. Transports use this split to decide
// how much real copying to do while charging full virtual cost.
func (b Blob) LiteralBytes() int64 {
	var n int64
	for _, e := range b.extents {
		if e.IsLiteral() {
			n += e.Size
		}
	}
	return n
}

const cmpChunk = 64 * 1024

// Equal reports whether two blobs have identical content. Synthetic runs
// with equal seeds and stream offsets compare without materialization;
// mixed comparisons materialize in bounded windows.
func Equal(a, c Blob) bool {
	if a.size != c.size {
		return false
	}
	var (
		ai, ci   int
		aoff, co int64 // consumed within current extent
		remain   = a.size
	)
	var bufA, bufC [cmpChunk]byte
	for remain > 0 {
		ea, ec := a.extents[ai], c.extents[ci]
		n := ea.Size - aoff
		if m := ec.Size - co; m < n {
			n = m
		}
		// Fast paths.
		switch {
		case !ea.IsLiteral() && !ec.IsLiteral() && ea.Seed == ec.Seed &&
			streamOff(ea.Seed, ea.Off+aoff) == streamOff(ec.Seed, ec.Off+co):
			// Identical synthetic streams.
		case ea.IsLiteral() && ec.IsLiteral():
			if !bytesEqual(ea.Literal[aoff:aoff+n], ec.Literal[co:co+n]) {
				return false
			}
		default:
			for done := int64(0); done < n; {
				w := n - done
				if w > cmpChunk {
					w = cmpChunk
				}
				sliceOrGen(ea, aoff+done, w, bufA[:w])
				sliceOrGen(ec, co+done, w, bufC[:w])
				if !bytesEqual(bufA[:w], bufC[:w]) {
					return false
				}
				done += w
			}
		}
		aoff += n
		co += n
		remain -= n
		if aoff == ea.Size {
			ai++
			aoff = 0
		}
		if co == ec.Size {
			ci++
			co = 0
		}
	}
	return true
}

func sliceOrGen(e Extent, off, n int64, dst []byte) {
	if e.IsLiteral() {
		copy(dst, e.Literal[off:off+n])
		return
	}
	Materialize(e.Seed, e.Off+off, dst[:n])
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Hash returns a content hash of the blob (FNV-1a over materialized
// content, computed in bounded windows).
func (b Blob) Hash() uint64 {
	h := fnv.New64a()
	var buf [cmpChunk]byte
	for _, e := range b.extents {
		for off := int64(0); off < e.Size; {
			n := e.Size - off
			if n > cmpChunk {
				n = cmpChunk
			}
			sliceOrGen(e, off, n, buf[:n])
			h.Write(buf[:n])
			off += n
		}
	}
	return h.Sum64()
}

// Splice returns base with [off, off+src.Len()) replaced by src. It panics
// if the spliced range exceeds base. Extents are preserved, so synthetic
// content is never materialized. Splice copies base's whole extent list;
// content built from many positioned writes belongs in a Sparse.
func Splice(base Blob, off int64, src Blob) Blob {
	if off < 0 || off+src.Len() > base.Len() {
		panic(fmt.Sprintf("blob: splice [%d,%d) out of range of %d", off, off+src.Len(), base.Len())) //nolint:paniclib // caller bug: splice bounds, mirroring built-in slice semantics
	}
	return Concat(base.Slice(0, off), src, base.Slice(off+src.Len(), base.Len()-off-src.Len()))
}

// ForEachChunk calls fn for consecutive sub-blobs of at most chunkSize
// bytes, in order. It is the iteration primitive transports use to stream a
// blob through a bounded staging buffer.
func (b Blob) ForEachChunk(chunkSize int64, fn func(chunk Blob) error) error {
	if chunkSize <= 0 {
		panic("blob: non-positive chunk size") //nolint:paniclib // caller bug: the chunk size is a constant at every call site
	}
	for off := int64(0); off < b.size; off += chunkSize {
		n := chunkSize
		if b.size-off < n {
			n = b.size - off
		}
		if err := fn(b.Slice(off, n)); err != nil {
			return err
		}
	}
	return nil
}
