package snapifyio

import (
	"fmt"
	"io"

	"snapify/internal/blob"
	"snapify/internal/simclock"
	"snapify/internal/snapstore"
)

// planReader is what a store-mode read stream serves, the read mirror of
// storeSink: chunks of a snapshot's digest plan — the pending upload's
// while one is in flight, else the committed manifest's — as one byte
// stream. A chunk whose digest is the zero digest of its length is a
// hole: it is not read, and serveRead answers it with a holeHere, with no
// RDMA (DESIGN.md §11). Every other chunk comes out of the store through
// ReadChunk; a chunk the plan names but the store has not received yet
// fails the pull that reaches it. The plan is read once, at open: what the
// stream carries does not change under it.
type planReader struct {
	cs      ChunkStore
	digests []string // chunks still to serve, in order
	size    int64    // bytes the stream carries in all
	left    int64    // bytes still to serve
	skip    int64    // bytes of the first chunk ahead of a stripe
	cur     blob.Blob
	off     int64
	// hole says cur is a hole; zeros holds the plan's zero digests, a
	// whole chunk's and the short last chunk's, with their lengths.
	hole  bool
	zeros []zeroChunk
	// lookup is the plan's own read, charged with the first chunk.
	lookup simclock.Duration
}

// zeroChunk is the digest of n zero bytes.
type zeroChunk struct {
	digest string
	n      int64
}

// newPlanReader opens the chunks want of path's digest plan (indices, in
// serving order), or else the bytes st names of the committed image (the
// zero stripe: all of them). A stripe starts and ends where it says, mid
// chunk or not.
func newPlanReader(cs ChunkStore, path string, want []int, st Stripe) (*planReader, error) {
	size, chunkBytes, digests, committed, ok, dur := cs.DigestPlan(path)
	if !ok {
		return nil, fmt.Errorf("no digest plan for %s", path)
	}
	r := &planReader{cs: cs, lookup: dur}
	if chunkBytes > 0 {
		if whole := min(chunkBytes, size); whole > 0 {
			r.zeros = append(r.zeros, zeroChunk{snapstore.ZeroDigest(whole), whole})
		}
		if tail := size % chunkBytes; size > chunkBytes && tail > 0 {
			r.zeros = append(r.zeros, zeroChunk{snapstore.ZeroDigest(tail), tail})
		}
	}
	if len(want) == 0 {
		// Naming no chunk asks for the snapshot itself, and that exists only
		// once its manifest has committed. Reading out of an upload still in
		// flight is for the reader that names chunks and verifies each one
		// (a migration's destination, staging ahead of the commit).
		if !committed {
			return nil, fmt.Errorf("%s has an upload in flight in place of a committed image", path)
		}
		if !st.enabled() {
			st.Length = size
		} else if st.Offset < 0 || st.Length <= 0 || st.Offset+st.Length > size {
			return nil, fmt.Errorf("stripe [%d,%d) outside the %d bytes of %s", st.Offset, st.Offset+st.Length, size, path)
		}
		// The stream ends where the stripe does, whatever chunks follow.
		r.digests, r.skip = digests[st.Offset/chunkBytes:], st.Offset%chunkBytes
		r.size, r.left = st.Length, st.Length
		return r, nil
	}
	r.digests = make([]string, 0, len(want))
	for _, i := range want {
		if i < 0 || i >= len(digests) {
			return nil, fmt.Errorf("chunk %d outside the %d of %s's digest plan", i, len(digests), path)
		}
		r.digests = append(r.digests, digests[i])
		r.size += min(chunkBytes, size-int64(i)*chunkBytes)
	}
	r.left = r.size
	return r, nil
}

func (r *planReader) Size() int64 { return r.size }

// Next returns at most max bytes, never across a chunk boundary; the
// chunk's store read is charged on the call that first touches it. A hole
// reads nothing: its pieces are zeros, and r.hole says so.
func (r *planReader) Next(max int64) (blob.Blob, simclock.Duration, error) {
	if r.left == 0 {
		return blob.Blob{}, 0, io.EOF
	}
	var dur simclock.Duration
	if r.off >= r.cur.Len() {
		if len(r.digests) == 0 {
			return blob.Blob{}, 0, io.ErrUnexpectedEOF
		}
		b, hole := r.zerosFor(r.digests[0])
		var d simclock.Duration
		if !hole {
			var err error
			if b, d, err = r.cs.ReadChunk(r.digests[0]); err != nil {
				return blob.Blob{}, d, err
			}
		}
		r.digests = r.digests[1:]
		r.cur, r.off, r.skip, r.hole = b, r.skip, 0, hole
		dur, r.lookup = d+r.lookup, 0
	}
	n := min(max, r.cur.Len()-r.off, r.left)
	out := r.cur.Slice(r.off, n)
	r.off += n
	r.left -= n
	return out, dur, nil
}

// zerosFor returns the zeros a chunk of digest d holds, if d is the zero
// digest of a chunk length the plan has.
func (r *planReader) zerosFor(d string) (blob.Blob, bool) {
	for _, z := range r.zeros {
		if z.digest == d {
			return blob.Zeros(z.n), true
		}
	}
	return blob.Blob{}, false
}
