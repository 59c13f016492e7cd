package snapifyio

import (
	"errors"
	"io"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"snapify/internal/blob"
	"snapify/internal/obs"
	"snapify/internal/scif"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/snapstore"
)

const storeReadChunk = 4

// readCounter is a real chunk store that counts the chunk reads going
// through ReadChunk.
type readCounter struct {
	*snapstore.Store
	reads atomic.Int64
}

func (c *readCounter) ReadChunk(digest string) (blob.Blob, simclock.Duration, error) {
	c.reads.Add(1)
	return c.Store.ReadChunk(digest)
}

// storeReadRig attaches a real chunk store to the host daemon and puts
// content into it at path: negotiated, the chunks in land put, and — when
// every chunk landed — committed.
func storeReadRig(t *testing.T, path string, content blob.Blob, land ...int) (*rig, *readCounter) {
	t.Helper()
	r := newRig(t)
	st := &readCounter{Store: snapstore.New(r.server.Fabric.Model(), r.server.Host.FS, obs.New(), nil)}
	if err := r.svc.AttachStore(simnet.HostNode, st); err != nil {
		t.Fatal(err)
	}
	digests := snapstore.ChunkDigests(content, storeReadChunk)
	if _, _, _, err := st.Negotiate(path, "", content.Len(), storeReadChunk, digests); err != nil {
		t.Fatal(err)
	}
	for _, i := range land {
		off := int64(i) * storeReadChunk
		if _, err := st.PutChunkAt(path, off, content.Slice(off, min(storeReadChunk, content.Len()-off))); err != nil {
			t.Fatal(err)
		}
	}
	if committed, _, err := st.CloseUpload(path); err != nil || committed != (len(land) == len(digests)) {
		t.Fatalf("close upload: committed %v err %v", committed, err)
	}
	return r, st
}

func openStoreRead(r *rig, path string, chunks ...int) (*File, error) {
	return r.svc.OpenStream(1, simnet.HostNode, path, Read, OpenOptions{Slots: 2, Store: true, Chunks: chunks})
}

func wantRemote(t *testing.T, what string, err error, text string) {
	t.Helper()
	var remote *RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, text) {
		t.Errorf("%s: err = %v, want a *RemoteError containing %q", what, err, text)
	}
}

// The store-mode read stream serves a committed snapshot whole and in
// order when no chunk is named, and exactly the named chunks in the named
// order otherwise — a short last chunk and a repeated one included — with
// the stages of every piece reported as overlapping.
func TestStoreReadStreamServesThePlan(t *testing.T) {
	content := blob.FromBytes([]byte("aaaabbbbccccdddde"))
	r, st := storeReadRig(t, "/s/ctx", content, 0, 1, 2, 3, 4)

	f, err := openStoreRead(r, "/s/ctx")
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != content.Len() {
		t.Errorf("whole-image stream is %d bytes, want %d", f.Size(), content.Len())
	}
	piece, cost, err := f.Next(DefaultBufSize)
	if err != nil || cost.Serial || !blob.Equal(piece, content.Slice(0, storeReadChunk)) {
		t.Fatalf("first piece: %d bytes, serial %v, err %v; want chunk 0 with overlapping stages", piece.Len(), cost.Serial, err)
	}
	rest, _ := readAll(t, f)
	if !blob.Equal(blob.Concat(piece, rest), content) {
		t.Error("whole-image stream differs from the snapshot")
	}

	f, err = openStoreRead(r, "/s/ctx", 4, 0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 13 {
		t.Errorf("stream of chunks 4,0,2,2 is %d bytes, want 13", f.Size())
	}
	if got, _ := readAll(t, f); !blob.Equal(got, blob.FromBytes([]byte("eaaaacccccccc"))) {
		t.Errorf("named chunks came back as %q", got.Bytes())
	}
	if hits := st.reads.Load(); hits != 9 {
		t.Errorf("store counted %d chunk reads, want 9: every chunk goes through ReadChunk", hits)
	}

	_, err = openStoreRead(r, "/s/ctx", 5)
	wantRemote(t, "chunk past the plan", err, "outside the 5")
	_, err = openStoreRead(r, "/s/ctx", -1)
	wantRemote(t, "negative chunk", err, "outside the 5")
	_, err = openStoreRead(r, "/s/other")
	wantRemote(t, "unknown path", err, "no digest plan")
}

// A stripe on a store-mode read stream serves those bytes of the committed
// image, starting and ending mid chunk where the stripe does — across chunk
// edges, into the short last chunk — for a striped or retrying restore.
// A stripe past the image's end, a stripe with named chunks and a stripe
// of an upload still in flight are refused.
func TestStoreReadStreamServesAStripe(t *testing.T) {
	content := blob.FromBytes([]byte("aaaabbbbccccdddde"))
	r, st := storeReadRig(t, "/s/ctx", content, 0, 1, 2, 3, 4)
	stripe := func(r *rig, off, n int64, chunks ...int) (*File, error) {
		return r.svc.OpenStream(1, simnet.HostNode, "/s/ctx", Read,
			OpenOptions{Slots: 2, Store: true, Stripe: Stripe{Offset: off, Length: n}, Chunks: chunks})
	}
	reads := int64(0)
	for _, c := range []struct{ off, n, chunks int64 }{
		{1, 2, 1},  // inside one chunk
		{2, 7, 3},  // mid chunk to mid chunk, across two edges
		{4, 4, 1},  // exactly one chunk
		{10, 7, 3}, // mid chunk into the short last one
		{16, 1, 1}, // the short last chunk alone
		{0, 17, 5}, // the whole image
	} {
		f, err := stripe(r, c.off, c.n)
		if err != nil {
			t.Fatalf("stripe [%d,%d): %v", c.off, c.off+c.n, err)
		}
		if f.Size() != c.n {
			t.Errorf("stripe [%d,%d) reports %d bytes", c.off, c.off+c.n, f.Size())
		}
		if got, _ := readAll(t, f); !blob.Equal(got, content.Slice(c.off, c.n)) {
			t.Errorf("stripe [%d,%d) came back as %q", c.off, c.off+c.n, got.Bytes())
		}
		if reads += c.chunks; st.reads.Load() != reads {
			t.Errorf("stripe [%d,%d): %d chunk reads so far, want %d: each chunk it crosses once", c.off, c.off+c.n, st.reads.Load(), reads)
		}
	}

	_, err := stripe(r, 10, 8)
	wantRemote(t, "stripe past the end", err, "outside the 17 bytes")
	if f, err := stripe(r, 0, 4, 0); err == nil {
		f.Abort()
		t.Error("a store read with chunks and a stripe opened")
	}
	pending, _ := storeReadRig(t, "/s/ctx", blob.FromBytes([]byte("aaaabbbbcccc")), 0, 1)
	_, err = stripe(pending, 0, 4)
	wantRemote(t, "stripe of a pending upload", err, "upload in flight")
}

// While an upload is in flight the stream serves its named chunks — what a
// migration's destination stages between rounds — but not the image: there
// is no snapshot to restore before the manifest commits. A chunk that has
// not landed fails the pull that reaches it.
func TestStoreReadStreamAheadOfTheCommit(t *testing.T) {
	content := blob.FromBytes([]byte("aaaabbbbcccc"))
	r, _ := storeReadRig(t, "/s/ctx", content, 0, 1)

	f, err := openStoreRead(r, "/s/ctx", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := readAll(t, f); !blob.Equal(got, blob.FromBytes([]byte("bbbbaaaa"))) {
		t.Errorf("landed chunks of the pending upload came back as %q", got.Bytes())
	}
	_, err = openStoreRead(r, "/s/ctx")
	wantRemote(t, "whole image of a pending upload", err, "upload in flight")

	// The stream prefetches, so the failed pull may surface one piece early
	// as a dead connection; what it may not do is deliver the chunk or end
	// the stream cleanly.
	f, err = openStoreRead(r, "/s/ctx", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got int64
	for err == nil {
		var b blob.Blob
		b, _, err = f.Next(DefaultBufSize)
		got += b.Len()
	}
	if err == io.EOF || got > storeReadChunk {
		t.Errorf("stream over a chunk that has not landed delivered %d bytes and ended with %v", got, err)
	}
}

// What is not a store-mode read is refused: by the library before anything
// is sent, and by the daemon for a peer that speaks the protocol by hand.
func TestStoreReadStreamRefusals(t *testing.T) {
	r, _ := storeReadRig(t, "/s/ctx", blob.FromBytes([]byte("aaaa")), 0)
	for name, open := range map[string]func() (*File, error){
		"chunks and a stripe on a store read": func() (*File, error) {
			return r.svc.OpenStream(1, simnet.HostNode, "/s/ctx", Read, OpenOptions{Slots: 2, Store: true, Stripe: Stripe{Length: 4}, Chunks: []int{0}})
		},
		"chunks on a file read": func() (*File, error) {
			return r.svc.OpenStream(1, simnet.HostNode, "/s/ctx", Read, OpenOptions{Chunks: []int{0}})
		},
		"chunks on a store write": func() (*File, error) {
			return r.svc.OpenStream(1, simnet.HostNode, "/s/ctx", Write, OpenOptions{Store: true, Stripe: Stripe{Length: 4, Total: 4}, Chunks: []int{0}})
		},
		"store write without a stripe": func() (*File, error) {
			return r.svc.OpenStream(1, simnet.HostNode, "/s/ctx", Write, OpenOptions{Store: true})
		},
	} {
		if f, err := open(); err == nil {
			f.Abort()
			t.Errorf("%s: opened", name)
		}
	}

	byHand := func(net *scif.Network, open *openMsg) string {
		ep, err := net.Connect(1, scif.Addr{Node: simnet.HostNode, Port: Port})
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		open.BufSize, open.Windows = DefaultBufSize, []int64{0, 0}
		if _, err := ep.Send(encode(open)); err != nil {
			t.Fatal(err)
		}
		raw, _, err := ep.Recv()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := expect[*openResp](raw, msgOpenResp)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Err
	}
	if text := byHand(r.net, &openMsg{Mode: Read, StreamID: 1, Store: true, Striped: true, Stripe: Stripe{Length: 4}, Path: "/s/ctx", Chunks: []int{0}}); !strings.Contains(text, "not both") {
		t.Errorf("store read naming chunks and a stripe by hand: daemon answered %q", text)
	}
	if text := byHand(r.net, &openMsg{Mode: Read, StreamID: 1, Store: true, Striped: true, Stripe: Stripe{Offset: -2, Length: 4}, Path: "/s/ctx"}); !strings.Contains(text, "outside the 4 bytes") {
		t.Errorf("store read of a stripe at a negative offset by hand: daemon answered %q", text)
	}
	bare := newRig(t)
	if text := byHand(bare.net, &openMsg{Mode: Read, StreamID: 1, Store: true, Path: "/s/ctx"}); !strings.Contains(text, "no chunk store attached") {
		t.Errorf("store read with no store attached: daemon answered %q", text)
	}
}

// planReader hands out pieces no larger than asked and never across a
// chunk boundary — a stripe's first piece starts where the stripe does and
// its last ends there — and charges the plan lookup once, with the first
// chunk, and each chunk's read once.
func TestPlanReaderPieces(t *testing.T) {
	content := blob.FromBytes([]byte("aaaabbbbcc"))
	_, st := storeReadRig(t, "/s/ctx", content, 0, 1, 2)
	_, _, digests, _, _, lookup := st.DigestPlan("/s/ctx")
	chunkRead := make([]simclock.Duration, len(digests))
	for i, dg := range digests {
		_, chunkRead[i], _ = st.ReadChunk(dg)
	}
	for _, c := range []struct {
		stripe Stripe
		pieces []int64
		chunks []int // the chunks read, in order
	}{
		{Stripe{}, []int64{3, 1, 3, 1, 2}, []int{0, 1, 2}},
		{Stripe{Offset: 2, Length: 7}, []int64{2, 3, 1, 1}, []int{0, 1, 2}},
		{Stripe{Offset: 5, Length: 2}, []int64{2}, []int{1}},
	} {
		pr, err := newPlanReader(st, "/s/ctx", nil, c.stripe)
		if err != nil {
			t.Fatal(err)
		}
		var sizes []int64
		var charged []simclock.Duration
		for {
			b, dur, err := pr.Next(3)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			sizes = append(sizes, b.Len())
			if dur > 0 {
				charged = append(charged, dur)
			}
		}
		if !slices.Equal(sizes, c.pieces) {
			t.Errorf("stripe %+v: pieces %v, want %v", c.stripe, sizes, c.pieces)
		}
		want := make([]simclock.Duration, len(c.chunks))
		for k, i := range c.chunks {
			want[k] = chunkRead[i]
		}
		want[0] += lookup
		if !slices.Equal(charged, want) {
			t.Errorf("stripe %+v: pieces charged %v, want %v: the lookup with the first chunk, each chunk's read once", c.stripe, charged, want)
		}
	}
}

// A chunk whose plan digest is the zero digest of its length is a hole: the
// store stream serves it without reading it, staging it or pushing it, and
// the card gets zeros marked Cost.Hole on every piece of it — the whole
// image, a stripe that starts inside one, named chunks, a short last
// chunk. The reply is its one leg. A plain read of the same bytes never
// yields a hole.
func TestStoreReadStreamServesZeroChunksAsHoles(t *testing.T) {
	zero := string(make([]byte, storeReadChunk))
	content := blob.FromBytes([]byte("aaaa" + zero + "bbbb" + zero[:2]))
	r, st := storeReadRig(t, "/s/ctx", content, 0, 1, 2, 3)
	holeAt := func(off int64) bool { return off/storeReadChunk%2 == 1 }
	model := r.server.Fabric.Model()
	read := func(f *File, off int64) blob.Blob {
		t.Helper()
		var parts []blob.Blob
		for {
			piece, cost, err := f.Next(3)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if cost.Hole != holeAt(off) {
				t.Errorf("piece at %d: hole %v, want %v", off, cost.Hole, holeAt(off))
			}
			if cost.Hole && len(cost.Stages) == 3 && cost.Stages[1] != model.SCIFMsgLatency {
				t.Errorf("hole at %d: transfer stage %d, want the reply's %d alone", off, cost.Stages[1], model.SCIFMsgLatency)
			}
			parts = append(parts, piece)
			off += piece.Len()
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return blob.Concat(parts...)
	}

	f, err := openStoreRead(r, "/s/ctx")
	if err != nil {
		t.Fatal(err)
	}
	if got := read(f, 0); !blob.Equal(got, content) {
		t.Errorf("whole image with holes came back as %q", got.Bytes())
	}
	f, err = r.svc.OpenStream(1, simnet.HostNode, "/s/ctx", Read, OpenOptions{Slots: 2, Store: true, Stripe: Stripe{Offset: 6, Length: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if got := read(f, 6); !blob.Equal(got, content.Slice(6, 7)) {
		t.Errorf("stripe [6,13) came back as %q", got.Bytes())
	}
	if hits := st.reads.Load(); hits != 3 {
		t.Errorf("store counted %d chunk reads, want 3: the two non-zero chunks, then chunk 2 once more, and no hole", hits)
	}
	f, err = openStoreRead(r, "/s/ctx", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for {
		piece, cost, err := f.Next(DefaultBufSize)
		if err == io.EOF {
			break
		}
		if err != nil || !cost.Hole || !blob.Equal(piece, blob.Zeros(piece.Len())) {
			t.Fatalf("named zero chunk: %d bytes, hole %v, err %v", piece.Len(), cost.Hole, err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if hits := st.reads.Load(); hits != 3 {
		t.Errorf("named zero chunks read the store: %d chunk reads, want still 3", hits)
	}

	r.server.Host.FS.WriteFile("/s/plain", content)
	f, err = r.svc.OpenStream(1, simnet.HostNode, "/s/plain", Read, OpenOptions{Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, cost, err := f.Next(3)
		if err == io.EOF {
			break
		}
		if err != nil || cost.Hole {
			t.Fatalf("plain read: hole %v, err %v", cost.Hole, err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
