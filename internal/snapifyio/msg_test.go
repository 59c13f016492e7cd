package snapifyio

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"snapify/internal/blob"
	"snapify/internal/faultinject"
	"snapify/internal/scif"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/snapstore"
)

// The daemon protocol's byte layouts are pinned by hex captured from the
// inline wire compositions msg.go's field lists replaced (daemon.go,
// file.go and snapifyio.go at PR 15, run over these field values);
// negotiate_window, the two open_store_read messages (an open grows a
// chunk list only as a store-mode read) and hole_here (a store stream's
// answer for a zero chunk), which came later, by their own first encoding; negotiate_window lost its parent field once the store
// held whole images only.
// Service.NegotiateWindow and StagePlan charge virtual time by message length,
// so identical bytes is what keeps every virtual number identical.
var goldenMessages = []struct {
	name string
	hex  string
	msg  msg
}{
	{"open",
		"01010000000000000029020000000000400000000000000000100000000000000020000100000000001000000000000000200000000000000080000000000000000000172f736e61702f612f636f6e746578745f6f66666c6f616401",
		&openMsg{Mode: Write, StreamID: 41, BufSize: 4 << 20, Windows: []int64{4096, 8192}, Striped: true, Stripe: Stripe{Offset: 1 << 20, Length: 2 << 20, Total: 8 << 20}, Path: "/snap/a/context_offload", Store: true}},
	{"open_plain_read",
		"0100000000000000002a01000000000040000000000000000010000000000000000000000000000000000000000000000000000000000000000000172f736e61702f612f636f6e746578745f6f66666c6f616400",
		&openMsg{Mode: Read, StreamID: 42, BufSize: 4 << 20, Windows: []int64{4096}, Path: "/snap/a/context_offload"}},
	{"open_store_read",
		"0100000000000000002b020000000000400000000000000000100000000000000020000000000000000000000000000000000000000000000000000000000000000000172f736e61702f612f636f6e746578745f6f66666c6f6164010000000000000003000000000000000000000000000000070000000000000003",
		&openMsg{Mode: Read, StreamID: 43, BufSize: 4 << 20, Windows: []int64{4096, 8192}, Path: "/snap/a/context_offload", Store: true, Chunks: []int{0, 7, 3}}},
	{"open_store_read_whole",
		"0100000000000000002c020000000000400000000000000000100000000000000020000000000000000000000000000000000000000000000000000000000000000000172f736e61702f612f636f6e746578745f6f66666c6f6164010000000000000000",
		&openMsg{Mode: Read, StreamID: 44, BufSize: 4 << 20, Windows: []int64{4096, 8192}, Path: "/snap/a/context_offload", Store: true}},
	{"open_store_read_stripe",
		"0100000000000000002d020000000000400000000000000000100000000000000020000100000000005000000000000000300000000000000000000000000000000000172f736e61702f612f636f6e746578745f6f66666c6f6164010000000000000000",
		&openMsg{Mode: Read, StreamID: 45, BufSize: 4 << 20, Windows: []int64{4096, 8192}, Striped: true, Stripe: Stripe{Offset: 5 << 20, Length: 3 << 20}, Path: "/snap/a/context_offload", Store: true}},
	{"open_resp",
		"0200000000000000000000000010000000",
		&openResp{Size: 256 << 20}},
	{"open_resp_err",
		"02000000000000001c73746167696e67206275666665722073697a65206d69736d617463680000000000000000",
		&openResp{Err: "staging buffer size mismatch"}},
	{"chunk_ready",
		"0300000000000000290100000000004000000000000000100000",
		&chunkReady{StreamID: 41, Slot: 1, N: 4 << 20, FileOff: 1 << 20}},
	{"chunk_ready_append",
		"03000000000000002a0000000000000003e8ffffffffffffffff",
		&chunkReady{StreamID: 42, Slot: 0, N: 1000, FileOff: -1}},
	{"chunk_ack",
		"040000000000000029010000000000000000000000000009eb100000000000124f80",
		&chunkAck{StreamID: 41, Slot: 1, RDMA: 650 * time.Microsecond, FSWrite: 1200 * time.Microsecond}},
	{"chunk_ack_err",
		"0400000000000000290100000000000000176368756e6b206e616d657320736c6f742039206f66203200000000000000000000000000000000",
		&chunkAck{StreamID: 41, Slot: 1, Err: "chunk names slot 9 of 2"}},
	{"pull",
		"05000000000000002a00",
		&pullMsg{StreamID: 42, Slot: 0}},
	{"chunk_here",
		"06000000000000002a000000000000000000000000000040000000000000000dbba0000000000009eb10",
		&chunkHere{StreamID: 42, Slot: 0, N: 4 << 20, FSRead: 900 * time.Microsecond, RDMA: 650 * time.Microsecond}},
	{"chunk_here_err",
		"06000000000000002a000000000000000021696e6a6563746564206661756c743a206368756e6b2072656164206661696c6564000000000000000000000000000000000000000000000000",
		&chunkHere{StreamID: 42, Slot: 0, Err: "injected fault: chunk read failed"}},
	{"hole_here",
		"14000000000000002a0100000000004000000000000000004268",
		&holeHere{StreamID: 42, Slot: 1, N: 4 << 20, FSRead: 17 * time.Microsecond}},
	{"close",
		"07",
		bare(msgClose)},
	{"close_resp",
		"080000000000000000",
		&textMsg{Kind: msgCloseResp}},
	{"close_resp_err",
		"08000000000000000d636f6d6d6974206661696c6564",
		&textMsg{Kind: msgCloseResp, Text: "commit failed"}},
	{"abort",
		"09",
		bare(msgAbort)},
	{"detach",
		"0c",
		bare(msgDetach)},
	{"metrics_dump",
		"0a",
		bare(msgMetricsDump)},
	{"metrics_resp",
		"0b000000000000000f232048454c50207820790a7820310a",
		&textMsg{Kind: msgMetricsResp, Text: "# HELP x y\nx 1\n"}},
	{"discard",
		"0d00000000000000172f736e61702f612f636f6e746578745f6f66666c6f6164",
		&textMsg{Kind: msgDiscard, Text: "/snap/a/context_offload"}},
	{"discard_resp",
		"0e0000000000000000",
		&textMsg{Kind: msgDiscardResp}},
	{"negotiate_window",
		"1300000000000000172f736e61702f612f636f6e746578745f6f66666c6f61640000000002800000000000000040000000000000000000080000000000000002000000000000000461613131000000000000000462623232",
		&windowMsg{Path: "/snap/a/context_offload", Size: 40 << 20, ChunkBytes: 4 << 20, First: 8, Digests: []string{"aa11", "bb22"}}},
	{"negotiate_resp",
		"10000000000000000000000000000000a410000000000000000200000000000000000000000000000002",
		&negotiateResp{Dur: 42 * time.Microsecond, Need: []int{0, 2}}},
	{"negotiate_resp_err",
		"10000000000000001f6e6f206368756e6b2073746f7265206174746163686564206f6e206d6963300000000000000000000000000000000000",
		&negotiateResp{Err: "no chunk store attached on mic0"}},
	{"digests",
		"1100000000000000172f736e61702f612f636f6e746578745f6f66666c6f6164",
		&textMsg{Kind: msgStoreDigests, Text: "/snap/a/context_offload"}},
	{"digests_resp",
		"120000000000000000010100000000000042680000000000a0000000000000004000000000000000000003000000000000000461613131000000000000000462623232000000000000000463633333",
		&digestsResp{OK: true, Committed: true, Dur: 17 * time.Microsecond, Size: 10 << 20, ChunkBytes: 4 << 20, Digests: []string{"aa11", "bb22", "cc33"}}},
	{"digests_resp_err",
		"12000000000000001f6e6f206368756e6b2073746f7265206174746163686564206f6e206d69633000000000000000000000000000000000000000000000000000000000000000000000",
		&digestsResp{Err: "no chunk store attached on mic0"}},
}

func goldenBytes(t testing.TB, h string) []byte {
	t.Helper()
	raw, err := hex.DecodeString(h)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestGoldenWireBytes(t *testing.T) {
	for _, g := range goldenMessages {
		t.Run(g.name, func(t *testing.T) {
			want := goldenBytes(t, g.hex)
			if got := encode(g.msg); !bytes.Equal(got, want) {
				t.Fatalf("layout changed:\n got %x\nwant %x", got, want)
			}
			m, err := decode(want)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(m, g.msg) {
				t.Fatalf("decode(encode(m)):\n got %+v\nwant %+v", m, g.msg)
			}
			// No prefix of a message is a message.
			for k := 0; k < len(want); k++ {
				if _, err := decode(want[:k]); !errors.Is(err, errMalformed) {
					t.Fatalf("prefix %d of %d: err = %v, want errMalformed", k, len(want), err)
				}
			}
		})
	}
}

// FuzzWireDecode holds the daemon protocol's one decoder to four
// properties: no input panics, every rejection unwraps to errMalformed,
// an accepted input is exactly its message — it re-encodes to the same
// bytes — and a stream's reused codec, decoding into per-chunk structs
// that still hold an earlier message, reaches the same verdict and the
// same message. Seeds: the golden messages and the frames in
// retiredFrames, each of which must be rejected.
func FuzzWireDecode(f *testing.F) {
	for _, g := range goldenMessages {
		f.Add(goldenBytes(f, g.hex))
	}
	for _, r := range retiredFrames {
		raw := goldenBytes(f, r.hex)
		if _, err := decode(raw); !errors.Is(err, errMalformed) {
			f.Fatalf("%s: err = %v, want errMalformed", r.name, err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decode(data)
		var k codec
		k.dec.Load([]byte{msgChunkAck, 1}) // a stale earlier message
		for _, into := range []msg{
			&chunkReady{StreamID: 9, Slot: 1, N: 5, FileOff: 7},
			&chunkAck{StreamID: 9, Err: "stale", RDMA: 3},
			&pullMsg{StreamID: 4, Slot: 2},
			&chunkHere{Err: "stale", N: 8, FSRead: 6},
			&holeHere{StreamID: 3, Slot: 1, N: 9},
		} {
			got, rerr := k.decode(data, into)
			if (rerr == nil) != (err == nil) || err == nil && !reflect.DeepEqual(got, m) {
				t.Fatalf("reused codec into %T: %+v, %v; fresh decode: %+v, %v", into, got, rerr, m, err)
			}
		}
		if err != nil {
			if !errors.Is(err, errMalformed) {
				t.Fatalf("rejected with %v, want errMalformed", err)
			}
			return
		}
		if again := encode(m); !bytes.Equal(again, data) {
			t.Fatalf("accepted input re-encodes differently:\n  in %x\n out %x", data, again)
		}
		k.enc.Reset()
		put(&k.enc, m)
		if !bytes.Equal(k.enc.Bytes(), data) {
			t.Fatalf("reused encoder builds %x, want %x", k.enc.Bytes(), data)
		}
	})
}

// retiredFrames are frames of message kinds the protocol no longer has.
// Kind 15 was the whole-list negotiation, which a msgStoreWindow at First
// 0 replaced; the frame is its last golden encoding.
var retiredFrames = []struct{ name, hex string }{
	{"negotiate (kind 15)", "0f00000000000000172f736e61702f612f636f6e746578745f6f66666c6f6164000000000000001a2f736e61702f626173652f636f6e746578745f6f66666c6f61640000000000a0000000000000004000000000000000000003000000000000000461613131000000000000000462623232000000000000000463633333"},
}

// A request the daemon cannot decode is refused in-band where its
// protocol has a refusal (open, negotiate, digest plan), the daemon
// survives every cut of every golden request, and serves a real stream
// afterwards.
func TestDaemonRefusesGarbageAndKeepsServing(t *testing.T) {
	r := newRig(t)
	refused := map[uint8]bool{msgOpen: true, msgStoreWindow: true, msgStoreDigests: true}
	for _, g := range goldenMessages {
		full := goldenBytes(t, g.hex)
		for k := 0; k < len(full); k++ {
			ep, err := r.net.Connect(1, scif.Addr{Node: simnet.HostNode, Port: Port})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ep.Send(full[:k]); err != nil {
				t.Fatal(err)
			}
			raw, _, err := ep.Recv()
			ep.Close()
			if !refused[g.msg.kind()] || k == 0 {
				if err == nil {
					t.Fatalf("%s cut to %d bytes: daemon answered %x, want a hang-up", g.name, k, raw)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s cut to %d bytes: daemon hung up, want a refusal", g.name, k)
			}
			var text string
			switch m, _ := decode(raw); m := m.(type) {
			case *openResp:
				text = m.Err
			case *negotiateResp:
				text = m.Err
			case *digestsResp:
				text = m.Err
			}
			if !strings.Contains(text, "malformed message") {
				t.Fatalf("%s cut to %d bytes: reply %x is not a refusal", g.name, k, raw)
			}
		}
	}
	content := blob.FromBytes([]byte("still serving"))
	f, err := r.svc.Open(1, simnet.HostNode, "/after_garbage", Write)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, content)
	if got, _, err := r.server.Host.FS.ReadFile("/after_garbage"); err != nil || !blob.Equal(got, content) {
		t.Fatalf("write after garbage: err %v", err)
	}
}

// fakeStore is a ChunkStore that records what a store-mode stream did.
type fakeStore struct {
	mu      sync.Mutex
	chunks  map[int64]blob.Blob
	closed  int
	aborted int
	// onAbortAll, when set, runs inside AbortAll.
	onAbortAll func()
}

func (s *fakeStore) NegotiateWindow(path string, size, chunkBytes int64, first int, digests []string) ([]int, bool, simclock.Duration, error) {
	return []int{first}, false, 5, nil
}
func (s *fakeStore) PutChunkAt(path string, off int64, content blob.Blob) (simclock.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chunks[off] = content
	return 7, nil
}
func (s *fakeStore) CloseUpload(path string) (bool, simclock.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed++
	return true, 0, nil
}
func (s *fakeStore) AbortUpload(path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.aborted++
}
func (s *fakeStore) AbortAll() {
	if s.onAbortAll != nil {
		s.onAbortAll()
	}
}
func (s *fakeStore) DigestPlan(path string) (int64, int64, []string, bool, bool, simclock.Duration) {
	return 8, 4, []string{"d0", "d1"}, false, true, 3
}
func (s *fakeStore) ReadChunk(digest string) (blob.Blob, simclock.Duration, error) {
	return blob.Blob{}, 0, errors.New("fakeStore is write-only")
}

// A store-mode stream rides the same chunk-ready loop as a file stream:
// positioned chunks land in the store, close commits, and a chunk outside
// the declared stripe is refused and aborts the upload.
func TestStoreStreamThroughTheOneWriteLoop(t *testing.T) {
	r := newRig(t)
	st := &fakeStore{chunks: map[int64]blob.Blob{}}
	if err := r.svc.AttachStore(simnet.HostNode, st); err != nil {
		t.Fatal(err)
	}
	need, committed, _, err := r.svc.NegotiateWindow(1, simnet.HostNode, "/s/ctx", 8, 4, 0, []string{"d0", "d1"})
	if err != nil || committed || len(need) != 1 {
		t.Fatalf("negotiate: need %v committed %v err %v", need, committed, err)
	}
	if size, chunk, digests, _, ok, _, err := r.svc.StagePlan(1, simnet.HostNode, "/s/ctx"); err != nil || !ok || size != 8 || chunk != 4 || len(digests) != 2 {
		t.Fatalf("stage plan: %d %d %v ok=%v err=%v", size, chunk, digests, ok, err)
	}
	open := func() *File {
		f, err := r.svc.OpenStream(1, simnet.HostNode, "/s/ctx", Write, OpenOptions{
			Slots: 2, Stripe: Stripe{Offset: 0, Length: 8, Total: 8}, Store: true})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f := open()
	for off, text := range map[int64]string{4: "tail", 0: "head"} {
		if _, err := f.WriteBlobAt(off, blob.FromBytes([]byte(text))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if st.closed != 1 || len(st.chunks) != 2 || !blob.Equal(st.chunks[4], blob.FromBytes([]byte("tail"))) {
		t.Fatalf("store saw closed=%d chunks=%d", st.closed, len(st.chunks))
	}

	// Speak the protocol by hand to step outside the stripe: the client
	// library refuses to.
	f = open()
	f.slots[0].WriteBlob(0, blob.FromBytes([]byte("oops")))
	if _, err := f.ep.Send(encode(&chunkReady{StreamID: f.streamID, Slot: 0, N: 4, FileOff: 6})); err != nil {
		t.Fatal(err)
	}
	f.inflight++
	var remote *RemoteError
	if err := f.awaitAck(nil); !errors.As(err, &remote) || !strings.Contains(remote.Msg, "outside stripe") {
		t.Fatalf("out-of-stripe chunk: %v", err)
	}
	f.Abort()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.aborted != 1 || len(st.chunks) != 2 {
		t.Fatalf("after the refused chunk: aborted=%d chunks=%d", st.aborted, len(st.chunks))
	}
}

// A crashing daemon wipes its store's pending uploads before it resets its
// connections. A client that has seen the reset may open its retry's upload
// at once; a wipe that came after the reset could take that upload too.
func TestCrashWipesUploadsBeforeItResetsConnections(t *testing.T) {
	r := newRig(t)
	st := &fakeStore{chunks: map[int64]blob.Blob{}}
	if err := r.svc.AttachStore(simnet.HostNode, st); err != nil {
		t.Fatal(err)
	}
	f, err := r.svc.OpenStream(1, simnet.HostNode, "/s/ctx", Write, OpenOptions{
		Stripe: Stripe{Offset: 0, Length: 8, Total: 8}, Store: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Abort()
	wipes, connectionUp := 0, false
	st.onAbortAll = func() {
		// The client's end still reaches the daemon's while the wipe runs.
		_, err := f.ep.Send(encode(bare(msgDetach)))
		st.mu.Lock()
		defer st.mu.Unlock()
		wipes++
		connectionUp = err == nil
	}
	r.server.Fabric.SetInjector(faultinject.New(faultinject.Plan{
		{Site: faultinject.SiteDaemon, Key: simnet.HostNode.String(), Kind: faultinject.Crash}}, nil))
	_, err = f.WriteBlobAt(0, blob.FromBytes([]byte("head")))
	r.server.Fabric.SetInjector(nil)
	if err == nil {
		t.Fatal("chunk acknowledged by a daemon that crashed serving it")
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.onAbortAll = nil
	if wipes != 1 || !connectionUp {
		t.Errorf("when the client saw the reset the store had been wiped %d times, connection up during the wipe: %v; want 1, true", wipes, connectionUp)
	}
}

// A window the store cannot place — past the geometry it declares, or for
// a path with no upload open — is refused in-band: the client gets a
// *RemoteError carrying the store's reason, the daemon neither panics nor
// hangs up, and the upload the window named is still there to continue.
func TestDaemonRefusesMisplacedWindows(t *testing.T) {
	r := newRig(t)
	model := r.server.Fabric.Model()
	st := snapstore.New(model, r.server.Host.FS, nil, nil)
	if err := r.svc.AttachStore(simnet.HostNode, st); err != nil {
		t.Fatal(err)
	}
	const chunk = 4
	content := blob.FromBytes([]byte("aaaabbbbccccdddd"))
	d := snapstore.ChunkDigests(content, chunk)
	window := func(path string, size int64, first int, digests []string) ([]int, error) {
		need, _, _, err := r.svc.NegotiateWindow(1, simnet.HostNode, path, size, chunk, first, digests)
		return need, err
	}
	refused := func(what string, err error) {
		t.Helper()
		var remote *RemoteError
		if !errors.As(err, &remote) || !strings.Contains(remote.Msg, snapstore.ErrBadWindow.Error()) {
			t.Errorf("%s: err = %v, want the store's ErrBadWindow as a *RemoteError", what, err)
		}
	}
	_, err := window("/s/ctx", 16, 2, d[2:])
	refused("no upload open", err)
	if need, err := window("/s/ctx", 16, 0, d[:2]); err != nil || len(need) != 2 {
		t.Fatalf("opening window: need %v err %v", need, err)
	}
	_, err = window("/s/ctx", 16, 2, append(d[2:4:4], "extra"))
	refused("past the declared geometry", err)
	_, err = window("/s/ctx", 12, 2, d[2:3])
	refused("geometry restated", err)
	_, err = window("/s/ctx", 16, 3, d[3:])
	refused("gap", err)
	if need, err := window("/s/ctx", 16, 2, d[2:]); err != nil || len(need) != 2 {
		t.Fatalf("continuing window after the refusals: need %v err %v", need, err)
	}
	// The window that is the whole list is one window like any other.
	if need, _, _, err := r.svc.NegotiateWindow(1, simnet.HostNode, "/s/whole", 16, chunk, 0, d); err != nil || len(need) != 4 {
		t.Fatalf("whole-list window: need %v err %v", need, err)
	}
}
