// Package snapifyio implements Snapify-IO, the RDMA-based remote file
// access service of Section 6.
//
// Snapify-IO consists of a user-level library and one long-running daemon
// per SCIF node. A process calls Open with a SCIF node ID, a path valid on
// that node, and an access mode; it gets back a file handle it can stream
// through (the real system returns a UNIX file descriptor that BLCR writes
// to directly — here the handle implements stream.Sink/stream.Source, which
// is the same role). The data path is the paper's, stage for stage:
//
//	user process ⇄ (UNIX socket) ⇄ local daemon ⇄ (4 MiB registered RDMA
//	buffer over SCIF) ⇄ remote daemon ⇄ remote file system
//
// The local handler fills the staging buffer, notifies the remote daemon
// with a SCIF message, the remote side moves the buffer with
// scif_vreadfrom/scif_vwriteto, touches the file system, and acknowledges
// so the buffer can be reused. Every leg charges its virtual cost, and the
// per-chunk stage costs are reported to the caller so the checkpointer can
// compose them into a pipelined end-to-end time.
//
// Beyond the paper's single staging buffer, a stream can be opened through
// OpenStream with several staging slots (double-buffering: the SCIF
// transfer of chunk k overlaps the local copy of chunk k+1, and a
// multi-slot read prefetches instead of serializing on one buffer) and
// with a *stripe* — a byte range of the remote file — so parallel streams
// can carry disjoint ranges of one capture concurrently. Striped writes
// are assembled by the remote daemon into a single file that becomes
// visible when the last stripe closes. Every open stream registers a bulk
// flow on the PCIe fabric, so concurrent streams honestly share link
// bandwidth (see simnet.RegisterFlow).
package snapifyio

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"snapify/internal/blob"
	"snapify/internal/obs"
	"snapify/internal/scif"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/vfs"
)

// Port is the predetermined SCIF port every Snapify-IO daemon listens on.
const Port = 3500

// DefaultBufSize is the registered RDMA staging buffer size. The paper
// picks 4 MiB to balance memory footprint against transfer latency.
const DefaultBufSize = 4 * simclock.MiB

// MaxSlots bounds the staging slots of one stream (the wire protocol
// carries the slot index in a byte, and more than a handful of slots buys
// nothing once the transfer pipeline is full).
const MaxSlots = 16

// Mode is a file access mode. A handle is read-only or write-only, never
// both, matching snapifyio_open.
type Mode int

const (
	// Read opens a remote file for reading.
	Read Mode = iota
	// Write creates a remote file for writing.
	Write
)

func (m Mode) String() string {
	if m == Read {
		return "read"
	}
	return "write"
}

// Errors returned by the service.
var (
	ErrNoDaemon   = errors.New("snapifyio: no daemon on node")
	ErrFileClosed = errors.New("snapifyio: file closed")
)

// RemoteError is a failure reported by the remote daemon.
type RemoteError struct {
	Node simnet.NodeID
	Path string
	Msg  string
}

func (e *RemoteError) Error() string {
	return "snapifyio: " + e.Node.String() + ":" + e.Path + ": " + e.Msg
}

// Stripe names a byte range of the remote file carried by one stream. The
// zero value means the stream carries the whole file (the classic mode).
type Stripe struct {
	// Offset is the first byte of the remote file this stream covers.
	Offset int64
	// Length is the stripe's size in bytes.
	Length int64
	// Total is the full remote file size. Required for write stripes (the
	// remote daemon sizes the assembled file from it); ignored for reads.
	Total int64
}

func (s Stripe) enabled() bool { return s != Stripe{} }

// OpenOptions parameterizes OpenStream.
type OpenOptions struct {
	// Slots is the number of registered staging slots. 1 (or 0) is the
	// paper's single-buffer ping-pong; 2 double-buffers so transfer and
	// local copy overlap. At most MaxSlots.
	Slots int
	// Stripe restricts the stream to a byte range of the remote file; the
	// zero value streams the whole file.
	Stripe Stripe
	// Store routes the stream through the target node's chunk store
	// instead of a plain file; it needs a store attached on the target. A
	// write stream's positioned chunks are verified and deduplicated
	// against the store, and the snapshot's manifest commits when a
	// negotiated upload (see Service.NegotiateWindow) sees its last missing
	// chunk; it requires a stripe (chunks carry offsets). A read stream is
	// its mirror: the target serves chunks of the snapshot's digest plan
	// (the pending upload's, else the committed manifest's), each out of
	// the store's ReadChunk, as one byte stream; a stripe names bytes of
	// the committed image, starting and ending mid chunk where it does.
	Store bool
	// Chunks names the chunk indices a store-mode read stream carries, in
	// the order it carries them; empty means every chunk of the plan (or
	// of the stripe), in order. No other stream may set it, nor one with a
	// stripe.
	Chunks []int
}

// ChunkStore is the target-side repository a store-mode stream feeds or
// drains. *snapstore.Store implements it; the indirection keeps snapifyio
// a pure transport with no dependency on the store's internals.
type ChunkStore interface {
	// NegotiateWindow offers the digests of chunks first, first+1, ... of
	// an image and returns the indices the store lacks among them: first
	// == 0 registers the upload, later windows must continue it, and the
	// window that completes the list reports committed=true if the
	// manifest committed on the spot because every chunk was resident.
	NegotiateWindow(path string, size, chunkBytes int64, first int, digests []string) (need []int, committed bool, dur simclock.Duration, err error)
	// PutChunkAt stores one chunk-aligned piece of a negotiated upload.
	PutChunkAt(path string, off int64, content blob.Blob) (simclock.Duration, error)
	// CloseUpload commits the manifest if every chunk landed; otherwise
	// the upload stays pending for a retry.
	CloseUpload(path string) (committed bool, dur simclock.Duration, err error)
	// AbortUpload drops a pending upload (chunks already stored remain).
	AbortUpload(path string)
	// AbortAll drops every pending upload (daemon crash).
	AbortAll()
	// DigestPlan returns the digest list for path — the pending upload's
	// when one is in flight, else the committed manifest's — so a live
	// migration's destination can stage against it across rounds.
	DigestPlan(path string) (size, chunkBytes int64, digests []string, committed, ok bool, dur simclock.Duration)
	// ReadChunk returns a resident chunk's content and the virtual time to
	// read it.
	ReadChunk(digest string) (blob.Blob, simclock.Duration, error)
}

// Service manages the per-node daemons of one Xeon Phi server.
type Service struct {
	net *scif.Network
	obs *obs.Obs

	// nextStreamID mints the service-wide stream IDs carried by the wire
	// protocol.
	nextStreamID atomic.Int64

	mu      sync.Mutex
	daemons map[simnet.NodeID]*Daemon
}

// NewService returns a service with no daemons running. o (which may be
// nil) receives per-stream metrics: open/abort counters, bytes moved,
// chunk-size histograms, and a per-node active-stream gauge collected at
// every metrics dump.
func NewService(net *scif.Network, o *obs.Obs) *Service {
	s := &Service{net: net, obs: o, daemons: make(map[simnet.NodeID]*Daemon)}
	o.MetricsOf().RegisterCollector(func(r *obs.Registry) {
		s.mu.Lock()
		defer s.mu.Unlock()
		for node, d := range s.daemons {
			r.Gauge("snapifyio_active_streams",
				"Streams a Snapify-IO daemon is currently serving.",
				obs.L("node", node.String())).Set(int64(d.ActiveStreams()))
		}
	})
	return s
}

// DumpMetrics sends the SIGUSR1-analogue control message to the daemon on
// targetNode from localNode and returns the daemon's Prometheus-style
// metrics exposition. The real snapifyiod dumps its counters on a signal;
// here the poke travels the same SCIF control path as any stream open.
func (s *Service) DumpMetrics(localNode, targetNode simnet.NodeID) (string, error) {
	ep, err := s.net.Connect(localNode, scif.Addr{Node: targetNode, Port: Port})
	if err != nil {
		return "", err
	}
	defer ep.Close() //nolint:errcheck // one-shot control round-trip; Recv already surfaced any peer error
	if _, err := ep.Send(encode(bare(msgMetricsDump))); err != nil {
		return "", err
	}
	raw, _, err := ep.Recv()
	if err != nil {
		return "", err
	}
	resp, err := expect[*textMsg](raw, msgMetricsResp)
	if err != nil {
		return "", err
	}
	return resp.Text, nil
}

// Discard asks the daemon on targetNode to drop the pending striped
// assembly of path, removing its partial file. Writers call it after
// exhausting their retries so a failed capture leaves no artifact; a
// discard of a path with no pending assembly is a no-op.
func (s *Service) Discard(localNode, targetNode simnet.NodeID, path string) error {
	ep, err := s.net.Connect(localNode, scif.Addr{Node: targetNode, Port: Port})
	if err != nil {
		return err
	}
	defer ep.Close() //nolint:errcheck // one-shot control round-trip; Recv already surfaced any peer error
	if _, err := ep.Send(encode(&textMsg{Kind: msgDiscard, Text: path})); err != nil {
		return err
	}
	raw, _, err := ep.Recv()
	if err != nil {
		return err
	}
	resp, err := expect[*textMsg](raw, msgDiscardResp)
	if err != nil {
		return err
	}
	if resp.Text != "" {
		return &RemoteError{Node: targetNode, Path: path, Msg: resp.Text}
	}
	return nil
}

// AttachStore mounts a chunk store on the daemon running on node:
// store-mode streams and have/need negotiations against that node are
// served from cs. Typically called once at platform bring-up, right
// after StartDaemon on the host.
func (s *Service) AttachStore(node simnet.NodeID, cs ChunkStore) error {
	d, err := s.Daemon(node)
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.store = cs
	d.mu.Unlock()
	return nil
}

// NegotiateWindow runs one have/need round of a dedup-aware capture
// against the chunk store on targetNode: digests are those of chunks
// first, first+1, ... of the image, and the answer lists the indices among
// them the store lacks. The window at first == 0 opens the upload (a
// retry's window there is the whole list), each later one must continue
// it, and committed=true — every chunk was already resident, so the
// manifest committed without a data byte moving — can only come back from
// the window that completes the list. dur is the virtual round-trip
// including the store's index scan.
func (s *Service) NegotiateWindow(localNode, targetNode simnet.NodeID, path string, size, chunkBytes int64, first int, digests []string) (need []int, committed bool, dur simclock.Duration, err error) {
	ep, err := s.net.Connect(localNode, scif.Addr{Node: targetNode, Port: Port})
	if err != nil {
		return nil, false, 0, err
	}
	defer ep.Close() //nolint:errcheck // one-shot control round-trip; Recv already surfaced any peer error
	sendDur, err := ep.Send(encode(&windowMsg{Path: path, Size: size, ChunkBytes: chunkBytes, First: first, Digests: digests}))
	if err != nil {
		return nil, false, 0, err
	}
	raw, recvDur, err := ep.Recv()
	if err != nil {
		return nil, false, 0, err
	}
	resp, err := expect[*negotiateResp](raw, msgStoreWindowResp)
	if err != nil {
		return nil, false, 0, err
	}
	dur = sendDur + recvDur + resp.Dur
	if resp.Err != "" {
		return nil, false, dur, &RemoteError{Node: targetNode, Path: path, Msg: resp.Err}
	}
	return resp.Need, resp.Committed, dur, nil
}

// StagePlan fetches the digest plan for path from the chunk store on
// targetNode: the pending upload's digest list when a pre-copy round is
// in flight, else the committed manifest's. The destination card of a
// live migration calls this each round to learn what to stage, and once
// more at switch-over to verify the staged set against the committed
// manifest. ok=false (without error) means the store knows nothing
// about path.
func (s *Service) StagePlan(localNode, targetNode simnet.NodeID, path string) (size, chunkBytes int64, digests []string, committed, ok bool, dur simclock.Duration, err error) {
	ep, err := s.net.Connect(localNode, scif.Addr{Node: targetNode, Port: Port})
	if err != nil {
		return 0, 0, nil, false, false, 0, err
	}
	defer ep.Close() //nolint:errcheck // one-shot control round-trip; Recv already surfaced any peer error
	sendDur, err := ep.Send(encode(&textMsg{Kind: msgStoreDigests, Text: path}))
	if err != nil {
		return 0, 0, nil, false, false, 0, err
	}
	raw, recvDur, err := ep.Recv()
	if err != nil {
		return 0, 0, nil, false, false, 0, err
	}
	resp, err := expect[*digestsResp](raw, msgStoreDigestsResp)
	if err != nil {
		return 0, 0, nil, false, false, 0, err
	}
	dur = sendDur + recvDur + resp.Dur
	if resp.Err != "" {
		return 0, 0, nil, false, false, dur, &RemoteError{Node: targetNode, Path: path, Msg: resp.Err}
	}
	return resp.Size, resp.ChunkBytes, resp.Digests, resp.Committed, resp.OK, dur, nil
}

// CrashDaemon crashes (and immediately restarts) the daemon on node:
// connections die, in-progress assemblies are discarded with their
// partial files. Test hook for the chaos tier; the injected Crash fault
// takes the same path.
func (s *Service) CrashDaemon(node simnet.NodeID) error {
	d, err := s.Daemon(node)
	if err != nil {
		return err
	}
	d.crash()
	return nil
}

// StartDaemon launches the Snapify-IO daemon on node, serving its local
// file system fs, with the default 4 MiB staging buffer.
func (s *Service) StartDaemon(node simnet.NodeID, fs *vfs.FS) (*Daemon, error) {
	return s.StartDaemonBuf(node, fs, DefaultBufSize)
}

// StartDaemonBuf launches a daemon with a specific staging buffer size
// (the ablation of the paper's 4 MiB choice sweeps this; all daemons of a
// service must agree or streams are rejected).
func (s *Service) StartDaemonBuf(node simnet.NodeID, fs *vfs.FS, bufSize int64) (*Daemon, error) {
	if bufSize <= 0 {
		return nil, fmt.Errorf("snapifyio: non-positive staging buffer %d", bufSize)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.daemons[node]; dup {
		return nil, fmt.Errorf("snapifyio: daemon already running on %v", node)
	}
	l, err := s.net.Listen(node, Port)
	if err != nil {
		return nil, fmt.Errorf("snapifyio: binding daemon port on %v: %w", node, err)
	}
	d := &Daemon{
		svc:        s,
		node:       node,
		fs:         fs,
		lst:        l,
		bufSize:    bufSize,
		done:       make(chan struct{}),
		assemblies: make(map[string]*assembly),
	}
	s.daemons[node] = d
	go d.remoteServer()
	return d, nil
}

// Daemon returns the daemon on node, or an error if none runs.
func (s *Service) Daemon(node simnet.NodeID) (*Daemon, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.daemons[node]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNoDaemon, node)
	}
	return d, nil
}

// Open is the library entry point (snapifyio_open): a process on localNode
// opens the file at path on targetNode in the given mode. The returned
// handle streams through the local daemon with the paper's single staging
// buffer.
func (s *Service) Open(localNode, targetNode simnet.NodeID, path string, mode Mode) (*File, error) {
	return s.OpenStream(localNode, targetNode, path, mode, OpenOptions{})
}

// OpenStream opens a file handle with explicit staging and striping
// options (the multi-stream extension of snapifyio_open).
func (s *Service) OpenStream(localNode, targetNode simnet.NodeID, path string, mode Mode, opts OpenOptions) (*File, error) {
	d, err := s.Daemon(localNode)
	if err != nil {
		return nil, err
	}
	return d.open(targetNode, path, mode, opts)
}

// Stop shuts down all daemons.
func (s *Service) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for node, d := range s.daemons {
		d.lst.Close() //nolint:errcheck // service stop: a close error on the accept listener has no recovery
		close(d.done)
		delete(s.daemons, node)
		// Drop any assemblies still waiting for a resume so no partial
		// files outlive the service. Plain teardown, not crash(): a clean
		// stop is not an incident and must not trigger a flight dump.
		d.teardown()
	}
}
