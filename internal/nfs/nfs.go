// Package nfs models the NFS mount MPSS provides on a Xeon Phi card: the
// host file system exported over the TCP/IP virtio interface (mic0), which
// is the storage baseline Snapify-IO is compared against in Tables 3 and 4.
//
// Three write configurations are implemented, matching Section 6:
//
//   - Sync: the path BLCR's kernel writer takes — every write() becomes at
//     least one synchronous RPC, so BLCR's many small metadata records and
//     page-granular writes each pay a full round trip. This is the plain
//     "NFS" row of Table 4.
//   - KernelBuffered: the paper's modified BLCR kernel module accumulates
//     writes into a large chunk before hitting the wire ("NFS-Buffered in
//     kernel").
//   - UserBuffered: the paper's user-space utility that BLCR's output is
//     piped through; same idea one level up, with an extra copy and a
//     smaller buffer ("NFS-Buffered in user").
//
// Reads always enjoy client readahead, which keeps RPC latency off the
// critical path — the reason the paper notes that "the buffering solutions
// do not apply to the cases of restarting".
package nfs

import (
	"snapify/internal/blob"
	"snapify/internal/hostfs"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/stream"
)

// Buffer sizes of the two buffered variants.
const (
	// KernelBufSize is the in-kernel accumulation chunk.
	KernelBufSize = 4 * simclock.MiB
	// UserBufSize is the user-space utility's buffer.
	UserBufSize = 1 * simclock.MiB
)

// Mount is the host file system NFS-mounted on one coprocessor.
type Mount struct {
	fabric *simnet.Fabric
	model  *simclock.Model
	node   simnet.NodeID // the client (card) node
	host   *hostfs.FS
}

// NewMount mounts host's file system on the card at node.
func NewMount(fabric *simnet.Fabric, node simnet.NodeID, host *hostfs.FS) *Mount {
	if node.IsHost() {
		panic("nfs: the host does not NFS-mount itself") //nolint:paniclib // configuration bug: mounts are built at platform setup, not at runtime
	}
	return &Mount{fabric: fabric, model: fabric.Model(), node: node, host: host}
}

// rpcs returns the number of RPCs needed to carry n bytes at the mount's
// rsize/wsize.
func (m *Mount) rpcs(n int64) int64 {
	t := m.model.NFSMaxTransfer
	return (n + t - 1) / t
}

// wireCost is the virtio transfer cost of n bytes, including traffic
// accounting on the fabric.
func (m *Mount) wireCost(n int64, toHost bool) simclock.Duration {
	if toHost {
		return m.fabric.VirtioCost(m.node, simnet.HostNode, n)
	}
	return m.fabric.VirtioCost(simnet.HostNode, m.node, n)
}

// CreateSync opens path for plain synchronous writes (the unmodified BLCR
// path of Table 4).
func (m *Mount) CreateSync(path string) (stream.Sink, error) {
	w, err := m.host.Create(path)
	if err != nil {
		return nil, err
	}
	return &syncSink{m: m, w: w}, nil
}

type syncSink struct {
	m *Mount
	w *hostfs.Writer
}

func (s *syncSink) WriteBlob(b blob.Blob) (stream.Cost, error) {
	fsWrite, err := s.w.WriteBlob(b)
	if err != nil {
		return stream.Cost{}, err
	}
	// Every write() is synchronous: the client blocks for each RPC round
	// trip; nothing overlaps.
	d := simclock.Duration(s.m.rpcs(b.Len()))*s.m.model.NFSRPCLatency +
		s.m.wireCost(b.Len(), true) + fsWrite
	return stream.Cost{Stages: []simclock.Duration{d}, Serial: true}, nil
}

func (s *syncSink) Close() error { return s.w.Close() }
func (s *syncSink) Abort()       { s.w.Abort() }

// CreateBuffered opens path the way an ordinary buffered writer (cp, dd)
// does: through the client page cache with write-behind. The cost behaviour
// is the same as the kernel-buffered checkpoint path — Table 3's "NFS"
// column measures exactly this.
func (m *Mount) CreateBuffered(path string) (stream.Sink, error) {
	return m.CreateKernelBuffered(path)
}

// CreateKernelBuffered opens path with the modified-BLCR kernel buffering.
func (m *Mount) CreateKernelBuffered(path string) (stream.Sink, error) {
	w, err := m.host.Create(path)
	if err != nil {
		return nil, err
	}
	return &bufferedSink{m: m, w: w, bufSize: KernelBufSize, copies: 1}, nil
}

// CreateUserBuffered opens path with the user-space buffering utility.
func (m *Mount) CreateUserBuffered(path string) (stream.Sink, error) {
	w, err := m.host.Create(path)
	if err != nil {
		return nil, err
	}
	// BLCR's output is redirected through the utility's stdin: one extra
	// pipe copy on the card's slow cores, and the single-threaded utility
	// alternates between draining the pipe and writing NFS, so its flushes
	// do not overlap the producer — the reason the paper calls its boost
	// "a lesser degree" than the kernel module's.
	return &bufferedSink{m: m, w: w, bufSize: UserBufSize, copies: 2, serialFlush: true}, nil
}

// bufferedSink accumulates writes into bufSize chunks before paying the
// wire; flushes pipeline with the producer (asynchronous writeback).
type bufferedSink struct {
	m           *Mount
	w           *hostfs.Writer
	bufSize     int64
	copies      int  // memcpys on the card before the wire
	serialFlush bool // flushes do not overlap the producer

	held      []blob.Blob
	heldBytes int64
}

func (s *bufferedSink) WriteBlob(b blob.Blob) (stream.Cost, error) {
	// The producer's write lands in the buffer at memcpy speed.
	copyCost := simclock.Duration(s.copies) * s.m.model.PhiMemcpy(b.Len())
	s.held = append(s.held, b)
	s.heldBytes += b.Len()
	if s.heldBytes < s.bufSize {
		return stream.Cost{Stages: []simclock.Duration{copyCost}}, nil
	}
	cost, err := s.flush()
	if err != nil {
		return stream.Cost{}, err
	}
	cost.Stages[0] += copyCost
	return cost, nil
}

func (s *bufferedSink) flush() (stream.Cost, error) {
	if s.heldBytes == 0 {
		return stream.Cost{Stages: []simclock.Duration{0, 0}}, nil
	}
	n := s.heldBytes
	content := blob.Concat(s.held...)
	s.held = nil
	s.heldBytes = 0
	fsWrite, err := s.w.WriteBlob(content)
	if err != nil {
		return stream.Cost{}, err
	}
	// One latency per buffer commit; the bulk moves at wire speed and —
	// for the kernel module — overlaps with the producer refilling the
	// buffer.
	wire := s.m.model.NFSRPCLatency + s.m.wireCost(n, true) + fsWrite
	return stream.Cost{Stages: []simclock.Duration{0, wire}, Serial: s.serialFlush}, nil
}

func (s *bufferedSink) Close() error {
	if _, err := s.flush(); err != nil {
		return err
	}
	return s.w.Close()
}

func (s *bufferedSink) Abort() { s.w.Abort() }

// Open returns a read source with client readahead.
func (m *Mount) Open(path string) (stream.Source, error) {
	r, err := m.host.Open(path)
	if err != nil {
		return nil, err
	}
	return &readSource{m: m, r: r}, nil
}

type readSource struct {
	m *Mount
	r *hostfs.Reader
}

func (s *readSource) Next(max int64) (blob.Blob, stream.Cost, error) {
	b, fsRead, err := s.r.Next(max)
	if err != nil {
		return blob.Blob{}, stream.Cost{}, err
	}
	// Readahead keeps NFSReadAhead RPCs in flight, hiding all but a
	// fraction of the per-RPC latency; the wire and the server read
	// pipeline with the consumer.
	ra := int64(s.m.model.NFSReadAhead)
	if ra < 1 {
		ra = 1
	}
	lat := simclock.Duration(s.m.rpcs(b.Len())/ra+1) * s.m.model.NFSRPCLatency
	wire := s.m.wireCost(b.Len(), false)
	return b, stream.Cost{Stages: []simclock.Duration{fsRead, lat + wire}}, nil
}

func (s *readSource) Close() error { return nil }
