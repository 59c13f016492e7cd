package snapifyio

import (
	"fmt"
	"io"

	"snapify/internal/blob"
	"snapify/internal/obs"
	"snapify/internal/scif"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/stream"
)

// File is a Snapify-IO handle, the analogue of the UNIX file descriptor
// snapifyio_open returns. A Write-mode file implements stream.Sink; a
// Read-mode file implements stream.Source. Chunk costs report the three
// pipeline stages (local copy, RDMA, remote file system) so the consumer
// composes them with its own stages.
//
// With one staging slot the handle is the paper's synchronous ping-pong:
// each chunk is fully acknowledged before the next is sent. With more
// slots, writes keep up to slots-1 chunks in flight (the SCIF transfer of
// chunk k overlaps the local copy of chunk k+1) and reads prefetch up to
// slots chunks ahead; a pipelined writer should Flush before Close so the
// tail's cost is accounted.
type File struct {
	node    simnet.NodeID
	target  simnet.NodeID
	mode    Mode
	ep      *scif.Endpoint
	slots   []*slot
	bufSize int64
	model   *simclock.Model
	size    int64

	streamID int64
	release  func() // drops the stream's fabric flow

	// The stream's message scratch and its per-chunk messages, reused
	// chunk after chunk (DESIGN.md §8), and the stage costs the last
	// WriteBlob, Flush or Next returned.
	msgs   codec
	ready  chunkReady
	ack    chunkAck
	pull   pullMsg
	here   chunkHere
	hole   holeHere
	stages [3]simclock.Duration

	// Per-stream metrics, resolved at open (all nil-safe no-ops when the
	// service runs without observability).
	bytesCtr  *obs.Counter
	chunkHist *obs.Histogram
	abortCtr  *obs.Counter
	detachCtr *obs.Counter
	errCtr    *obs.Counter

	// pending is fixed overhead (open handshake) charged on the next chunk.
	pending simclock.Duration

	// write-mode pipeline state.
	inflight  int   // chunks sent but not yet acknowledged
	seq       int   // round-robin slot cursor
	fileOff   int64 // next write offset; -1 means append (unstriped)
	stripeEnd int64

	// Acknowledgement watermark: lengths of in-flight chunks in send
	// order (a ring of one entry per slot, oldest at sentHead), and the
	// bytes durably written by the remote daemon so far. Acks arrive in
	// send order and a chunk is written in full before it is
	// acknowledged, so acked is always a contiguous prefix of the
	// stream's payload — the resume point after a fault.
	sentLens []int64
	sentHead int
	acked    int64

	// read-mode prefetch state.
	pulls   int // outstanding msgPull requests
	current blob.Blob
	curHole bool // current is a hole: zeros that did not move
	curOff  int64
	eof     bool

	closed bool
}

var (
	_ stream.Sink    = (*File)(nil)
	_ stream.Source  = (*File)(nil)
	_ stream.Flusher = (*File)(nil)
)

// Size returns the remote file size (read mode only).
func (f *File) Size() int64 { return f.size }

// localCopy is the user-process-to-staging (or back) stage on f's node.
func (f *File) localCopy(n int64) simclock.Duration {
	d := f.model.UnixSocketLatency
	if f.node.IsHost() {
		return d + f.model.HostMemcpy(n)
	}
	return d + f.model.PhiMemcpy(n)
}

// awaitAck consumes one write acknowledgment. When stages is non-nil the
// ack's transfer and file-system costs are accumulated into it; Close
// passes nil because a drained tail it never accounted can only discard
// costs, not correctness.
func (f *File) awaitAck(stages *[3]simclock.Duration) error {
	raw, _, err := f.ep.Recv()
	if err != nil {
		return err
	}
	// Whatever arrived is the reply to the oldest chunk: acks come in
	// send order.
	f.inflight--
	chunkLen := f.sentLens[f.sentHead]
	f.sentHead = (f.sentHead + 1) % len(f.sentLens)
	ack := &f.ack
	if err := f.msgs.expect(raw, ack); err != nil {
		return err
	}
	if ack.StreamID != f.streamID {
		return fmt.Errorf("snapifyio: ack for stream %d on stream %d", ack.StreamID, f.streamID)
	}
	if ack.Err != "" {
		// A nacked chunk was not durably written; it does not advance
		// the watermark.
		f.errCtr.Inc()
		return &RemoteError{Node: f.target, Path: "", Msg: ack.Err}
	}
	f.acked += chunkLen
	if stages != nil {
		stages[1] += ack.RDMA + f.model.SCIFMsgLatency // notify + DMA
		stages[2] += ack.FSWrite
	}
	return nil
}

// Acked returns the stream's acknowledgement watermark: the number of
// payload bytes the remote daemon has durably written and acknowledged.
// After a fault, a writer resumes from this offset instead of replaying
// the whole stripe. Part of stream.Watermarked.
func (f *File) Acked() int64 { return f.acked }

// Detach abandons the stream without poisoning a shared striped
// assembly: the remote daemon keeps the assembled ranges so a
// replacement stream can resume from the acknowledgement watermark.
// Contrast Abort, which discards the whole assembly.
func (f *File) Detach() {
	if f.closed {
		return
	}
	f.closed = true
	f.detachCtr.Inc()
	if f.release != nil {
		defer f.release()
	}
	f.ep.Send(encode(bare(msgDetach))) //nolint:errcheck // best effort: the remote handler also detaches on reset
	f.ep.Close()                       //nolint:errcheck // detach path: dropping the connection carries the signal
}

// WriteBlob streams one chunk (split at the staging buffer size) to the
// remote file. Part of stream.Sink.
func (f *File) WriteBlob(b blob.Blob) (stream.Cost, error) {
	if f.closed {
		return stream.Cost{}, ErrFileClosed
	}
	if f.mode != Write {
		return stream.Cost{}, fmt.Errorf("snapifyio: write on %v-mode file", f.mode)
	}
	stages := &f.stages
	*stages = [3]simclock.Duration{}
	err := b.ForEachChunk(f.bufSize, func(chunk blob.Blob) error {
		// Stage 1: user writes the socket; local handler fills a free slot.
		// The slot is free: at most slots-1 chunks are in flight, so the
		// chunk that last used this slot was already acknowledged.
		sl := f.seq % len(f.slots)
		f.seq++
		f.slots[sl].WriteBlob(0, chunk)
		stages[0] += f.localCopy(chunk.Len()) + f.pending
		f.pending = 0
		f.bytesCtr.Add(chunk.Len())
		f.chunkHist.Observe(chunk.Len())

		off := int64(-1)
		if f.fileOff >= 0 {
			off = f.fileOff
			if off+chunk.Len() > f.stripeEnd {
				return fmt.Errorf("snapifyio: chunk [%d,%d) overruns stripe ending at %d", off, off+chunk.Len(), f.stripeEnd)
			}
			f.fileOff += chunk.Len()
		}

		// Notify the remote daemon; with one slot this immediately awaits
		// the drain ack (the paper's ping-pong), with more the ack of an
		// earlier chunk is awaited instead, keeping slots-1 in flight.
		f.ready = chunkReady{StreamID: f.streamID, Slot: sl, N: chunk.Len(), FileOff: off}
		if _, err := f.msgs.send(f.ep, &f.ready); err != nil {
			return err
		}
		f.sentLens[(f.sentHead+f.inflight)%len(f.sentLens)] = chunk.Len()
		f.inflight++
		for f.inflight > len(f.slots)-1 {
			if err := f.awaitAck(stages); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return stream.Cost{}, err
	}
	return stream.Cost{Stages: stages[:]}, nil
}

// WriteBlobAt positions the stream at off within its stripe and streams
// one chunk there. Store-mode writers use it to ship only the chunks a
// have/need negotiation reported missing, skipping the stretches the
// store already holds.
func (f *File) WriteBlobAt(off int64, b blob.Blob) (stream.Cost, error) {
	if f.closed {
		return stream.Cost{}, ErrFileClosed
	}
	if f.mode != Write || f.fileOff < 0 {
		return stream.Cost{}, fmt.Errorf("snapifyio: positioned write on an unstriped %v-mode file", f.mode)
	}
	if off < 0 || off+b.Len() > f.stripeEnd {
		return stream.Cost{}, fmt.Errorf("snapifyio: positioned write [%d,%d) overruns stripe ending at %d", off, off+b.Len(), f.stripeEnd)
	}
	f.fileOff = off
	return f.WriteBlob(b)
}

// Flush drains the in-flight write tail and returns its cost. Part of
// stream.Flusher; a no-op on single-slot (synchronous) streams.
func (f *File) Flush() (stream.Cost, error) {
	if f.closed {
		return stream.Cost{}, ErrFileClosed
	}
	if f.mode != Write {
		return stream.Cost{}, fmt.Errorf("snapifyio: flush on %v-mode file", f.mode)
	}
	stages := &f.stages
	*stages = [3]simclock.Duration{}
	for f.inflight > 0 {
		if err := f.awaitAck(stages); err != nil {
			return stream.Cost{}, err
		}
	}
	return stream.Cost{Stages: stages[:]}, nil
}

// ensurePulls keeps up to len(slots) chunk requests outstanding so the
// daemon-side file read and RDMA of later chunks overlap consumption of
// earlier ones. Slot indices round-robin in pull order; replies arrive in
// the same order, and a slot is only re-requested after its previous reply
// was consumed (and its content snapshotted), so reuse is safe.
func (f *File) ensurePulls() error {
	for !f.eof && f.pulls < len(f.slots) {
		f.pull = pullMsg{StreamID: f.streamID, Slot: f.seq % len(f.slots)}
		f.seq++
		if _, err := f.msgs.send(f.ep, &f.pull); err != nil {
			return err
		}
		f.pulls++
	}
	return nil
}

// Next returns up to max bytes of the remote file. Part of stream.Source.
func (f *File) Next(max int64) (blob.Blob, stream.Cost, error) {
	if f.closed {
		return blob.Blob{}, stream.Cost{}, ErrFileClosed
	}
	if f.mode != Read {
		return blob.Blob{}, stream.Cost{}, fmt.Errorf("snapifyio: read on %v-mode file", f.mode)
	}
	var cost stream.Cost
	if f.curOff >= f.current.Len() {
		if f.eof {
			return blob.Blob{}, stream.Cost{}, io.EOF
		}
		if err := f.ensurePulls(); err != nil {
			return blob.Blob{}, stream.Cost{}, err
		}
		raw, _, err := f.ep.Recv()
		if err != nil {
			return blob.Blob{}, stream.Cost{}, err
		}
		f.pulls--
		hole, err := f.answer(raw)
		if err != nil {
			return blob.Blob{}, stream.Cost{}, err
		}
		here := &f.here
		if here.StreamID != f.streamID {
			return blob.Blob{}, stream.Cost{}, fmt.Errorf("snapifyio: chunk for stream %d on stream %d", here.StreamID, f.streamID)
		}
		if here.Err != "" {
			f.errCtr.Inc()
			return blob.Blob{}, stream.Cost{}, &RemoteError{Node: f.target, Path: "", Msg: here.Err}
		}
		sl, n := here.Slot, here.N
		if n == 0 {
			f.eof = true
			// Drain the remaining prefetch replies (all EOF markers, since
			// the daemon reads the file in pull order) so Close's response
			// is not queued behind them.
			for f.pulls > 0 {
				raw, _, err := f.ep.Recv()
				if err != nil {
					return blob.Blob{}, stream.Cost{}, err
				}
				if _, err := f.answer(raw); err != nil {
					return blob.Blob{}, stream.Cost{}, err
				}
				f.pulls--
			}
			return blob.Blob{}, stream.Cost{}, io.EOF
		}
		if sl >= len(f.slots) {
			return blob.Blob{}, stream.Cost{}, fmt.Errorf("snapifyio: chunk names slot %d of %d", sl, len(f.slots))
		}
		f.curOff, f.curHole = 0, hole
		if hole {
			// A hole moved nothing: its one leg is the reply.
			f.current = blob.Zeros(n)
			f.stages = [3]simclock.Duration{here.FSRead, f.model.SCIFMsgLatency, f.pending}
		} else {
			f.current = f.slots[sl].SnapshotRange(0, n)
			f.bytesCtr.Add(n)
			f.chunkHist.Observe(n)
			// Stage 3: local handler copies buffer -> socket -> user. With
			// one slot the read path is request-response over a single
			// staging buffer, so the stages serialize — this is why
			// device-to-host writes (whose host file-system writeback
			// overlaps the PCIe transfer) outrun host-to-device reads in
			// Section 7. Prefetching streams overlap the legs instead.
			f.stages = [3]simclock.Duration{here.FSRead, here.RDMA + f.model.SCIFMsgLatency, f.localCopy(n) + f.pending}
		}
		cost = stream.Cost{Stages: f.stages[:], Serial: len(f.slots) == 1}
		f.pending = 0
		if err := f.ensurePulls(); err != nil {
			return blob.Blob{}, stream.Cost{}, err
		}
	}
	n := max
	if rem := f.current.Len() - f.curOff; rem < n {
		n = rem
	}
	chunk := f.current.Slice(f.curOff, n)
	f.curOff += n
	cost.Hole = f.curHole
	return chunk, cost, nil
}

// answer decodes a pull's reply into f.here and reports whether it was a
// hole, which f.here then shows as a chunk with no RDMA: a store stream
// answers a zero chunk with a holeHere in place of a chunkHere.
func (f *File) answer(raw []byte) (hole bool, err error) {
	if len(raw) == 0 || raw[0] != msgHoleHere {
		return false, f.msgs.expect(raw, &f.here)
	}
	if err := f.msgs.expect(raw, &f.hole); err != nil {
		return false, err
	}
	f.here = chunkHere{StreamID: f.hole.StreamID, Slot: f.hole.Slot, N: f.hole.N, FSRead: f.hole.FSRead}
	return true, nil
}

// Close finalizes the stream: in write mode the remote file (or this
// stream's stripe of it) becomes visible; in read mode resources are
// released. Any in-flight pipeline tail is drained first.
func (f *File) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	if f.release != nil {
		defer f.release()
	}
	defer f.ep.Close() //nolint:errcheck // close releases the endpoint; the msgClose round-trip below carries the real error
	// Drain in-flight traffic so the close response is the next message.
	for f.inflight > 0 {
		if err := f.awaitAck(nil); err != nil {
			return err
		}
	}
	for f.pulls > 0 {
		raw, _, err := f.ep.Recv()
		if err != nil {
			return err
		}
		if _, err := f.answer(raw); err != nil {
			return err
		}
		f.pulls--
	}
	if _, err := f.ep.Send(encode(bare(msgClose))); err != nil {
		return err
	}
	raw, _, err := f.ep.Recv()
	if err != nil {
		return err
	}
	resp, err := expect[*textMsg](raw, msgCloseResp)
	if err != nil {
		return err
	}
	if resp.Text != "" {
		return &RemoteError{Node: f.target, Path: "", Msg: resp.Text}
	}
	return nil
}

// Abort discards the stream; in write mode the partial remote file (and,
// for stripes, the whole shared assembly) is dropped.
func (f *File) Abort() {
	if f.closed {
		return
	}
	f.closed = true
	f.abortCtr.Inc()
	if f.release != nil {
		defer f.release()
	}
	f.ep.Send(encode(bare(msgAbort))) //nolint:errcheck // best effort: the remote handler also aborts on reset
	f.ep.Close()                      //nolint:errcheck // abort path: dropping the connection is the abort signal
}
