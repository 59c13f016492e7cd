package coi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"snapify/internal/proc"
	"snapify/internal/scif"
	"snapify/internal/simclock"
)

// Pipeline wire opcodes.
const (
	plRun  uint8 = 1
	plDone uint8 = 2
)

// ErrProcessGone is returned for operations against a destroyed or
// swapped-out offload process.
var ErrProcessGone = errors.New("coi: offload process gone")

// Pipeline is the host side of a COI pipeline: the client of the
// run-function channel (Pipe_Thread1 in Fig 4). RunFunction sends a run
// request and blocks until the server thread in the offload process sends
// the function's return value back.
type Pipeline struct {
	cp *Process
	id uint32

	// sendMu is the host side of the case-4 critical region: Snapify's
	// pause holds it, so no run request can enter the channel mid-drain.
	sendMu sync.Mutex

	mu       sync.Mutex
	ep       *scif.Endpoint
	nextSeq  uint64
	pending  map[uint64]chan runResult
	lastDone uint64
}

type runResult struct {
	data    []byte
	compute simclock.Duration
	recvD   simclock.Duration
	err     error
}

func newPipeline(cp *Process, id uint32, ep *scif.Endpoint) *Pipeline {
	pl := &Pipeline{cp: cp, id: id, ep: ep, nextSeq: 1, pending: make(map[uint64]chan runResult)}
	go pl.receiver(ep)
	return pl
}

// receiver is the host-side result dispatcher. It exits when its endpoint
// dies (swap-out, destroy); a reconnect starts a fresh receiver on the new
// endpoint and the pending waiters simply keep waiting — the restored
// offload process re-sends results for re-entered functions.
func (pl *Pipeline) receiver(ep *scif.Endpoint) {
	for {
		raw, d, err := ep.Recv()
		if err != nil {
			return
		}
		if raw[0] != plDone {
			continue
		}
		seq := binary.BigEndian.Uint64(raw[1:9])
		status := raw[9]
		compute := simclock.Duration(binary.BigEndian.Uint64(raw[10:18]))
		payload := raw[18:]

		pl.mu.Lock()
		if seq <= pl.lastDone {
			// Duplicate result after a restore re-entry; drop it.
			pl.mu.Unlock()
			continue
		}
		ch, ok := pl.pending[seq]
		if ok {
			delete(pl.pending, seq)
			pl.lastDone = seq
		}
		pl.mu.Unlock()
		if !ok {
			continue
		}
		res := runResult{compute: compute, recvD: d}
		if status != 0 {
			res.err = fmt.Errorf("coi: offload function failed: %s", payload)
		} else {
			res.data = append([]byte(nil), payload...)
		}
		ch <- res
	}
}

// RunFunction executes the named offload function synchronously and
// returns its result (COIPipelineRunFunction with a blocking wait).
func (pl *Pipeline) RunFunction(name string, args []byte) ([]byte, error) {
	h, err := pl.RunFunctionAsync(name, args)
	if err != nil {
		return nil, err
	}
	return h.Wait()
}

// RunHandle is a pending asynchronous run-function call.
type RunHandle struct {
	pl  *Pipeline
	seq uint64
	ch  chan runResult
}

// RunFunctionAsync enqueues a run request and returns a handle to wait on.
func (pl *Pipeline) RunFunctionAsync(name string, args []byte) (*RunHandle, error) {
	cp := pl.cp
	// Paused is allowed: the send below blocks on the case-4 critical
	// region until resume, which is exactly the drain semantics.
	if s := cp.State(); s != StateActive && s != StatePaused {
		return nil, fmt.Errorf("%w: %s", ErrProcessGone, s)
	}

	pl.mu.Lock()
	seq := pl.nextSeq
	pl.nextSeq++
	ch := make(chan runResult, 1)
	pl.pending[seq] = ch
	ep := pl.ep
	pl.mu.Unlock()

	msg := []byte{plRun}
	msg = binary.BigEndian.AppendUint64(msg, seq)
	msg = binary.BigEndian.AppendUint32(msg, uint32(len(name)))
	msg = append(msg, name...)
	msg = append(msg, args...)

	// The send is a blocking call inside a critical region (the Snapify
	// transformation of Fig 4 step 1); pause blocks here, never mid-send.
	pl.sendMu.Lock()
	if cp.hooks() {
		cp.tl.Advance(cp.plat.Model().HookOffloadCall)
	}
	d, err := ep.Send(msg) // blocking under the lock is intended (Fig 4 step 1): sendMu IS the pause lock; pause must block here, never mid-send
	pl.sendMu.Unlock()
	if err != nil {
		pl.mu.Lock()
		delete(pl.pending, seq)
		pl.mu.Unlock()
		return nil, fmt.Errorf("coi: run request: %w", err)
	}
	cp.tl.Advance(d)
	return &RunHandle{pl: pl, seq: seq, ch: ch}, nil
}

// Wait blocks until the function's return value arrives and advances the
// application timeline by the offload's compute time.
func (h *RunHandle) Wait() ([]byte, error) {
	res := <-h.ch
	if res.err != nil {
		return nil, res.err
	}
	h.pl.cp.tl.Advance(res.compute + res.recvD)
	return res.data, nil
}

// reconnect swaps in the post-restore endpoint and restarts the receiver.
func (pl *Pipeline) reconnect(ep *scif.Endpoint) {
	pl.mu.Lock()
	pl.ep = ep
	pl.mu.Unlock()
	go pl.receiver(ep)
}

// endpoint returns the current endpoint (drain assertions).
func (pl *Pipeline) endpoint() *scif.Endpoint {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.ep
}

// pauseLock acquires the case-4 host-side critical region.
func (pl *Pipeline) pauseLock() { pl.sendMu.Lock() }

// resumeUnlock releases it.
func (pl *Pipeline) resumeUnlock() { pl.sendMu.Unlock() }

// --- device side ---

// servePipeline is Pipe_Thread2: it receives run requests in order and
// executes them.
func (op *OffloadProc) servePipeline(id uint32, ep *scif.Endpoint) {
	for {
		raw, _, err := ep.Recv()
		if err != nil {
			return
		}
		if raw[0] != plRun {
			return
		}
		seq := binary.BigEndian.Uint64(raw[1:9])
		nameLen := binary.BigEndian.Uint32(raw[9:13])
		name := string(raw[13 : 13+nameLen])
		args := append([]byte(nil), raw[13+nameLen:]...)
		op.executeFunction(id, seq, name, args)
	}
}

// executeFunction records the active function in the control region, runs
// it, and delivers the result. The control-region clear and the result
// send are atomic under resultMu (the case-4 device-side critical region),
// so a snapshot observes either "active" or "delivered".
func (op *OffloadProc) executeFunction(id uint32, seq uint64, name string, args []byte) {
	active := ctrlState{Active: true, PipelineID: id, Seq: seq, Func: name, Args: args}
	op.writeCtrl(active)

	ctx := &RunContext{op: op}
	var payload []byte
	status := uint8(0)
	fn, err := op.bin.Lookup(name)
	if err == nil {
		payload, err = fn(ctx, args)
	}
	if errors.Is(err, proc.ErrGateShutdown) {
		// The process is being torn down (swap-out with terminate); the
		// function's progress is already in regions. Send nothing.
		return
	}
	if err != nil {
		status = 1
		payload = []byte(err.Error())
	}

	msg := []byte{plDone}
	msg = binary.BigEndian.AppendUint64(msg, seq)
	msg = append(msg, status)
	msg = binary.BigEndian.AppendUint64(msg, uint64(ctx.compute))
	msg = append(msg, payload...)

	// After a restore the host may still be reconnecting this pipeline;
	// block until its channel is back (or the process is being torn down)
	// so the result is never dropped.
	pl := op.awaitPipeline(id)
	if pl == nil {
		return
	}
	op.resultMu.Lock()
	defer op.resultMu.Unlock()
	// Clear before the send: the host may act on the result the instant it
	// arrives (a pre-copy round cuts the dirty set next), and must find the
	// clear already written. A failed send puts the record back, so a
	// restore still re-enters the function.
	op.writeCtrl(ctrlState{})
	if _, err := pl.ep.Send(msg); err != nil { // blocking under the lock is intended (Section 4.1 case 4): resultMu is the drain lock; the result send completes inside it
		op.writeCtrl(active)
	}
}

// Compute charges d of offload compute time to the current invocation; the
// host timeline advances by the total when the result arrives.
func (c *RunContext) Compute(d simclock.Duration) { c.compute += d }
