package coi

import (
	"errors"
	"fmt"
	"sync"

	"snapify/internal/proc"
	"snapify/internal/scif"
	"snapify/internal/simclock"
	"snapify/internal/wire"
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
	// It also guards the run request's encoder and message, reused from
	// call to call.
	sendMu sync.Mutex
	enc    wire.Cursor
	run    runReq

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
	var dec wire.Cursor
	var done runDone
	for {
		raw, d, err := ep.Recv()
		if err != nil {
			return
		}
		if decode(&dec, raw, "pipeline result", &done, plDone) != nil {
			continue // not a result: nobody waits on it
		}

		pl.mu.Lock()
		if done.Seq <= pl.lastDone {
			// Duplicate result after a restore re-entry; drop it.
			pl.mu.Unlock()
			continue
		}
		ch, ok := pl.pending[done.Seq]
		if ok {
			delete(pl.pending, done.Seq)
			pl.lastDone = done.Seq
		}
		pl.mu.Unlock()
		if !ok {
			continue
		}
		res := runResult{compute: done.Compute, recvD: d}
		if done.Failed {
			res.err = fmt.Errorf("coi: offload function failed: %s", done.Result)
		} else {
			res.data = done.Result // a slice of raw, which nothing else holds
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

	// The send is a blocking call inside a critical region (the Snapify
	// transformation of Fig 4 step 1); pause blocks here, never mid-send.
	pl.sendMu.Lock()
	pl.run = runReq{Seq: seq, Func: name, Args: args}
	msg := encode(&pl.enc, &pl.run, plRun)
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
// executes them. A message that is not a run request drops the channel.
func (op *OffloadProc) servePipeline(id uint32, ep *scif.Endpoint) {
	var dec, enc wire.Cursor
	var run runReq
	for {
		raw, _, err := ep.Recv()
		if err != nil {
			return
		}
		if decode(&dec, raw, "pipeline run request", &run, plRun) != nil {
			ep.Close() //nolint:errcheck // protocol error: dropping the connection IS the error signal
			return
		}
		op.executeFunction(&enc, id, run.Seq, run.Func, run.Args)
	}
}

// executeFunction records the active function in the control region, runs
// it, and delivers the result; c encodes the record and the result. The
// control-region clear and the result send are atomic under resultMu (the
// case-4 device-side critical region), so a snapshot observes either
// "active" or "delivered".
func (op *OffloadProc) executeFunction(c *wire.Cursor, id uint32, seq uint64, name string, args []byte) {
	active := ctrlState{Active: true, PipelineID: id, Seq: seq, Func: name, Args: args}
	op.writeCtrl(c, &active)

	ctx := &RunContext{op: op}
	done := runDone{Seq: seq}
	fn, err := op.bin.Lookup(name)
	if err == nil {
		done.Result, err = fn(ctx, args)
	}
	if errors.Is(err, proc.ErrGateShutdown) {
		// The process is being torn down (swap-out with terminate); the
		// function's progress is already in regions. Send nothing.
		return
	}
	if err != nil {
		done.Failed, done.Result = true, []byte(err.Error())
	}
	done.Compute = ctx.compute

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
	op.writeCtrl(c, &ctrlState{})
	if _, err := pl.ep.Send(encode(c, &done, plDone)); err != nil { // blocking under the lock is intended (Section 4.1 case 4): resultMu is the drain lock; the result send completes inside it
		op.writeCtrl(c, &active)
	}
}

// Compute charges d of offload compute time to the current invocation; the
// host timeline advances by the total when the result arrives.
func (c *RunContext) Compute(d simclock.Duration) { c.compute += d }
