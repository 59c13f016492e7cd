package coi

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"snapify/internal/blcr"
	"snapify/internal/fanout"
	"snapify/internal/obs"
	"snapify/internal/proc"
	"snapify/internal/scif"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/snapifyio"
	"snapify/internal/snapstore"
	"snapify/internal/stream"
	"snapify/internal/wire"
)

// This file holds the Snapify modifications to the COI daemon and the COI
// device runtime (Section 4): the pause/capture/resume/restore protocol
// between the host process, the daemon (the coordinator), and the offload
// process. The host-facing API lives in internal/core.

// ContextFileName is the offload process's BLCR context file inside a
// snapshot directory.
const ContextFileName = "context_offload"

// DeltaFileName is the incremental (delta) context file inside a snapshot
// directory — the incremental-checkpoint extension (see internal/blcr).
const DeltaFileName = "delta_offload"

// Capture modes carried in the capture request.
const (
	// CaptureFull is the paper's capture: a complete BLCR context.
	CaptureFull uint8 = iota
	// CaptureBase is a complete context that also marks every region
	// clean, anchoring a chain of delta captures.
	CaptureBase
	// CaptureDelta serializes only the ranges written since the last base
	// or delta capture.
	CaptureDelta
)

// LocalStorePrefix prefixes saved local-store files in a snapshot
// directory.
const LocalStorePrefix = "localstore_"

// pauseState is one active pause request the daemon tracks (it keeps a
// list and removes entries as requests complete, Section 4.1).
type pauseState struct {
	id    int
	op    *OffloadProc
	pipe  *proc.PipeEnd // daemon end
	inbox chan []byte   // filled by the monitor thread; closed when the pipe dies
}

// addPauseState registers ps and starts its dedicated monitor thread: a
// forwarder that blocks on the pipe and routes agent messages to the
// waiting handler. It exits — closing the inbox so a blocked await fails
// instead of hanging — when the pipe closes, either from removePauseState
// or from the offload process's side going away. Blocking on Recv, rather
// than polling the pipe on a wall-clock timer, keeps the daemon free of
// real-time dependencies.
func (d *Daemon) addPauseState(ps *pauseState) {
	d.monMu.Lock()
	d.activeReqs[ps.id] = ps
	d.monMu.Unlock()
	err := d.p.SpawnThread(fmt.Sprintf("snapify_monitor_%d", ps.id), func() {
		for {
			msg, _, err := ps.pipe.Recv()
			if err != nil {
				close(ps.inbox)
				return
			}
			ps.inbox <- msg
		}
	})
	if err != nil {
		// The daemon process is terminating: fail any await immediately.
		close(ps.inbox)
	}
}

func (d *Daemon) removePauseState(id int) {
	d.monMu.Lock()
	ps := d.activeReqs[id]
	delete(d.activeReqs, id)
	d.monMu.Unlock()
	if ps != nil {
		ps.pipe.Close() //nolint:errcheck // the agent-side monitor exits on the close; nothing to recover
	}
}

func (d *Daemon) pauseStateFor(id int) *pauseState {
	d.monMu.Lock()
	defer d.monMu.Unlock()
	return d.activeReqs[id]
}

// await blocks for the agent's next message, which must carry opcode
// want: a reply decoded into done, or (done == nil) a bare ack.
func (ps *pauseState) await(want uint8, done Message) error {
	msg, ok := <-ps.inbox
	if !ok {
		return fmt.Errorf("coi: snapify pipe closed awaiting opcode %d", want)
	}
	if done == nil {
		return decodeMsg(msg, want, &Empty{})
	}
	return decodeReply(msg, want, done)
}

// handleSnapifyPause is steps 1-3 of Fig 3: open the pipe, signal the
// offload process, collect its acknowledgement, and relay it to the host.
func (d *Daemon) handleSnapifyPause(id int) error {
	return d.signalAgent(id, pipePauseReq, &Empty{}, pipePauseAck, nil)
}

// signalAgent opens a pipe to the agent of process id, sends it the
// request (opcode op), signals the process and awaits the agent's answer
// (opcode want): a reply decoded into done, or (done == nil) a bare ack.
// The pipe stays open as id's active request unless this fails.
func (d *Daemon) signalAgent(id int, op uint8, args Message, want uint8, done Message) error {
	target, err := d.Lookup(id)
	if err != nil {
		return err
	}
	daemonEnd, procEnd := proc.NewPipe(d.plat.Model())
	target.mu.Lock()
	target.pipe = procEnd
	target.mu.Unlock()
	ps := &pauseState{id: id, op: target, pipe: daemonEnd, inbox: make(chan []byte, 8)}
	d.addPauseState(ps)

	_, err = daemonEnd.Send(encodeMsg(op, args))
	if err == nil {
		err = target.p.Deliver(proc.SigSnapify)
	}
	if err == nil {
		err = ps.await(want, done)
	}
	if err != nil {
		d.removePauseState(id)
	}
	return err
}

// handleSnapifyPresave is a live migration's pre-save, sent once its
// rounds end: the agent of the running process saves the local store to
// the destination card over the switch-over's live path, cutting each
// buffer's digest epoch first, so the switch-over re-sends only a buffer
// written since (DESIGN.md §13). The process is not quiesced; the pipe
// closes with the reply.
func (d *Daemon) handleSnapifyPresave(req *PresaveReq) (*DrainResp, error) {
	resp := new(DrainResp)
	if err := d.signalAgent(req.ProcID, pipePresaveReq, &req.PresaveArgs, pipePresaveDone, resp); err != nil {
		return nil, err
	}
	d.removePauseState(req.ProcID)
	return resp, nil
}

// askAgent forwards one request (opcode op) to the agent of the process
// pause request id is active on and awaits its answer (opcode op+1): a
// reply decoded into done, or (done == nil) a bare ack.
func (d *Daemon) askAgent(id int, op uint8, args, done Message) (*pauseState, error) {
	ps := d.pauseStateFor(id)
	if ps == nil {
		return nil, errors.New("no active pause")
	}
	if _, err := ps.pipe.Send(encodeMsg(op, args)); err != nil {
		return nil, err
	}
	return ps, ps.await(op+1, done)
}

// handleSnapifyDrain is step 4: forward the drain request (with the
// snapshot directory and the local-store target node) and wait for the
// agent to finish quiescing and saving its local store.
func (d *Daemon) handleSnapifyDrain(req *DrainReq) (*DrainResp, error) {
	resp := new(DrainResp)
	if _, err := d.askAgent(req.ProcID, pipeDrainReq, &req.DrainArgs, resp); err != nil {
		return nil, err
	}
	// The daemon coordinates the drain for its whole duration.
	d.coidTrack().Emit(0, "drain_coordination", req.Align, resp.Duration, nil)
	return resp, nil
}

// coidTrack is the COI daemon's lane in the trace, one per card.
func (d *Daemon) coidTrack() *obs.Track {
	return d.plat.Obs.TracerOf().Track(d.dev.Node.String(), "coid")
}

// handleSnapifyCapture forwards the capture request and waits for the
// checkpoint to finish.
func (d *Daemon) handleSnapifyCapture(req *CaptureReq) (*CaptureResp, error) {
	resp := new(CaptureResp)
	ps, err := d.askAgent(req.ProcID, pipeCaptureReq, &req.CaptureArgs, resp)
	if err != nil {
		return nil, err
	}
	if req.Terminate {
		// The exit is announced: the daemon must not treat it as a crash
		// (Section 3, "Dealing with distributed states").
		ps.op.p.AnnounceExit()
		ps.op.teardown()
		d.removePauseState(req.ProcID)
	}
	d.coidTrack().Emit(0, "capture_coordination", req.Align, resp.Duration, nil)
	return resp, nil
}

// handleSnapifyResume forwards the resume and closes out the pause state.
func (d *Daemon) handleSnapifyResume(id int) error {
	if _, err := d.askAgent(id, pipeResumeReq, &Empty{}, nil); err != nil {
		return err
	}
	d.removePauseState(id)
	return nil
}

// handleSnapifyRestore rebuilds an offload process from a snapshot
// directory (see RestoreReq).
func (d *Daemon) handleSnapifyRestore(req *RestoreReq) (*RestoreResp, error) {
	deltaDirs, align := req.DeltaDirs, req.Align
	bin, err := LookupBinary(req.Binary)
	if err != nil {
		return nil, err
	}

	d.mu.Lock()
	newID := d.nextID
	d.nextID++
	d.mu.Unlock()

	spawn := func(img *blcr.Image) (*proc.Process, error) {
		return d.plat.Procs.Spawn(img.Name, d.dev.Node, d.dev.Mem), nil
	}
	// Restore workers emit spans under a fresh scope, aligned to the
	// host's virtual clock carried in the request.
	tracer := d.plat.Obs.TracerOf()
	scope := tracer.NewScope()
	cr := d.plat.CR.WithSpans(tracer, scope, align).WithRetry(req.Retry)
	ctxPath := req.ContextDir + "/" + ContextFileName
	var restored *proc.Process
	var rst *blcr.Stats
	var seed *blcr.DigestCache
	adopted := false
	if len(deltaDirs) == 0 && d.staging.Has(ctxPath) {
		// Live migration switch-over: the pre-copy rounds already parked
		// this context's chunks on the card, so the restore adopts them
		// in place — installing page tables over resident frames instead
		// of streaming the image from the host. Any failure falls through
		// to the streaming path, which is byte-identical.
		restored, rst, seed, adopted = d.tryAdoptedRestart(cr, ctxPath, spawn)
	}
	if !adopted {
		// BLCR reads the context "on the fly" from host storage over
		// Snapify-IO (Section 4.3).
		if restored, rst, err = d.streamRestart(cr, req, ctxPath, spawn); err != nil {
			return nil, err
		}
	}

	// Seed the chunk-digest cache from the manifest the image came out of
	// — this is what makes the next swap-out of this process warm — and
	// arm the epoch tracking while the regions still hold exactly that
	// image, before anything below writes to the process. A delta chain's
	// image is no single manifest's, so it seeds nothing.
	if seed == nil && req.StoreResident && len(deltaDirs) == 0 {
		size, chunkBytes, digests, committed, ok, planDur, err := d.plat.IO.StagePlan(d.dev.Node, simnet.HostNode, ctxPath)
		if err == nil && ok && committed && size == rst.Geometry.Size() {
			seed = blcr.NewDigestCache(rst.Geometry, chunkBytes, digests, blcr.SeedRestore)
			rst.Duration += planDur
		}
	}
	if seed != nil {
		seed.Arm(restored)
	}

	// Copy the local store back on the fly into the mapped regions — or,
	// after an adopted restart, adopt the files the switch-over's pause
	// saved on this card.
	lsDur, lsBytes, err := d.reloadLocalStore(restored, req.LocalStoreDir, req.LocalStoreNode, req.Streams, adopted)
	if err != nil {
		restored.Terminate()
		return nil, err
	}

	op, err := rebuildOffloadProc(d, bin, newID, restored)
	if err != nil {
		restored.Terminate()
		return nil, err
	}
	op.digests = seed

	// Set up the Snapify pipe so the host's upcoming resume reaches the
	// restored process; it stays quiesced until then (Section 4.3).
	daemonEnd, procEnd := proc.NewPipe(d.plat.Model())
	op.mu.Lock()
	op.pipe = procEnd
	op.mu.Unlock()
	ps := &pauseState{id: newID, op: op, pipe: daemonEnd, inbox: make(chan []byte, 8)}
	d.addPauseState(ps)
	op.p.Deliver(proc.SigSnapify) //nolint:errcheck // handler installed by rebuildOffloadProc

	tk := d.coidTrack()
	tk.AlignTo(align)
	ctxArgs := map[string]int64{"bytes": rst.Bytes}
	if adopted {
		ctxArgs["adopted"] = 1
	}
	tk.Emit(scope, "restore_context", align, rst.Duration, ctxArgs)
	lsArgs := map[string]int64{"bytes": lsBytes}
	if adopted {
		lsArgs["adopted"] = 1
	}
	tk.Emit(scope, "reload_local_store", align+rst.Duration, lsDur, lsArgs)

	return &RestoreResp{ProcID: newID, ContextDur: rst.Duration, LocalStoreDur: lsDur, LocalStoreBytes: lsBytes, Ports: op.ChannelPorts()}, nil
}

// reloadLocalStore streams saved local-store files from the snapshot
// directory (on lsNode) into the restored process's regions. The regions
// are dealt, in order, into at most streams contiguous shards, each one
// worker's pipeline: streams <= 1 is the paper's one serial pipeline, and
// with no more regions than streams every region has a worker of its own.
// For process migration the files are already on this card — written
// there directly by the source card's pause or a live migration's
// pre-save — and are deleted once loaded, with any left by a buffer
// destroyed since; a restore that adopted its image (adopt) adopts them
// too.
func (d *Daemon) reloadLocalStore(p *proc.Process, dir string, lsNode simnet.NodeID, streams int, adopt bool) (simclock.Duration, int64, error) {
	var regions []*proc.Region
	for _, r := range p.Regions() {
		if r.Kind() == proc.RegionLocalStore {
			regions = append(regions, r)
		}
	}
	shards := min(max(streams, 1), len(regions))
	durs := make([]simclock.Duration, shards)
	bytes := make([]int64, shards)
	err := fanout.Run(shards, func(i int) error {
		acc := simclock.NewPipelineAccum()
		for _, r := range regions[i*len(regions)/shards : (i+1)*len(regions)/shards] {
			n, err := d.reloadOneLocalStore(r, dir, lsNode, adopt, acc)
			if err != nil {
				return err
			}
			bytes[i] += n
		}
		durs[i] = acc.Total()
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	if lsNode == d.dev.Node {
		d.dev.FS.RemoveAll(dir + "/" + LocalStorePrefix)
	}
	var total int64
	var wall simclock.Duration
	for i := range durs {
		total += bytes[i]
		wall = max(wall, durs[i])
	}
	return wall, total, nil
}

// reloadOneLocalStore streams one saved local-store file into its region,
// observing costs on acc, and removes the file if it was saved on this
// card. With adopt, a file on this card is adopted instead of read: a COI
// buffer is a RAM-fs file mapped into the process, so its pages are
// donated to the region, not copied — one RAM-fs op plus installing the
// page tables over them, RestartAdopted's per-page rule.
func (d *Daemon) reloadOneLocalStore(r *proc.Region, dir string, lsNode simnet.NodeID, adopt bool, acc *simclock.PipelineAccum) (int64, error) {
	path := dir + "/" + LocalStorePrefix + r.Name()
	onCard := lsNode == d.dev.Node
	m := d.plat.Model()
	if adopt && onCard {
		f, err := d.dev.FS.Open(path)
		if err != nil {
			return 0, fmt.Errorf("coi: local store for %q: %w", r.Name(), err)
		}
		if err := fitsRegion(r, f.Size()); err != nil {
			return 0, err
		}
		content, _, err := f.Next(f.Size())
		if err != nil && !errors.Is(err, io.EOF) { // an empty file is at EOF at once
			return 0, err
		}
		r.WriteBlob(0, content)
		acc.Add(m.RamFSOpLatency + blcr.PageTableCost(m, content.Len()))
	} else {
		f, err := d.plat.IO.Open(d.dev.Node, lsNode, path, snapifyio.Read)
		if err != nil {
			return 0, fmt.Errorf("coi: local store for %q: %w", r.Name(), err)
		}
		if err := fitsRegion(r, f.Size()); err != nil {
			f.Close() //nolint:errcheck // read side at EOF: close only releases the descriptor
			return 0, err
		}
		for off := int64(0); off < r.Size(); {
			chunk, cost, err := f.Next(blcr.PageChunk)
			if err != nil {
				f.Close() //nolint:errcheck // error path: close only releases the descriptor; the read error is what propagates
				return 0, err
			}
			stream.Observe(acc, cost, m.PhiMemcpy(chunk.Len()))
			r.WriteBlob(off, chunk)
			off += chunk.Len()
		}
		f.Close() //nolint:errcheck // read side at EOF: close only releases the descriptor
	}
	if onCard {
		d.dev.FS.Remove(path) //nolint:errcheck // migration scratch: the local store is already loaded into the region
	}
	return r.Size(), nil
}

// fitsRegion checks a saved local-store file of size bytes against the
// region it reloads into.
func fitsRegion(r *proc.Region, size int64) error {
	if size != r.Size() {
		return fmt.Errorf("coi: local store for %q is %d bytes, region is %d", r.Name(), size, r.Size())
	}
	return nil
}

// rebuildOffloadProc wraps a restored process in a fresh runtime: channels
// listen on new ports, the signal handler is reinstalled, and the daemon's
// bookkeeping (crash watch, cleanup) is re-established.
func rebuildOffloadProc(d *Daemon, bin *Binary, id int, p *proc.Process) (*OffloadProc, error) {
	op := &OffloadProc{
		d:         d,
		p:         p,
		bin:       bin,
		id:        id,
		cmdEPs:    make(map[string]*scif.Endpoint),
		pipelines: make(map[uint32]*devicePipeline),
		buffers:   make(map[int]*deviceBuffer),
	}
	op.pipeCond = sync.NewCond(&op.mu)
	if err := op.listenChannels(); err != nil {
		p.Terminate()
		return nil, err
	}
	op.installSnapifyHandler()
	d.mu.Lock()
	d.procs[id] = op
	d.mu.Unlock()
	p.OnExit(func(_ *proc.Process, expected bool) {
		d.mu.Lock()
		delete(d.procs, id)
		if !expected {
			d.crashed[id] = true
		}
		d.mu.Unlock()
		d.dev.FS.RemoveAll(fmt.Sprintf("/tmp/coi_procs/%d/", id))
	})
	return op, nil
}

// installSnapifyHandler installs the SigSnapify handler that runs the
// device-side agent loop.
func (op *OffloadProc) installSnapifyHandler() {
	op.p.HandleSignal(proc.SigSnapify, func() { op.snapifyAgent() })
}

// snapifyAgent is the offload process's side of the protocol: it reads
// requests from the pipe the daemon opened and services them until resume
// or termination. It runs in signal-handler context (its own goroutine).
func (op *OffloadProc) snapifyAgent() {
	op.mu.Lock()
	pipe := op.pipe
	op.mu.Unlock()
	if pipe == nil {
		return
	}
	drained := false // whether this agent holds the quiesce locks
	for {
		raw, _, err := pipe.Recv()
		if err != nil {
			// Pipe closed: the operation is over (resume handled, or the
			// process is going away). Locks are released on the paths
			// that close the pipe.
			return
		}
		kind, req, err := agentRequests.decode(raw)
		if err != nil {
			continue // the daemon encodes its requests from structs; a stray message is not one
		}
		switch kind {
		case pipePauseReq:
			pipe.Send(encodeMsg(pipePauseAck, &Empty{})) //nolint:errcheck // fire-and-forget reply: the daemon sees a dead agent on its monitor Recv

		case pipeDrainReq:
			args := req.(*DrainArgs)
			// Quiesce: running steps drain at the gate; the result-send
			// critical region is held so case-4 channels stay empty.
			op.p.PauseSteps()
			op.resultMu.Lock()
			drained = true
			quiesce := simclock.Duration(op.p.ThreadCount()) * op.d.plat.Model().ThreadQuiesce
			epochs := epochsUntouched
			if args.Presaved {
				epochs = epochsSince
			}
			d, sent, err := op.saveLocalStore(args.LocalStoreNode, args.Dir, args.Live, epochs)
			if err == nil {
				// The request carries the host's virtual clock so the agent's
				// spans land on the shared timeline (trace only; the reported
				// durations are what the host folds into its Report).
				tk := op.agentTrack()
				tk.AlignTo(args.Align)
				tk.Emit(0, "quiesce", args.Align, quiesce, nil)
				tk.Emit(0, "save_local_store", args.Align+quiesce, d, map[string]int64{"bytes": sent})
			}
			pipe.Send(encodeReply(pipeDrainDone, &DrainResp{Duration: d + quiesce, LocalStoreBytes: op.LocalStoreBytes()}, err)) //nolint:errcheck // fire-and-forget reply: the daemon sees a dead agent on its monitor Recv

		case pipePresaveReq:
			args := req.(*PresaveArgs)
			d, sent, err := op.saveLocalStore(args.LocalStoreNode, args.Dir, true, epochsCut)
			if err == nil {
				tk := op.agentTrack()
				tk.AlignTo(args.Align)
				tk.Emit(args.Scope, "save_local_store", args.Align, d, map[string]int64{"bytes": sent, "presave": 1})
			}
			pipe.Send(encodeReply(pipePresaveDone, &DrainResp{Duration: d, LocalStoreBytes: sent}, err)) //nolint:errcheck // fire-and-forget reply: the daemon sees a dead agent on its monitor Recv
			// The daemon closes the pipe with the reply.
			return

		case pipeCaptureReq:
			args := req.(*CaptureArgs)
			resp, err := op.capture(args)
			pipe.Send(encodeReply(pipeCaptureDone, resp, err)) //nolint:errcheck // fire-and-forget reply: the daemon sees a dead agent on its monitor Recv
			if err == nil && args.Terminate {
				// The daemon tears the process down; this agent thread
				// ends with it.
				return
			}

		case pipeResumeReq:
			if drained {
				op.resultMu.Unlock()
			}
			op.p.ResumeSteps()
			drained = false
			// A cache whose last pass was a pre-copy round means the
			// migration's final capture never succeeded (it would have
			// terminated this process): the migration was aborted under
			// pause, and the next capture pays the full scan.
			op.dropDigestsIf(blcr.SeedPrecopy)
			// Re-enter an offload function that was in flight when the
			// snapshot was taken (Section 4.3): its progress is in the
			// control region and the data regions. A record that does not
			// decode names no function to re-enter.
			if st, err := op.readCtrl(); err == nil && st.Active {
				op.p.SpawnThread("reentry", func() { //nolint:errcheck // re-entry on a process mid-teardown is moot; the capture already succeeded
					op.executeFunction(new(wire.Cursor), st.PipelineID, st.Seq, st.Func, st.Args)
				})
			}
			pipe.Send(encodeMsg(pipeResumeDone, &Empty{})) //nolint:errcheck // fire-and-forget reply: the daemon sees a dead agent on its monitor Recv
			return
		}
	}
}

// capture runs one capture request on the paused process, over the plain
// or the dedup-aware data path.
func (op *OffloadProc) capture(args *CaptureArgs) (*CaptureResp, error) {
	// Every shard worker of this capture emits a span under one fresh
	// scope; the host derives its Report from those spans.
	tracer := op.d.plat.Obs.TracerOf()
	scope := tracer.NewScope()
	cr := op.d.plat.CR.WithSpans(tracer, scope, args.Align).WithRetry(args.Retry)
	var st *blcr.Stats
	var shipped int64
	var err error
	if args.Store {
		st, shipped, err = op.runCaptureStore(cr, args, scope)
	} else if st, err = op.runCapture(cr, args, scope); err == nil {
		shipped = st.Bytes
	}
	if err != nil {
		return nil, err
	}
	if args.Mode == CaptureBase || args.Mode == CaptureDelta {
		for _, r := range op.p.Regions() {
			r.MarkClean()
		}
	}
	return &CaptureResp{SnapshotBytes: st.Bytes, Duration: st.Duration, Scope: scope, ShippedBytes: shipped}, nil
}

// contextPath is the file a capture writes: the context, or the delta.
func (a *CaptureArgs) contextPath() string {
	if a.Mode == CaptureDelta {
		return a.Dir + "/" + DeltaFileName
	}
	return a.Dir + "/" + ContextFileName
}

// runCapture serializes the frozen process into the snapshot directory on
// host storage. blcr lays the file out once; streams only picks what
// carries it (captureOnce). A transport fault on a striped stream resumes
// from its watermark inside blcr; anything else fails the pass, and the
// retry policy redoes it whole (redo) — a one-stream capture's append
// descriptor has no stripe to resume, so it redoes the capture, as a
// crash-class fault does on any stream count.
func (op *OffloadProc) runCapture(cr *blcr.Checkpointer, args *CaptureArgs, scope uint64) (*blcr.Stats, error) {
	path, rp := args.contextPath(), args.Retry
	var st *blcr.Stats
	backoff, err := op.redo(rp, path, func(_ int, backoff simclock.Duration) error {
		// A failed pass reports nothing, so a redo's streams start where
		// the backoff ends.
		pcr := cr.WithSpans(op.d.plat.Obs.TracerOf(), scope, args.Align+backoff)
		var err error
		if st, err = op.captureOnce(pcr, args.Mode, args.Streams, args.ChunkBytes, path); err != nil || !rp.Enabled() {
			return err
		}
		// Only a resumed stream can close cleanly over an assembly a
		// daemon crash swallowed, and only a retry policy resumes one.
		return op.verifySnapshotFile(path, st.Bytes, false)
	})
	if err != nil {
		return nil, err
	}
	st.Duration += backoff
	return st, nil
}

// redo is the one redo loop of a capture into path, plain or store: it
// runs pass — which checks end to end what it committed — and discards
// whatever a failed pass left behind, so a redo starts clean and a final
// failure leaves no artifact. The policy bounds the passes, and each redo
// first backs off: pass gets the backoff charged so far, and redo returns
// it.
func (op *OffloadProc) redo(rp blcr.RetryPolicy, path string, pass func(attempt int, backoff simclock.Duration) error) (simclock.Duration, error) {
	var backoff simclock.Duration
	for attempt := 1; ; attempt++ {
		err := pass(attempt, backoff)
		if err == nil {
			return backoff, nil
		}
		op.d.plat.IO.Discard(op.d.dev.Node, simnet.HostNode, path) //nolint:errcheck // best-effort cleanup; the capture error is what propagates
		if attempt >= rp.MaxAttempts {
			return backoff, err
		}
		backoff += blcr.Backoff(attempt)
	}
}

// runCaptureStore is the dedup-aware capture path: instead of streaming
// every byte, the agent lays out the full context file in memory
// (blcr.Layout) and runs it through the upload loop (storeUpload): digest
// a window of chunks — re-reading only what changed since the image the process's
// chunk-digest cache describes — negotiate its have/need set against the
// host's chunk store, ship what the store lacks, next window. The
// committed manifest is the byte-identical context file that the store
// read stream serves, to restores and to the end-to-end verification
// below. Returns the layout stats plus the bytes physically shipped — the
// dedup win is st.Bytes - shipped.
func (op *OffloadProc) runCaptureStore(cr *blcr.Checkpointer, args *CaptureArgs, scope uint64) (*blcr.Stats, int64, error) {
	if args.Mode != CaptureFull {
		return nil, 0, errors.New("coi: a store capture is a full image; delta files are plain files")
	}
	align, path := args.Align, args.contextPath()
	lay, err := cr.LayoutFull(op.p)
	if err != nil {
		return nil, 0, err
	}
	tk := op.agentTrack()
	tk.AlignTo(align)
	pass := op.digestPass(lay, args.ChunkBytes, blcr.SeedCapture)
	up := upload{path: path, streams: max(args.Streams, 1), scope: scope, streamSpan: "capture_stream"}

	st := lay.Stats()
	var shipped int64
	var spent, digestDur simclock.Duration // every pass's pipeline; the first one's
	backoff, err := op.redo(args.Retry, path, func(attempt int, backoff simclock.Duration) error {
		acc := simclock.NewPipelineAccum()
		if attempt == 1 {
			acc.Add(pass.Prelude)
		} else {
			// The store may have lost the upload with the daemon: finish
			// the digest list and offer it whole, in one message; only
			// what is still missing ships, from the reads the pass kept.
			pass.Whole()
		}
		up.at = align + spent + backoff
		n, _, err := op.storeUpload(pass, acc, up)
		shipped += n
		spent += acc.Total()
		if attempt == 1 {
			digestDur = spent
		}
		if err != nil {
			return err
		}
		return op.verifySnapshotFile(path, lay.Size(), true)
	})
	op.endDigestPass(tk, scope, "store_digest", align, digestDur, pass, nil)
	if err != nil {
		// Give up. redo dropped the pending upload, so its pinned digests
		// don't shield orphaned chunks from GC; chunks already shipped
		// stay — they are content-addressed and a later capture may reuse
		// them. The digest cache goes too: a stale digest is undetectable
		// later, a failed capture is where unenumerated things went wrong,
		// and a full pass costs one scan.
		op.dropDigestsIf(blcr.SeedCapture)
		return nil, 0, err
	}
	st.Duration = spent + backoff
	return &st, shipped, nil
}

// digestPass starts one digest pass over a full layout through the
// process's chunk-digest cache and installs the pass's cache for the next
// one; the cache is complete when the pass is, and every path that
// abandons a pass drops it.
func (op *OffloadProc) digestPass(lay *blcr.Layout, chunk int64, seed blcr.DigestSeed) *blcr.DigestPass {
	op.digestMu.Lock()
	defer op.digestMu.Unlock()
	pass := lay.DigestPass(op.digests, chunk, seed, snapstore.Digest)
	op.digests = pass.Cache
	return pass
}

// dropDigestsIf forgets the chunk-digest cache if seed is what last
// produced it, and disarms the epoch tracking that fed it; the next digest
// pass is a full one.
func (op *OffloadProc) dropDigestsIf(seed blcr.DigestSeed) {
	op.digestMu.Lock()
	defer op.digestMu.Unlock()
	if op.digests != nil && op.digests.Seed() == seed {
		op.digests.Disarm(op.p)
		op.digests = nil
	}
}

// CachedDigests returns the chunk size and digest list of the process's
// chunk-digest cache (0, nil when there is none). Tests compare it with
// the full recompute after every capture — the only check that can see a
// wrongly carried digest.
func (op *OffloadProc) CachedDigests() (chunkBytes int64, digests []string) {
	op.digestMu.Lock()
	defer op.digestMu.Unlock()
	if op.digests == nil {
		return 0, nil
	}
	return op.digests.ChunkBytes(), append([]string(nil), op.digests.Digests()...)
}

// endDigestPass records a digest pass that is over — handed out whole or
// abandoned — as a span on the agent lane under scope, covering the
// pipelined pass it fed (its negotiations nest inside), and in the
// counters that split the image into bytes re-read, bytes the page-table
// sweep named zero and bytes whose digest was carried forward.
func (op *OffloadProc) endDigestPass(tk *obs.Track, scope uint64, name string, at, dur simclock.Duration, pass *blcr.DigestPass, extra map[string]int64) {
	args := map[string]int64{
		"chunks_total":    int64(len(pass.Digests())),
		"chunks_rehashed": int64(pass.ChunksRehashed),
		"bytes_rehashed":  pass.BytesRehashed,
		"chunks_swept":    int64(pass.ChunksSwept),
		"seeded_from":     int64(pass.SeededFrom),
	}
	for k, v := range extra {
		args[k] = v
	}
	tk.Emit(scope, name, at, dur, args)
	const help = "Image bytes a store digest pass re-read and re-hashed, named zero from the page tables, or covered by a digest carried forward from the previous image."
	mx := op.d.plat.Obs.MetricsOf()
	mx.Counter("snapify_store_digest_bytes_total", help, obs.L("kind", "rehashed")).Add(pass.BytesRehashed)
	mx.Counter("snapify_store_digest_bytes_total", help, obs.L("kind", "swept")).Add(pass.BytesSwept)
	mx.Counter("snapify_store_digest_bytes_total", help, obs.L("kind", "carried")).Add(pass.ImageBytes() - pass.BytesRehashed - pass.BytesSwept)
}

// --- live migration: pre-copy rounds (the destination's staging is in download.go) ---

// handleSnapifyPrecopy runs one pre-copy round on the source card: digest
// the running process's image and ship the changed chunks to the host
// store while the process keeps mutating state. No pause is involved —
// the chunks the digest pass read are the round's consistent cut.
func (d *Daemon) handleSnapifyPrecopy(req *PrecopyReq) (*PrecopyResp, error) {
	op, err := d.Lookup(req.ProcID)
	if err != nil {
		return nil, err
	}
	return op.runPrecopyRound(*req)
}

// runPrecopyRound digests the running process and, unless what changed
// already fits under shipFloor, ships the changed chunks into the host
// store's pending upload for the migration's context path — the same
// upload loop as a paused capture. The digest pass goes through the
// process's chunk-digest cache: the first pass of a process nothing has
// digested yet reads the whole image; every later one reads only the
// chunks written since the previous cut, and is charged for exactly that.
// The pass cuts the epochs before it reads, so the process may keep
// writing throughout; the chunks it read are the round's consistent cut,
// and they — never a later re-read — are what ships. The cache updates
// every round, skipped (probe) rounds included.
func (op *OffloadProc) runPrecopyRound(req PrecopyReq) (*PrecopyResp, error) {
	if req.ChunkBytes <= 0 {
		req.ChunkBytes = blcr.PageChunk
	}
	if req.Streams < 1 {
		req.Streams = 1
	}
	res, err := op.precopyRound(req)
	if err != nil {
		op.dropDigestsIf(blcr.SeedPrecopy)
	}
	return res, err
}

func (op *OffloadProc) precopyRound(req PrecopyReq) (*PrecopyResp, error) {
	lay, err := op.d.plat.CR.LayoutFull(op.p)
	if err != nil {
		return nil, err
	}
	pass := op.digestPass(lay, req.ChunkBytes, blcr.SeedPrecopy)
	acc := simclock.NewPipelineAccum()
	acc.Add(pass.Prelude)
	tk := op.agentTrack()
	tk.AlignTo(req.Align)

	// Round 1 ships as it digests: nothing of this migration is in the
	// store yet, whatever an earlier capture left in the cache. A later
	// round may ship only if what changed is over the floor, so it digests
	// everything first and uploads in one window.
	res := &PrecopyResp{ImageBytes: lay.Size(), DirtyBytes: lay.Size(), ChunksTotal: len(pass.Digests())}
	if req.Round > 1 {
		pass.Whole()
		res.DirtyBytes = pass.ChangedBytes
	}
	if res.DirtyBytes <= req.ShipFloor {
		// Probe round: the delta is small enough to ship inside the
		// downtime budget, so leave it for the final (paused) capture.
		res.Skipped = true
		pass.Whole()
		pass.ObserveUnshipped(acc, 0, res.ChunksTotal)
	} else {
		res.ShippedBytes, res.ChunksNeeded, err = op.storeUpload(pass, acc, upload{
			path: req.Dir + "/" + ContextFileName, streams: req.Streams, live: true,
			at: req.Align, scope: req.Scope, streamSpan: "precopy_stream",
		})
	}
	res.Duration = acc.Total()
	op.endDigestPass(tk, req.Scope, "precopy_digest", req.Align, res.Duration, pass,
		map[string]int64{"round": int64(req.Round), "dirty_bytes": res.DirtyBytes})
	if errors.Is(err, errCarriedChunkMissing) {
		// The store was collected since the cache's image went in, or this
		// migration's upload was lost: redo the round as a full pass
		// (which reads every chunk itself but the zero ones, which no store
		// asks for, so it cannot land here again).
		op.dropDigestsIf(blcr.SeedPrecopy)
		req.Align += res.Duration
		redo, err := op.precopyRound(req)
		if redo != nil {
			redo.Duration += res.Duration
		}
		return redo, err
	}
	return res, err
}

// captureOnce runs one capture pass into path over the transport streams
// selects: the paper's one-slot descriptor for streams <= 1, else striped
// two-slot streams. Delta regions stay dirty either way: a redo must lay
// out the same delta, and the agent marks clean once runCapture returns
// success.
func (op *OffloadProc) captureOnce(cr *blcr.Checkpointer, mode uint8, streams int, chunk int64, path string) (*blcr.Stats, error) {
	if streams <= 1 {
		sink, err := op.d.plat.IO.Open(op.d.dev.Node, simnet.HostNode, path, snapifyio.Write)
		if err != nil {
			return nil, err
		}
		if mode == CaptureDelta {
			return cr.CheckpointDeltaFrozen(op.p, sink)
		}
		return cr.CheckpointFrozen(op.p, sink)
	}
	open := func(off, n, total int64) (stream.Sink, error) {
		return op.d.plat.IO.OpenStream(op.d.dev.Node, simnet.HostNode, path, snapifyio.Write, snapifyio.OpenOptions{
			Slots:  2,
			Stripe: snapifyio.Stripe{Offset: off, Length: n, Total: total},
		})
	}
	if mode == CaptureDelta {
		return cr.CheckpointDeltaFrozenParallel(op.p, streams, chunk, open)
	}
	return cr.CheckpointFrozenParallel(op.p, streams, chunk, open)
}

// verifySnapshotFile confirms the capture's context file was committed on
// host storage, as a plain file or (store) a committed manifest. A daemon
// crash can swallow acknowledged stripes, in which case every resumed
// stream still closes cleanly but the assembled file never appears — only
// a read-open of the final path proves the capture.
func (op *OffloadProc) verifySnapshotFile(path string, want int64, store bool) error {
	f, err := op.d.plat.IO.OpenStream(op.d.dev.Node, simnet.HostNode, path, snapifyio.Read, snapifyio.OpenOptions{Store: store})
	if err != nil {
		return fmt.Errorf("coi: capture verification: %w", err)
	}
	size := f.Size()
	f.Close() //nolint:errcheck // size probe: close only releases the descriptor
	if size != want {
		return fmt.Errorf("coi: capture verification: %s is %d bytes, want %d", path, size, want)
	}
	return nil
}

// agentTrack is the offload process's lane in the trace: one row per
// offload process under its card's node.
func (op *OffloadProc) agentTrack() *obs.Track {
	return op.d.plat.Obs.TracerOf().Track(op.d.dev.Node.String(), op.p.Name())
}

// --- buffer re-registration (restore path) ---

// reregisterBuffer re-registers an existing local-store region for RDMA on
// the (new) DMA channel and returns the new offset (cmdBufferReregister).
func (op *OffloadProc) reregisterBuffer(id int) (int64, error) {
	name := BufferRegionName(id)
	r := op.p.Region(name)
	if r == nil {
		return 0, fmt.Errorf("coi: no region %q to re-register", name)
	}
	op.mu.Lock()
	dma := op.dmaEP
	op.mu.Unlock()
	if dma == nil {
		return 0, fmt.Errorf("coi: DMA channel not connected")
	}
	w, _, err := dma.Register(r, 0, r.Size())
	if err != nil {
		return 0, err
	}
	op.mu.Lock()
	op.buffers[id] = &deviceBuffer{id: id, size: r.Size(), window: w}
	op.mu.Unlock()
	return w.Offset, nil
}
