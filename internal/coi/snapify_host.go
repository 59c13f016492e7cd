package coi

import (
	"fmt"
	"sort"

	"snapify/internal/obs"
	"snapify/internal/scif"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
)

// Host-side Snapify instrumentation: the drain of the four SCIF use cases
// (Section 4.1), the daemon request helpers internal/core calls, and the
// post-restore rebind (reconnect channels, recreate pipelines, re-register
// buffers and build the RDMA remap table, Section 4.3).

// DaemonRequest runs one request on the lifecycle channel: req goes out
// under opcode op, the reply (opcode op+1) is decoded into resp.
func (cp *Process) DaemonRequest(op uint8, req, resp Message) error {
	_, err := roundTrip(cp.lifecycleEP, encodeMsg(op, req), op+1, resp, "coi: daemon error")
	return err
}

// PauseChannels acquires every host-side lock of the drain protocol and
// injects the shutdown markers:
//
//	case 1 — the lifecycle (create/destroy) critical region;
//	case 2 — the buffer-RDMA call sites;
//	case 3 — each command channel's client lock plus a shutdown marker,
//	         acknowledged by the sequential server;
//	case 4 — the run-function send critical regions of every pipeline.
//
// It returns the accumulated drain cost. Locks stay held until
// ResumeChannels.
func (cp *Process) PauseChannels() (simclock.Duration, error) {
	mx := cp.plat.Obs.MetricsOf()
	lock := func(class string) *obs.Counter {
		return mx.Counter("coi_pause_locks_total",
			"Host-side locks taken by Snapify's drain protocol, by SCIF use-case class (Section 4.1).",
			obs.L("class", class))
	}
	cp.lifecycleMu.Lock()
	lock("lifecycle").Inc()
	cp.rdmaMu.Lock()
	lock("rdma").Inc()
	var total simclock.Duration
	for _, name := range CommandChannelNames {
		c := cp.Command(name)
		if c == nil {
			continue
		}
		d, err := c.PauseLock()
		if err != nil {
			return 0, fmt.Errorf("coi: draining %s channel: %w", name, err)
		}
		lock("command").Inc()
		total += d
	}
	for _, pl := range cp.Pipelines() {
		pl.pauseLock()
		lock("pipeline").Inc()
	}
	cp.setState(StatePaused)
	return total, nil
}

// ResumeChannels releases every lock PauseChannels acquired (Section 4.2).
func (cp *Process) ResumeChannels() {
	for _, pl := range cp.Pipelines() {
		pl.resumeUnlock()
	}
	for _, name := range CommandChannelNames {
		if c := cp.Command(name); c != nil {
			c.ResumeUnlock(nil)
		}
	}
	cp.rdmaMu.Unlock()
	cp.lifecycleMu.Unlock()
	cp.setState(StateActive)
}

// MarkSwapped flags the handle defunct after a capture-with-terminate. The
// host-side locks stay held; Rebind revives the handle at swap-in.
func (cp *Process) MarkSwapped() { cp.setState(StateSwapped) }

// QueuedBytesAll sums the undelivered bytes on every host-side endpoint of
// the process — the host half of Snapify's consistency invariant.
func (cp *Process) QueuedBytesAll() int64 {
	var n int64
	for _, ep := range cp.HostEndpoints() {
		n += ep.QueuedBytes()
	}
	return n
}

// RemapEntry records an (old, new) RDMA address pair produced by buffer
// re-registration after a restore (Section 4.3).
type RemapEntry struct {
	BufferID int
	Old, New int64
}

// Rebind revives the handle around a restored offload process: it connects
// the new channels, recreates each pipeline on the device and splices the
// new endpoint under the pending waiters, and re-registers every buffer,
// returning the address remap table. The process handle keeps its paused
// state; the caller resumes it afterwards.
func (cp *Process) Rebind(devNode simnet.NodeID, newID int, ports []ChannelPort) ([]RemapEntry, error) {
	model := cp.plat.Model()

	// Fresh lifecycle connection to the (possibly different) card's daemon.
	ep, err := cp.plat.Net.Connect(simnet.HostNode, scif.Addr{Node: devNode, Port: DaemonPort})
	if err != nil {
		return nil, fmt.Errorf("coi: reconnecting to daemon on %v: %w", devNode, err)
	}
	cp.mu.Lock()
	oldLifecycle := cp.lifecycleEP
	cp.lifecycleEP = ep
	cp.devNode = devNode
	cp.id = newID
	cp.mu.Unlock()
	if oldLifecycle != nil {
		oldLifecycle.Close() //nolint:errcheck // the pre-swap endpoint is already dead; close only releases the host-side descriptor
	}
	cp.tl.Advance(model.SCIFReconnect)

	// Reconnect the command and DMA channels on their new ports.
	var cmdEP *scif.Endpoint
	for _, chp := range ports {
		nep, err := cp.plat.Net.Connect(simnet.HostNode, scif.Addr{Node: devNode, Port: chp.port})
		if err != nil {
			return nil, fmt.Errorf("coi: reconnecting %s channel: %w", chp.name, err)
		}
		cp.tl.Advance(model.SCIFReconnect)
		if chp.name == "dma" {
			cp.mu.Lock()
			cp.dmaEP = nep
			cp.mu.Unlock()
			continue
		}
		cp.mu.Lock()
		c := cp.cmds[chp.name]
		cp.mu.Unlock()
		if c == nil {
			return nil, fmt.Errorf("coi: restored process offers unknown channel %q", chp.name)
		}
		c.replaceEndpoint(nep)
		if chp.name == "command" {
			cmdEP = nep
		}
	}
	if cmdEP == nil {
		return nil, fmt.Errorf("coi: restored process offers no command channel")
	}
	if err := cp.DaemonRequest(opAwaitReady, &IDReq{newID}, &Empty{}); err != nil {
		return nil, err
	}
	// Re-establish the daemon's host-liveness watch for the new pairing.
	if daemon := DaemonAt(cp.plat, devNode); daemon != nil {
		daemon.WatchHostProcess(cp.hostProc, newID)
	}

	// The application threads are still blocked on the pause locks, so the
	// rebind speaks on the raw command endpoint directly, off the timeline.
	// Recreate each pipeline's run-function channel and splice it in; the
	// pending waiters survive, and the restored server re-sends results
	// for any re-entered function.
	for _, pl := range cp.Pipelines() {
		var created portResp
		if _, err := roundTrip(cmdEP, encodeCommand(cmdPipelineCreate, &IDReq{int(pl.id)}), cmdReply, &created, "coi: pipeline create failed"); err != nil {
			return nil, fmt.Errorf("coi: recreating pipeline %d: %w", pl.id, err)
		}
		nep, err := cp.plat.Net.Connect(simnet.HostNode, scif.Addr{Node: devNode, Port: created.Port})
		if err != nil {
			return nil, err
		}
		cp.tl.Advance(model.SCIFReconnect)
		pl.reconnect(nep)
	}

	// Re-register every buffer in ascending ID order; new RDMA offsets come
	// back, and the remap table translates the stale addresses the handle
	// still holds. The order matters twice over: each re-registration is a
	// wire request that advances the virtual timeline, and the remap table
	// is part of the restore transcript — iterating the buffer map directly
	// would make both nondeterministic.
	bufs := cp.Buffers()
	ids := make([]int, 0, len(bufs))
	for id := range bufs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var remap []RemapEntry
	for _, id := range ids {
		b := bufs[id]
		var registered offsetResp
		if _, err := roundTrip(cmdEP, encodeCommand(cmdBufferReregister, &IDReq{id}), cmdReply, &registered, "coi: re-register failed"); err != nil {
			return nil, fmt.Errorf("coi: re-registering buffer %d: %w", id, err)
		}
		remap = append(remap, RemapEntry{BufferID: id, Old: b.rdmaOff, New: registered.Offset})
		b.rdmaOff = registered.Offset
		cp.tl.Advance(model.RegisterCost(b.size))
	}
	return remap, nil
}
