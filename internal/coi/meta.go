package coi

import (
	"sort"

	"snapify/internal/platform"
	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/wire"
)

// HandleMeta is the host-side COI library state that must survive a
// host-process checkpoint: which binary ran where, which buffers existed at
// which (stale) RDMA addresses, and which pipelines were open. Snapify's
// pause serializes it into a region of the host process, so a restarted
// host process can reattach a COIProcess handle and the restore's remap
// table can translate the stale buffer addresses (Section 4.3).
type HandleMeta struct {
	BinaryName string
	DevNode    simnet.NodeID
	Buffers    []BufferMeta
	Pipelines  []uint32
}

// BufferMeta records one COI buffer.
type BufferMeta struct {
	ID   int
	Size int64
	Addr int64 // RDMA address at checkpoint time (stale after restore)
}

// ExportMeta snapshots the handle state, its buffers in ascending ID (the
// remap table's order), so one state encodes to one byte string.
func (cp *Process) ExportMeta() HandleMeta {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	m := HandleMeta{BinaryName: cp.binName, DevNode: cp.devNode}
	ids := make([]int, 0, len(cp.buffers))
	for id := range cp.buffers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		b := cp.buffers[id]
		m.Buffers = append(m.Buffers, BufferMeta{ID: id, Size: b.size, Addr: b.rdmaOff})
	}
	for _, pl := range cp.pipelines {
		m.Pipelines = append(m.Pipelines, pl.id)
	}
	return m
}

// Encode serializes the metadata.
func (m HandleMeta) Encode() []byte { return encode(wire.Encoder(), &m) }

// DecodeHandleMeta parses an encoded HandleMeta; bytes past its end are
// an error.
func DecodeHandleMeta(b []byte) (HandleMeta, error) {
	var m HandleMeta
	if err := decode(new(wire.Cursor), b, "handle metadata", &m); err != nil {
		return HandleMeta{}, err
	}
	return m, nil
}

// AttachRestored builds a defunct (StateSwapped) handle from checkpointed
// metadata inside a restarted host process. A subsequent Rebind + resume
// revives it around the restored offload process; the stale buffer
// addresses in the metadata are what the remap table translates.
func AttachRestored(plat *platform.Platform, hostProc *proc.Process, tl *simclock.Timeline, m HandleMeta) *Process {
	cp := &Process{
		plat:     plat,
		tl:       tl,
		hostProc: hostProc,
		devNode:  m.DevNode,
		binName:  m.BinaryName,
		state:    StateSwapped,
		cmds:     make(map[string]*ClientChan),
		buffers:  make(map[int]*Buffer),
	}
	for _, name := range CommandChannelNames {
		cp.cmds[name] = newClientChan(name, nil, tl, cp.hooks(), plat.Model().HookCommandSend, plat.Obs.MetricsOf())
	}
	for _, bm := range m.Buffers {
		cp.buffers[bm.ID] = &Buffer{cp: cp, id: bm.ID, size: bm.Size, rdmaOff: bm.Addr}
		if bm.ID >= cp.nextBufID {
			cp.nextBufID = bm.ID + 1
		}
	}
	for _, id := range m.Pipelines {
		cp.pipelines = append(cp.pipelines, newDetachedPipeline(cp, id))
		if id >= cp.nextPipeID {
			cp.nextPipeID = id + 1
		}
	}
	return cp
}

// newDetachedPipeline builds a pipeline with no connection; reconnect (via
// Rebind) attaches it.
func newDetachedPipeline(cp *Process, id uint32) *Pipeline {
	return &Pipeline{cp: cp, id: id, nextSeq: 1, pending: make(map[uint64]chan runResult)}
}

// ActivateRestored marks a handle active after a restart-path restore,
// where no host-side locks were held (unlike the swap path, whose pause
// locks are released by ResumeChannels).
func (cp *Process) ActivateRestored() { cp.setState(StateActive) }
