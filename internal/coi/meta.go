package coi

import (
	"encoding/binary"
	"fmt"
	"sort"

	"snapify/internal/platform"
	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
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
func (m HandleMeta) Encode() []byte {
	var b []byte
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.BinaryName)))
	b = append(b, m.BinaryName...)
	b = binary.BigEndian.AppendUint32(b, uint32(m.DevNode))
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Buffers)))
	for _, bm := range m.Buffers {
		b = binary.BigEndian.AppendUint32(b, uint32(bm.ID))
		b = binary.BigEndian.AppendUint64(b, uint64(bm.Size))
		b = binary.BigEndian.AppendUint64(b, uint64(bm.Addr))
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Pipelines)))
	for _, id := range m.Pipelines {
		b = binary.BigEndian.AppendUint32(b, id)
	}
	return b
}

// DecodeHandleMeta parses an encoded HandleMeta; bytes past its end are
// an error.
func DecodeHandleMeta(b []byte) (m HandleMeta, err error) {
	defer func() {
		if recover() != nil {
			err = fmt.Errorf("coi: truncated handle metadata")
		}
	}()
	if len(b) < 4 {
		return m, fmt.Errorf("coi: truncated handle metadata")
	}
	n := int(binary.BigEndian.Uint32(b))
	m.BinaryName = string(b[4 : 4+n])
	b = b[4+n:]
	m.DevNode = simnet.NodeID(binary.BigEndian.Uint32(b))
	b = b[4:]
	nb := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	for i := 0; i < nb; i++ {
		m.Buffers = append(m.Buffers, BufferMeta{
			ID:   int(binary.BigEndian.Uint32(b)),
			Size: int64(binary.BigEndian.Uint64(b[4:])),
			Addr: int64(binary.BigEndian.Uint64(b[12:])),
		})
		b = b[20:]
	}
	np := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	for i := 0; i < np; i++ {
		m.Pipelines = append(m.Pipelines, binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) != 0 {
		return HandleMeta{}, fmt.Errorf("coi: %d bytes past the end of the handle metadata", len(b))
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
