package coi

import (
	"errors"
	"fmt"

	"snapify/internal/scif"
)

// Buffer is the host-side handle to a COI buffer: memory in the offload
// process (backed by local-store files on the card, Section 2) that the
// host moves data into and out of with SCIF RDMA.
type Buffer struct {
	cp   *Process
	id   int
	size int64

	// rdmaOff is the buffer's current RDMA address in the offload
	// process's registered window. A restore re-registers the window and
	// the address changes — Snapify's remap table rewrites this field
	// (Section 4.3).
	rdmaOff int64
}

// CreateBuffer allocates a COI buffer of size bytes in the offload process
// (COIBufferCreate). The backing local store draws on card memory, so
// creation fails when the card is full.
func (cp *Process) CreateBuffer(size int64) (*Buffer, error) {
	cp.mu.Lock()
	id := cp.nextBufID
	cp.nextBufID++
	cmd := cp.cmds["command"]
	cp.mu.Unlock()
	if cmd == nil {
		return nil, errors.New("coi: command channel not connected")
	}
	var created offsetResp
	if err := cmd.Request(cmdBufferCreate, &bufferCreateReq{ID: id, Size: size}, &created); err != nil {
		return nil, fmt.Errorf("coi: buffer create failed: %w", err)
	}
	b := &Buffer{cp: cp, id: id, size: size, rdmaOff: created.Offset}
	cp.mu.Lock()
	cp.buffers[id] = b
	cp.mu.Unlock()
	return b, nil
}

// ID returns the buffer id.
func (b *Buffer) ID() int { return b.id }

// Size returns the buffer size in bytes.
func (b *Buffer) Size() int64 { return b.size }

// Destroy releases the buffer (COIBufferDestroy).
func (b *Buffer) Destroy() error {
	cp := b.cp
	cmd := cp.Command("command")
	if cmd == nil {
		return errors.New("coi: command channel not connected")
	}
	if err := cmd.Request(cmdBufferDestroy, &IDReq{b.id}, &Empty{}); err != nil {
		return fmt.Errorf("coi: buffer destroy failed: %w", err)
	}
	cp.mu.Lock()
	delete(cp.buffers, b.id)
	cp.mu.Unlock()
	return nil
}

// Write copies data into the buffer at off via RDMA (COIBufferWrite: the
// "in" clause data transfer before an offload region).
func (b *Buffer) Write(data []byte, off int64) error {
	return b.rdma(func() error {
		d, err := b.cp.dmaEP.VWriteTo(scif.Bytes(data), 0, int64(len(data)), b.rdmaOff+off)
		b.cp.tl.Advance(d)
		return err
	})
}

// Read copies len(p) bytes out of the buffer at off via RDMA
// (COIBufferRead: the "out" clause transfer after an offload region).
func (b *Buffer) Read(p []byte, off int64) error {
	return b.rdma(func() error {
		d, err := b.cp.dmaEP.VReadFrom(scif.Bytes(p), 0, int64(len(p)), b.rdmaOff+off)
		b.cp.tl.Advance(d)
		return err
	})
}

// rdma runs one RDMA call site inside the case-2 critical region.
func (b *Buffer) rdma(op func() error) error {
	cp := b.cp
	if s := cp.State(); s == StateSwapped || s == StateDestroyed {
		return fmt.Errorf("%w: %s", ErrProcessGone, s)
	}
	cp.rdmaMu.Lock()
	defer cp.rdmaMu.Unlock()
	if cp.hooks() {
		cp.tl.Advance(cp.plat.Model().HookRDMACall)
	}
	return op()
}
