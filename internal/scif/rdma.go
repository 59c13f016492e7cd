package scif

import (
	"fmt"

	"snapify/internal/blob"
	"snapify/internal/faultinject"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
)

// rdmaFault consults the armed fault plan for a from->to RDMA transfer.
// Drop severs the connection and reports ErrConnReset (the peer's next
// operation sees the reset too); Slow returns a cost multiplier. Other
// kinds are not expressible on the DMA path and are ignored. The link key
// is built only when a plan is armed.
func (e *Endpoint) rdmaFault(from, to simnet.NodeID) (simclock.Duration, error) {
	inj := e.net.fabric.Injector()
	if inj == nil {
		return 1, nil
	}
	fault := inj.Fire(faultinject.SiteRDMA, faultinject.LinkKey(from.String(), to.String()))
	if fault == nil {
		return 1, nil
	}
	switch fault.Kind {
	case faultinject.Drop:
		_ = e.Close() //nolint:errcheck // simulating a link failure; the severed endpoint's close error is immaterial
		return 1, ErrConnReset
	case faultinject.Slow:
		return simclock.Duration(fault.SlowFactor()), nil
	}
	return 1, nil
}

// Memory is the view of process memory that RDMA operates on. The process
// model (internal/proc) implements it with appropriate locking; the methods
// move blob content so multi-gigabyte windows transfer without
// materializing synthetic background.
type Memory interface {
	// Size returns the region size in bytes.
	Size() int64
	// SnapshotRange returns the content of [off, off+n).
	SnapshotRange(off, n int64) blob.Blob
	// WriteBlob overwrites [off, off+src.Len()) with src.
	WriteBlob(off int64, src blob.Blob)
}

// byteMemory is a Memory that also moves plain bytes in and out under its
// own locking (proc.Region, blob.Buffer).
type byteMemory interface {
	Memory
	ReadAt(p []byte, off int64)
	WriteAt(p []byte, off int64)
}

// Bytes is plain host memory, a user buffer, as the local side of
// VReadFrom/VWriteTo.
type Bytes []byte

// Size returns len(m).
func (m Bytes) Size() int64 { return int64(len(m)) }

// SnapshotRange returns a copy of m[off:off+n].
func (m Bytes) SnapshotRange(off, n int64) blob.Blob { return blob.FromBytes(m[off : off+n]) }

// WriteBlob materializes src into m at off.
func (m Bytes) WriteBlob(off int64, src blob.Blob) { src.CopyTo(m[off:]) }

// move copies [srcOff, srcOff+n) of src to dst at dstOff, both ranges
// already bounds-checked. Between Bytes and a byteMemory the bytes are
// copied once, straight through the memory's ReadAt/WriteAt (which keep
// its dirty tracking); any other pair moves extents, so synthetic
// background is never materialized.
func move(dst Memory, dstOff int64, src Memory, srcOff, n int64) {
	if b, ok := dst.(Bytes); ok {
		if m, ok := src.(byteMemory); ok {
			m.ReadAt(b[dstOff:dstOff+n], srcOff)
			return
		}
	}
	if b, ok := src.(Bytes); ok {
		if m, ok := dst.(byteMemory); ok {
			m.WriteAt(b[srcOff:srcOff+n], dstOff)
			return
		}
	}
	dst.WriteBlob(dstOff, src.SnapshotRange(srcOff, n))
}

// Window is a memory region registered for RDMA on an endpoint
// (scif_register). The peer addresses it by Offset.
type Window struct {
	// Offset is the RDMA address the registration returned. Offsets are
	// allocated from a global monotone counter, so a re-registration after
	// restore never reuses the old address.
	Offset int64
	// Len is the window length in bytes.
	Len int64

	mem     Memory
	memBase int64 // offset of the window inside mem
	pinned  bool
}

// Register pins [memBase, memBase+length) of mem for RDMA on this endpoint
// and returns the window. The cost covers page pinning and aperture setup.
func (e *Endpoint) Register(mem Memory, memBase, length int64) (*Window, simclock.Duration, error) {
	if memBase < 0 || length <= 0 || memBase+length > mem.Size() {
		return nil, 0, fmt.Errorf("scif: register [%d,%d) out of range of %d", memBase, memBase+length, mem.Size())
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, 0, ErrClosed
	}
	w := &Window{
		Offset:  e.net.nextWindowOffset.Add(length + 0x1000), // spaced, unique
		Len:     length,
		mem:     mem,
		memBase: memBase,
		pinned:  true,
	}
	w.Offset -= length // allocate the range [Offset, Offset+len)
	e.windows[w.Offset] = w
	return w, e.net.fabric.Model().RegisterCost(length), nil
}

// Unregister releases the window.
func (e *Endpoint) Unregister(w *Window) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.windows[w.Offset]; !ok {
		return fmt.Errorf("%w: offset %#x", ErrBadWindow, w.Offset)
	}
	delete(e.windows, w.Offset)
	w.pinned = false
	return nil
}

// lookupRemote resolves an RDMA offset range against the peer's windows.
func (e *Endpoint) lookupRemote(offset, n int64) (*Window, error) {
	p := e.peer
	if p == nil {
		return nil, ErrConnReset
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrConnReset
	}
	for _, w := range p.windows {
		if offset >= w.Offset && offset+n <= w.Offset+w.Len {
			return w, nil
		}
	}
	return nil, fmt.Errorf("%w: [%#x,%#x) on %v", ErrBadWindow, offset, offset+n, p.local)
}

// VReadFrom copies n bytes from the peer's registered window at
// remoteOffset into arbitrary local memory (scif_vreadfrom). It returns the
// virtual cost of the DMA.
func (e *Endpoint) VReadFrom(local Memory, localOff, n, remoteOffset int64) (simclock.Duration, error) {
	slow, err := e.rdmaFault(e.remote.Node, e.local.Node)
	if err != nil {
		return 0, err
	}
	w, err := e.lookupRemote(remoteOffset, n)
	if err != nil {
		return 0, err
	}
	if localOff < 0 || localOff+n > local.Size() {
		return 0, fmt.Errorf("scif: local range [%d,%d) out of range of %d", localOff, localOff+n, local.Size())
	}
	move(local, localOff, w.mem, w.memBase+(remoteOffset-w.Offset), n)
	return slow * e.net.fabric.RDMACost(e.remote.Node, e.local.Node, n), nil
}

// VWriteTo copies n bytes from arbitrary local memory into the peer's
// registered window at remoteOffset (scif_vwriteto).
func (e *Endpoint) VWriteTo(local Memory, localOff, n, remoteOffset int64) (simclock.Duration, error) {
	slow, err := e.rdmaFault(e.local.Node, e.remote.Node)
	if err != nil {
		return 0, err
	}
	w, err := e.lookupRemote(remoteOffset, n)
	if err != nil {
		return 0, err
	}
	if localOff < 0 || localOff+n > local.Size() {
		return 0, fmt.Errorf("scif: local range [%d,%d) out of range of %d", localOff, localOff+n, local.Size())
	}
	move(w.mem, w.memBase+(remoteOffset-w.Offset), local, localOff, n)
	return slow * e.net.fabric.RDMACost(e.local.Node, e.remote.Node, n), nil
}

// ReadFrom copies n bytes from the peer's window at remoteOffset into this
// endpoint's own registered window at localOffset (scif_readfrom).
func (e *Endpoint) ReadFrom(localOffset, n, remoteOffset int64) (simclock.Duration, error) {
	lw, err := e.lookupLocal(localOffset, n)
	if err != nil {
		return 0, err
	}
	return e.VReadFrom(windowMemory{lw}, localOffset-lw.Offset, n, remoteOffset)
}

// WriteTo copies n bytes from this endpoint's own registered window at
// localOffset into the peer's window at remoteOffset (scif_writeto).
func (e *Endpoint) WriteTo(localOffset, n, remoteOffset int64) (simclock.Duration, error) {
	lw, err := e.lookupLocal(localOffset, n)
	if err != nil {
		return 0, err
	}
	return e.VWriteTo(windowMemory{lw}, localOffset-lw.Offset, n, remoteOffset)
}

func (e *Endpoint) lookupLocal(offset, n int64) (*Window, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, w := range e.windows {
		if offset >= w.Offset && offset+n <= w.Offset+w.Len {
			return w, nil
		}
	}
	return nil, fmt.Errorf("%w: local [%#x,%#x)", ErrBadWindow, offset, offset+n)
}

// windowMemory adapts a local registered window to the Memory interface so
// ReadFrom/WriteTo can share the V* implementations. Offsets passed to it
// are window-relative.
type windowMemory struct{ w *Window }

func (m windowMemory) Size() int64 { return m.w.Len }

func (m windowMemory) SnapshotRange(off, n int64) blob.Blob {
	return m.w.mem.SnapshotRange(m.w.memBase+off, n)
}

func (m windowMemory) WriteBlob(off int64, src blob.Blob) {
	m.w.mem.WriteBlob(m.w.memBase+off, src)
}
