package coi

import (
	"fmt"
	"sync"

	"snapify/internal/blcr"
	"snapify/internal/blob"
	"snapify/internal/proc"
	"snapify/internal/scif"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/snapifyio"
	"snapify/internal/stream"
	"snapify/internal/wire"
)

// Control-region layout. The server thread records the active offload
// function here *before* executing it and clears it (under the result-send
// lock) just before the return value is sent, so every snapshot knows
// whether an offload region was in flight and can re-enter it after a
// restore.
const (
	ctrlRegionName = "coi_ctrl"
	ctrlRegionSize = 4096
)

// BufferRegionName returns the region name backing COI buffer id.
func BufferRegionName(id int) string { return fmt.Sprintf("coibuf_%d", id) }

// runtimeHeapSize is the offload process's own runtime footprint (loader,
// COI device library, thread stacks).
const runtimeHeapSize = 32 * simclock.MiB

// OffloadProc is the device-side runtime of one offload process: the
// process itself plus the COI machinery inside it (server threads, control
// region, registered buffers).
type OffloadProc struct {
	d   *Daemon
	p   *proc.Process
	bin *Binary
	id  int

	ready     sync.WaitGroup // channel accepts outstanding
	mu        sync.Mutex
	pipeCond  *sync.Cond // signals pipeline registration (see awaitPipeline)
	closed    bool
	cmdEPs    map[string]*scif.Endpoint
	dmaEP     *scif.Endpoint
	pipelines map[uint32]*devicePipeline
	buffers   map[int]*deviceBuffer
	ports     []ChannelPort
	listeners []*scif.Listener

	// resultMu is the device side of the case-4 critical region: the
	// result send and the control-region clear happen atomically under it,
	// so a pause observes either "function active" or "result delivered",
	// never a half state.
	resultMu sync.Mutex

	// pipe connects to the daemon during Snapify operations (created by
	// the pause protocol, Section 4.1).
	pipe *proc.PipeEnd

	// digests is the process's chunk-digest cache: the digest list of the
	// last full-layout image a store capture, a store-mode restore or a
	// pre-copy round saw, which the next digest pass carries forward for
	// every chunk dirty tracking says is untouched (nil: the next pass
	// digests everything). digestMu serializes passes from epoch cut to
	// cache install — two interleaved cuts would each hide writes from
	// the other.
	digestMu sync.Mutex
	digests  *blcr.DigestCache
}

type ChannelPort struct {
	name string
	port int
}

type devicePipeline struct {
	id uint32
	ep *scif.Endpoint
}

type deviceBuffer struct {
	id     int
	size   int64
	window *scif.Window
}

// newOffloadProc launches the offload process for bin on the daemon's card
// and starts its runtime threads. binSize is the device binary's size (the
// host copies it to the card before launch).
func newOffloadProc(d *Daemon, bin *Binary, id int, binSize int64) (*OffloadProc, error) {
	p := d.plat.Procs.Spawn(fmt.Sprintf("offload_proc[%s:%d]", bin.Name, id), d.dev.Node, d.dev.Mem)

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
	fail := func(err error) (*OffloadProc, error) {
		p.Terminate()
		return nil, err
	}

	// The dynamically loaded device binary occupies card memory; so do the
	// runtime heap and the control region.
	if _, err := p.AddRegion("binary", proc.RegionData, binSize, seedFor(bin.Name, id, "binary")); err != nil {
		return fail(fmt.Errorf("coi: loading binary: %w", err))
	}
	if _, err := p.AddRegion("runtime_heap", proc.RegionHeap, runtimeHeapSize, seedFor(bin.Name, id, "heap")); err != nil {
		return fail(fmt.Errorf("coi: runtime heap: %w", err))
	}
	if _, err := p.AddRegion(ctrlRegionName, proc.RegionData, ctrlRegionSize, 0); err != nil {
		return fail(fmt.Errorf("coi: control region: %w", err))
	}
	for _, rs := range bin.Regions {
		if _, err := p.AddRegion(rs.Name, rs.Kind, rs.Size, rs.Seed); err != nil {
			return fail(fmt.Errorf("coi: binary region %q: %w", rs.Name, err))
		}
	}

	if err := op.listenChannels(); err != nil {
		return fail(err)
	}
	op.installSnapifyHandler()
	return op, nil
}

// seedFor derives a deterministic background seed from a region identity,
// so a restored process recreates regions with matching backgrounds and
// untouched memory never materializes.
func seedFor(parts ...any) uint64 {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for _, p := range parts {
		for _, b := range []byte(fmt.Sprint(p)) {
			h ^= uint64(b)
			h *= 1099511628211
		}
		h ^= 0xFF
		h *= 1099511628211
	}
	if h == 0 {
		h = 1
	}
	return h
}

// listenChannels opens the command channels and the DMA channel and starts
// their server threads.
func (op *OffloadProc) listenChannels() error {
	for _, name := range CommandChannelNames {
		name := name
		if err := op.listenOne(name, func(ep *scif.Endpoint) {
			op.mu.Lock()
			op.cmdEPs[name] = ep
			op.mu.Unlock()
			op.p.SpawnThread("server_"+name, func() { //nolint:errcheck // the process died mid-setup; the pending Accept fails and tears the channel down
				serveCommandChannel(ep, op.handleCommand)
			})
		}); err != nil {
			return err
		}
	}
	// The DMA channel is passive on the device side: the host drives RDMA
	// against windows registered here.
	if err := op.listenOne("dma", func(ep *scif.Endpoint) {
		op.mu.Lock()
		op.dmaEP = ep
		op.mu.Unlock()
	}); err != nil {
		return err
	}
	return nil
}

// listenOne binds an ephemeral port for one channel and installs the
// endpoint via set when the host connects.
func (op *OffloadProc) listenOne(name string, set func(*scif.Endpoint)) error {
	lst, err := op.d.plat.Net.Listen(op.d.dev.Node, 0)
	if err != nil {
		return fmt.Errorf("coi: listening for %s channel: %w", name, err)
	}
	op.mu.Lock()
	op.ports = append(op.ports, ChannelPort{name, lst.Addr().Port})
	op.listeners = append(op.listeners, lst)
	op.mu.Unlock()
	op.ready.Add(1)
	go func() {
		defer op.ready.Done()
		ep, err := lst.Accept()
		lst.Close() //nolint:errcheck // single-use listener: the one Accept already returned
		if err != nil {
			return
		}
		set(ep)
	}()
	return nil
}

// AwaitChannels blocks until every channel the host dialed has been
// accepted and installed, making launch/rebind deterministic.
func (op *OffloadProc) AwaitChannels() { op.ready.Wait() }

// ChannelPorts returns the (name, port) pairs the host must connect to.
func (op *OffloadProc) ChannelPorts() []ChannelPort {
	op.mu.Lock()
	defer op.mu.Unlock()
	out := make([]ChannelPort, len(op.ports))
	copy(out, op.ports)
	return out
}

// handleCommand serves one decoded request on a command channel. The
// command channel carries buffer management; event and log channels answer
// pings (their traffic exists so the drain protocol has real channels to
// prove empty).
func (op *OffloadProc) handleCommand(cmd uint8, req Message) (Message, error) {
	switch cmd {
	case cmdBufferCreate:
		r := req.(*bufferCreateReq)
		off, err := op.createBuffer(r.ID, r.Size)
		return &offsetResp{off}, err
	case cmdBufferDestroy:
		return &Empty{}, op.destroyBuffer(req.(*IDReq).ID)
	case cmdPipelineCreate:
		port, err := op.createPipeline(uint32(req.(*IDReq).ID))
		return &portResp{port}, err
	case cmdBufferReregister:
		off, err := op.reregisterBuffer(req.(*IDReq).ID)
		return &offsetResp{off}, err
	}
	return &Empty{}, nil // cmdPing
}

// createBuffer allocates the local-store region backing a COI buffer and
// registers it for RDMA on the DMA channel.
func (op *OffloadProc) createBuffer(id int, size int64) (int64, error) {
	name := BufferRegionName(id)
	r, err := op.p.AddRegion(name, proc.RegionLocalStore, size, seedFor(op.bin.Name, op.id, name))
	if err != nil {
		return 0, err
	}
	r.Pin() // COI buffers are pinned for RDMA (Section 1)
	op.mu.Lock()
	dma := op.dmaEP
	op.mu.Unlock()
	if dma == nil {
		op.p.RemoveRegion(name) //nolint:errcheck // unwinding a failed buffer create; the region was just added
		return 0, fmt.Errorf("coi: DMA channel not connected")
	}
	w, _, err := dma.Register(r, 0, size)
	if err != nil {
		op.p.RemoveRegion(name) //nolint:errcheck // unwinding a failed DMA registration; the region was just added
		return 0, err
	}
	op.mu.Lock()
	op.buffers[id] = &deviceBuffer{id: id, size: size, window: w}
	op.mu.Unlock()
	return w.Offset, nil
}

func (op *OffloadProc) destroyBuffer(id int) error {
	op.mu.Lock()
	b, ok := op.buffers[id]
	if ok {
		delete(op.buffers, id)
	}
	dma := op.dmaEP
	op.mu.Unlock()
	if !ok {
		return fmt.Errorf("coi: no buffer %d", id)
	}
	if dma != nil {
		dma.Unregister(b.window) //nolint:errcheck // unregistering a vanished window is a no-op on the simulated fabric
	}
	return op.p.RemoveRegion(BufferRegionName(id))
}

// createPipeline opens the run-function channel for pipeline id and starts
// its server thread (Pipe_Thread2 in Fig 4).
func (op *OffloadProc) createPipeline(id uint32) (int, error) {
	lst, err := op.d.plat.Net.Listen(op.d.dev.Node, 0)
	if err != nil {
		return 0, err
	}
	go func() { // no shutdown signal needed: exits when its one Accept returns; teardown closes lst, which fails the Accept
		ep, err := lst.Accept()
		lst.Close() //nolint:errcheck // single-use listener: the one Accept already returned
		if err != nil {
			return
		}
		op.mu.Lock()
		op.pipelines[id] = &devicePipeline{id: id, ep: ep}
		op.pipeCond.Broadcast()
		op.mu.Unlock()
		op.p.SpawnThread(fmt.Sprintf("pipe_thread2_%d", id), func() { //nolint:errcheck // the process died mid-setup; the connected peer sees the endpoint close
			op.servePipeline(id, ep)
		})
	}()
	return lst.Addr().Port, nil
}

// awaitPipeline blocks until pipeline id is registered (the host may still
// be reconnecting it after a restore) or the process is torn down; it
// returns nil in the latter case.
func (op *OffloadProc) awaitPipeline(id uint32) *devicePipeline {
	op.mu.Lock()
	defer op.mu.Unlock()
	for op.pipelines[id] == nil && !op.closed {
		op.pipeCond.Wait()
	}
	return op.pipelines[id]
}

// teardown terminates the offload process and its connections.
func (op *OffloadProc) teardown() {
	op.mu.Lock()
	op.closed = true
	if op.pipeCond != nil {
		op.pipeCond.Broadcast()
	}
	eps := make([]*scif.Endpoint, 0, 8)
	for _, ep := range op.cmdEPs {
		eps = append(eps, ep)
	}
	if op.dmaEP != nil {
		eps = append(eps, op.dmaEP)
	}
	for _, pl := range op.pipelines {
		eps = append(eps, pl.ep)
	}
	pipe := op.pipe
	op.mu.Unlock()
	for _, ep := range eps {
		ep.Close() //nolint:errcheck // teardown fan-out: each close only unblocks the host-side peer
	}
	if pipe != nil {
		pipe.Close() //nolint:errcheck // teardown: the agent thread exits on the resulting Recv error
	}
	op.p.Terminate()
}

// Proc returns the underlying process.
func (op *OffloadProc) Proc() *proc.Process { return op.p }

// ID returns the daemon-assigned process id.
func (op *OffloadProc) ID() int { return op.id }

// LocalStoreBytes returns the total size of the process's local-store
// regions (what pause must save).
func (op *OffloadProc) LocalStoreBytes() int64 {
	var n int64
	for _, r := range op.p.Regions() {
		if r.Kind() == proc.RegionLocalStore {
			n += r.Size()
		}
	}
	return n
}

// Endpoints returns every SCIF endpoint of the offload process, for drain
// assertions.
func (op *OffloadProc) Endpoints() []*scif.Endpoint {
	op.mu.Lock()
	defer op.mu.Unlock()
	var out []*scif.Endpoint
	for _, ep := range op.cmdEPs {
		out = append(out, ep)
	}
	if op.dmaEP != nil {
		out = append(out, op.dmaEP)
	}
	for _, pl := range op.pipelines {
		out = append(out, pl.ep)
	}
	return out
}

// --- control region bookkeeping ---

// writeCtrl encodes st on c into the front of the control region.
func (op *OffloadProc) writeCtrl(c *wire.Cursor, st *ctrlState) {
	r := op.p.Region(ctrlRegionName)
	if r == nil {
		// The process was torn down (Destroy, daemon stop) between a
		// server thread's result send and its control-region clear:
		// there is no control region left to write.
		return
	}
	buf := encodeCtrl(c, st)
	if len(buf) > ctrlRegionSize {
		panic(fmt.Sprintf("coi: control record %d bytes exceeds control region", len(buf))) //nolint:paniclib // protocol invariant: the control region is sized for the largest record (args are capped at launch)
	}
	r.WriteAt(buf, 0)
}

// readCtrl decodes the control record out of the control region.
func (op *OffloadProc) readCtrl() (ctrlState, error) {
	region := make([]byte, ctrlRegionSize)
	op.p.Region(ctrlRegionName).ReadAt(region, 0)
	var st ctrlState
	_, err := decodeCtrl(region, &st)
	return st, err
}

// livePiece is the piece a live switch-over's local-store save writes at a
// time: small enough that the page walk of one piece overlaps the socket
// copy, RDMA and RAM-fs write of the one before it on the two-slot stream.
const livePiece = 1 * simclock.MiB

// What a live save does with each local-store region's digest epoch
// (DESIGN.md §13, "Pre-save").
type epochRule uint8

const (
	// epochsUntouched saves every region and leaves the epochs alone: the
	// paper's save, and a live switch-over with no pre-save.
	epochsUntouched epochRule = iota
	// epochsCut cuts each region's epoch before it reads the region, then
	// saves it whole: the pre-save.
	epochsCut
	// epochsSince cuts each region's epoch and saves only a region written
	// since the pre-save's cut (or created after it: its first cut reports
	// the whole region); the pre-saved file of any other region is
	// current. Each cut is charged as the digest pass charges its sweep,
	// one scan of the region's page tables.
	epochsSince
)

// saveLocalStore streams every local-store region to files under dir on
// targetNode via Snapify-IO (the pause phase of Section 4.1; for process
// migration the target is the destination card). It returns the virtual
// time and the bytes sent. The paper's save writes each region as 4 MiB
// chunks over the one-slot ping-pong stream, so a chunk's page walk, copy,
// RDMA and write add up. A live switch-over (live) writes it in livePiece
// pieces over a two-slot stream, so the walk of each piece overlaps the
// transfer of the one before and the save costs about the walk plus one
// piece's fill. epochs is what a live save does with each region's digest
// epoch.
func (op *OffloadProc) saveLocalStore(targetNode simnet.NodeID, dir string, live bool, epochs epochRule) (simclock.Duration, int64, error) {
	opts, piece := snapifyio.OpenOptions{Slots: 1}, 4*simclock.MiB
	if live {
		opts, piece = snapifyio.OpenOptions{Slots: 2}, livePiece
	}
	acc := simclock.NewPipelineAccum()
	var total int64
	for _, r := range op.p.Regions() {
		if r.Kind() != proc.RegionLocalStore {
			continue
		}
		if epochs != epochsUntouched {
			// Cut before the read below: a write landing between the two
			// is then both in the saved bytes and in the next epoch.
			written := r.CutEpoch()
			if epochs == epochsSince {
				acc.Add(blcr.PageTableCost(op.d.plat.Model(), r.Size()))
				if len(written) == 0 {
					continue
				}
			}
		}
		f, err := op.d.plat.IO.OpenStream(op.d.dev.Node, targetNode, dir+"/"+LocalStorePrefix+r.Name(), snapifyio.Write, opts)
		if err != nil {
			return 0, 0, err
		}
		snap := r.Snapshot()
		err = snap.ForEachChunk(piece, func(chunk blob.Blob) error {
			cost, err := f.WriteBlob(chunk)
			if err != nil {
				return err
			}
			stream.Observe(acc, cost, op.d.plat.Model().PhiPageWalk(chunk.Len()))
			return nil
		})
		if err == nil && live {
			// The last piece is still in flight: its RDMA and write end
			// the save.
			var cost stream.Cost
			if cost, err = f.Flush(); err == nil {
				stream.Observe(acc, cost)
			}
		}
		if err != nil {
			f.Abort()
			return 0, 0, err
		}
		if err := f.Close(); err != nil {
			return 0, 0, err
		}
		total += snap.Len()
	}
	return acc.Total(), total, nil
}
