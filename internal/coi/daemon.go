package coi

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"snapify/internal/faultinject"
	"snapify/internal/phi"
	"snapify/internal/platform"
	"snapify/internal/proc"
	"snapify/internal/scif"
	"snapify/internal/simclock"
	"snapify/internal/snapstore"
)

// DaemonPort is the fixed SCIF port every COI daemon listens on.
const DaemonPort = 2000

// Daemon is the per-card COI daemon (coi_daemon): it launches offload
// processes on request, monitors host- and offload-process liveness, cleans
// up after exits, and coordinates Snapify's snapshot protocol.
type Daemon struct {
	plat *platform.Platform
	dev  *phi.Device
	p    *proc.Process
	lst  *scif.Listener

	mu     sync.Mutex
	procs  map[int]*OffloadProc
	nextID int
	// conns are the host connections being served. A host process that
	// exits without Destroy leaves its handler parked in Recv, so Stop
	// closes them or the handler would hold the daemon forever.
	conns map[*scif.Endpoint]struct{}

	// crashed records offload processes that exited without announcement;
	// an expected exit (Snapify swap-out) must NOT land here (Section 3,
	// "Dealing with distributed states").
	crashed map[int]bool

	// Snapify monitor state: the list of active pause requests, each with
	// a dedicated monitor thread blocked on its pipe.
	monMu      sync.Mutex
	activeReqs map[int]*pauseState

	// staging parks pre-copy chunks arriving ahead of a live migration's
	// switch-over (this daemon's card is the migration destination).
	staging *snapstore.Staging
}

// daemonMemory is the daemon's own footprint on the card.
const daemonMemory = 16 * simclock.MiB

// StartDaemon launches the COI daemon on dev.
func StartDaemon(plat *platform.Platform, dev *phi.Device) (*Daemon, error) {
	p := plat.Procs.Spawn("coi_daemon", dev.Node, dev.Mem)
	if _, err := p.AddRegion("daemon", proc.RegionData, daemonMemory, 0); err != nil {
		p.Terminate()
		return nil, fmt.Errorf("coi: daemon memory on %v: %w", dev.Node, err)
	}
	lst, err := plat.Net.Listen(dev.Node, DaemonPort)
	if err != nil {
		p.Terminate()
		return nil, fmt.Errorf("coi: daemon port on %v: %w", dev.Node, err)
	}
	d := &Daemon{
		plat:       plat,
		dev:        dev,
		p:          p,
		lst:        lst,
		procs:      make(map[int]*OffloadProc),
		nextID:     1,
		conns:      make(map[*scif.Endpoint]struct{}),
		crashed:    make(map[int]bool),
		activeReqs: make(map[int]*pauseState),
		staging:    snapstore.NewStaging(),
	}
	if err := p.SpawnThread("daemon_server", d.serve); err != nil {
		lst.Close() //nolint:errcheck // unwinding a failed start: the listener was just opened and has no connections
		p.Terminate()
		return nil, fmt.Errorf("coi: daemon server thread on %v: %w", dev.Node, err)
	}
	return d, nil
}

// Staging exposes the daemon's pre-copy staging area — chaos tests
// assert it holds no orphan chunks after an aborted migration.
func (d *Daemon) Staging() *snapstore.Staging { return d.staging }

// Stop terminates the daemon and every offload process it manages.
func (d *Daemon) Stop() {
	d.lst.Close() //nolint:errcheck // daemon stop: a close error on the lifecycle listener has no recovery
	// Tear processes down in ascending ID order: exits announce on the
	// simulated network and advance virtual time, so iterating the map
	// directly would make shutdown traces run-to-run nondeterministic.
	d.mu.Lock()
	ids := make([]int, 0, len(d.procs))
	for id := range d.procs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	procs := make([]*OffloadProc, 0, len(ids))
	for _, id := range ids {
		procs = append(procs, d.procs[id])
	}
	d.mu.Unlock()
	for _, op := range procs {
		op.p.AnnounceExit()
		op.teardown()
	}
	d.p.AnnounceExit()
	d.p.Terminate()
	// Closing touches no virtual clock, so map order is harmless here.
	d.mu.Lock()
	conns := d.conns
	d.conns = nil
	d.mu.Unlock()
	for ep := range conns {
		ep.Close() //nolint:errcheck // daemon stop: releasing the endpoint is the point
	}
}

// Lookup returns the offload process with the given id.
func (d *Daemon) Lookup(id int) (*OffloadProc, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	op, ok := d.procs[id]
	if !ok {
		return nil, fmt.Errorf("coi: daemon %v: no offload process %d", d.dev.Node, id)
	}
	return op, nil
}

// serve accepts lifecycle connections from host processes; one handler
// goroutine per connection (the daemon serves many host processes).
func (d *Daemon) serve() {
	for {
		ep, err := d.lst.Accept()
		if err != nil {
			return
		}
		go d.handleConn(ep)
	}
}

// handleConn serves one host connection: decode a request, run its one
// handler, send the one reply. A request that does not decode is refused
// with an error reply and the connection keeps serving; an opcode nobody
// serves (a corrupted frame) drops the connection.
func (d *Daemon) handleConn(ep *scif.Endpoint) {
	d.mu.Lock()
	if d.conns == nil { // Stop already ran
		d.mu.Unlock()
		ep.Close() //nolint:errcheck // daemon stopped: refusing the connection is the point
		return
	}
	d.conns[ep] = struct{}{}
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		delete(d.conns, ep)
		d.mu.Unlock()
	}()
	for {
		raw, _, err := ep.Recv()
		if err != nil {
			ep.Close() //nolint:errcheck // the peer is gone (Recv failed); close only releases the endpoint
			return
		}
		op, req, err := daemonRequests.decode(raw)
		if req == nil && len(raw) > 0 {
			ep.Close() //nolint:errcheck // protocol error: dropping the connection IS the error signal
			return
		}
		// Fault hook: a dropped request makes the daemon momentarily
		// unreachable — the host gets a transient error reply it can retry
		// on. The node key is built only when a plan is armed.
		if inj := d.plat.Net.Fabric().Injector(); inj != nil {
			if f := inj.Fire(faultinject.SiteRequest, d.dev.Node.String()); f != nil && f.Kind == faultinject.Drop {
				err = errors.New("injected fault: coi daemon unavailable")
			}
		}
		var resp Message = &Empty{}
		if err == nil {
			resp, err = d.dispatch(op, req)
		}
		respOp := op + 1
		if len(raw) == 0 {
			respOp = 0 // an empty message has no opcode to answer
		}
		ep.Send(encodeReply(respOp, resp, err)) //nolint:errcheck // peer teardown surfaces on its Recv
	}
}

// dispatch runs the one handler of a decoded lifecycle request.
func (d *Daemon) dispatch(op uint8, req Message) (Message, error) {
	switch op {
	case opLaunch:
		return d.handleLaunch(req.(*launchReq))
	case opDestroy:
		return &Empty{}, d.handleDestroy(req.(*IDReq).ID)
	case opAwaitReady:
		op, err := d.Lookup(req.(*IDReq).ID)
		if err == nil {
			op.AwaitChannels()
		}
		return &Empty{}, err
	case opSnapifyPause:
		return &Empty{}, d.handleSnapifyPause(req.(*IDReq).ID)
	case opSnapifyDrain:
		return d.handleSnapifyDrain(req.(*DrainReq))
	case opSnapifyCapture:
		return d.handleSnapifyCapture(req.(*CaptureReq))
	case opSnapifyResume:
		return &Empty{}, d.handleSnapifyResume(req.(*IDReq).ID)
	case opSnapifyRestore:
		return d.handleSnapifyRestore(req.(*RestoreReq))
	case opSnapifyPrecopy:
		return d.handleSnapifyPrecopy(req.(*PrecopyReq))
	case opSnapifyPrecopyStage:
		return d.handleSnapifyPrecopyStage(req.(*StageReq))
	case opSnapifyPresave:
		return d.handleSnapifyPresave(req.(*PresaveReq))
	}
	return nil, fmt.Errorf("coi: opcode %d is not a lifecycle request", op)
}

// handleLaunch launches the named binary as an offload process.
func (d *Daemon) handleLaunch(req *launchReq) (*launchResp, error) {
	bin, err := LookupBinary(req.Binary)
	if err != nil {
		return nil, err
	}
	op, err := d.launch(bin, req.BinarySize)
	if err != nil {
		return nil, err
	}
	return &launchResp{ProcID: op.id, Ports: op.ChannelPorts()}, nil
}

// launch builds the offload process and its runtime.
func (d *Daemon) launch(bin *Binary, binSize int64) (*OffloadProc, error) {
	d.mu.Lock()
	id := d.nextID
	d.nextID++
	d.mu.Unlock()

	op, err := newOffloadProc(d, bin, id, binSize)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.procs[id] = op
	d.mu.Unlock()

	// Crash monitoring: an exit that was not announced is a crash.
	op.p.OnExit(func(_ *proc.Process, expected bool) {
		d.mu.Lock()
		delete(d.procs, id)
		if !expected {
			d.crashed[id] = true
		}
		d.mu.Unlock()
		// Clean up the process's temporary files on the card.
		d.dev.FS.RemoveAll(fmt.Sprintf("/tmp/coi_procs/%d/", id))
	})
	return op, nil
}

// handleDestroy tears down an offload process at the host's request.
func (d *Daemon) handleDestroy(id int) error {
	op, err := d.Lookup(id)
	if err != nil {
		return err
	}
	op.p.AnnounceExit() // requested teardown is not a crash
	op.teardown()
	return nil
}

// WatchHostProcess terminates the offload process if its host process
// exits (the daemon's normal cleanup duty, Section 2).
func (d *Daemon) WatchHostProcess(host *proc.Process, offloadID int) {
	host.OnExit(func(_ *proc.Process, _ bool) {
		if op, err := d.Lookup(offloadID); err == nil {
			op.p.AnnounceExit()
			op.teardown()
		}
	})
}
