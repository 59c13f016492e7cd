package coi

import (
	"errors"
	"fmt"
	"sync"

	"snapify/internal/platform"
	"snapify/internal/proc"
	"snapify/internal/scif"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
)

// State is the lifecycle state of a host-side COI process handle.
type State int

const (
	// StateActive is the normal state.
	StateActive State = iota
	// StatePaused means a Snapify pause holds the channels quiesced.
	StatePaused
	// StateSwapped means the offload process was captured and terminated;
	// the handle is defunct and a restore returns a fresh one.
	StateSwapped
	// StateDestroyed means the process was torn down.
	StateDestroyed
)

func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StatePaused:
		return "paused"
	case StateSwapped:
		return "swapped"
	case StateDestroyed:
		return "destroyed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// DefaultBinarySize is the size of a device binary when the Binary does
// not declare one; the host copies it to the card at launch.
const DefaultBinarySize = 8 * simclock.MiB

// Process is the host-side handle to an offload process (COIProcess*).
type Process struct {
	plat *platform.Platform
	tl   *simclock.Timeline

	hostProc *proc.Process
	devNode  simnet.NodeID
	binName  string
	id       int

	// lifecycleMu protects process create/destroy critical regions
	// (Section 4.1, case 1); Snapify's pause acquires it.
	lifecycleMu sync.Mutex
	// rdmaMu protects COI buffer RDMA call sites (case 2).
	rdmaMu sync.Mutex

	mu          sync.Mutex
	state       State
	lifecycleEP *scif.Endpoint
	dmaEP       *scif.Endpoint
	cmds        map[string]*ClientChan
	pipelines   []*Pipeline
	buffers     map[int]*Buffer
	nextBufID   int
	nextPipeID  uint32
}

// CreateProcess launches an offload process running the named registered
// binary on device devNode (COIProcessCreateFromFile). hostProc is the
// calling host process; tl is the application's virtual timeline.
func CreateProcess(plat *platform.Platform, hostProc *proc.Process, tl *simclock.Timeline,
	devNode simnet.NodeID, binaryName string) (*Process, error) {

	bin, err := LookupBinary(binaryName)
	if err != nil {
		return nil, err
	}
	cp := &Process{
		plat:     plat,
		tl:       tl,
		hostProc: hostProc,
		devNode:  devNode,
		binName:  binaryName,
		cmds:     make(map[string]*ClientChan),
		buffers:  make(map[int]*Buffer),
	}
	if cp.hooks() {
		tl.Advance(plat.Model().HookLifecycle)
	}
	cp.lifecycleMu.Lock()
	defer cp.lifecycleMu.Unlock()

	ep, err := plat.Net.Connect(simnet.HostNode, scif.Addr{Node: devNode, Port: DaemonPort}) // blocking under the lock is intended: lifecycleMu serializes the whole launch round-trip against Snapify swap (Section 4.2)
	if err != nil {
		return nil, fmt.Errorf("coi: connecting to daemon on %v: %w", devNode, err)
	}
	cp.lifecycleEP = ep

	// The host copies the device binary to the coprocessor (Section 2).
	binSize := DefaultBinarySize
	tl.Advance(plat.Model().RDMA(binSize) + plat.Model().ProcLaunch)

	var resp launchResp
	// The round-trip blocks under lifecycleMu on purpose: the lock
	// serializes the whole launch against Snapify swap (Section 4.2).
	d, err := roundTrip(ep, encodeMsg(opLaunch, &launchReq{Binary: binaryName, BinarySize: binSize}), opLaunchResp, &resp, "coi: launch failed")
	tl.Advance(d)
	if err != nil {
		return nil, err
	}
	cp.id = resp.ProcID
	if err := cp.connectChannels(resp.Ports); err != nil {
		return nil, err
	}
	if err := cp.DaemonRequest(opAwaitReady, &IDReq{cp.id}, &Empty{}); err != nil {
		return nil, err
	}
	_ = bin

	// The daemon terminates the offload process if the host process dies.
	if daemon := DaemonAt(plat, devNode); daemon != nil {
		daemon.WatchHostProcess(hostProc, cp.id)
	}
	return cp, nil
}

// roundTrip sends req on ep, decodes the reply, which must carry opcode
// replyOp, into resp, and returns the virtual time the two messages took.
// what prefixes a failure the peer reported.
func roundTrip(ep *scif.Endpoint, req []byte, replyOp uint8, resp Message, what string) (simclock.Duration, error) {
	sendDur, err := ep.Send(req)
	if err != nil {
		return 0, err
	}
	raw, recvDur, err := ep.Recv()
	if err != nil {
		return sendDur, err
	}
	err = decodeReply(raw, replyOp, resp)
	if re, ok := err.(remoteError); ok {
		err = fmt.Errorf("%s: %s", what, string(re))
	}
	return sendDur + recvDur, err
}

// connectChannels dials the offload process's channels.
func (cp *Process) connectChannels(ports []ChannelPort) error {
	model := cp.plat.Model()
	for _, chp := range ports {
		ep, err := cp.plat.Net.Connect(simnet.HostNode, scif.Addr{Node: cp.devNode, Port: chp.port})
		if err != nil {
			return fmt.Errorf("coi: connecting %s channel: %w", chp.name, err)
		}
		cp.tl.Advance(model.SCIFReconnect)
		if chp.name == "dma" {
			cp.mu.Lock()
			cp.dmaEP = ep
			cp.mu.Unlock()
			continue
		}
		cp.mu.Lock()
		cp.cmds[chp.name] = newClientChan(chp.name, ep, cp.tl, cp.hooks(), model.HookCommandSend, cp.plat.Obs.MetricsOf())
		cp.mu.Unlock()
	}
	return nil
}

// hooks reports whether Snapify instrumentation is compiled in.
func (cp *Process) hooks() bool { return cp.plat.SnapifyEnabled }

// State returns the handle state.
func (cp *Process) State() State {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.state
}

func (cp *Process) setState(s State) {
	cp.mu.Lock()
	cp.state = s
	cp.mu.Unlock()
}

// ID returns the daemon-assigned offload process id.
func (cp *Process) ID() int {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.id
}

// DeviceNode returns the card the offload process runs on.
func (cp *Process) DeviceNode() simnet.NodeID {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.devNode
}

// BinaryName returns the device binary's registered name.
func (cp *Process) BinaryName() string { return cp.binName }

// HostProc returns the host process that owns the handle.
func (cp *Process) HostProc() *proc.Process { return cp.hostProc }

// Platform returns the platform.
func (cp *Process) Platform() *platform.Platform { return cp.plat }

// Timeline returns the application timeline.
func (cp *Process) Timeline() *simclock.Timeline { return cp.tl }

// Command returns the named command channel.
func (cp *Process) Command(name string) *ClientChan {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.cmds[name]
}

// Pipelines returns the pipelines in creation order.
func (cp *Process) Pipelines() []*Pipeline {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	out := make([]*Pipeline, len(cp.pipelines))
	copy(out, cp.pipelines)
	return out
}

// Buffers returns the buffers keyed by id.
func (cp *Process) Buffers() map[int]*Buffer {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	out := make(map[int]*Buffer, len(cp.buffers))
	for id, b := range cp.buffers {
		out[id] = b
	}
	return out
}

// CreatePipeline creates a run-function pipeline (COIPipelineCreate).
func (cp *Process) CreatePipeline() (*Pipeline, error) {
	cp.mu.Lock()
	id := cp.nextPipeID
	cp.nextPipeID++
	cmd := cp.cmds["command"]
	cp.mu.Unlock()
	if cmd == nil {
		return nil, errors.New("coi: command channel not connected")
	}
	var created portResp
	if err := cmd.Request(cmdPipelineCreate, &IDReq{int(id)}, &created); err != nil {
		return nil, fmt.Errorf("coi: pipeline create failed: %w", err)
	}
	ep, err := cp.plat.Net.Connect(simnet.HostNode, scif.Addr{Node: cp.devNode, Port: created.Port})
	if err != nil {
		return nil, err
	}
	cp.tl.Advance(cp.plat.Model().SCIFReconnect)
	pl := newPipeline(cp, id, ep)
	cp.mu.Lock()
	cp.pipelines = append(cp.pipelines, pl)
	cp.mu.Unlock()
	return pl, nil
}

// Destroy tears down the offload process (COIProcessDestroy).
func (cp *Process) Destroy() error {
	if cp.hooks() {
		cp.tl.Advance(cp.plat.Model().HookLifecycle)
	}
	cp.lifecycleMu.Lock()
	defer cp.lifecycleMu.Unlock()
	if s := cp.State(); s == StateDestroyed || s == StateSwapped {
		return fmt.Errorf("%w: %s", ErrProcessGone, s)
	}
	// Blocking under lifecycleMu on purpose, as in CreateProcess.
	if _, err := roundTrip(cp.lifecycleEP, encodeMsg(opDestroy, &IDReq{cp.id}), opDestroyResp, &Empty{}, "coi: destroy failed"); err != nil {
		return err
	}
	cp.setState(StateDestroyed)
	cp.closeAll()
	return nil
}

// closeAll closes every host-side endpoint.
func (cp *Process) closeAll() {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	for _, c := range cp.cmds {
		if ep := c.Endpoint(); ep != nil {
			ep.Close() //nolint:errcheck // best-effort teardown in closeAll; the device side observes closure via Recv errors
		}
	}
	if cp.dmaEP != nil {
		cp.dmaEP.Close() //nolint:errcheck // best-effort teardown in closeAll; the device side observes closure via Recv errors
	}
	for _, pl := range cp.pipelines {
		if ep := pl.endpoint(); ep != nil {
			ep.Close() //nolint:errcheck // best-effort teardown in closeAll; the device side observes closure via Recv errors
		}
	}
	if cp.lifecycleEP != nil {
		cp.lifecycleEP.Close() //nolint:errcheck // best-effort teardown in closeAll; the device side observes closure via Recv errors
	}
}

// HostEndpoints returns every host-side endpoint, for drain assertions.
func (cp *Process) HostEndpoints() []*scif.Endpoint {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	var out []*scif.Endpoint
	if cp.lifecycleEP != nil {
		out = append(out, cp.lifecycleEP)
	}
	for _, c := range cp.cmds {
		if ep := c.Endpoint(); ep != nil {
			out = append(out, ep)
		}
	}
	if cp.dmaEP != nil {
		out = append(out, cp.dmaEP)
	}
	for _, pl := range cp.pipelines {
		if ep := pl.endpoint(); ep != nil {
			out = append(out, ep)
		}
	}
	return out
}
