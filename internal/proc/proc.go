// Package proc models the processes of a Xeon Phi server: host processes
// on node 0 and full-blown Linux processes on the coprocessors (the paper
// stresses that, unlike a GPU kernel, an offload process is an ordinary
// process with private heap, stacks, and memory-mapped files).
//
// A Process owns named memory Regions (drawing on the card's memory
// budget), threads, signal handlers, UNIX pipes, and an exit status with
// watcher callbacks — everything the COI daemon, BLCR, and Snapify's
// protocols need to observe. Because Go cannot freeze arbitrary goroutines,
// simulated computations keep all of their state in Regions and cross a
// per-process step gate between steps; the gate is where a pause lands, so
// a snapshot always observes a state the real BLCR could have captured
// (see DESIGN.md, substitution table).
package proc

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"snapify/internal/simnet"
	"snapify/internal/vfs"
)

// State is a process lifecycle state.
type State int

const (
	// Running is the normal state.
	Running State = iota
	// Terminated means the process has exited and released its memory.
	Terminated
)

func (s State) String() string {
	switch s {
	case Running:
		return "running"
	case Terminated:
		return "terminated"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ErrTerminated is returned by operations on exited processes.
var ErrTerminated = errors.New("proc: process terminated")

// Signal identifies a deliverable signal.
type Signal int

// The signals the Snapify stack uses.
const (
	// SigSnapify triggers the snapify-service handler in an offload
	// process (the COI daemon sends it during pause, Section 4.1).
	SigSnapify Signal = 64 + iota
	// SigCheckpoint triggers a checkpoint callback in a host process
	// (BLCR's cr_checkpoint command-line tool sends it, Section 5).
	SigCheckpoint
	// SigCommand tells a host process that the snapify command-line
	// utility has submitted a swap/migrate command on its pipe.
	SigCommand
)

// ExitWatcher observes a process exit. expected reports whether the exit
// was announced beforehand (Snapify marks swap-out terminations expected so
// the COI daemon does not treat them as crashes; Section 3, "Dealing with
// distributed states").
type ExitWatcher func(p *Process, expected bool)

// Process is a simulated process.
type Process struct {
	name string
	pid  int
	node simnet.NodeID

	budget vfs.Budget

	mu       sync.Mutex
	state    State
	exitCh   chan struct{}
	expected bool // termination was announced
	regions  map[string]*Region
	order    []string // region creation order, for deterministic snapshots
	threads  map[string]int
	watchers []ExitWatcher
	handlers map[Signal]func()

	gate stepGate
}

// New creates a running process drawing its memory from budget.
func New(name string, pid int, node simnet.NodeID, budget vfs.Budget) *Process {
	p := &Process{
		name:     name,
		pid:      pid,
		node:     node,
		budget:   budget,
		exitCh:   make(chan struct{}),
		regions:  make(map[string]*Region),
		threads:  make(map[string]int),
		handlers: make(map[Signal]func()),
	}
	p.gate.init()
	return p
}

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// PID returns the process ID.
func (p *Process) PID() int { return p.pid }

// Node returns the SCIF node the process runs on.
func (p *Process) Node() simnet.NodeID { return p.node }

// State returns the lifecycle state.
func (p *Process) State() State {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

// --- memory regions ---

// AddRegion allocates a region of size bytes with the given background
// seed, drawing on the process's memory budget.
func (p *Process) AddRegion(name string, kind RegionKind, size int64, seed uint64) (*Region, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state == Terminated {
		return nil, ErrTerminated
	}
	if _, dup := p.regions[name]; dup {
		return nil, fmt.Errorf("proc: region %q already exists in %s", name, p.name)
	}
	if err := p.budget.Reserve(size); err != nil {
		return nil, fmt.Errorf("proc: allocating region %q (%d bytes) in %s: %w", name, size, p.name, err)
	}
	r := newRegion(name, kind, size, seed)
	p.regions[name] = r
	p.order = append(p.order, name)
	return r, nil
}

// Region returns the named region, or nil.
func (p *Process) Region(name string) *Region {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.regions[name]
}

// Regions returns all regions in creation order.
func (p *Process) Regions() []*Region {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Region, 0, len(p.order))
	for _, n := range p.order {
		out = append(out, p.regions[n])
	}
	return out
}

// RemoveRegion frees the named region.
func (p *Process) RemoveRegion(name string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.regions[name]
	if !ok {
		return fmt.Errorf("proc: no region %q in %s", name, p.name)
	}
	delete(p.regions, name)
	for i, n := range p.order {
		if n == name {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
	p.budget.Release(r.Size())
	return nil
}

// --- threads ---

// SpawnThread runs fn on a new goroutine registered as a thread of the
// process. The thread is deregistered when fn returns.
func (p *Process) SpawnThread(name string, fn func()) error {
	p.mu.Lock()
	if p.state == Terminated {
		p.mu.Unlock()
		return ErrTerminated
	}
	p.threads[name]++
	p.mu.Unlock()
	go func() { // no shutdown signal needed: this IS the tracking mechanism: the thread-table entry lives exactly as long as fn
		defer func() {
			p.mu.Lock()
			p.threads[name]--
			if p.threads[name] == 0 {
				delete(p.threads, name)
			}
			p.mu.Unlock()
		}()
		fn()
	}()
	return nil
}

// ThreadCount returns the number of live registered threads.
func (p *Process) ThreadCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, c := range p.threads {
		n += c
	}
	return n
}

// ThreadNames returns the live thread names, sorted.
func (p *Process) ThreadNames() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for n, c := range p.threads {
		for i := 0; i < c; i++ {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// --- signals ---

// HandleSignal installs (or, with a nil fn, removes) the handler for sig.
func (p *Process) HandleSignal(sig Signal, fn func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if fn == nil {
		delete(p.handlers, sig)
		return
	}
	p.handlers[sig] = fn
}

// Deliver invokes the handler for sig on a fresh goroutine, as the kernel
// would interrupt a thread. It returns an error if the process has exited
// or has no handler installed.
func (p *Process) Deliver(sig Signal) error {
	p.mu.Lock()
	if p.state == Terminated {
		p.mu.Unlock()
		return ErrTerminated
	}
	fn, ok := p.handlers[sig]
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("proc: %s has no handler for signal %d", p.name, sig)
	}
	go fn()
	return nil
}

// --- exit ---

// OnExit registers a watcher called when the process terminates. The COI
// daemon uses this to detect offload-process crashes.
func (p *Process) OnExit(w ExitWatcher) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state == Terminated {
		// Fire immediately for consistency.
		expected := p.expected
		go w(p, expected)
		return
	}
	p.watchers = append(p.watchers, w)
}

// AnnounceExit marks the next termination as expected. Snapify calls it
// before the terminate-after-capture of a swap-out, so the daemon's crash
// monitoring does not misfire.
func (p *Process) AnnounceExit() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.expected = true
}

// Terminate exits the process: releases all region memory, unblocks the
// step gate, and notifies exit watchers. It is idempotent.
func (p *Process) Terminate() {
	p.mu.Lock()
	if p.state == Terminated {
		p.mu.Unlock()
		return
	}
	p.state = Terminated
	var freed int64
	for _, r := range p.regions {
		freed += r.Size()
	}
	p.regions = make(map[string]*Region)
	p.order = nil
	watchers := p.watchers
	p.watchers = nil
	expected := p.expected
	close(p.exitCh)
	p.mu.Unlock()

	p.budget.Release(freed)
	p.gate.shutdown()
	for _, w := range watchers {
		w(p, expected)
	}
}

// Exited returns a channel closed at termination.
func (p *Process) Exited() <-chan struct{} { return p.exitCh }
