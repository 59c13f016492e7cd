// Package coi reimplements the Coprocessor Offload Infrastructure, the
// upper-level MPSS library that offload applications program against
// (Section 2): process control on the coprocessor, COI buffers moved by
// SCIF RDMA, and the run-function pipeline between a host process and the
// server thread in its offload process. One COI daemon per card launches
// offload processes, monitors host and offload liveness, and cleans up.
//
// Snapify is implemented as modifications to this library and daemon
// (Section 4); the hooks live here — the lifecycle and RDMA critical
// regions, the shutdown markers on the command channels, the blocking
// run-function sends — and internal/core drives them.
//
// # Offload functions and resumability
//
// The Intel compiler turns each offload region into a function in the
// device binary. Here a Binary is a registry of named OffloadFuncs. Because
// Go cannot freeze a goroutine's stack the way BLCR freezes a thread,
// offload functions are written as *resumable step loops*: all state lives
// in the offload process's memory regions, progress is advanced through
// RunContext.Step (the safe-point gate), and re-invoking a function after a
// restore resumes from the region-recorded progress. The server thread
// records the active function in a control region that is part of every
// snapshot, so a snapshot taken mid-offload-region restores and completes
// correctly — the property the paper's case-4 drain protocol exists to
// guarantee.
package coi

import (
	"fmt"
	"sync"

	"snapify/internal/proc"
	"snapify/internal/simclock"
)

// OffloadFunc is one compiled offload region. args is the marshalled
// parameter block the host sent; the returned bytes travel back as the
// function's return value. Functions must be deterministic given the
// process's region state and must keep all progress in regions (see the
// package comment).
type OffloadFunc func(ctx *RunContext, args []byte) ([]byte, error)

// RegionSpec declares a memory region the offload binary sets up at load
// time (static data, heaps the runtime pre-allocates, per-thread stacks).
type RegionSpec struct {
	Name string
	Kind proc.RegionKind
	Size int64
	Seed uint64
}

// Binary is the device-side shared library the compiler generates for an
// offload application.
type Binary struct {
	Name    string
	Regions []RegionSpec
	funcs   map[string]OffloadFunc
}

// NewBinary returns an empty binary.
func NewBinary(name string) *Binary {
	return &Binary{Name: name, funcs: make(map[string]OffloadFunc)}
}

// AddRegion declares a load-time region.
func (b *Binary) AddRegion(name string, kind proc.RegionKind, size int64, seed uint64) *Binary {
	b.Regions = append(b.Regions, RegionSpec{Name: name, Kind: kind, Size: size, Seed: seed})
	return b
}

// Register adds a named offload function.
func (b *Binary) Register(name string, fn OffloadFunc) *Binary {
	if _, dup := b.funcs[name]; dup {
		panic(fmt.Sprintf("coi: duplicate offload function %q in %s", name, b.Name)) //nolint:paniclib // registration-time bug: duplicate offload function names are a programming error
	}
	b.funcs[name] = fn
	return b
}

// Lookup resolves a function name.
func (b *Binary) Lookup(name string) (OffloadFunc, error) {
	fn, ok := b.funcs[name]
	if !ok {
		return nil, fmt.Errorf("coi: no offload function %q in %s", name, b.Name)
	}
	return fn, nil
}

// The binary registry is the analogue of the device shared libraries on
// the host file system that MPSS copies to the card at launch (and that
// snapify_pause saves to the snapshot directory instead of copying back).
var (
	registryMu sync.Mutex
	registry   = make(map[string]*Binary)
)

// RegisterBinary publishes a binary so COI daemons can launch it by name.
// Re-registering a name replaces the previous binary (tests rebuild apps).
func RegisterBinary(b *Binary) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[b.Name] = b
}

// LookupBinary resolves a registered binary.
func LookupBinary(name string) (*Binary, error) {
	registryMu.Lock()
	defer registryMu.Unlock()
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("coi: no registered binary %q", name)
	}
	return b, nil
}

// RunContext is what an executing offload function sees.
type RunContext struct {
	op      *OffloadProc
	compute simclock.Duration
}

// Region returns a named region of the offload process.
func (c *RunContext) Region(name string) *proc.Region { return c.op.p.Region(name) }

// Buffer returns the region backing COI buffer id.
func (c *RunContext) Buffer(id int) *proc.Region { return c.op.p.Region(BufferRegionName(id)) }

// Step executes one computation step inside the safe-point gate: a Snapify
// pause blocks new steps and waits for the running one, so region mutations
// never race with a snapshot. Functions call it once per outer iteration.
// It returns proc.ErrGateShutdown if the process is being torn down
// (swap-out with terminate), at which point the function must return
// promptly; its progress is already in regions.
func (c *RunContext) Step(step func()) error {
	if err := c.op.p.BeginStep(); err != nil {
		return err
	}
	defer c.op.p.EndStep()
	step()
	return nil
}
