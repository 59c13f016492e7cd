package proc

import (
	"fmt"
	"sync"

	"snapify/internal/simnet"
	"snapify/internal/vfs"
)

// Table is the process table of a Xeon Phi server: it allocates PIDs and
// resolves them, the way the snapify command-line utility resolves the PID
// of a host process (Section 5).
type Table struct {
	mu      sync.Mutex
	nextPID int
	procs   map[int]*Process
}

// NewTable returns an empty process table.
func NewTable() *Table {
	return &Table{nextPID: 1000, procs: make(map[int]*Process)}
}

// Spawn creates a running process on the given node.
func (t *Table) Spawn(name string, node simnet.NodeID, budget vfs.Budget) *Process {
	t.mu.Lock()
	pid := t.nextPID
	t.nextPID++
	t.mu.Unlock()

	p := New(name, pid, node, budget)
	t.mu.Lock()
	t.procs[pid] = p
	t.mu.Unlock()
	p.OnExit(func(p *Process, _ bool) {
		t.mu.Lock()
		delete(t.procs, p.PID())
		t.mu.Unlock()
	})
	return p
}

// Lookup resolves a PID.
func (t *Table) Lookup(pid int) (*Process, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.procs[pid]
	if !ok {
		return nil, fmt.Errorf("proc: no such process %d", pid)
	}
	return p, nil
}

// Count returns the number of live processes.
func (t *Table) Count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.procs)
}
