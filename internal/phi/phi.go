// Package phi models a Xeon Phi coprocessor card: its physical memory
// budget (shared between process memory and the RAM-backed file system),
// core count, and per-card RAM file system. It also models the host side of
// the server.
//
// The memory budget is the load-bearing part: the paper's storage argument
// (Section 3) is that a snapshot cannot, in general, be saved on the card
// because file bytes and process bytes compete for the same 8/16 GiB.
package phi

import (
	"fmt"
	"sync"

	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/vfs"
)

// MemBudget arbitrates a card's physical memory. It implements
// vfs.Budget; the process allocator draws from the same pool.
type MemBudget struct {
	mu       sync.Mutex
	capacity int64
	used     int64
}

// NewMemBudget returns a budget of the given capacity in bytes.
func NewMemBudget(capacity int64) *MemBudget {
	return &MemBudget{capacity: capacity}
}

// Reserve claims n bytes or fails with an out-of-memory error.
func (b *MemBudget) Reserve(n int64) error {
	if n < 0 {
		panic(fmt.Sprintf("phi: negative reservation %d", n)) //nolint:paniclib // caller bug: negative reservations are unconstructible
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.used+n > b.capacity {
		return fmt.Errorf("phi: out of memory: need %d, have %d of %d free",
			n, b.capacity-b.used, b.capacity)
	}
	b.used += n
	return nil
}

// Release returns n bytes to the pool.
func (b *MemBudget) Release(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("phi: negative release %d", n)) //nolint:paniclib // caller bug: negative releases are unconstructible
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.used -= n
	if b.used < 0 {
		panic("phi: released more memory than reserved") //nolint:paniclib // accounting invariant: reserve/release are paired by construction
	}
}

// Used returns the bytes currently reserved.
func (b *MemBudget) Used() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Free returns the bytes currently available.
func (b *MemBudget) Free() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.capacity - b.used
}

// Device is one Xeon Phi coprocessor card.
type Device struct {
	// Node is the card's SCIF node ID (>= 1).
	Node simnet.NodeID
	// Cores and ThreadsPerCore describe the card (the 5110P in the paper's
	// testbed has 60 cores x 4 threads).
	Cores          int
	ThreadsPerCore int
	// Mem is the card's physical memory budget.
	Mem *MemBudget
	// FS is the card's RAM-backed file system; it draws from Mem.
	FS *vfs.FS

	model *simclock.Model
}

// DeviceConfig parameterizes a card.
type DeviceConfig struct {
	MemBytes       int64 // physical memory; 0 means 8 GiB (the paper's cards)
	Cores          int   // 0 means 60
	ThreadsPerCore int   // 0 means 4
	OSReserved     int64 // memory held by the Phi OS and system files; 0 means 512 MiB
}

// NewDevice returns a card at the given SCIF node.
func NewDevice(model *simclock.Model, node simnet.NodeID, cfg DeviceConfig) *Device {
	if node.IsHost() {
		panic("phi: device cannot be the host node") //nolint:paniclib // configuration bug: topology is fixed at platform setup
	}
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 8 * simclock.GiB
	}
	if cfg.Cores == 0 {
		cfg.Cores = 60
	}
	if cfg.ThreadsPerCore == 0 {
		cfg.ThreadsPerCore = 4
	}
	if cfg.OSReserved == 0 {
		cfg.OSReserved = 512 * simclock.MiB
	}
	mem := NewMemBudget(cfg.MemBytes)
	if err := mem.Reserve(cfg.OSReserved); err != nil {
		panic(fmt.Sprintf("phi: OS reservation exceeds card memory: %v", err)) //nolint:paniclib // configuration bug: OSReserved is a constant of the device model
	}
	return &Device{
		Node:           node,
		Cores:          cfg.Cores,
		ThreadsPerCore: cfg.ThreadsPerCore,
		Mem:            mem,
		FS:             vfs.NewCard(model, mem),
		model:          model,
	}
}

// Host is the host side of a Xeon Phi server.
type Host struct {
	// Node is always simnet.HostNode.
	Node simnet.NodeID
	// Mem is the host memory budget (the testbed has 32 GiB).
	Mem *MemBudget
	// FS is the host file system where snapshots are stored.
	FS *vfs.FS

	model *simclock.Model
}

// NewHost returns the host with the given memory (0 means 32 GiB).
func NewHost(model *simclock.Model, memBytes int64) *Host {
	if memBytes == 0 {
		memBytes = 32 * simclock.GiB
	}
	return &Host{
		Node:  simnet.HostNode,
		Mem:   NewMemBudget(memBytes),
		FS:    vfs.NewHost(model),
		model: model,
	}
}

// Server is a complete Xeon Phi server: a host, one or more cards, and the
// PCIe fabric connecting them.
type Server struct {
	Fabric  *simnet.Fabric
	Host    *Host
	Devices []*Device
}

// ServerConfig parameterizes a server.
type ServerConfig struct {
	Devices   int // number of cards; 0 means 1
	Device    DeviceConfig
	HostMem   int64
	CostModel *simclock.Model // nil means simclock.Default()
}

// NewServer assembles a server.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Devices == 0 {
		cfg.Devices = 1
	}
	model := cfg.CostModel
	if model == nil {
		model = simclock.Default()
	}
	s := &Server{
		Fabric: simnet.NewFabric(model, cfg.Devices),
		Host:   NewHost(model, cfg.HostMem),
	}
	for i := 0; i < cfg.Devices; i++ {
		s.Devices = append(s.Devices, NewDevice(model, simnet.NodeID(i+1), cfg.Device))
	}
	return s
}

// Device returns the card at the given SCIF node.
func (s *Server) Device(node simnet.NodeID) *Device {
	for _, d := range s.Devices {
		if d.Node == node {
			return d
		}
	}
	panic(fmt.Sprintf("phi: no device at node %d", node)) //nolint:paniclib // caller bug: device lookups use node ids minted by this server
}

// Model returns the server's cost model.
func (s *Server) Model() *simclock.Model { return s.Fabric.Model() }
