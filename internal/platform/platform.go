// Package platform assembles one simulated Xeon Phi server: the host and
// cards with their file systems, the PCIe fabric, the SCIF namespace, the
// Snapify-IO daemons, the process table, and the checkpointer. Every layer
// above (COI, Snapify, MPI, the workloads) runs against a Platform.
package platform

import (
	"fmt"

	"snapify/internal/blcr"
	"snapify/internal/blob"
	"snapify/internal/nfs"
	"snapify/internal/obs"
	"snapify/internal/phi"
	"snapify/internal/proc"
	"snapify/internal/scif"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/snapifyio"
	"snapify/internal/snapstore"
)

// Platform is one assembled Xeon Phi server.
type Platform struct {
	Server *phi.Server
	Net    *scif.Network
	IO     *snapifyio.Service
	Procs  *proc.Table
	CR     *blcr.Checkpointer

	// Store is the host's content-addressed snapshot repository, attached
	// to the host Snapify-IO daemon: dedup-aware captures (core.StoreOptions)
	// negotiate against it, and store-mode read streams serve its committed
	// images. A plain read never reaches it.
	Store *snapstore.Store

	// Obs is the platform-wide observability layer (virtual-clock span
	// tracer + metrics registry). Per-platform, not process-global: tests
	// run many platforms concurrently and their timelines are unrelated.
	Obs *obs.Obs

	// SnapifyEnabled controls whether the COI runtime carries the Snapify
	// pause-protocol instrumentation (the locks and blocking sends of
	// Section 4.1). Fig 9 measures the cost of exactly this flag.
	SnapifyEnabled bool

	mounts map[simnet.NodeID]*nfs.Mount
}

// Config parameterizes a platform.
type Config struct {
	Server phi.ServerConfig
	// NoSnapify builds the COI runtime without Snapify instrumentation
	// (the Fig 9 baseline).
	NoSnapify bool
}

// New assembles a platform and starts a Snapify-IO daemon on every node.
// On failure the daemons already started are stopped before the error is
// returned, so a half-built platform never leaks running goroutines.
func New(cfg Config) (*Platform, error) {
	server := phi.NewServer(cfg.Server)
	o := obs.New()
	server.Fabric.PublishMetrics(o.Metrics)
	net := scif.NewNetwork(server.Fabric)
	io := snapifyio.NewService(net, o)
	// The store consults the fabric's injector lazily: chaos plans are
	// armed after the platform is built.
	store := snapstore.New(server.Model(), server.Host.FS, o, server.Fabric.Injector)
	if _, err := io.StartDaemon(simnet.HostNode, server.Host.FS); err != nil {
		io.Stop()
		return nil, fmt.Errorf("platform: starting host Snapify-IO daemon: %w", err)
	}
	if err := io.AttachStore(simnet.HostNode, store); err != nil {
		io.Stop()
		return nil, fmt.Errorf("platform: attaching snapshot store: %w", err)
	}
	for _, d := range server.Devices {
		if _, err := io.StartDaemon(d.Node, d.FS); err != nil {
			io.Stop()
			return nil, fmt.Errorf("platform: starting Snapify-IO daemon on %v: %w", d.Node, err)
		}
	}
	p := &Platform{
		Server:         server,
		Net:            net,
		IO:             io,
		Procs:          proc.NewTable(),
		CR:             blcr.New(server.Model()),
		Store:          store,
		Obs:            o,
		SnapifyEnabled: !cfg.NoSnapify,
		mounts:         make(map[simnet.NodeID]*nfs.Mount),
	}
	for _, d := range server.Devices {
		p.mounts[d.Node] = nfs.NewMount(server.Fabric, d.Node, server.Host.FS)
	}
	// MPSS keeps the device runtime libraries on the host file system;
	// Snapify's pause copies them into each snapshot directory.
	if _, err := server.Host.FS.WriteFile(RuntimeLibsPath, blob.Synthetic(0xF00D, 24*simclock.MiB)); err != nil {
		io.Stop()
		return nil, fmt.Errorf("platform: seeding runtime libraries: %w", err)
	}
	return p, nil
}

// RuntimeLibsPath is where MPSS keeps the device runtime libraries on the
// host file system.
const RuntimeLibsPath = "/usr/lib64/mic/runtime_libs"

// Model returns the platform's cost model.
func (p *Platform) Model() *simclock.Model { return p.Server.Model() }

// NFS returns the NFS mount of the host file system on the given card.
func (p *Platform) NFS(node simnet.NodeID) *nfs.Mount {
	m, ok := p.mounts[node]
	if !ok {
		panic(fmt.Sprintf("platform: no NFS mount on %v", node)) //nolint:paniclib // caller bug: an NFS mount exists for every device by construction
	}
	return m
}

// Device returns the card at node.
func (p *Platform) Device(node simnet.NodeID) *phi.Device { return p.Server.Device(node) }

// Host returns the host.
func (p *Platform) Host() *phi.Host { return p.Server.Host }
