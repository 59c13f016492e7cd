package coi

import (
	"fmt"
	"sync"

	"snapify/internal/platform"
	"snapify/internal/simnet"
)

// The daemon registry maps a platform to its per-card COI daemons, the way
// a real server has one coi_daemon per installed coprocessor.
var (
	daemonsMu sync.Mutex
	daemons   = make(map[*platform.Platform]map[simnet.NodeID]*Daemon)
)

// Boot assembles a platform and starts a COI daemon on every card: the one
// way to a running server. snapify.NewServer, platformtest.Start,
// mpi.NewCluster and the experiments' rig all boot here. It lives in coi
// because platform cannot import the layer that runs on it. On failure
// everything already started is stopped before the error is returned.
func Boot(cfg platform.Config) (*platform.Platform, error) {
	plat, err := platform.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := StartDaemons(plat); err != nil {
		Shutdown(plat)
		return nil, fmt.Errorf("starting COI daemons: %w", err)
	}
	return plat, nil
}

// Shutdown stops a booted server: its COI daemons, then its Snapify-IO
// service. Idempotent.
func Shutdown(plat *platform.Platform) {
	StopDaemons(plat)
	plat.IO.Stop()
}

// StartDaemons launches a COI daemon on every card of the platform.
func StartDaemons(plat *platform.Platform) error {
	daemonsMu.Lock()
	defer daemonsMu.Unlock()
	if _, dup := daemons[plat]; dup {
		return fmt.Errorf("coi: daemons already started for this platform")
	}
	m := make(map[simnet.NodeID]*Daemon)
	for _, dev := range plat.Server.Devices {
		d, err := StartDaemon(plat, dev)
		if err != nil {
			for _, started := range m {
				started.Stop()
			}
			return err
		}
		m[dev.Node] = d
	}
	daemons[plat] = m
	return nil
}

// DaemonAt returns the daemon on node, or nil.
func DaemonAt(plat *platform.Platform, node simnet.NodeID) *Daemon {
	daemonsMu.Lock()
	defer daemonsMu.Unlock()
	return daemons[plat][node]
}

// StopDaemons stops every daemon of the platform and forgets them.
func StopDaemons(plat *platform.Platform) {
	daemonsMu.Lock()
	m := daemons[plat]
	delete(daemons, plat)
	daemonsMu.Unlock()
	for _, d := range m {
		d.Stop()
	}
}
