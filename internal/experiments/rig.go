package experiments

import (
	"fmt"

	"snapify/internal/coi"
	"snapify/internal/core"
	"snapify/internal/faultinject"
	"snapify/internal/phi"
	"snapify/internal/platform"
	"snapify/internal/simclock"
	"snapify/internal/snapstore"
	"snapify/internal/workloads"
)

// The rig is the one procedure every offload experiment applies: boot a
// server, launch an application image on card 1, warm it with a few
// offload calls, then drive snapshot cycles against it. Rows are
// comparable because they all come out of this procedure.

// paperServer is the paper's testbed (Table 2): two 8 GiB cards.
func paperServer() platform.Config {
	return platform.Config{Server: phi.ServerConfig{
		Devices: 2, Device: phi.DeviceConfig{MemBytes: 8 * simclock.GiB},
	}}
}

// serverFor is the extension benchmarks' testbed: cards with room for an
// imageBytes device heap beside the runtime's own footprint.
func serverFor(devices int, imageBytes int64) platform.Config {
	return platform.Config{Server: phi.ServerConfig{
		Devices: devices, Device: phi.DeviceConfig{MemBytes: imageBytes + 2*simclock.GiB},
	}}
}

// imageSpec is the extension benchmarks' application: a small host side
// and local store around an imageBytes device heap, two steps per call.
func imageSpec(code, name string, imageBytes int64, calls int) workloads.Spec {
	return workloads.Spec{
		Code: code, Name: name,
		HostMem:      16 * simclock.MiB,
		DeviceMem:    imageBytes,
		LocalStore:   4 * simclock.MiB,
		Calls:        calls,
		StepsPerCall: 2,
	}
}

// rig is a running server with one application launched on card 1.
type rig struct {
	plat *platform.Platform
	in   *workloads.Instance
}

// newRig boots cfg, launches spec on card 1 and runs warm offload calls.
func newRig(cfg platform.Config, spec workloads.Spec, warm int) (*rig, error) {
	plat, err := coi.Boot(cfg)
	if err != nil {
		return nil, err
	}
	in, err := workloads.Launch(plat, spec, 1)
	if err != nil {
		coi.Shutdown(plat)
		return nil, err
	}
	r := &rig{plat: plat, in: in}
	if _, err := in.RunCalls(warm); err != nil {
		r.stop()
		return nil, err
	}
	return r, nil
}

// stop ends the application and shuts the server down.
func (r *rig) stop() {
	r.in.Close()
	coi.Shutdown(r.plat)
}

// cycle runs one pause → capture(opts) → wait → resume round against the
// rig's process and returns the snapshot's report. inj, when non-nil, is
// armed on the fabric across the capture and its wait only: the pause and
// resume control exchanges fail cleanly rather than retry (DESIGN.md §10),
// so a fault there would abort a run instead of degrading its data path.
func (r *rig) cycle(path string, opts core.CaptureOptions, inj *faultinject.Injector) (*core.Report, error) {
	s := core.NewSnapshot(path, r.in.CP)
	if err := s.Pause(); err != nil {
		return nil, fmt.Errorf("pause: %w", err)
	}
	r.plat.Server.Fabric.SetInjector(inj)
	err := s.Capture(opts)
	if err == nil {
		err = s.Wait()
	}
	r.plat.Server.Fabric.SetInjector(nil)
	if err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	if err := s.Resume(); err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	return &s.Report, nil
}

// drainStore releases every manifest in the store and collects: the chunk
// count left is zero, or a refcount leaked.
func drainStore(st *snapstore.Store) (chunks int, err error) {
	for _, p := range st.List() {
		if _, err := st.Release(p); err != nil {
			return 0, fmt.Errorf("releasing %s: %w", p, err)
		}
	}
	if _, _, err := st.GC(0); err != nil {
		return 0, fmt.Errorf("gc: %w", err)
	}
	return st.Stats().Chunks, nil
}

// referenceChecksum runs spec undisturbed to completion on a fresh server
// and returns its final device-side checksum: what a migrated or recovered
// run of the same spec must also finish with.
func referenceChecksum(cfg platform.Config, spec workloads.Spec) (uint64, error) {
	r, err := newRig(cfg, spec, 0)
	if err != nil {
		return 0, err
	}
	defer r.stop()
	return r.in.Run()
}
