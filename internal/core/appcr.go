package core

import (
	"errors"
	"fmt"
	"sync"

	"snapify/internal/blcr"
	"snapify/internal/coi"
	"snapify/internal/platform"
	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/stream"
)

// App wires a whole offload application — host process plus offload
// process — into checkpoint-and-restart, following the paper's Fig 5: a
// Snapify-aware callback registered with the host-side BLCR pauses and
// captures the offload process around the host snapshot, and on restart
// the callback's other branch restores the offload process.
type App struct {
	plat   *platform.Platform
	client *blcr.Client

	mu      sync.Mutex
	cp      *coi.Process
	dir     string
	last    *CheckpointReport
	capture CaptureOptions
	restore RestoreOptions
}

// HostContextFileName is the host process's BLCR context file inside a
// snapshot directory.
const HostContextFileName = "context_host"

// CheckpointReport is the timing of one full-application checkpoint.
type CheckpointReport struct {
	// Offload is the offload-side snapshot breakdown.
	Offload Report
	// HostCapture is the host process's BLCR checkpoint time.
	HostCapture simclock.Duration
	// HostSnapshotBytes is the host context-file size.
	HostSnapshotBytes int64
}

// Total returns the end-to-end checkpoint time: the pause, then the host
// and device captures, which overlap (Fig 10a), then the resume.
func (r *CheckpointReport) Total() simclock.Duration {
	return r.Offload.PauseTotal() +
		simclock.Max(r.HostCapture, r.Offload.Capture) +
		r.Offload.Resume
}

// RestartReport is the timing of one full-application restart.
type RestartReport struct {
	// HostRestore is the host process's BLCR restart time.
	HostRestore simclock.Duration
	// Offload is the offload-side restore breakdown.
	Offload Report
}

// Total returns the end-to-end restart time; the host restores first, then
// the offload process (Fig 10c's stacked phases).
func (r *RestartReport) Total() simclock.Duration {
	return r.HostRestore + r.Offload.RestoreTotal() + r.Offload.Resume
}

// NewApp registers the Snapify checkpoint callback (snapify_blcr_callback
// in Fig 5a) for the application owning cp.
func NewApp(plat *platform.Platform, cp *coi.Process) *App {
	a := &App{
		plat:   plat,
		client: blcr.NewClient(plat.CR, cp.HostProc()),
		cp:     cp,
	}
	a.client.RegisterCallback(a.callback)
	return a
}

// Proc returns the application's current offload handle (it changes across
// restores).
func (a *App) Proc() *coi.Process {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cp
}

// SetOptions configures how the callback captures and restores the
// offload process — store-backed data paths, parallel streams, retry,
// replication targets. The zero values (the default) are the plain
// serial paths.
func (a *App) SetOptions(capture CaptureOptions, restore RestoreOptions) error {
	if err := capture.validate(coi.CaptureFull); err != nil {
		return err
	}
	if err := restore.validate(); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.capture, a.restore = capture, restore
	return nil
}

// callback is Fig 5a: pause + capture the offload process, snapshot the
// host process, then either finish the capture (continue) or restore the
// offload process (restart).
func (a *App) callback(req *blcr.Request) error {
	a.mu.Lock()
	cp, dir := a.cp, a.dir
	captureOpts, restoreOpts := a.capture, a.restore
	a.mu.Unlock()

	var snap *Snapshot
	if !req.Restarting() {
		snap = NewSnapshot(dir, cp)
		if err := snap.Pause(); err != nil {
			return err
		}
		if err := snap.Capture(captureOpts); err != nil {
			return err
		}
	}

	rc, err := req.Checkpoint()
	if err != nil {
		return err
	}
	switch rc {
	case blcr.RcContinue:
		if err := snap.Wait(); err != nil {
			return err
		}
		if err := snap.Resume(); err != nil {
			return err
		}
		a.mu.Lock()
		a.last = &CheckpointReport{
			Offload:           snap.Report,
			HostCapture:       req.Stats().Duration,
			HostSnapshotBytes: req.Stats().Bytes,
		}
		a.mu.Unlock()
		return nil
	case blcr.RcRestart:
		// The restored world: the offload process existed as a snapshot
		// when the host snapshot was taken. Recreate it on the device the
		// handle names (GetDeviceID in Fig 5a) and resume.
		snap = NewSnapshot(dir, cp)
		if _, err := snap.Restore(cp.DeviceNode(), restoreOpts); err != nil {
			return err
		}
		if err := snap.Resume(); err != nil {
			return err
		}
		a.mu.Lock()
		a.last = &CheckpointReport{Offload: snap.Report}
		a.mu.Unlock()
		return nil
	default:
		return fmt.Errorf("core: unexpected cr_checkpoint rc %d", rc)
	}
}

// Checkpoint takes a coordinated snapshot of the whole application into
// dir: the offload process via Snapify, the host process via BLCR, both
// through the registered callback.
func (a *App) Checkpoint(dir string) (*CheckpointReport, error) {
	a.mu.Lock()
	a.dir = dir
	a.mu.Unlock()

	sink, err := stream.NewHostFSSink(a.plat.Host().FS, dir+"/"+HostContextFileName)
	if err != nil {
		return nil, err
	}
	if _, err := a.client.RequestCheckpoint(sink); err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.last == nil {
		return nil, errors.New("core: checkpoint callback produced no report")
	}
	return a.last, nil
}

// RestartApp restores a whole application from a snapshot directory with
// the plain serial restore path; see RestartAppOptions.
func RestartApp(plat *platform.Platform, dir string) (*App, *proc.Process, *RestartReport, error) {
	return RestartAppOptions(plat, dir, RestoreOptions{})
}

// RestartAppOptions restores a whole application from a snapshot
// directory: the host process first (BLCR), then — through the
// callback's restart branch — the offload process, restored with the
// given options (a store-resident snapshot is recognized as one either
// way; Store.Enabled only turns a missing manifest into an early error).
// It returns the new App, the restored host process, and the timing
// report. The restored host process's step gate is released before
// return.
func RestartAppOptions(plat *platform.Platform, dir string, restore RestoreOptions) (*App, *proc.Process, *RestartReport, error) {
	if err := restore.validate(); err != nil {
		return nil, nil, nil, err
	}
	src, err := stream.NewHostFSSource(plat.Host().FS, dir+"/"+HostContextFileName)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: opening host context: %w", err)
	}
	hostProc, hostStats, err := plat.CR.Restart(src, func(img *blcr.Image) (*proc.Process, error) {
		return plat.Procs.Spawn(img.Name, simnet.HostNode, plat.Host().Mem), nil
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: restoring host process: %w", err)
	}

	meta, err := LoadHandleState(hostProc)
	if err != nil {
		hostProc.Terminate()
		return nil, nil, nil, err
	}
	tl := simclock.NewTimeline()
	cp := coi.AttachRestored(plat, hostProc, tl, meta)

	a := &App{plat: plat, client: blcr.NewClient(plat.CR, hostProc), cp: cp, dir: dir, restore: restore}
	a.client.RegisterCallback(a.callback)

	// Execution resumes inside cr_checkpoint: the callback's restart
	// branch restores the offload process.
	if err := a.client.ResumeRestarted(); err != nil {
		hostProc.Terminate()
		return nil, nil, nil, err
	}
	hostProc.ResumeSteps()

	a.mu.Lock()
	report := &RestartReport{HostRestore: hostStats.Duration, Offload: a.last.Offload}
	a.mu.Unlock()
	tl.Advance(hostStats.Duration)
	return a, hostProc, report, nil
}
