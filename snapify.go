// Package snapify is the public API of the Snapify reproduction: a set of
// extensions to a (simulated) Intel Xeon Phi software stack that captures
// consistent process-level snapshots of offload applications, and builds
// three capabilities on them — application-transparent checkpoint and
// restart, process swapping, and process migration (Rezaei et al.,
// "Snapify: Capturing Snapshots of Offload Applications on Xeon Phi
// Manycore Processors", HPDC 2014).
//
// # Programming model
//
// A Server is one simulated Xeon Phi machine: a host plus one or more
// coprocessor cards connected by PCIe, with the full MPSS-equivalent stack
// running (SCIF, the COI library and daemons, Snapify-IO daemons, and a
// BLCR-equivalent checkpointer). Offload applications follow the paper's
// model: the host process creates an offload process from a registered
// device Binary, moves data through COI buffers, and invokes offload
// functions through a pipeline:
//
//	srv, err := snapify.NewServer(snapify.ServerOptions{Devices: 2})
//	if err != nil { ... }
//	defer srv.Stop()
//
//	bin := snapify.NewBinary("myapp")
//	bin.Register("kernel", func(ctx *snapify.RunContext, args []byte) ([]byte, error) { ... })
//	snapify.RegisterBinary(bin)
//
//	app, _ := srv.Launch("myapp", 1)     // offload process on card 1
//	buf, _ := app.Proc.CreateBuffer(64 << 20)
//	pl, _ := app.Proc.CreatePipeline()
//	out, _ := pl.RunFunction("kernel", args)
//
// # Snapshots
//
// The five primitives of the paper's Table 1 operate on a Snapshot
// descriptor: Pause drains every SCIF channel between the host process,
// the COI daemon, and the offload process; Capture writes the offload
// process's image to the host through Snapify-IO (non-blocking — Wait
// joins it); Resume reopens normal operation; Restore rebuilds the process
// from its snapshot on any card. Swapout, Swapin, and Migrate compose them
// exactly as Section 5 does, and App/RestartApp wire a whole application
// (host and offload process) into BLCR-callback-driven checkpoint and
// restart.
package snapify

import (
	"fmt"
	"sync"

	"snapify/internal/coi"
	"snapify/internal/core"
	"snapify/internal/phi"
	"snapify/internal/platform"
	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
)

// Re-exported core types. The underlying implementations live in internal
// packages; these names are the supported surface.
type (
	// Binary is a device-side offload binary: a registry of offload
	// functions plus the regions it sets up at load time.
	Binary = coi.Binary
	// RunContext is what an executing offload function sees.
	RunContext = coi.RunContext
	// Process is the host-side handle to an offload process (COIProcess*).
	Process = coi.Process
	// Buffer is a COI buffer handle.
	Buffer = coi.Buffer
	// Pipeline executes offload functions (COIPipeline).
	Pipeline = coi.Pipeline
	// Snapshot mirrors snapify_t: path, process handle, semaphore.
	Snapshot = core.Snapshot
	// CaptureOptions configures a capture: termination and the parallel
	// multi-stream data path.
	CaptureOptions = core.CaptureOptions
	// RestoreOptions configures a restore's parallel data path.
	RestoreOptions = core.RestoreOptions
	// MigrateOptions configures a migration: destination, snapshot
	// directory, pre-copy, and the capture/restore behavior. Pre-copy
	// rounds ship with the capture's streams and chunk size.
	MigrateOptions = core.MigrateOptions
	// PrecopyOptions configures live migration's iterative pre-copy
	// phase: the round cap and the downtime budget that ends the rounds.
	PrecopyOptions = core.PrecopyOptions
	// Migration is a live-migration session (NewMigration, Round, Finish).
	Migration = core.Migration
	// PrecopyRound is one pre-copy round's outcome in Report.Precopy.
	PrecopyRound = core.PrecopyRound
	// Report is the per-phase timing breakdown of a snapshot lifecycle.
	Report = core.Report
	// CheckpointReport times one full-application checkpoint.
	CheckpointReport = core.CheckpointReport
	// RestartReport times one full-application restart.
	RestartReport = core.RestartReport
	// CommandServer handles the snapify command-line utility's requests.
	CommandServer = core.CommandServer
	// NodeID identifies a SCIF node: 0 is the host, 1..N are the cards.
	NodeID = simnet.NodeID
	// Duration is virtual time (see the cost model in DESIGN.md).
	Duration = simclock.Duration
	// HostProcess is a simulated host process.
	HostProcess = proc.Process
)

// NewBinary returns an empty device binary.
func NewBinary(name string) *Binary { return coi.NewBinary(name) }

// RegisterBinary publishes a binary so COI daemons can launch it by name.
func RegisterBinary(b *Binary) { coi.RegisterBinary(b) }

// ServerOptions parameterizes a simulated Xeon Phi server.
type ServerOptions struct {
	// Devices is the number of coprocessor cards (default 1).
	Devices int
	// DeviceMemBytes is each card's physical memory (default 8 GiB, the
	// paper's configuration).
	DeviceMemBytes int64
	// NoSnapifyHooks builds the COI runtime without the pause-protocol
	// instrumentation (the Fig 9 baseline). Snapshots are unavailable.
	NoSnapifyHooks bool
}

// Server is one simulated Xeon Phi machine with the full software stack
// running.
type Server struct {
	// Platform exposes the assembled substrate for advanced use (the
	// benchmark harness reads file systems and fabric counters from it).
	Platform *platform.Platform

	stop sync.Once
}

// NewServer boots a server: host, cards, SCIF, Snapify-IO daemons, and one
// COI daemon per card. On failure every daemon already started is stopped
// before the error is returned.
func NewServer(opts ServerOptions) (*Server, error) {
	plat, err := coi.Boot(platform.Config{
		Server: phi.ServerConfig{
			Devices: opts.Devices,
			Device:  phi.DeviceConfig{MemBytes: opts.DeviceMemBytes},
		},
		NoSnapify: opts.NoSnapifyHooks,
	})
	if err != nil {
		return nil, fmt.Errorf("snapify: %w", err)
	}
	return &Server{Platform: plat}, nil
}

// Stop shuts the server down. It is idempotent: extra calls are no-ops, so
// a deferred Stop composes with explicit shutdown paths.
func (s *Server) Stop() {
	s.stop.Do(func() { coi.Shutdown(s.Platform) })
}

// Application is a launched offload application: its host process, the
// offload process handle, and the virtual timeline its operations charge.
type Application struct {
	Host     *HostProcess
	Proc     *Process
	Timeline *simclock.Timeline
	server   *Server
}

// Launch starts an offload application: a host process plus an offload
// process running the named registered binary on the given card.
func (s *Server) Launch(binaryName string, device NodeID) (*Application, error) {
	host := s.Platform.Procs.Spawn("host_"+binaryName, simnet.HostNode, s.Platform.Host().Mem)
	tl := simclock.NewTimeline()
	cp, err := coi.CreateProcess(s.Platform, host, tl, device, binaryName)
	if err != nil {
		host.Terminate()
		return nil, err
	}
	return &Application{Host: host, Proc: cp, Timeline: tl, server: s}, nil
}

// Close terminates the application (the COI daemon reaps the offload
// process).
func (a *Application) Close() { a.Host.Terminate() }

// --- Table 1: the five Snapify primitives ---

// NewSnapshot returns a snapshot descriptor (snapify_t) for the directory
// and process handle.
func NewSnapshot(path string, p *Process) *Snapshot { return core.NewSnapshot(path, p) }

// Pause stops and drains all communication with the offload process
// (snapify_pause).
func Pause(s *Snapshot) error { return core.Pause(s) }

// Capture snapshots the paused offload process to the host, non-blocking
// (snapify_capture). Options select termination (the swap-out path) and
// the parallel multi-stream data path.
func Capture(s *Snapshot, opts CaptureOptions) error { return s.Capture(opts) }

// Wait joins a pending Capture (snapify_wait).
func Wait(s *Snapshot) error { return core.Wait(s) }

// Resume reopens normal operation after a snapshot (snapify_resume).
func Resume(s *Snapshot) error { return core.Resume(s) }

// Restore rebuilds the offload process from its snapshot on the given card
// (snapify_restore); call Resume afterwards.
func Restore(s *Snapshot, device NodeID, opts RestoreOptions) (*Process, error) {
	return s.Restore(device, opts)
}

// --- incremental snapshots (extension beyond the paper) ---

// CaptureBase is Capture plus a clean mark on every region: the snapshot
// anchors a chain of CaptureDelta captures.
func CaptureBase(s *Snapshot, opts CaptureOptions) error { return s.CaptureBase(opts) }

// CaptureDelta captures only what the offload process wrote since the last
// CaptureBase or CaptureDelta; restore the chain with RestoreChain.
func CaptureDelta(s *Snapshot, opts CaptureOptions) error { return s.CaptureDelta(opts) }

// RestoreChain restores from a base snapshot plus an ordered chain of
// delta snapshots; s is the latest capture's snapshot (its directory holds
// the freshest local store).
func RestoreChain(s *Snapshot, baseDir string, deltaDirs []string, device NodeID, opts RestoreOptions) (*Process, error) {
	return s.RestoreChain(baseDir, deltaDirs, device, opts)
}

// --- Section 5: the three capabilities ---

// Swapout captures and terminates the offload process (snapify_swapout).
// The zero opts is the paper's serial data path.
func Swapout(path string, p *Process, opts CaptureOptions) (*Snapshot, error) {
	return core.Swapout(path, p, opts)
}

// Swapin restores and resumes a swapped-out process (snapify_swapin).
func Swapin(s *Snapshot, device NodeID, opts RestoreOptions) (*Process, error) {
	return core.Swapin(s, device, opts)
}

// Migrate moves the offload process to another card (snapify_migration),
// streaming its local store device-to-device. With opts.Precopy enabled
// it is a live migration: pre-copy rounds ship the image while the
// process runs and only the final delta is captured under pause; the
// restored image is byte-identical either way.
func Migrate(p *Process, opts MigrateOptions) (*Process, *Snapshot, error) {
	return core.Migrate(p, opts)
}

// NewMigration opens a live-migration session whose pre-copy rounds the
// caller drives explicitly (Round, Finish, Abort) — for interleaving
// rounds with application work.
func NewMigration(p *Process, opts MigrateOptions) (*Migration, error) {
	return core.NewMigration(p, opts)
}

// --- full-application checkpoint and restart (Fig 5) ---

// App wires an application into BLCR-callback-driven checkpoint/restart.
type App = core.App

// NewApp registers the Snapify checkpoint callback for the application.
func (a *Application) NewApp() *App { return core.NewApp(a.server.Platform, a.Proc) }

// RestartApp restores a whole application from a snapshot directory.
func (s *Server) RestartApp(dir string) (*App, *HostProcess, *RestartReport, error) {
	return core.RestartApp(s.Platform, dir)
}

// InstallCommandServer installs the snapify utility's signal handler in
// the application's host process (Section 5, command-line tools).
func (a *Application) InstallCommandServer() *CommandServer {
	return core.InstallCommandServer(a.server.Platform, a.Proc)
}
