// Package core implements Snapify's host-facing API (Table 1 of the
// paper): snapify_pause, snapify_capture, snapify_wait, snapify_resume,
// and snapify_restore, plus the three capabilities built on them in
// Section 5 — checkpoint-and-restart, process swapping, and process
// migration.
//
// The package orchestrates the pieces the lower layers provide: the COI
// daemon coordinates the protocol on each card, the instrumented COI
// library drains the four SCIF channel classes, the BLCR-equivalent
// checkpointer serializes processes, and Snapify-IO streams everything
// between card and host file system. Every operation returns a Report with
// the per-phase virtual durations the benchmark harness turns into the
// paper's figures; the same quantities are emitted as spans on the
// platform's virtual-clock tracer, so Report and trace always agree.
package core

import (
	"errors"
	"fmt"
	"sync"

	"snapify/internal/blcr"
	"snapify/internal/coi"
	"snapify/internal/obs"
	"snapify/internal/platform"
	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/wire"
)

// HandleStateRegion is the host-process region where pause serializes the
// COI handle metadata, making it part of the host snapshot.
const HandleStateRegion = "snapify_handle_state"

// handleStateSize bounds the serialized handle metadata.
const handleStateSize = 64 * 1024

// hostProcessTrack is the trace process name for host-side lanes; each
// host application gets its own thread row under it.
const hostProcessTrack = "host"

// Snapshot mirrors snapify_t: the snapshot directory, the process handle,
// and the semaphore Capture posts (m_sem).
type Snapshot struct {
	// Path is the snapshot directory on the host file system
	// (m_snapshot_path).
	Path string
	// Proc is the offload process handle (m_process).
	Proc *coi.Process

	// localStoreTarget is the node the pause phase streams the local store
	// to. The host for checkpoint and swap; a migration (MigrateOptions)
	// sets the destination card so the local store moves device-to-device
	// (Section 7, "Process migration").
	localStoreTarget simnet.NodeID
	// liveSwitchOver marks the pause of a live migration's switch-over:
	// its drain streams the local store double-buffered, for the
	// destination's adopted restore to take in place (DESIGN.md §13).
	liveSwitchOver bool
	// presaved marks a live switch-over whose session pre-saved the local
	// store and the runtime libraries to the destination card and has not
	// dropped them since: its drain re-sends only a buffer written after
	// the pre-save, its pause does not copy the libraries, and a restore
	// onto localStoreTarget does not copy them to the card.
	presaved bool

	sem chan struct{} // m_sem

	mu         sync.Mutex
	paused     bool
	captureErr error

	// Report accumulates the phase timings.
	Report Report
}

// Report carries the virtual-time breakdown of one snapshot lifecycle —
// the quantities behind Fig 10's stacked bars. Each field equals the
// duration of the correspondingly named span on the platform tracer.
type Report struct {
	// Pause phases.
	PauseHandshake  simclock.Duration // steps 1-3 of Fig 3
	HostDrain       simclock.Duration // shutdown markers, lock acquisition
	DeviceDrain     simclock.Duration // quiesce + local-store save
	LocalStoreBytes int64

	// Capture.
	Capture       simclock.Duration // device snapshot + write via Snapify-IO
	SnapshotBytes int64
	// ShippedBytes is how many bytes the capture physically moved to the
	// host. Equals SnapshotBytes on the plain data path; under
	// CaptureOptions.Store the have/need negotiation skips chunks the
	// store already holds, so ShippedBytes <= SnapshotBytes and the gap
	// is the dedup win.
	ShippedBytes int64
	// CaptureStreams is how many parallel Snapify-IO streams the capture
	// actually used (1 — the paper's serial data path — unless
	// CaptureOptions.Streams asked for more).
	CaptureStreams int
	// CaptureStreamDurations holds each stream's virtual time when the
	// capture was striped; Capture is their max. Nil for a serial capture.
	// Derived from the capture_stream spans the shard workers emit.
	CaptureStreamDurations []simclock.Duration

	// Restore phases.
	RestoreDevice    simclock.Duration // BLCR restart reading via Snapify-IO
	RestoreLocal     simclock.Duration // local-store copy back
	RestoreReconnect simclock.Duration // SCIF reconnect + re-registration
	RemapEntries     int

	// Resume.
	Resume simclock.Duration

	// Live migration. Precopy records each pre-copy round a Migration
	// session ran; Downtime is the stop-everything window of the
	// switch-over (pause through resume) — the quantity live migration
	// exists to shrink. A stop-the-world Migrate fills Downtime too, with
	// an empty Precopy.
	Precopy  []PrecopyRound
	Downtime simclock.Duration
}

// PauseTotal returns the end-to-end pause duration (the "pause" bar of
// Fig 10a).
func (r *Report) PauseTotal() simclock.Duration {
	return r.PauseHandshake + r.HostDrain + r.DeviceDrain
}

// RestoreTotal returns the end-to-end restore duration.
func (r *Report) RestoreTotal() simclock.Duration {
	return r.RestoreDevice + r.RestoreLocal + r.RestoreReconnect
}

// NewSnapshot returns a snapshot descriptor for the given directory and
// process handle.
func NewSnapshot(path string, cp *coi.Process) *Snapshot {
	return &Snapshot{Path: path, Proc: cp, localStoreTarget: simnet.HostNode, sem: make(chan struct{}, 1)}
}

// hostTrack returns the host application's lane in the trace.
func (s *Snapshot) hostTrack() *obs.Track {
	cp := s.Proc
	return cp.Platform().Obs.TracerOf().Track(hostProcessTrack, cp.HostProc().Name())
}

// countOp bumps the per-operation counter on the platform registry.
func (s *Snapshot) countOp(op string) {
	s.Proc.Platform().Obs.MetricsOf().Counter("snapify_operations_total",
		"Snapify API operations started, by operation.", obs.L("op", op)).Inc()
}

// RetryPolicy bounds how a capture or restore recovers from transport
// and daemon faults; see blcr.RetryPolicy. The zero value disables
// recovery: the first fault fails the operation (the paper's behavior).
type RetryPolicy = blcr.RetryPolicy

// StoreOptions routes a capture or restore through the host's
// content-addressed snapshot store (internal/snapstore) instead of plain
// files: the capture negotiates a have/need chunk set and ships only the
// chunks the store lacks, and the restore reads the committed manifest's
// chunks over the store's read streams.
type StoreOptions struct {
	// Enabled turns on the dedup-aware data path. The store holds whole
	// images: only Capture (not CaptureBase or CaptureDelta) may set it.
	Enabled bool
	// Replicas, when above one, asks the fleet layer (fleetd's platform
	// backend) to keep this many total copies of the committed snapshot
	// directory across hosts through the store federation. The capture
	// data path itself stays host-local; replication fans out after the
	// commit. Requires Enabled, and has no meaning on restore.
	Replicas int
}

// CaptureOptions configures a capture (snapify_capture).
type CaptureOptions struct {
	// Terminate makes the offload process exit after the capture (the
	// swap-out path); its exit is announced so the COI daemon does not
	// treat it as a crash.
	Terminate bool
	// Streams is how many parallel Snapify-IO streams the capture stripes
	// the context file across. Zero or one uses the paper's single-stream
	// data path; higher values divide the file into contiguous stripes,
	// one double-buffered stream each, assembled by the host daemon.
	Streams int
	// ChunkBytes is the I/O granularity of the parallel data path and the
	// chunk size of a store capture, at any stream count; zero uses the
	// checkpointer's default (4 MiB). A plain capture over one stream
	// ignores it.
	ChunkBytes int64
	// Retry lets the capture survive transport faults: a striped stream
	// resumes from its acknowledgement watermark, and a one-stream capture,
	// or one a crash-class failure hits, is redone whole, all under
	// bounded virtual backoff. It picks no data path. A capture that still
	// fails leaves no snapshot file behind. The zero value fails on the
	// first fault.
	Retry RetryPolicy
	// Store selects the dedup-aware data path through the host's
	// content-addressed snapshot store.
	Store StoreOptions
}

// RestoreOptions configures a restore (snapify_restore).
type RestoreOptions struct {
	// Streams is how many parallel Snapify-IO range streams the base
	// context is read over, and how many workers reload the local store.
	// Zero or one is the paper's serial restore. Each stream is one
	// pipeline over its shard of the page runs, cut as a capture cuts its
	// stripes and read 4 MiB (blcr.PageChunk) at a time.
	Streams int
	// Retry lets the restore survive transport faults by reopening each
	// read where it left off, the one whole stream included, under bounded
	// virtual backoff. It picks no data path.
	Retry RetryPolicy
	// Store asserts the snapshot lives in the host's content-addressed
	// store: the restore fails fast with a clear error if no committed
	// manifest exists, instead of a read error deep in the data path. It
	// does not pick the data path: a restore observes for itself whether
	// the snapshot is store-resident (no plain context file, a committed
	// manifest) and reads it over the store's read stream if so.
	Store StoreOptions
}

// Pause stops and drains all communication between the host process and
// the offload process (snapify_pause, Section 4.1). On return every SCIF
// channel between the three parties is empty and the offload process's
// local store has been saved. A device drain that fails is undone: both
// sides release their drain locks and the process runs on.
func Pause(s *Snapshot) error { return s.Pause() }

// Pause implements snapify_pause; see the package-level Pause.
func (s *Snapshot) Pause() error {
	cp := s.Proc
	plat := cp.Platform()
	model := plat.Model()

	// Guard the state machine: pausing a handle that is already paused
	// (or gone) would deadlock on the drain locks.
	if st := cp.State(); st != coi.StateActive {
		return fmt.Errorf("core: pause requires an active handle, have %s", st)
	}
	s.countOp("pause")
	start := cp.Timeline().Now()

	// Step one: save the runtime libraries into the snapshot directory —
	// unless the session's pre-save already did.
	var handshake simclock.Duration
	var libBytes int64
	if !s.presaved {
		var err error
		if libBytes, handshake, err = saveRuntimeLibs(plat, s.Path); err != nil {
			return err
		}
	}

	// Steps 1-3 of Fig 3: snapify-service request to the daemon, pipe +
	// signal to the offload process, acknowledgements back.
	if err := cp.DaemonRequest(coi.OpSnapifyPause, &coi.IDReq{ID: cp.ID()}, &coi.Empty{}); err != nil {
		return fmt.Errorf("core: pause handshake: %w", err)
	}
	handshake += 2*model.SCIFMsg(16) + model.SignalLatency + 4*model.PipeLatency

	// Host-side drain: the four channel classes of Section 4.1.
	hostDrain, err := cp.PauseChannels()
	if err != nil {
		return fmt.Errorf("core: host drain: %w", err)
	}

	// Step 4: the device-side drain — quiesce and local-store save. The
	// payload carries the host's virtual clock at which the drain begins,
	// so the card-side tracks land on the shared timeline.
	align := start + handshake + hostDrain
	var drained coi.DrainResp
	err = cp.DaemonRequest(coi.OpSnapifyDrain, &coi.DrainReq{ProcID: cp.ID(),
		DrainArgs: coi.DrainArgs{Align: align, LocalStoreNode: s.localStoreTarget, Dir: s.Path, Live: s.liveSwitchOver, Presaved: s.presaved}}, &drained)
	if err != nil {
		// The agent holds its quiesce locks and the host its drain locks:
		// release both, so a failed pause leaves the process running.
		cp.DaemonRequest(coi.OpSnapifyResume, &coi.IDReq{ID: cp.ID()}, &coi.Empty{}) //nolint:errcheck // best-effort unwind; the drain error is what propagates
		cp.ResumeChannels()
		return fmt.Errorf("core: device drain: %w", err)
	}
	deviceDrain := drained.Duration
	s.Report.LocalStoreBytes = drained.LocalStoreBytes

	// The phase spans are the source of truth; the Report repeats them.
	tk := s.hostTrack()
	tk.AlignTo(start)
	tk.Emit(0, "snapify_pause", start, handshake+hostDrain+deviceDrain,
		map[string]int64{"local_store_bytes": s.Report.LocalStoreBytes})
	s.Report.PauseHandshake = tk.Emit(0, "pause_handshake", start, handshake,
		map[string]int64{"runtime_libs_bytes": libBytes}).Dur
	s.Report.HostDrain = tk.Emit(0, "host_drain", start+handshake, hostDrain, nil).Dur
	s.Report.DeviceDrain = tk.Emit(0, "device_drain", align, deviceDrain,
		map[string]int64{"bytes": s.Report.LocalStoreBytes}).Dur

	// Make the handle metadata part of the host process image, so a
	// restarted host process can reattach (Section 4.3).
	if err := saveHandleState(cp); err != nil {
		return err
	}

	s.mu.Lock()
	s.paused = true
	s.mu.Unlock()
	cp.Timeline().Advance(s.Report.PauseTotal())
	return nil
}

// saveRuntimeLibs copies the runtime libraries the offload process needs
// from the host file system into the snapshot directory dir (footnote 2:
// MPSS keeps host-side copies, so this is a host-local copy). It returns
// the bytes copied, zero when the host keeps none, and the copy's price.
func saveRuntimeLibs(plat *platform.Platform, dir string) (int64, simclock.Duration, error) {
	libs, _, err := plat.Host().FS.ReadFile(platform.RuntimeLibsPath)
	if err != nil {
		return 0, 0, nil
	}
	if _, err := plat.Host().FS.WriteFile(dir+"/runtime_libs", libs); err != nil {
		return 0, 0, fmt.Errorf("core: saving runtime libraries: %w", err)
	}
	return libs.Len(), plat.Model().HostMemcpy(libs.Len()), nil
}

// copyRuntimeLibs prices the copy of the runtime libraries saved in the
// snapshot directory dir over PCIe to the card device. It returns the
// bytes, zero when dir holds none, and the copy's price.
func copyRuntimeLibs(plat *platform.Platform, dir string, device simnet.NodeID) (int64, simclock.Duration) {
	libs, _, err := plat.Host().FS.ReadFile(dir + "/runtime_libs")
	if err != nil {
		return 0, 0
	}
	return libs.Len(), plat.Server.Fabric.RDMACost(simnet.HostNode, device, libs.Len())
}

// saveHandleState serializes the COI handle metadata into a host-process
// region.
func saveHandleState(cp *coi.Process) error {
	host := cp.HostProc()
	r := host.Region(HandleStateRegion)
	if r == nil {
		var err error
		r, err = host.AddRegion(HandleStateRegion, proc.RegionData, handleStateSize, 0)
		if err != nil {
			return fmt.Errorf("core: handle-state region: %w", err)
		}
	}
	enc := cp.ExportMeta().Encode()
	if len(enc)+4 > handleStateSize {
		return fmt.Errorf("core: handle metadata %d bytes exceeds region", len(enc))
	}
	c := wire.Encoder()
	wire.Str32(c, &enc)
	r.WriteAt(c.Bytes(), 0)
	return nil
}

// LoadHandleState reads the COI handle metadata back out of a (restored)
// host process. The length in the region's first 4 bytes is bounded by
// the region before anything is allocated for it.
func LoadHandleState(host *proc.Process) (coi.HandleMeta, error) {
	r := host.Region(HandleStateRegion)
	if r == nil {
		return coi.HandleMeta{}, errors.New("core: host process has no Snapify handle state")
	}
	head := make([]byte, 4)
	r.ReadAt(head, 0)
	var n int
	wire.U32(wire.Decoder(head), &n)
	if int64(n) > r.Size()-4 {
		return coi.HandleMeta{}, fmt.Errorf("core: handle state claims %d bytes, its region holds %d", n, r.Size()-4)
	}
	buf := make([]byte, n)
	r.ReadAt(buf, 4)
	return coi.DecodeHandleMeta(buf)
}

// Capture takes the snapshot of the (paused) offload process and saves it
// on the host file system via Snapify-IO (snapify_capture). It is
// non-blocking: it returns immediately and posts the snapshot's semaphore
// when the capture completes; use Wait. Options select termination (the
// swap-out path) and the parallel multi-stream data path.
func (s *Snapshot) Capture(opts CaptureOptions) error {
	return s.captureMode(opts, coi.CaptureFull)
}

// CaptureBase is Capture plus a clean mark on every region of the offload
// process: the snapshot anchors a chain of CaptureDelta captures (the
// incremental-checkpoint extension; not in the paper).
func (s *Snapshot) CaptureBase(opts CaptureOptions) error {
	return s.captureMode(opts, coi.CaptureBase)
}

// CaptureDelta captures only what the offload process wrote since the last
// CaptureBase or CaptureDelta; restore with RestoreChain.
func (s *Snapshot) CaptureDelta(opts CaptureOptions) error {
	return s.captureMode(opts, coi.CaptureDelta)
}

func (s *Snapshot) captureMode(opts CaptureOptions, mode uint8) error {
	if err := opts.validate(mode); err != nil {
		return err
	}
	s.mu.Lock()
	paused := s.paused
	s.mu.Unlock()
	if !paused {
		return errors.New("core: capture requires a paused snapshot (call Pause first)")
	}
	s.countOp("capture")
	cp := s.Proc
	start := cp.Timeline().Now() // stable until Wait advances it
	go func() {
		var resp coi.CaptureResp
		err := cp.DaemonRequest(coi.OpSnapifyCapture, &coi.CaptureReq{ProcID: cp.ID(), CaptureArgs: coi.CaptureArgs{
			Terminate: opts.Terminate, Mode: mode, Streams: opts.Streams, ChunkBytes: opts.ChunkBytes,
			Align: start, Dir: s.Path, Retry: opts.Retry,
			Store: opts.Store.Enabled,
		}}, &resp)
		s.mu.Lock()
		if err != nil {
			s.captureErr = fmt.Errorf("core: capture: %w", err)
		} else {
			s.Report.SnapshotBytes = resp.SnapshotBytes
			s.Report.ShippedBytes = resp.ShippedBytes
			dur, streams, durs := deriveCapture(cp.Platform().Obs.TracerOf(), resp.Scope, start, resp.Duration)
			s.Report.Capture = s.hostTrack().Emit(resp.Scope, "snapify_capture", start, dur,
				map[string]int64{"bytes": s.Report.SnapshotBytes, "streams": int64(streams),
					"shipped_bytes": s.Report.ShippedBytes}).Dur
			s.Report.CaptureStreams = streams
			s.Report.CaptureStreamDurations = durs
			if opts.Terminate {
				cp.MarkSwapped()
			}
		}
		s.mu.Unlock()
		s.sem <- struct{}{}
	}()
	return nil
}

// deriveCapture computes the Report's capture figures from the spans the
// capture emitted under scope — the single source of truth shared with
// the exported trace. The capture duration is the latest scope span's end
// relative to the capture's start, so preludes the workers sit out (the
// dedup path digests and negotiates before any stream moves) count, and
// the timeline advance in Wait lines up with the device-side
// capture_coordination span. The per-stream figures still come from the
// capture_stream spans alone. When the platform runs without a tracer
// there are no spans; the wire duration is the fallback and the capture
// counts as one serial stream.
func deriveCapture(tr *obs.Tracer, scope uint64, start, fallback simclock.Duration) (simclock.Duration, int, []simclock.Duration) {
	var durs []simclock.Duration
	var end simclock.Duration
	for _, sp := range tr.ScopeSpans(scope) {
		if sp.Name == "capture_stream" {
			durs = append(durs, sp.Dur)
		}
		if sp.End() > end {
			end = sp.End()
		}
	}
	if len(durs) == 0 {
		return fallback, 1, nil
	}
	if len(durs) == 1 {
		return end - start, 1, nil
	}
	return end - start, len(durs), durs
}

// Wait blocks until a pending Capture completes (snapify_wait) and returns
// its error, if any.
func Wait(s *Snapshot) error { return s.Wait() }

// Wait implements snapify_wait; see the package-level Wait.
func (s *Snapshot) Wait() error {
	<-s.sem
	s.mu.Lock()
	err := s.captureErr
	s.captureErr = nil
	s.Proc.Timeline().Advance(s.Report.Capture)
	s.mu.Unlock()
	if err != nil {
		s.failDump("capture", err)
	}
	return err
}

// failDump freezes the platform's flight recorder around a failed
// top-level operation: a zero-duration <op>_failed marker span lands at
// the host track cursor — so the dump provably contains the incident —
// and the recent-span ring plus counter deltas are dumped for the
// post-mortem (written to SNAPIFY_FLIGHT_DIR when set).
func (s *Snapshot) failDump(op string, err error) {
	tk := s.hostTrack()
	tk.Emit(0, op+"_failed", tk.Now(), 0, nil)
	s.Proc.Platform().Obs.FlightOf().Trigger("core: " + op + " failed: " + err.Error())
}

// Resume releases all locks acquired by Pause in both the host process and
// the offload process and reopens normal operation (snapify_resume).
func Resume(s *Snapshot) error { return s.Resume() }

// Resume implements snapify_resume; see the package-level Resume.
func (s *Snapshot) Resume() error {
	cp := s.Proc
	model := cp.Platform().Model()
	s.countOp("resume")
	start := cp.Timeline().Now()
	if err := cp.DaemonRequest(coi.OpSnapifyResume, &coi.IDReq{ID: cp.ID()}, &coi.Empty{}); err != nil {
		return fmt.Errorf("core: resume: %w", err)
	}
	s.mu.Lock()
	locksHeld := s.paused
	s.paused = false
	s.mu.Unlock()
	if locksHeld {
		cp.ResumeChannels()
	} else {
		cp.ActivateRestored()
	}
	resume := 2*model.SCIFMsg(8) + 2*model.PipeLatency
	s.Report.Resume = s.hostTrack().Emit(0, "snapify_resume", start, resume, nil).Dur
	cp.Timeline().Advance(s.Report.Resume)
	return nil
}

// Restore recreates the offload process from the snapshot on the given
// device (snapify_restore, Section 4.3). The handle in s.Proc is rebound
// around the restored process — channels reconnect, pipelines are
// recreated, buffers re-register, and the (old, new) RDMA address remap is
// applied. The restored process stays quiesced until Resume is called.
func (s *Snapshot) Restore(device simnet.NodeID, opts RestoreOptions) (*coi.Process, error) {
	return s.RestoreChain(s.Path, nil, device, opts)
}

// RestoreChain restores from a base snapshot plus an ordered chain of
// delta snapshots (taken with CaptureBase / CaptureDelta). s is the
// snapshot of the *latest* capture — its Path provides the freshest saved
// local store; baseDir provides the full context.
func (s *Snapshot) RestoreChain(baseDir string, deltaDirs []string, device simnet.NodeID, opts RestoreOptions) (*coi.Process, error) {
	cp := s.Proc
	plat := cp.Platform()
	model := plat.Model()

	if err := opts.validate(); err != nil {
		return nil, err
	}
	if st := cp.State(); st != coi.StateSwapped {
		return nil, fmt.Errorf("core: restore requires a swapped-out handle, have %s", st)
	}
	ctx := baseDir + "/" + coi.ContextFileName
	// Where the snapshot lives is observed, not declared. A plain file
	// wins, so only without one is a committed manifest what the restore
	// reads — and only then does the card pull the context over the
	// store's read streams and seed its chunk-digest cache from the
	// manifest's digest list.
	storeResident := plat.Store != nil && !plat.Host().FS.Exists(ctx) && plat.Store.Has(ctx)
	if opts.Store.Enabled {
		// Fail fast with a clear error when the snapshot is supposed to be
		// store-resident but no manifest committed.
		if plat.Store == nil {
			return nil, errors.New("core: restore: platform has no snapshot store")
		}
		if !plat.Store.Has(ctx) {
			return nil, fmt.Errorf("core: restore: no committed store manifest for %s", ctx)
		}
	}
	s.countOp("restore")
	start := cp.Timeline().Now()

	resp, err := coi.DaemonRestoreRequest(plat, device, &coi.RestoreReq{
		Binary: cp.BinaryName(), ContextDir: baseDir,
		LocalStoreNode: s.localStoreTarget, LocalStoreDir: s.Path, DeltaDirs: deltaDirs,
		Streams: opts.Streams, Align: start, Retry: opts.Retry,
		StoreResident: storeResident,
	})
	if err != nil {
		err = fmt.Errorf("core: restore: %w", err)
		s.failDump("restore", err)
		return nil, err
	}
	restoreDevice, restoreLocal := resp.ContextDur, resp.LocalStoreDur

	// The daemon also copies the runtime libraries back on the fly, unless
	// the session's pre-save already put them on this card.
	var libBytes int64
	if !s.presaved || device != s.localStoreTarget {
		var libs simclock.Duration
		libBytes, libs = copyRuntimeLibs(plat, s.Path, device)
		restoreLocal += libs
	}

	remap, err := cp.Rebind(device, resp.ProcID, resp.Ports)
	if err != nil {
		err = fmt.Errorf("core: rebind: %w", err)
		s.failDump("restore", err)
		return nil, err
	}
	s.Report.RemapEntries = len(remap)
	var reconnect simclock.Duration
	reconnect += simclock.Duration(4+len(cp.Pipelines())) * model.SCIFReconnect
	for _, b := range cp.Buffers() {
		reconnect += model.RegisterCost(b.Size())
	}

	tk := s.hostTrack()
	tk.AlignTo(start)
	tk.Emit(0, "snapify_restore", start, restoreDevice+restoreLocal+reconnect, nil)
	s.Report.RestoreDevice = tk.Emit(0, "restore_device", start, restoreDevice, nil).Dur
	s.Report.RestoreLocal = tk.Emit(0, "restore_local", start+restoreDevice, restoreLocal,
		map[string]int64{"runtime_libs_bytes": libBytes}).Dur
	s.Report.RestoreReconnect = tk.Emit(0, "restore_reconnect", start+restoreDevice+restoreLocal, reconnect,
		map[string]int64{"remap_entries": int64(len(remap))}).Dur
	cp.Timeline().Advance(s.Report.RestoreTotal())
	return cp, nil
}
