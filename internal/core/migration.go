package core

import (
	"errors"
	"fmt"

	"snapify/internal/coi"
	"snapify/internal/simclock"
)

// Live migration (the VM-style pre-copy extension of the paper's
// stop-the-world migration, Section 5 / Fig 7): a Migration session runs
// iterative digest-and-ship rounds against the *running* offload process —
// each round cuts the regions' digest epochs, re-reads and re-digests the
// chunks written since the previous cut (the process's chunk-digest cache
// carries the rest forward), and ships only the changed chunks into the
// host store while the destination card stages them — then pauses the
// process only for the final small delta plus the context switch-over.
// The restored image is byte-identical to a stop-the-world migration's:
// what a round ships is what its digest pass read, and every staged chunk
// is digest-verified, so pre-copy only moves *when* bytes travel, never
// *which* bytes arrive.

// PrecopyRound is one pre-copy round's outcome, recorded in
// Report.Precopy.
type PrecopyRound struct {
	// Round numbers from 1.
	Round int
	// Duration is the round's source-side virtual time: the digest pass
	// (a full read of a process nothing has digested yet, otherwise a
	// page-table sweep plus the chunks written since the last pass) plus
	// the have/need negotiation and chunk shipping.
	Duration simclock.Duration
	// StageDuration is the destination card's time pulling the round's
	// chunks from the host store into its staging area.
	StageDuration simclock.Duration
	// LocalStoreDuration is the last round's pre-save: the local store
	// saved to the destination card while the process runs, so the
	// switch-over re-sends only a buffer written since, and the runtime
	// libraries saved into the snapshot directory and copied to the
	// destination card, so the switch-over copies them neither at pause
	// nor at restore (zero on every other round).
	LocalStoreDuration simclock.Duration
	// ImageBytes is the full context image size at this round's cut.
	ImageBytes int64
	// DirtyBytes is how much of the image changed since the previous
	// round, in whole chunks (the whole image on round 1).
	DirtyBytes int64
	// ShippedBytes is how many bytes the round physically moved to the
	// host store; dedup against earlier rounds makes it <= DirtyBytes.
	ShippedBytes int64
	// ChunksTotal and ChunksNeeded are the round's negotiation figures.
	ChunksTotal  int
	ChunksNeeded int
	// Skipped means the dirty set already fit the stopping floor, so the
	// round probed but shipped nothing — the delta waits for the final
	// paused capture.
	Skipped bool
}

// Migration is a live-migration session: Round drives the pre-copy
// iterations, Finish executes the switch-over (pause, final delta
// capture, restore on the destination, resume), and Abort cleans up a
// session abandoned mid-rounds, leaving the source process running and
// unharmed. Migrate composes them for the common case.
type Migration struct {
	s    *Snapshot
	opts MigrateOptions

	scope      uint64
	round      int
	done       bool // rounds are over (floor hit, budget fit, or no progress)
	finished   bool // Finish ran
	terminated bool // Finish's terminating capture ended the source process

	prevDirty   int64
	lastShipped int64
	lastShipDur simclock.Duration
}

// NewMigration validates opts against cp and opens a live-migration
// session. The source process keeps running; nothing moves until the
// first Round (or Finish, for a stop-the-world migration).
func NewMigration(cp *coi.Process, opts MigrateOptions) (*Migration, error) {
	if st := cp.State(); st != coi.StateActive {
		return nil, fmt.Errorf("core: migration requires an active handle, have %s", st)
	}
	if err := opts.validate(cp); err != nil {
		return nil, err
	}
	opts = opts.normalized()
	s := NewSnapshot(opts.Path, cp)
	// The local store moves device-to-device over PCIe, not through the
	// host (Section 7, "Process migration").
	s.localStoreTarget = opts.DeviceTo
	s.liveSwitchOver = opts.Precopy.Enabled()
	return &Migration{
		s:     s,
		opts:  opts,
		scope: cp.Platform().Obs.TracerOf().NewScope(),
	}, nil
}

// Snapshot returns the session's snapshot descriptor (its Report carries
// the per-round figures and the final downtime).
func (m *Migration) Snapshot() *Snapshot { return m.s }

// ctxPath is the context file the rounds negotiate into the store.
func (m *Migration) ctxPath() string { return m.opts.Path + "/" + coi.ContextFileName }

// shipFloor is the current round-stopping floor: the dirty bytes the
// observed shipping bandwidth moves within DowntimeBudget, or zero before
// any round has shipped or with no budget set.
func (m *Migration) shipFloor() int64 {
	if m.opts.Precopy.DowntimeBudget <= 0 || m.lastShipDur <= 0 || m.lastShipped <= 0 {
		return 0
	}
	bw := float64(m.lastShipped) / float64(m.lastShipDur) // bytes per ns
	return int64(bw * float64(m.opts.Precopy.DowntimeBudget))
}

// Round runs one pre-copy iteration: the source daemon digests the
// running process and ships the changed chunks, then the destination
// daemon pulls them into its staging area. done reports that the rounds
// have converged (or stopped making progress) and Finish should run; the
// round that ends them first pre-saves the local store to the
// destination card. A round that fails, its pre-save included, ends
// nothing: Abort, or run another round.
func (m *Migration) Round() (PrecopyRound, bool, error) {
	if m.finished {
		return PrecopyRound{}, true, errors.New("core: migration already finished")
	}
	if m.done {
		return PrecopyRound{}, true, errors.New("core: pre-copy rounds are over; call Finish")
	}
	if !m.opts.Precopy.Enabled() {
		return PrecopyRound{}, true, errors.New("core: pre-copy is disabled (MaxRounds is 0); call Finish for a stop-the-world migration")
	}
	cp := m.s.Proc
	if st := cp.State(); st != coi.StateActive {
		return PrecopyRound{}, true, fmt.Errorf("core: pre-copy round requires an active handle, have %s", st)
	}
	m.round++
	m.s.countOp("precopy_round")
	start := cp.Timeline().Now()
	floor := m.shipFloor()

	var resp coi.PrecopyResp
	err := cp.DaemonRequest(coi.OpSnapifyPrecopy, &coi.PrecopyReq{
		ProcID: cp.ID(), Round: m.round, Align: start, Scope: m.scope,
		ChunkBytes: m.opts.Capture.ChunkBytes, Streams: max(m.opts.Capture.Streams, 1),
		ShipFloor: floor, Dir: m.opts.Path,
	}, &resp)
	if err != nil {
		err = fmt.Errorf("core: pre-copy round %d: %w", m.round, err)
		m.s.failDump("migrate", err)
		return PrecopyRound{}, false, err
	}
	rec := PrecopyRound{
		Round:        m.round,
		Duration:     resp.Duration,
		ImageBytes:   resp.ImageBytes,
		DirtyBytes:   resp.DirtyBytes,
		ShippedBytes: resp.ShippedBytes,
		ChunksTotal:  resp.ChunksTotal,
		ChunksNeeded: resp.ChunksNeeded,
		Skipped:      resp.Skipped,
	}

	if !rec.Skipped {
		// The round's chunks are in the host store; let the destination
		// pull them down while the source keeps running. A skipped round
		// shipped nothing, so there is nothing new to stage.
		staged, err := m.stageRequest(coi.StageSync, start+rec.Duration)
		if err != nil {
			err = fmt.Errorf("core: pre-copy round %d staging: %w", m.round, err)
			m.s.failDump("migrate", err)
			return rec, false, err
		}
		rec.StageDuration = staged.Duration
	}

	// Round-termination rule: stop when the dirty set fits the floor
	// (the device skipped), when the round budget is exhausted, or when
	// the dirty set stopped shrinking (the workload writes faster than
	// the link ships — more rounds only burn bandwidth).
	done := rec.Skipped || m.round >= m.opts.Precopy.MaxRounds ||
		(m.round >= 2 && rec.DirtyBytes >= m.prevDirty)
	var libBytes int64
	if done {
		// The last round pre-saves the local store and the runtime
		// libraries, so the switch-over's pause re-sends only a buffer
		// written since and neither it nor the restore copies the
		// libraries.
		d, n, err := m.presave(start + rec.Duration + rec.StageDuration)
		if err != nil {
			err = fmt.Errorf("core: pre-copy round %d pre-save: %w", m.round, err)
			m.s.failDump("migrate", err)
			return rec, false, err
		}
		rec.LocalStoreDuration, libBytes = d, n
		m.s.presaved = true
	}

	tk := m.s.hostTrack()
	tk.AlignTo(start)
	tk.Emit(m.scope, "precopy_round", start, rec.Duration+rec.StageDuration+rec.LocalStoreDuration, map[string]int64{
		"round":              int64(rec.Round),
		"dirty_bytes":        rec.DirtyBytes,
		"shipped_bytes":      rec.ShippedBytes,
		"runtime_libs_bytes": libBytes,
	})
	ms := cp.Platform().Obs.MetricsOf()
	ms.Counter("snapify_precopy_rounds_total", "Pre-copy rounds run.").Inc()
	ms.Counter("snapify_precopy_shipped_bytes_total", "Bytes shipped by pre-copy rounds.").Add(rec.ShippedBytes)
	ms.Gauge("snapify_precopy_dirty_bytes", "Dirty bytes after the latest pre-copy round.").Set(rec.DirtyBytes)

	m.s.Report.Precopy = append(m.s.Report.Precopy, rec)
	cp.Timeline().Advance(rec.Duration + rec.StageDuration + rec.LocalStoreDuration)

	m.done = done
	m.prevDirty = rec.DirtyBytes
	if rec.ShippedBytes > 0 {
		m.lastShipped = rec.ShippedBytes
		m.lastShipDur = rec.Duration
	}
	return rec, m.done, nil
}

// presave asks the source agent to save the local store to the
// destination card while the process runs, cutting each buffer's digest
// epoch before it reads the buffer, then saves the runtime libraries into
// the snapshot directory and copies them to the destination card
// (DESIGN.md §13, "Pre-save"). It returns the runtime libraries' size and
// the whole price: the agent's save plus the request's messages (the
// daemon request and its reply, the pipe and signal to the agent, its
// answer), then the libraries' two copies.
func (m *Migration) presave(align simclock.Duration) (simclock.Duration, int64, error) {
	cp := m.s.Proc
	plat := cp.Platform()
	model := plat.Model()
	toAgent := model.SCIFMsg(16) + model.SignalLatency + model.PipeLatency
	var saved coi.DrainResp
	err := cp.DaemonRequest(coi.OpSnapifyPresave, &coi.PresaveReq{ProcID: cp.ID(), PresaveArgs: coi.PresaveArgs{
		Align: align + toAgent, Scope: m.scope, LocalStoreNode: m.opts.DeviceTo, Dir: m.opts.Path,
	}}, &saved)
	if err != nil {
		return 0, 0, err
	}
	d := toAgent + saved.Duration + model.PipeLatency + model.SCIFMsg(16)
	n, save, err := saveRuntimeLibs(plat, m.opts.Path)
	if err != nil {
		return 0, 0, err
	}
	_, load := copyRuntimeLibs(plat, m.opts.Path, m.opts.DeviceTo)
	return d + save + load, n, nil
}

// stageRequest sends one stage-control request (StageSync, StageDrop or
// StageDropAll) to the destination card's daemon.
func (m *Migration) stageRequest(mode uint8, align simclock.Duration) (*coi.StageResp, error) {
	return coi.DaemonStageRequest(m.s.Proc.Platform(), m.opts.DeviceTo,
		&coi.StageReq{Mode: mode, Align: align, Scope: m.scope, Path: m.ctxPath()})
}

// Finish executes the switch-over: pause, final capture (only the last
// delta ships when pre-copy ran), restore on the destination (adopting
// the staged chunks), and resume. Report.Downtime records the whole
// stop-everything window. With pre-copy the pause streams the local store
// double-buffered to the destination — after the last round's pre-save,
// only a buffer written since, and not the runtime libraries — and the
// adopted restore takes it in place; a stop-the-world Finish keeps the
// paper's path. On a pause or capture failure the source process is
// resumed — it stays unharmed on its card — and the local store saved on
// the destination is removed with the image the rounds staged. A failure
// after the terminating capture drops only the staged image: the saved
// local store is then the only copy of the process's buffers, and a later
// Snapshot().Restore still needs it. Either way a later restore streams
// and copies the runtime libraries to its card.
func (m *Migration) Finish() (ncp *coi.Process, err error) {
	if m.finished {
		return nil, errors.New("core: migration already finished")
	}
	defer func() {
		if err != nil {
			m.dropStaging()
		}
	}()
	s := m.s
	downStart := s.Proc.Timeline().Now()
	if err := s.Pause(); err != nil {
		return nil, err
	}
	copts := m.opts.Capture
	copts.Terminate = true
	if err := s.Capture(copts); err != nil {
		s.Resume() //nolint:errcheck // best-effort unwind; the capture error is what propagates
		return nil, err
	}
	if err := s.Wait(); err != nil {
		// The capture failed before the terminate took effect: the source
		// process is still on its card, paused. Resume it — a failed
		// migration must leave the source unharmed.
		s.Resume() //nolint:errcheck // best-effort unwind; the capture error is what propagates
		return nil, err
	}
	m.terminated = true
	ncp, err = s.Restore(m.opts.DeviceTo, m.opts.Restore)
	if err != nil {
		return nil, err
	}
	if err := s.Resume(); err != nil {
		return nil, err
	}
	m.finished = true
	m.done = true
	s.Report.Downtime = s.Report.PauseTotal() + s.Report.Capture + s.Report.RestoreTotal() + s.Report.Resume
	tk := s.hostTrack()
	tk.Emit(m.scope, "migration_downtime", downStart, s.Report.Downtime, map[string]int64{
		"rounds": int64(len(s.Report.Precopy)),
	})
	return ncp, nil
}

// Abort abandons a session before its switch-over: the pending store
// upload is dropped (unpinning its digests for GC) and what the session
// parked on the destination card — the staged chunks, the pre-saved local
// store — is discarded. The source process was never paused and keeps
// running.
func (m *Migration) Abort() {
	if m.finished {
		return
	}
	m.done = true
	plat := m.s.Proc.Platform()
	if plat.Store != nil {
		plat.Store.AbortUpload(m.ctxPath())
	}
	m.dropStaging()
}

// dropStaging discards what the session parked on the destination card:
// the chunks the rounds staged and, while the source process still runs,
// the local store saved there (StageDropAll). Once the terminating
// capture has ended the source, the saved local store is the only copy
// of its buffers and stays (StageDrop). Either way no later drain trusts
// a pre-saved file.
func (m *Migration) dropStaging() {
	mode := coi.StageDropAll
	if m.terminated {
		mode = coi.StageDrop
	}
	m.s.presaved = false
	m.stageRequest(mode, m.s.Proc.Timeline().Now()) //nolint:errcheck // best-effort cleanup; the destination daemon may be the very thing that failed
}

// Migrate moves the offload process to another coprocessor on the same
// machine (snapify_migration, Fig 7). With opts.Precopy enabled it is a
// live migration — pre-copy rounds ship the image while the process
// runs, and the process stops only for the final delta; with a zero
// Precopy it is the paper's stop-the-world migration (pause, capture,
// restore, resume). Either way Report.Downtime records how long the
// process was stopped, and the restored image is byte-identical.
func Migrate(cp *coi.Process, opts MigrateOptions) (*coi.Process, *Snapshot, error) {
	m, err := NewMigration(cp, opts)
	if err != nil {
		return nil, nil, err
	}
	if m.opts.Precopy.Enabled() {
		for {
			_, done, err := m.Round()
			if err != nil {
				m.Abort()
				return nil, nil, err
			}
			if done {
				break
			}
		}
	}
	ncp, err := m.Finish()
	if err != nil {
		return nil, nil, err
	}
	return ncp, m.s, nil
}
