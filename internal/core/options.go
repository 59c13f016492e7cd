package core

import (
	"errors"
	"fmt"

	"snapify/internal/coi"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
)

// This file validates every public option struct in one place: each entry
// point calls the relevant validate() before touching the platform, so a
// misconfigured option fails fast with an actionable message instead of a
// transport error deep in the data path.

// errStoreNotFull rejects a base or delta capture into the store: the
// store holds whole images (an unchanged chunk is already free to
// re-capture there), and a delta chain lives on plain files.
var errStoreNotFull = errors.New("core: CaptureOptions.Store.Enabled is set on a base or delta capture; the store holds whole images, so capture a delta chain over plain files")

// validate checks a CaptureOptions for internal consistency and for the
// capture mode (coi.CaptureFull, CaptureBase or CaptureDelta) it is used
// with.
func (o *CaptureOptions) validate(mode uint8) error {
	if o.Streams < 0 {
		return fmt.Errorf("core: CaptureOptions.Streams is %d; want 0 (serial) or a positive stream count", o.Streams)
	}
	if o.ChunkBytes < 0 {
		return fmt.Errorf("core: CaptureOptions.ChunkBytes is %d; want 0 (default) or a positive chunk size", o.ChunkBytes)
	}
	if o.Retry.MaxAttempts < 0 {
		return fmt.Errorf("core: CaptureOptions.Retry.MaxAttempts is %d; want 0 (no retry) or a positive attempt bound", o.Retry.MaxAttempts)
	}
	if o.Store.Enabled && mode != coi.CaptureFull {
		return errStoreNotFull
	}
	if o.Store.Replicas < 0 {
		return fmt.Errorf("core: CaptureOptions.Store.Replicas is %d; want 0 (no replication) or a positive copy count", o.Store.Replicas)
	}
	if o.Store.Replicas > 0 && !o.Store.Enabled {
		return errors.New("core: CaptureOptions.Store.Replicas is set but Store.Enabled is false; replication rides the store federation")
	}
	return nil
}

// validate checks a RestoreOptions for internal consistency.
func (o *RestoreOptions) validate() error {
	if o.Streams < 0 {
		return fmt.Errorf("core: RestoreOptions.Streams is %d; want 0 (serial) or a positive stream count", o.Streams)
	}
	if o.Retry.MaxAttempts < 0 {
		return fmt.Errorf("core: RestoreOptions.Retry.MaxAttempts is %d; want 0 (no retry) or a positive attempt bound", o.Retry.MaxAttempts)
	}
	if o.Store.Replicas != 0 {
		return errors.New("core: RestoreOptions.Store.Replicas has no meaning on restore; leave it zero")
	}
	return nil
}

// PrecopyOptions configures the iterative pre-copy phase of a live
// migration: rounds of digest-and-ship run while the offload process keeps
// executing, and the process is paused only for the final small delta.
// The zero value disables pre-copy (stop-the-world migration).
type PrecopyOptions struct {
	// MaxRounds bounds the number of pre-copy rounds; a workload that
	// dirties memory faster than the link ships it would otherwise iterate
	// forever. Zero disables pre-copy entirely.
	MaxRounds int
	// DowntimeBudget, when positive, derives a stopping floor from the
	// observed shipping bandwidth: rounds stop as soon as the projected
	// time to ship the remaining dirty set fits the budget. Zero means
	// rounds stop only on MaxRounds or lack of progress.
	DowntimeBudget simclock.Duration
}

// Enabled reports whether pre-copy is on.
func (o *PrecopyOptions) Enabled() bool { return o.MaxRounds > 0 }

// validate checks a PrecopyOptions for internal consistency.
func (o *PrecopyOptions) validate() error {
	if o.MaxRounds < 0 {
		return fmt.Errorf("core: PrecopyOptions.MaxRounds is %d; want 0 (stop-the-world) or a positive round bound", o.MaxRounds)
	}
	if o.DowntimeBudget < 0 {
		return errors.New("core: PrecopyOptions.DowntimeBudget is negative; want a non-negative virtual duration")
	}
	if o.MaxRounds == 0 && o.DowntimeBudget > 0 {
		return errors.New("core: PrecopyOptions.DowntimeBudget is set but MaxRounds is 0; set MaxRounds > 0 to enable pre-copy")
	}
	return nil
}

// MigrateOptions configures a migration (Migrate, NewMigration): the
// destination, the snapshot directory, and the capture/restore/pre-copy
// behavior. A zero Precopy gives the paper's stop-the-world migration.
type MigrateOptions struct {
	// DeviceTo is the destination coprocessor.
	DeviceTo simnet.NodeID
	// Path is the snapshot directory on the host file system.
	Path string
	// Precopy turns the migration into a live one: iterative rounds ship
	// the image while the process runs, and only the final delta is
	// captured under pause. Pre-copy requires the dedup store data path;
	// enabling it forces Capture.Store.Enabled and Restore.Store.Enabled.
	Precopy PrecopyOptions
	// Capture configures the final (paused) capture, and with pre-copy on
	// also the rounds: they ship over Capture.Streams streams (at least
	// one) in Capture.ChunkBytes chunks.
	Capture CaptureOptions
	// Restore configures the restore on the destination card.
	Restore RestoreOptions
}

// validate checks a MigrateOptions against the handle being migrated.
func (o *MigrateOptions) validate(cp *coi.Process) error {
	if o.Path == "" {
		return errors.New("core: MigrateOptions.Path is empty; set the snapshot directory")
	}
	if o.DeviceTo == cp.DeviceNode() {
		return fmt.Errorf("core: migration target %v is the current device", o.DeviceTo)
	}
	if o.DeviceTo == simnet.HostNode {
		return errors.New("core: MigrateOptions.DeviceTo is the host; migration targets a coprocessor")
	}
	if err := o.Precopy.validate(); err != nil {
		return err
	}
	if err := o.Capture.validate(coi.CaptureFull); err != nil {
		return err
	}
	if err := o.Restore.validate(); err != nil {
		return err
	}
	if o.Precopy.Enabled() && cp.Platform().Store == nil {
		return errors.New("core: pre-copy migration needs a snapshot store; build the platform with one")
	}
	return nil
}

// normalized returns a copy of o with the store data path forced on when
// pre-copy is: the rounds live in the store's have/need negotiation.
func (o MigrateOptions) normalized() MigrateOptions {
	if o.Precopy.Enabled() {
		o.Capture.Store.Enabled = true
		o.Restore.Store.Enabled = true
	}
	return o
}
