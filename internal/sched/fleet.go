package sched

import (
	"fmt"
	"sync"

	"snapify/internal/core"
	"snapify/internal/obs"
	"snapify/internal/platform"
	"snapify/internal/simnet"
	"snapify/internal/snapstore"
	"snapify/internal/workloads"
)

// Fleet federates several single-server schedulers (Section 5 scaled up
// to a cluster): each member is one Xeon Phi server with its own cards,
// host file system, and dedup store. Jobs checkpoint through core.App
// and replicate their snapshot directories across members through the
// store federation, so a whole-host failure is survivable — Recover
// restarts every lost job on a surviving replica holder with
// byte-identical state.
type Fleet struct {
	fed *snapstore.Federation

	// Capture configures every fleet checkpoint. Store.Enabled is
	// effectively mandatory (cross-host shipping negotiates chunks);
	// Store.Replicas sets the copy count ReplicateDir maintains.
	Capture core.CaptureOptions
	// Restore configures every restart, local or cross-host.
	Restore core.RestoreOptions

	mu      sync.Mutex
	members map[string]*Member
	order   []string
	jobs    []*FleetJob
	// byID and byHost index the job list so per-job lookup and
	// whole-host events (kill, evacuation) touch only the jobs involved
	// instead of scanning every job ever submitted.
	byID   map[int]*FleetJob
	byHost map[string]map[int]*FleetJob
	nextID int
}

// Member is one server in the fleet.
type Member struct {
	Name string
	Plat *platform.Platform
}

// FleetJob is one offload application scheduled on the fleet.
type FleetJob struct {
	ID   int
	Spec workloads.Spec
	// Host is the member currently running the job.
	Host string
	// Device is the card node on that member.
	Device simnet.NodeID
	// Dir is the job's snapshot directory, identical on every holder.
	Dir string

	Inst *workloads.Instance
	App  *core.App

	// Lost marks a job whose host died; Recover clears it.
	Lost bool
	// Done marks a finished job.
	Done bool
	// Swaps counts store-backed swap-out events (SwapoutJob).
	Swaps int

	snapshot *core.Snapshot
}

// SwappedOut reports whether the job currently lives as a snapshot on
// its host (SwapoutJob ran and SwapinJob has not yet revived it).
func (j *FleetJob) SwappedOut() bool { return j.snapshot != nil }

// NewFleet builds an empty fleet whose federation publishes metrics to o
// and consults injector (may yield nil) for chaos faults on the
// inter-host links.
func NewFleet(o *obs.Obs, link snapstore.LinkModel, injector snapstore.InjectorFunc) *Fleet {
	return &Fleet{
		fed:     snapstore.NewFederation(o, link, injector),
		members: make(map[string]*Member),
		byID:    make(map[int]*FleetJob),
		byHost:  make(map[string]map[int]*FleetJob),
		nextID:  1,
	}
}

// Federation exposes the underlying store federation (repair loops,
// replica metadata, ship metrics).
func (f *Fleet) Federation() *snapstore.Federation { return f.fed }

// AddHost registers a server under name.
func (f *Fleet) AddHost(name string, plat *platform.Platform) error {
	if err := f.fed.Add(name, plat.Store); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.members[name] = &Member{Name: name, Plat: plat}
	f.order = append(f.order, name)
	return nil
}

// Member returns the named server.
func (f *Fleet) Member(name string) (*Member, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.members[name]
	if !ok {
		return nil, fmt.Errorf("sched: fleet has no member %q", name)
	}
	return m, nil
}

// Jobs returns all fleet jobs in submission order.
func (f *Fleet) Jobs() []*FleetJob {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*FleetJob, len(f.jobs))
	copy(out, f.jobs)
	return out
}

// JobByID returns the fleet job with the given ID, or nil.
func (f *Fleet) JobByID(id int) *FleetJob {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.byID[id]
}

// rehomeLocked moves j's byHost index entry to host.
func (f *Fleet) rehomeLocked(j *FleetJob, host string) {
	if cur, ok := f.byHost[j.Host]; ok {
		delete(cur, j.ID)
	}
	set := f.byHost[host]
	if set == nil {
		set = make(map[int]*FleetJob)
		f.byHost[host] = set
	}
	set[j.ID] = j
	j.Host = host
}

// Submit launches a job on the named host's card and registers the
// Snapify checkpoint callback with the fleet's capture/restore options.
func (f *Fleet) Submit(spec workloads.Spec, host string, device simnet.NodeID) (*FleetJob, error) {
	m, err := f.Member(host)
	if err != nil {
		return nil, err
	}
	if !f.fed.Alive(host) {
		return nil, fmt.Errorf("sched: submitting to dead host %q: %w", host, snapstore.ErrHostDead)
	}
	f.mu.Lock()
	id := f.nextID
	f.nextID++
	f.mu.Unlock()

	inst, err := workloads.Launch(m.Plat, spec, device)
	if err != nil {
		return nil, fmt.Errorf("sched: launching fleet job %d: %w", id, err)
	}
	app := core.NewApp(m.Plat, inst.CP)
	if err := app.SetOptions(f.Capture, f.Restore); err != nil {
		inst.Close()
		return nil, err
	}
	j := &FleetJob{
		ID: id, Spec: spec, Host: host, Device: device,
		Dir:  fmt.Sprintf("/fleet/job%d", id),
		Inst: inst, App: app,
	}
	f.mu.Lock()
	f.jobs = append(f.jobs, j)
	f.byID[id] = j
	f.rehomeLocked(j, host)
	f.mu.Unlock()
	return j, nil
}

// Checkpoint snapshots the whole application into the job's directory
// and, when Capture.Store.Replicas asks for it, replicates the
// directory across the fleet. It returns the holders of the snapshot.
func (f *Fleet) Checkpoint(j *FleetJob) (*core.CheckpointReport, []string, error) {
	rep, err := j.App.Checkpoint(j.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("sched: checkpointing fleet job %d: %w", j.ID, err)
	}
	holders := []string{j.Host}
	if k := f.Capture.Store.Replicas; k > 1 {
		holders, _, err = f.fed.ReplicateDir(j.Host, j.Dir, k)
		if err != nil {
			return rep, holders, fmt.Errorf("sched: replicating fleet job %d: %w", j.ID, err)
		}
	}
	return rep, holders, nil
}

// MigrateJob moves a running job to another host: checkpoint, ship the
// snapshot directory (the federation negotiates chunks against the
// destination store, so repeated migrations of similar images ship
// almost nothing), kill the source instance, restart on dst. The ship
// statistics expose the cross-host dedup.
func (f *Fleet) MigrateJob(j *FleetJob, dst string) (snapstore.ShipStats, error) {
	m, err := f.Member(dst)
	if err != nil {
		return snapstore.ShipStats{}, err
	}
	if j.Lost {
		return snapstore.ShipStats{}, fmt.Errorf("sched: migrating lost job %d; run Recover first", j.ID)
	}
	if !f.fed.Alive(dst) {
		return snapstore.ShipStats{}, fmt.Errorf("sched: migrating job %d to dead host %q: %w", j.ID, dst, snapstore.ErrHostDead)
	}
	if _, _, err := f.Checkpoint(j); err != nil {
		return snapstore.ShipStats{}, err
	}
	stats, _, err := f.fed.ShipDir(j.Host, dst, j.Dir)
	if err != nil {
		return stats, fmt.Errorf("sched: shipping fleet job %d to %q: %w", j.ID, dst, err)
	}
	// The source processes die; the snapshot is the job now.
	j.Inst.Close()
	j.Inst.Host.Terminate()
	if err := f.restartOn(j, m); err != nil {
		return stats, err
	}
	return stats, nil
}

// KillHost marks a member dead — the whole server failed. Every job
// resident on it is lost until Recover restarts it elsewhere. The store
// federation aborts the dead host's uploads and excludes it from
// placement and repair.
func (f *Fleet) KillHost(name string) error {
	if err := f.fed.KillHost(name); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, j := range f.byHost[name] {
		if !j.Done {
			j.Lost = true
		}
	}
	return nil
}

// Recover restarts every lost job from a surviving replica of its last
// checkpoint: the host process via BLCR, the offload process via the
// restore callback, both reading the replicated snapshot directory on
// the new host. Progress rolls back to the checkpoint — exactly the
// paper's fault-tolerance contract. Among the living holders it prefers
// the one *closest* to the job's last host by link cost (holders on the
// dead host's rack restart with the least data motion when the job's
// working files re-ship). It returns the recovered jobs.
func (f *Fleet) Recover() ([]*FleetJob, error) {
	var recovered []*FleetJob
	for _, j := range f.Jobs() {
		if !j.Lost {
			continue
		}
		holder := f.fed.ClosestHolder(j.Dir, j.Host, recoverBytes(j.Spec))
		if holder == "" {
			return recovered, fmt.Errorf("sched: job %d has no living replica of %s", j.ID, j.Dir)
		}
		m, err := f.Member(holder)
		if err != nil {
			return recovered, err
		}
		if err := f.restartOn(j, m); err != nil {
			return recovered, fmt.Errorf("sched: recovering job %d on %q: %w", j.ID, holder, err)
		}
		recovered = append(recovered, j)
	}
	return recovered, nil
}

// RecoverJobOn restarts one lost or swapped-out job from its replicated
// snapshot directory onto the named host — the fleet control plane's
// per-job recovery path, which picks the destination itself (Recover
// picks the closest holder instead). When the destination doesn't hold
// a replica yet, the directory ships there from the closest one first.
func (f *Fleet) RecoverJobOn(j *FleetJob, host string) error {
	m, err := f.Member(host)
	if err != nil {
		return err
	}
	if !f.fed.Alive(host) {
		return fmt.Errorf("sched: recovering job %d on dead host %q: %w", j.ID, host, snapstore.ErrHostDead)
	}
	if j.Done {
		return fmt.Errorf("sched: recovering finished job %d", j.ID)
	}
	if !j.Lost && !j.SwappedOut() {
		return fmt.Errorf("sched: job %d is live on %q; use MigrateJob", j.ID, j.Host)
	}
	holder := f.fed.ClosestHolder(j.Dir, host, recoverBytes(j.Spec))
	if holder == "" {
		return fmt.Errorf("sched: job %d has no living replica of %s", j.ID, j.Dir)
	}
	if holder != host {
		if _, _, err := f.fed.ShipDir(holder, host, j.Dir); err != nil {
			return fmt.Errorf("sched: shipping job %d replica %s -> %s: %w", j.ID, holder, host, err)
		}
	}
	if !j.Lost && j.Inst != nil {
		// A swapped-out job leaving a draining host: its offload process
		// is already gone, the host process dies with the move.
		j.Inst.Close()
		j.Inst.Host.Terminate()
	}
	if err := f.restartOn(j, m); err != nil {
		return fmt.Errorf("sched: recovering job %d on %q: %w", j.ID, host, err)
	}
	return nil
}

// recoverBytes estimates the bytes that move when a job restarts from a
// replica — its snapshot image, dominated by device memory and local
// store. Only the relative order across holders matters to Recover.
func recoverBytes(spec workloads.Spec) int64 {
	return spec.DeviceMem + spec.LocalStore + spec.HostMem
}

// restartOn restores job j from its snapshot directory on the given
// member and rebinds the job's instance and app. The offload process
// lands on the same card node it occupied at checkpoint time (the
// handle records its device, Fig 5a's GetDeviceID).
func (f *Fleet) restartOn(j *FleetJob, m *Member) error {
	app, hostProc, _, err := core.RestartAppOptions(m.Plat, j.Dir, f.Restore)
	if err != nil {
		return err
	}
	inst, err := workloads.Attach(m.Plat, j.Spec, hostProc, app.Proc())
	if err != nil {
		hostProc.Terminate()
		return err
	}
	if err := app.SetOptions(f.Capture, f.Restore); err != nil {
		hostProc.Terminate()
		return err
	}
	f.mu.Lock()
	f.rehomeLocked(j, m.Name)
	j.Device = inst.CP.DeviceNode()
	j.Inst, j.App = inst, app
	j.Lost = false
	j.snapshot = nil
	f.mu.Unlock()
	return nil
}

// SwapoutJob captures the job into its snapshot directory through the
// fleet's store-backed capture options and terminates the offload
// process — the card memory is free until SwapinJob. The control plane
// uses this as the oversubscription eviction path.
func (f *Fleet) SwapoutJob(j *FleetJob) (*core.Snapshot, error) {
	if j.Lost || j.Done {
		return nil, fmt.Errorf("sched: swapping out job %d in state lost=%v done=%v", j.ID, j.Lost, j.Done)
	}
	if j.snapshot != nil {
		return j.snapshot, nil
	}
	snap, err := core.Swapout(j.Dir, j.Inst.CP, f.Capture)
	if err != nil {
		return nil, fmt.Errorf("sched: swapping out fleet job %d: %w", j.ID, err)
	}
	f.mu.Lock()
	j.snapshot = snap
	j.Swaps++
	f.mu.Unlock()
	return snap, nil
}

// SwapinJob revives a swapped-out job on its host, on the given card.
func (f *Fleet) SwapinJob(j *FleetJob, device simnet.NodeID) error {
	f.mu.Lock()
	snap := j.snapshot
	f.mu.Unlock()
	if snap == nil {
		return fmt.Errorf("sched: job %d is not swapped out", j.ID)
	}
	if _, err := core.Swapin(snap, device, f.Restore); err != nil {
		return fmt.Errorf("sched: swapping in fleet job %d: %w", j.ID, err)
	}
	f.mu.Lock()
	j.snapshot = nil
	j.Device = device
	f.mu.Unlock()
	return nil
}

// Run drives every live job to completion in submission order and marks
// it done. Lost jobs are skipped (Recover them first).
func (f *Fleet) Run() error {
	for _, j := range f.Jobs() {
		if j.Done || j.Lost {
			continue
		}
		if _, err := j.Inst.Run(); err != nil {
			return fmt.Errorf("sched: fleet job %d: %w", j.ID, err)
		}
		f.mu.Lock()
		j.Done = true
		f.mu.Unlock()
		j.Inst.Close()
	}
	return nil
}
