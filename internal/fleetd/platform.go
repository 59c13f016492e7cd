package fleetd

// PlatformBackend executes control-plane operations on real simulated
// platforms: jobs are live workloads.Instances, swap-outs run the
// store-backed core.Swapout path, migrations ship deduplicated snapshot
// directories across the store federation, and recoveries restart from
// replicated checkpoints. It validates the control plane's decisions
// end to end — at test scale, not bench scale.

import (
	"fmt"
	"slices"

	"snapify/internal/coi"
	"snapify/internal/core"
	"snapify/internal/platform"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/snapstore"
	"snapify/internal/workloads"
)

// PlatformBackend implements Backend over a federation of real
// simulated servers, one platform per host. Where a job is and what
// state it is in live only in the controller's Job; the backend keeps
// the platform handles behind each job and nothing else.
type PlatformBackend struct {
	fed     *snapstore.Federation
	plats   map[string]*platform.Platform
	topo    []HostTopo
	cards   int
	cardMem int64
	model   *simclock.Model
	handles map[int]*handle

	// Capture configures every checkpoint and swap-out. Store.Enabled is
	// effectively mandatory (cross-host shipping negotiates chunks);
	// Store.Replicas sets the copy count each checkpoint replicates to.
	Capture core.CaptureOptions
	// Restore configures every swap-in and restart, local or cross-host.
	Restore core.RestoreOptions
}

// handle is what runs one job: its instance and checkpoint app on the
// platform it last landed on, and its pending swap-out. A nil inst
// means the processes died with their host.
type handle struct {
	inst *workloads.Instance
	app  *core.App
	snap *core.Snapshot
}

// NewPlatformBackend builds a backend over fed with no hosts yet; each
// host AddHost registers exposes cards cards of cardMem bytes.
func NewPlatformBackend(fed *snapstore.Federation, cards int, cardMem int64) *PlatformBackend {
	return &PlatformBackend{
		fed:     fed,
		plats:   make(map[string]*platform.Platform),
		cards:   cards,
		cardMem: cardMem,
		model:   simclock.Default(),
		handles: make(map[int]*handle),
	}
}

// AddHost registers a server under name, in placement order.
func (b *PlatformBackend) AddHost(name string, plat *platform.Platform) error {
	if err := b.fed.Add(name, plat.Store); err != nil {
		return err
	}
	b.plats[name] = plat
	caps := make([]int64, b.cards)
	for i := range caps {
		caps[i] = b.cardMem
	}
	b.topo = append(b.topo, HostTopo{Name: name, Cards: caps})
	return nil
}

// Instance returns job id's workload instance — after Finish, the
// closed instance holding its final checksum — or nil.
func (b *PlatformBackend) Instance(id int) *workloads.Instance {
	if h := b.handles[id]; h != nil {
		return h.inst
	}
	return nil
}

// SnapshotDir is job id's snapshot directory, identical on every holder.
func SnapshotDir(id int) string { return fmt.Sprintf("/fleet/job%d", id) }

// Topology enumerates the registered hosts.
func (b *PlatformBackend) Topology() []HostTopo { return b.topo }

// LinkCost prices an inter-host transfer through the federation's
// per-pair link models.
func (b *PlatformBackend) LinkCost(a, bHost string, n int64) simclock.Duration {
	if a == bHost {
		return 0
	}
	return b.fed.LinkCost(a, bHost, n)
}

// live returns j's handle when its processes are running.
func (b *PlatformBackend) live(j *Job) (*handle, error) {
	h := b.handles[j.ID]
	if h == nil || h.inst == nil {
		return nil, fmt.Errorf("fleetd: job %d has no live instance", j.ID)
	}
	return h, nil
}

// platformOf resolves a living host's platform.
func (b *PlatformBackend) platformOf(j *Job, host string) (*platform.Platform, error) {
	plat := b.plats[host]
	if plat == nil {
		return nil, fmt.Errorf("fleetd: job %d: no host %q", j.ID, host)
	}
	if !b.fed.Alive(host) {
		return nil, fmt.Errorf("fleetd: job %d: host %q: %w", j.ID, host, snapstore.ErrHostDead)
	}
	return plat, nil
}

// device maps the controller's card index to the member's SCIF node.
func device(cardIdx int) simnet.NodeID { return simnet.NodeID(cardIdx + 1) }

// callsPerBurst splits the workload's calls evenly over the job's
// bursts; the last burst absorbs the remainder.
func callsPerBurst(j *Job) int {
	n := j.Spec.Workload.Calls / j.Spec.Bursts
	if n < 1 {
		n = 1
	}
	return n
}

// Launch starts the job's workload on its assigned host and card.
func (b *PlatformBackend) Launch(j *Job) (simclock.Duration, error) {
	if j.Spec.Workload == nil {
		return 0, fmt.Errorf("fleetd: job %d has no workload spec", j.ID)
	}
	plat, err := b.platformOf(j, j.Host)
	if err != nil {
		return 0, err
	}
	inst, err := workloads.Launch(plat, *j.Spec.Workload, device(j.Card))
	if err != nil {
		return 0, fmt.Errorf("fleetd: launching job %d: %w", j.ID, err)
	}
	app := core.NewApp(plat, inst.CP)
	if err := app.SetOptions(b.Capture, b.Restore); err != nil {
		inst.Close()
		return 0, err
	}
	b.handles[j.ID] = &handle{inst: inst, app: app}
	return b.model.RDMA(j.Spec.Footprint), nil
}

// RunBurst executes one burst's worth of offload calls.
func (b *PlatformBackend) RunBurst(j *Job) error {
	h, err := b.live(j)
	if err != nil {
		return err
	}
	want := callsPerBurst(j)
	if left := h.inst.Spec.Calls - h.inst.Progress(); left < want || j.burstsDone == j.Spec.Bursts-1 {
		want = left
	}
	if want <= 0 {
		return nil
	}
	if _, err := h.inst.RunCalls(want); err != nil {
		return fmt.Errorf("fleetd: job %d burst: %w", j.ID, err)
	}
	return nil
}

// checkpoint snapshots the whole application into the job's directory
// on j.Host and replicates it per Capture.Store.Replicas.
func (b *PlatformBackend) checkpoint(j *Job, h *handle) (*core.CheckpointReport, error) {
	rep, err := h.app.Checkpoint(SnapshotDir(j.ID))
	if err != nil {
		return nil, fmt.Errorf("fleetd: checkpointing job %d: %w", j.ID, err)
	}
	if k := b.Capture.Store.Replicas; k > 1 {
		if _, _, err := b.fed.ReplicateDir(j.Host, SnapshotDir(j.ID), k); err != nil {
			return rep, fmt.Errorf("fleetd: replicating job %d: %w", j.ID, err)
		}
	}
	return rep, nil
}

// Checkpoint captures a durable replicated snapshot of the live job.
func (b *PlatformBackend) Checkpoint(j *Job) (simclock.Duration, error) {
	h, err := b.live(j)
	if err != nil {
		return 0, err
	}
	rep, err := b.checkpoint(j, h)
	if err != nil {
		return 0, err
	}
	return rep.Total(), nil
}

// SwapOut checkpoints the whole application (durable, replicated) and
// then swaps the offload process out through the store-backed path,
// freeing the card.
func (b *PlatformBackend) SwapOut(j *Job) (simclock.Duration, error) {
	h, err := b.live(j)
	if err != nil {
		return 0, err
	}
	rep, err := b.checkpoint(j, h)
	if err != nil {
		return 0, err
	}
	snap, err := core.Swapout(SnapshotDir(j.ID), h.inst.CP, b.Capture)
	if err != nil {
		return 0, fmt.Errorf("fleetd: swapping out job %d: %w", j.ID, err)
	}
	h.snap = snap
	return rep.Total() + snap.Report.PauseTotal() + snap.Report.Capture, nil
}

// SwapIn revives the swapped-out offload process on its card.
func (b *PlatformBackend) SwapIn(j *Job, from string) (simclock.Duration, error) {
	h, err := b.live(j)
	if err != nil {
		return 0, err
	}
	if h.snap == nil {
		return 0, fmt.Errorf("fleetd: job %d is not swapped out", j.ID)
	}
	if _, err := core.Swapin(h.snap, device(j.Card), b.Restore); err != nil {
		return 0, fmt.Errorf("fleetd: swapping in job %d: %w", j.ID, err)
	}
	h.snap = nil
	dur := b.model.RDMA(j.Spec.Footprint)
	if from != "" && from != j.Host {
		dur += b.LinkCost(from, j.Host, j.Spec.Footprint)
	}
	return dur, nil
}

// Holders returns the living holders of the job's snapshot directory.
// An unreplicated snapshot has no replica set: it lives only where the
// job last captured it, so the job's own host holds it if its store does.
func (b *PlatformBackend) Holders(j *Job) []string {
	dir := SnapshotDir(j.ID)
	if hs := b.fed.Holders(dir); len(hs) > 0 {
		return hs
	}
	if st, err := b.fed.StoreOf(j.Host); err == nil && st.Has(dir+"/"+coi.ContextFileName) {
		return []string{j.Host}
	}
	return nil
}

// Replicas is Holders as topology indices.
func (b *PlatformBackend) Replicas(j *Job) []int {
	var out []int
	for _, name := range b.Holders(j) {
		if i := slices.IndexFunc(b.topo, func(t HostTopo) bool { return t.Name == name }); i >= 0 {
			out = append(out, i)
		}
	}
	return out
}

// MigrateJob moves the live job from j.Host to dstHost: checkpoint,
// ship the snapshot directory (the destination store negotiates chunks,
// so a return trip ships almost nothing), kill the source processes,
// restart on dstHost. It returns the ship's dedup accounting.
func (b *PlatformBackend) MigrateJob(j *Job, dstHost string, dstCard int) (snapstore.ShipStats, error) {
	h, err := b.live(j)
	if err != nil {
		return snapstore.ShipStats{}, err
	}
	if _, err := b.platformOf(j, dstHost); err != nil {
		return snapstore.ShipStats{}, err
	}
	if _, err := b.checkpoint(j, h); err != nil {
		return snapstore.ShipStats{}, err
	}
	stats, _, err := b.fed.ShipDir(j.Host, dstHost, SnapshotDir(j.ID))
	if err != nil {
		return stats, fmt.Errorf("fleetd: shipping job %d to %q: %w", j.ID, dstHost, err)
	}
	// The source processes die; the snapshot is the job now.
	h.inst.Close()
	h.inst.Host.Terminate()
	return stats, b.restartOn(j, h, dstHost, dstCard)
}

// Migrate is MigrateJob priced on the controller's timeline.
func (b *PlatformBackend) Migrate(j *Job, dstHost string, dstCard int) (simclock.Duration, error) {
	stats, err := b.MigrateJob(j, dstHost, dstCard)
	if err != nil {
		return 0, err
	}
	return b.LinkCost(j.Host, dstHost, stats.BytesShipped) + b.model.RDMA(j.Spec.Footprint), nil
}

// Recover restarts a lost or swapped-out job on dstHost from the living
// holder closest to it (ModelBackend's rule), shipping the snapshot
// directory first when dstHost holds no replica.
func (b *PlatformBackend) Recover(j *Job, dstHost string, dstCard int) (simclock.Duration, error) {
	h := b.handles[j.ID]
	if h == nil {
		return 0, fmt.Errorf("fleetd: job %d has no snapshot to recover", j.ID)
	}
	if h.inst != nil && h.snap == nil {
		return 0, fmt.Errorf("fleetd: job %d is live; migrate it instead", j.ID)
	}
	if _, err := b.platformOf(j, dstHost); err != nil {
		return 0, err
	}
	dir, fp := SnapshotDir(j.ID), j.Spec.Footprint
	holder := closestHolder(b, dstHost, b.Holders(j), fp)
	if holder == "" {
		return 0, fmt.Errorf("fleetd: job %d has no living replica of %s", j.ID, dir)
	}
	dur := b.model.RDMA(fp)
	if holder != dstHost {
		if _, _, err := b.fed.ShipDir(holder, dstHost, dir); err != nil {
			return 0, fmt.Errorf("fleetd: shipping job %d replica %s -> %s: %w", j.ID, holder, dstHost, err)
		}
		dur += b.LinkCost(holder, dstHost, fp)
	}
	if h.inst != nil {
		// A swapped-out job leaving its host: its offload process is
		// already gone, the host process dies with the move.
		h.inst.Close()
		h.inst.Host.Terminate()
	}
	if err := b.restartOn(j, h, dstHost, dstCard); err != nil {
		return 0, err
	}
	return dur, nil
}

// restartOn restores the job from its snapshot directory on host and
// rebinds its handle. The offload process lands on the card recorded at
// checkpoint time (Fig 5a's GetDeviceID), so a controller that booked
// another card gets an error rather than a silently wrong placement.
func (b *PlatformBackend) restartOn(j *Job, h *handle, host string, card int) error {
	plat := b.plats[host]
	app, hostProc, _, err := core.RestartAppOptions(plat, SnapshotDir(j.ID), b.Restore)
	if err != nil {
		return fmt.Errorf("fleetd: restarting job %d on %q: %w", j.ID, host, err)
	}
	if got := app.Proc().DeviceNode(); got != device(card) {
		hostProc.Terminate()
		return fmt.Errorf("fleetd: job %d restarted on %s card %d, but the controller placed it on card %d", j.ID, host, int(got)-1, card)
	}
	inst, err := workloads.Attach(plat, *j.Spec.Workload, hostProc, app.Proc())
	if err == nil {
		err = app.SetOptions(b.Capture, b.Restore)
	}
	if err != nil {
		hostProc.Terminate()
		return fmt.Errorf("fleetd: restarting job %d on %q: %w", j.ID, host, err)
	}
	h.inst, h.app, h.snap = inst, app, nil
	return nil
}

// Finish closes the job's instance and drops its snapshot directory on
// every living host, so a GC there reclaims every chunk it held.
func (b *PlatformBackend) Finish(j *Job) error {
	h, err := b.live(j)
	if err != nil {
		return err
	}
	h.inst.Close()
	return b.fed.DropDir(SnapshotDir(j.ID))
}

// HostKilled propagates a host failure into the federation; the
// processes of every job on that host die with it.
func (b *PlatformBackend) HostKilled(name string) {
	// The error paths (unknown host, already dead) cannot fire here: the
	// controller only kills hosts it got from Topology, once.
	if err := b.fed.KillHost(name); err != nil {
		panic(fmt.Sprintf("fleetd: killing host %s: %v", name, err)) //nolint:paniclib // invariant: topology hosts are federation members
	}
	for _, h := range b.handles {
		if h.inst != nil && h.inst.Plat == b.plats[name] {
			h.inst, h.app = nil, nil
		}
	}
}

// ensure the interface stays satisfied.
var _ Backend = (*PlatformBackend)(nil)
var _ Backend = (*ModelBackend)(nil)
