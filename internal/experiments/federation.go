package experiments

import (
	"fmt"
	"strings"
	"time"

	"snapify/internal/coi"
	"snapify/internal/fleetd"
	"snapify/internal/obs"
	"snapify/internal/simclock"
	"snapify/internal/snapstore"
	"snapify/internal/trace"
)

// FederationImageBytes is the default device image of the federation
// benchmark. As with the dedup-swap benchmark the object of study is a
// ratio — bytes shipped cold vs warm across hosts — which is
// size-independent once the image dwarfs one chunk.
const FederationImageBytes = 512 * simclock.MiB

// FederationHosts and FederationLegs are the default fleet size and
// migration leg count. The job ping-pongs between the first two hosts,
// so every leg after the first arrives at a store that already holds
// the previous visit's chunks; the third host exists for the
// replication and repair phase.
const (
	FederationHosts = 3
	FederationLegs  = 4
)

// federationReplicas is the copy count of the host-kill phase.
const federationReplicas = 2

// FederationLeg is one cross-host migration's ship accounting.
type FederationLeg struct {
	Leg  int    `json:"leg"`
	From string `json:"from"`
	To   string `json:"to"`
	// BytesLogical is the full snapshot directory size the leg moved;
	// BytesShipped is what actually crossed the wire after the
	// destination store's have/need negotiation.
	BytesLogical  int64 `json:"bytes_logical"`
	BytesShipped  int64 `json:"bytes_shipped"`
	ChunksShipped int64 `json:"chunks_shipped"`
	ChunksDeduped int64 `json:"chunks_deduped"`
	// ChunksZero counts the deduped chunks that are the zero chunk,
	// which the destination store writes itself.
	ChunksZero int64 `json:"chunks_zero"`
}

// FederationResult is the full federation benchmark document.
type FederationResult struct {
	Benchmark  string          `json:"benchmark"`
	ImageBytes int64           `json:"image_bytes"`
	Hosts      int             `json:"hosts"`
	Legs       int             `json:"legs"`
	Rows       []FederationLeg `json:"rows"`

	// ColdShippedBytes is the first leg's wire bytes (empty destination
	// store: everything ships). Warm totals cover every later leg.
	ColdShippedBytes int64 `json:"cold_shipped_bytes"`
	WarmLogicalBytes int64 `json:"warm_logical_bytes"`
	WarmShippedBytes int64 `json:"warm_shipped_bytes"`
	// CrossHostDedupX is WarmLogicalBytes / WarmShippedBytes — the
	// headline federation win (acceptance floor 2x).
	CrossHostDedupX float64 `json:"cross_host_dedup_x"`

	// Host-kill recovery phase: the job checkpoints with k-way
	// replication, its host dies, and it restarts from a replica.
	Replicas       int `json:"replicas"`
	ReplicaHolders int `json:"replica_holders"`
	LagAfterKill   int `json:"replica_lag_after_kill"`
	RepairAdded    int `json:"repair_replicas_added"`
	LagAfterRepair int `json:"replica_lag_after_repair"`
	RecoveredJobs  int `json:"recovered_jobs"`
	// ByteIdentical reports that the recovered host's context manifest
	// lists exactly the chunk digests the dead host committed.
	ByteIdentical bool `json:"byte_identical"`
	// ChecksumMatch reports that the recovered job ran to completion
	// with the same checksum as an uninterrupted reference run.
	ChecksumMatch bool `json:"checksum_match"`
	// FsckProblems totals store Verify findings across surviving hosts.
	FsckProblems int `json:"fsck_problems"`
}

// FederationBench migrates one offload job across a fleet of hosts
// through the store federation, then kills the job's host and recovers
// it from a replica. The first migration ships the whole image; every
// later leg negotiates against a destination store that already holds
// the previous visit's chunks and ships only the dirtied working set —
// the cross-host analogue of the dedup-swap benchmark. The kill phase
// measures the repair loop and the restart-from-replica contract.
func FederationBench(imageBytes int64, hosts, legs int) (*FederationResult, error) {
	if hosts < 3 {
		return nil, fmt.Errorf("federation: need >= 3 hosts (migration pair + repair target), got %d", hosts)
	}
	if legs < 2 {
		return nil, fmt.Errorf("federation: need >= 2 legs to measure warm shipping, got %d", legs)
	}

	cfg := serverFor(1, imageBytes)
	fed := snapstore.NewFederation(obs.New(), snapstore.DefaultLink(), nil)
	be := fleetd.NewPlatformBackend(fed, 1, cfg.Server.Device.MemBytes)
	names := make([]string, hosts)
	for i := 0; i < hosts; i++ {
		names[i] = fmt.Sprintf("h%d", i)
		plat, err := coi.Boot(cfg)
		if err != nil {
			return nil, err
		}
		defer coi.Shutdown(plat)
		if err := be.AddHost(names[i], plat); err != nil {
			return nil, err
		}
	}
	be.Capture.Streams = 2
	be.Capture.ChunkBytes = 256 * 1024
	be.Capture.Store.Enabled = true
	be.Restore.Store.Enabled = true

	// The kernel folds freshly written input each call (In/OutPerCall
	// nonzero), so the checksum depends only on the deterministic call
	// sequence — comparable across platforms and restarts.
	spec := imageSpec("FD", "federation migration legs", imageBytes, legs+4)
	spec.ComputePerCall = time.Millisecond
	spec.InPerCall = 16 * simclock.KiB
	spec.OutPerCall = 16 * simclock.KiB

	// Uninterrupted reference for the final checksum comparison.
	want, err := referenceChecksum(cfg, spec)
	if err != nil {
		return nil, fmt.Errorf("federation: reference run: %w", err)
	}

	res := &FederationResult{
		Benchmark: "federation", ImageBytes: imageBytes,
		Hosts: hosts, Legs: legs, Replicas: federationReplicas,
	}

	// The script plays the controller: it keeps the job record's host
	// current and picks every destination itself.
	j := &fleetd.Job{ID: 1, Host: names[0], Spec: fleetd.JobSpec{
		ID: 1, Footprint: spec.DeviceMem + spec.LocalStore, Bursts: 1, Workload: &spec,
	}}
	if _, err := be.Launch(j); err != nil {
		return nil, err
	}
	if _, err := be.Instance(j.ID).RunCalls(2); err != nil {
		return nil, err
	}

	// Migration phase: ping-pong between the first two hosts, one
	// offload call of dirtying between legs.
	for leg := 0; leg < legs; leg++ {
		from := j.Host
		to := names[0]
		if from == names[0] {
			to = names[1]
		}
		stats, err := be.MigrateJob(j, to, 0)
		if err != nil {
			return nil, fmt.Errorf("federation: leg %d (%s -> %s): %w", leg, from, to, err)
		}
		j.Host = to
		row := FederationLeg{
			Leg: leg, From: from, To: to,
			BytesLogical:  stats.BytesLogical,
			BytesShipped:  stats.BytesShipped,
			ChunksShipped: stats.ChunksShipped,
			ChunksDeduped: stats.ChunksDeduped,
			ChunksZero:    stats.ChunksZero,
		}
		res.Rows = append(res.Rows, row)
		if leg == 0 {
			res.ColdShippedBytes = row.BytesShipped
		} else {
			res.WarmLogicalBytes += row.BytesLogical
			res.WarmShippedBytes += row.BytesShipped
		}
		if _, err := be.Instance(j.ID).RunCalls(1); err != nil {
			return nil, err
		}
	}
	if res.WarmShippedBytes > 0 {
		res.CrossHostDedupX = float64(res.WarmLogicalBytes) / float64(res.WarmShippedBytes)
	}

	// Kill phase: replicate the checkpoint, lose the host, repair, and
	// recover onto the surviving holder closest to the dead host.
	be.Capture.Store.Replicas = federationReplicas
	if _, err := be.Checkpoint(j); err != nil {
		return nil, fmt.Errorf("federation: replicated checkpoint: %w", err)
	}
	res.ReplicaHolders = len(be.Holders(j))
	doomed := j.Host
	before, err := ctxManifestDigests(fed, doomed, j.ID)
	if err != nil {
		return nil, err
	}
	be.HostKilled(doomed)
	res.LagAfterKill = fed.ReplicaLag()
	repair, _, err := fed.Repair(0)
	if err != nil {
		return nil, fmt.Errorf("federation: repair: %w", err)
	}
	res.RepairAdded = repair.ReplicasAdded
	res.LagAfterRepair = fed.ReplicaLag()

	dst := fed.ClosestHolder(fleetd.SnapshotDir(j.ID), doomed, j.Spec.Footprint)
	if _, err := be.Recover(j, dst, 0); err != nil {
		return nil, fmt.Errorf("federation: recover: %w", err)
	}
	j.Host = dst
	res.RecoveredJobs = 1
	after, err := ctxManifestDigests(fed, j.Host, j.ID)
	if err != nil {
		return nil, err
	}
	res.ByteIdentical = strings.Join(before, ",") == strings.Join(after, ",")

	inst := be.Instance(j.ID)
	if _, err := inst.Run(); err != nil {
		return nil, fmt.Errorf("federation: running recovered job: %w", err)
	}
	res.ChecksumMatch = inst.Checksum() == want
	if err := be.Finish(j); err != nil {
		return nil, err
	}

	for _, name := range fed.Members() {
		st, err := fed.StoreOf(name)
		if err != nil {
			return nil, err
		}
		problems, _ := st.Verify()
		res.FsckProblems += len(problems)
	}
	return res, nil
}

// replay re-runs the benchmark a recorded document describes.
func (r *FederationResult) replay() (Result, error) {
	return FederationBench(r.ImageBytes, r.Hosts, r.Legs)
}

// ctxManifestDigests reads the chunk digest list of job id's offload
// context manifest in the named member's store.
func ctxManifestDigests(fed *snapstore.Federation, host string, id int) ([]string, error) {
	st, err := fed.StoreOf(host)
	if err != nil {
		return nil, err
	}
	m, _, err := st.Manifest(fleetd.SnapshotDir(id) + "/" + coi.ContextFileName)
	if err != nil {
		return nil, fmt.Errorf("federation: context manifest of job %d on %s: %w", id, host, err)
	}
	return m.Chunks, nil
}

// Render prints the benchmark in the tables' layout.
func (r *FederationResult) Render() string {
	t := trace.New(fmt.Sprintf("Federation: %s image migrating across %d hosts, %d legs, then host kill + k=%d recovery",
		sizeLabel(r.ImageBytes), r.Hosts, r.Legs, r.Replicas),
		"Leg", "Route", "Logical (MiB)", "Shipped (MiB)", "Chunks ship/dedup")
	for _, row := range r.Rows {
		t.Row(fmt.Sprintf("%d", row.Leg),
			fmt.Sprintf("%s->%s", row.From, row.To),
			fmt.Sprintf("%d", row.BytesLogical/simclock.MiB),
			fmt.Sprintf("%d", row.BytesShipped/simclock.MiB),
			fmt.Sprintf("%d/%d", row.ChunksShipped, row.ChunksDeduped))
	}
	return t.String() + fmt.Sprintf("\nwarm legs: %d MiB logical, %d MiB shipped — %.1fx cross-host dedup\nhost kill: %d holders, lag %d -> repair +%d -> lag %d; recovered %d job(s), byte-identical %v, checksum match %v, fsck problems %d",
		r.WarmLogicalBytes/simclock.MiB, r.WarmShippedBytes/simclock.MiB, r.CrossHostDedupX,
		r.ReplicaHolders, r.LagAfterKill, r.RepairAdded, r.LagAfterRepair,
		r.RecoveredJobs, r.ByteIdentical, r.ChecksumMatch, r.FsckProblems)
}

// CheckShape verifies the acceptance claims: the cold leg ships every
// chunk but the zero ones (an empty destination holds nothing else),
// every warm leg deduplicates, the cross-host
// reduction is at least 2x, and the kill phase recovers the job
// byte-identically with a clean store and a fully repaired replica set.
func (r *FederationResult) CheckShape() error {
	if len(r.Rows) != r.Legs {
		return fmt.Errorf("federation: %d rows for %d legs", len(r.Rows), r.Legs)
	}
	cold := r.Rows[0]
	if cold.ChunksShipped == 0 || cold.ChunksDeduped != cold.ChunksZero {
		return fmt.Errorf("federation: cold leg shipped %d chunks and deduped %d, of which %d zero — the empty destination can dedup only zero chunks",
			cold.ChunksShipped, cold.ChunksDeduped, cold.ChunksZero)
	}
	for _, row := range r.Rows[1:] {
		if row.BytesShipped >= row.BytesLogical {
			return fmt.Errorf("federation: warm leg %d shipped %d of %d bytes — negotiation skipped nothing",
				row.Leg, row.BytesShipped, row.BytesLogical)
		}
		if row.ChunksDeduped == 0 {
			return fmt.Errorf("federation: warm leg %d deduped no chunks", row.Leg)
		}
	}
	if r.CrossHostDedupX < 2.0 {
		return fmt.Errorf("federation: cross-host dedup %.2fx, want >= 2x", r.CrossHostDedupX)
	}
	if r.ReplicaHolders < r.Replicas {
		return fmt.Errorf("federation: %d replica holders, want >= %d", r.ReplicaHolders, r.Replicas)
	}
	if r.LagAfterKill == 0 {
		return fmt.Errorf("federation: killing a holder left no replica lag — the kill phase measured nothing")
	}
	if r.LagAfterRepair != 0 {
		return fmt.Errorf("federation: replica lag %d after repair, want 0", r.LagAfterRepair)
	}
	if r.RecoveredJobs != 1 {
		return fmt.Errorf("federation: recovered %d jobs, want 1", r.RecoveredJobs)
	}
	if !r.ByteIdentical {
		return fmt.Errorf("federation: recovered context manifest is not byte-identical to the dead host's")
	}
	if !r.ChecksumMatch {
		return fmt.Errorf("federation: recovered job's checksum differs from the uninterrupted reference")
	}
	if r.FsckProblems != 0 {
		return fmt.Errorf("federation: %d fsck problems across surviving stores", r.FsckProblems)
	}
	return nil
}
