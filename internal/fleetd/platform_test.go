package fleetd

// Platform-backed tests: the controller (or a test standing in for it)
// drives real simulated servers through PlatformBackend, so swap-outs
// run the store-backed core.Swapout path, migrations ship deduped
// snapshot directories, and recoveries restart from replicated
// checkpoints. These validate the control plane's decisions end to end
// at test scale; the model backend covers bench scale.

import (
	"strings"
	"testing"
	"time"

	"snapify/internal/coi"
	"snapify/internal/faultinject"
	"snapify/internal/obs"
	"snapify/internal/platform"
	"snapify/internal/platform/platformtest"
	"snapify/internal/simclock"
	"snapify/internal/snapstore"
	"snapify/internal/workloads"
)

// platSpec is the standard small workload: ~512 MiB of card footprint
// (device memory + local store).
func platSpec(code string, calls int) workloads.Spec {
	return workloads.Spec{
		Code: code, Name: code,
		HostMem:        8 * simclock.MiB,
		DeviceMem:      256 * simclock.MiB,
		LocalStore:     256 * simclock.MiB,
		Calls:          calls,
		StepsPerCall:   2,
		ComputePerCall: time.Millisecond,
		InPerCall:      16 * simclock.KiB,
		OutPerCall:     16 * simclock.KiB,
	}
}

func platFootprint(spec workloads.Spec) int64 { return spec.DeviceMem + spec.LocalStore }

// platEnv is an n-host fleet of real simulated servers behind one
// PlatformBackend, with a swappable federation fault injector (nil
// means no faults).
type platEnv struct {
	be    *PlatformBackend
	fed   *snapstore.Federation
	plats map[string]*platform.Platform
	obs   *obs.Obs
	inj   *faultinject.Injector
}

// newPlatformBackend builds hosts servers named ha, hb, … with cards
// cards each, store-backed capture and replicas snapshot copies.
func newPlatformBackend(t *testing.T, hosts, cards, replicas int, cardMem int64) *platEnv {
	t.Helper()
	return newPlatformBackendPhys(t, hosts, cards, replicas, cardMem, 0)
}

// newPlatformBackendPhys is newPlatformBackend with physMem bytes of
// physical memory per card (0: the phi default), for tests where the
// card itself, not only the controller's accounting, must run out.
func newPlatformBackendPhys(t *testing.T, hosts, cards, replicas int, cardMem, physMem int64) *platEnv {
	t.Helper()
	pe := &platEnv{plats: make(map[string]*platform.Platform), obs: obs.New()}
	pe.fed = snapstore.NewFederation(obs.New(), snapstore.DefaultLink(), func() *faultinject.Injector { return pe.inj })
	pe.be = NewPlatformBackend(pe.fed, cards, cardMem)
	for i := 0; i < hosts; i++ {
		name := "h" + string(rune('a'+i))
		plat := platformtest.Start(t, platformtest.Options{Devices: cards, CardMem: physMem})
		if err := pe.be.AddHost(name, plat); err != nil {
			t.Fatal(err)
		}
		pe.plats[name] = plat
	}
	pe.be.Capture.Streams = 2
	pe.be.Capture.ChunkBytes = 256 * 1024
	pe.be.Capture.Store.Enabled = true
	pe.be.Capture.Store.Replicas = replicas
	pe.be.Restore.Store.Enabled = true
	return pe
}

// newPlatformEnv is newPlatformBackend with one card per host and a
// controller managing the fleet.
func newPlatformEnv(t *testing.T, hosts, replicas int, cardMem int64, opts Options) (*Controller, *platEnv) {
	t.Helper()
	pe := newPlatformBackend(t, hosts, 1, replicas, cardMem)
	return New(opts, pe.be, pe.obs), pe
}

// backendJob is a controller record for tests that drive the backend
// directly: the test plays the controller and keeps Host current.
func backendJob(id int, host string, card int, spec workloads.Spec) *Job {
	return &Job{ID: id, Host: host, Card: card, Spec: JobSpec{
		ID: id, Footprint: platFootprint(spec), Bursts: 1, Workload: &spec,
	}}
}

func (pe *platEnv) launch(t *testing.T, j *Job, calls int) *workloads.Instance {
	t.Helper()
	if _, err := pe.be.Launch(j); err != nil {
		t.Fatal(err)
	}
	inst := pe.be.Instance(j.ID)
	if _, err := inst.RunCalls(calls); err != nil {
		t.Fatal(err)
	}
	return inst
}

// finish runs the job to completion, checks its checksum and releases
// it through the backend.
func (pe *platEnv) finish(t *testing.T, j *Job, want uint64) {
	t.Helper()
	inst := pe.be.Instance(j.ID)
	if _, err := inst.Run(); err != nil {
		t.Fatal(err)
	}
	if got := inst.Checksum(); got != want {
		t.Errorf("job %d checksum %#x, want %#x", j.ID, got, want)
	}
	if err := pe.be.Finish(j); err != nil {
		t.Fatal(err)
	}
}

// platReference runs spec uninterrupted on a fresh platform and
// returns its checksum.
func platReference(t *testing.T, spec workloads.Spec) uint64 {
	t.Helper()
	plat := platformtest.Start(t, platformtest.Options{Devices: 1})
	in, err := workloads.Launch(plat, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	want, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// ctxDigests returns the chunk digests of job id's context manifest in
// host's store — the byte-identity fingerprint of a snapshot.
func (pe *platEnv) ctxDigests(t *testing.T, host string, id int) string {
	t.Helper()
	st, err := pe.fed.StoreOf(host)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := st.Manifest(SnapshotDir(id) + "/" + coi.ContextFileName)
	if err != nil {
		t.Fatalf("no context manifest for job %d on %s: %v", id, host, err)
	}
	return strings.Join(m.Chunks, ",")
}

// assertStoresEmpty is the end state of a finished fleet: every job
// dropped its snapshots, so GC leaves every living store with no
// manifest, no chunk and nothing for fsck to report.
func (pe *platEnv) assertStoresEmpty(t *testing.T) {
	t.Helper()
	for _, name := range pe.fed.Members() {
		st, err := pe.fed.StoreOf(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.GC(0); err != nil {
			t.Fatal(err)
		}
		if s := st.Stats(); s.Manifests != 0 || s.Chunks != 0 {
			t.Errorf("store on %s not empty after the fleet finished: %d manifests, %d chunks", name, s.Manifests, s.Chunks)
		}
		if problems, _ := st.Verify(); len(problems) != 0 {
			t.Errorf("store on %s inconsistent: %v", name, problems)
		}
	}
}

// TestFleetdPlatformOversubscription packs three 512 MiB jobs onto one
// card. Oversubscribed (768 MiB), only one can be resident at a time,
// so the controller must cycle them through real store-backed
// swap-outs; on a card that fits all three it must never swap. Every
// job must finish with the reference checksum either way.
func TestFleetdPlatformOversubscription(t *testing.T) {
	spec := platSpec("PO", 6)
	want := platReference(t, spec)
	fp := platFootprint(spec)

	for _, tc := range []struct {
		name    string
		cardMem int64
		swaps   bool
	}{
		{"oversubscribed", fp + fp/2, true},
		{"card_fits_all", 3 * fp, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, pe := newPlatformEnv(t, 2, 2, tc.cardMem, Options{OversubPct: 300})
			var specs []JobSpec
			for id := 1; id <= 3; id++ {
				s := spec
				specs = append(specs, JobSpec{
					ID: id, Tenant: "tenant-a",
					Footprint: fp, Bursts: 3,
					BurstLen: 20 * ms, ThinkLen: 100 * ms,
					Workload: &s,
				})
			}
			if err := c.SubmitTrace(specs); err != nil {
				t.Fatal(err)
			}
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}

			st := c.Stats()
			if st.Completed != 3 {
				t.Fatalf("completed %d of 3 jobs: %+v", st.Completed, st)
			}
			if tc.swaps && (st.SwapOuts == 0 || st.SwapIns == 0) {
				t.Fatalf("oversubscribed card never swapped: %+v", st)
			}
			if !tc.swaps && st.SwapOuts != 0 {
				t.Fatalf("%d swap-outs on a card that fits every job", st.SwapOuts)
			}
			for id := 1; id <= 3; id++ {
				if !c.JobByID(id).Done() {
					t.Errorf("job %d not done", id)
				}
				if got := pe.be.Instance(id).Checksum(); got != want {
					t.Errorf("job %d checksum %#x, want %#x", id, got, want)
				}
			}
			pe.assertStoresEmpty(t)
		})
	}
}

// TestFleetdPlatformEvacuation drains a host under a deadline: both
// jobs live there, and the controller must move them with real
// checkpoint-ship-restart migrations before the deadline.
func TestFleetdPlatformEvacuation(t *testing.T) {
	spec := platSpec("PE", 8)
	want := platReference(t, spec)
	fp := platFootprint(spec)

	c, pe := newPlatformEnv(t, 3, 2, 2*fp, Options{EvacWave: 2})
	var specs []JobSpec
	for id := 1; id <= 2; id++ {
		s := spec
		specs = append(specs, JobSpec{
			ID: id, Tenant: "tenant-a",
			Footprint: fp, Bursts: 4,
			BurstLen: 20 * ms, ThinkLen: 1500 * ms,
			Workload: &s,
		})
	}
	if err := c.SubmitTrace(specs); err != nil {
		t.Fatal(err)
	}
	c.ScheduleEvacuation(10*ms, "ha", 60000*ms)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}

	st := c.Stats()
	if st.Completed != 2 {
		t.Fatalf("completed %d of 2 jobs: %+v", st.Completed, st)
	}
	if st.EvacMoves == 0 {
		t.Fatalf("evacuation moved nothing: %+v", st)
	}
	reports := c.Evacuations()
	if len(reports) != 1 || !reports[0].Done || !reports[0].DeadlineMet {
		t.Fatalf("evacuation report %+v, want done within deadline", reports)
	}
	for id := 1; id <= 2; id++ {
		inst := pe.be.Instance(id)
		if inst.Plat == pe.plats["ha"] {
			t.Errorf("job %d still on drained host", id)
		}
		if got := inst.Checksum(); got != want {
			t.Errorf("job %d checksum %#x, want %#x", id, got, want)
		}
	}
	pe.assertStoresEmpty(t)
}

// runUntilThinking advances c until job id reaches its first think
// phase.
func runUntilThinking(t *testing.T, c *Controller, id int) {
	t.Helper()
	until := 100 * ms
	for c.JobByID(id).State != StateThinking {
		if err := c.RunUntil(until); err != nil {
			t.Fatal(err)
		}
		until += 50 * ms
		if until > 20000*ms {
			t.Fatalf("job %d never reached thinking; state %v", id, c.JobByID(id).State)
		}
	}
}

// TestFleetdPlatformKillRecovery checkpoints a live job, kills its
// host, and expects the controller to restart it from a surviving
// replica on another member — finishing with the reference checksum.
func TestFleetdPlatformKillRecovery(t *testing.T) {
	spec := platSpec("PK", 6)
	want := platReference(t, spec)
	fp := platFootprint(spec)

	c, pe := newPlatformEnv(t, 3, 2, 2*fp, Options{})
	s := spec
	specs := []JobSpec{{
		ID: 1, Tenant: "tenant-a",
		Footprint: fp, Bursts: 3,
		BurstLen: 10 * ms, ThinkLen: 3000 * ms,
		Workload: &s,
	}}
	if err := c.SubmitTrace(specs); err != nil {
		t.Fatal(err)
	}

	// Checkpoint the job in its first think phase, then kill its host
	// out from under it.
	runUntilThinking(t, c, 1)
	if c.JobByID(1).Host != "ha" {
		t.Fatalf("job placed on %q, want ha", c.JobByID(1).Host)
	}
	if err := c.CheckpointJob(1); err != nil {
		t.Fatal(err)
	}
	c.KillHost("ha")
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}

	st := c.Stats()
	if st.JobsLost != 1 || st.Recovered != 1 {
		t.Fatalf("lost %d recovered %d, want 1/1: %+v", st.JobsLost, st.Recovered, st)
	}
	if st.Completed != 1 {
		t.Fatalf("job did not complete: %+v", st)
	}
	inst := pe.be.Instance(1)
	if inst.Plat == pe.plats["ha"] {
		t.Error("job still running on the dead host")
	}
	if got := inst.Checksum(); got != want {
		t.Errorf("checksum %#x, want %#x", got, want)
	}
	pe.assertStoresEmpty(t)
}

// TestFleetdPlatformRecoverPricesHolderLink kills a job's host while
// the other replica holder is full, so the controller recovers it onto
// a host holding no replica. The fleet_recover op must pay the link
// from the holder that shipped the directory — not from the dead host,
// and not nothing.
func TestFleetdPlatformRecoverPricesHolderLink(t *testing.T) {
	spec := platSpec("PL", 6)
	want := platReference(t, spec)
	fp := platFootprint(spec)

	// One job per card: job 1 fills ha, job 2 fills hb.
	c, pe := newPlatformEnv(t, 3, 2, fp+fp/2, Options{Trace: true})
	var specs []JobSpec
	for id := 1; id <= 2; id++ {
		s := spec
		specs = append(specs, JobSpec{
			ID: id, Tenant: "tenant-a", Arrival: simclock.Duration(id) * ms,
			Footprint: fp, Bursts: 3,
			BurstLen: 10 * ms, ThinkLen: 3000 * ms,
			Workload: &s,
		})
	}
	if err := c.SubmitTrace(specs); err != nil {
		t.Fatal(err)
	}
	runUntilThinking(t, c, 2)
	if h1, h2 := c.JobByID(1).Host, c.JobByID(2).Host; h1 != "ha" || h2 != "hb" {
		t.Fatalf("jobs placed on %q and %q, want ha and hb", h1, h2)
	}
	if err := c.CheckpointJob(2); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(pe.be.Holders(c.JobByID(2)), ","); got != "ha,hb" {
		t.Fatalf("job 2 replicated to %s, want ha,hb", got)
	}
	// The holder's link to the destination is the slow one, so pricing
	// the dead host's link instead would show.
	pe.fed.SetLink("ha", "hc", snapstore.CrossRackLink())
	c.KillHost("hb")
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Completed != 2 || st.Recovered != 1 {
		t.Fatalf("stats %+v, want 2 completed and 1 recovered", st)
	}

	wantDur := simclock.Default().RDMA(fp) + pe.be.LinkCost("ha", "hc", fp)
	var recovers int
	for _, sp := range pe.obs.TracerOf().Spans() {
		if sp.Name != "fleet_recover" || sp.Args["job"] != 2 {
			continue
		}
		recovers++
		if sp.Process != "fleet/hc" {
			t.Errorf("job 2 recovered on %s, want fleet/hc", sp.Process)
		}
		if sp.Dur != wantDur {
			t.Errorf("fleet_recover took %v, want %v (PCIe push + ha->hc link)", sp.Dur, wantDur)
		}
	}
	if recovers != 1 {
		t.Fatalf("%d fleet_recover spans for job 2, want 1", recovers)
	}
	if got := pe.be.Instance(2).Checksum(); got != want {
		t.Errorf("job 2 checksum %#x, want %#x", got, want)
	}
	pe.assertStoresEmpty(t)
}

// TestPlatformRestartCardMismatch: a restart lands the offload process
// on the card recorded at checkpoint time. When the controller booked
// another card, Migrate and Recover must fail naming both cards rather
// than let the controller's record and the platform disagree.
func TestPlatformRestartCardMismatch(t *testing.T) {
	spec := platSpec("PC", 6)
	pe := newPlatformBackend(t, 2, 2, 2, 4*platFootprint(spec))

	j1 := backendJob(1, "ha", 1, spec)
	pe.launch(t, j1, 2)
	_, err := pe.be.Migrate(j1, "hb", 0)
	if err == nil || !strings.Contains(err.Error(), "card 1") || !strings.Contains(err.Error(), "card 0") {
		t.Fatalf("migrating a card-1 job onto card 0: err %v, want one naming both cards", err)
	}

	j2 := backendJob(2, "ha", 1, spec)
	pe.launch(t, j2, 2)
	if _, err := pe.be.SwapOut(j2); err != nil {
		t.Fatal(err)
	}
	_, err = pe.be.Recover(j2, "hb", 0)
	if err == nil || !strings.Contains(err.Error(), "card 1") || !strings.Contains(err.Error(), "card 0") {
		t.Fatalf("recovering a card-1 job onto card 0: err %v, want one naming both cards", err)
	}
}

// TestFleetMigrateJobCrossHostDedup moves a job between hosts twice:
// the first migration ships the whole image cold, the return trip
// negotiates against a store that already holds the first checkpoint's
// chunks and ships almost nothing.
func TestFleetMigrateJobCrossHostDedup(t *testing.T) {
	spec := platSpec("FM", 8)
	want := platReference(t, spec)
	pe := newPlatformBackend(t, 2, 1, 0, 2*platFootprint(spec))

	j := backendJob(1, "ha", 0, spec)
	pe.launch(t, j, 3)
	cold, err := pe.be.MigrateJob(j, "hb", 0)
	if err != nil {
		t.Fatal(err)
	}
	j.Host = "hb"
	if pe.be.Instance(1).Plat != pe.plats["hb"] {
		t.Fatal("job did not land on hb")
	}
	if cold.BytesShipped == 0 {
		t.Fatal("cold migration shipped nothing")
	}
	if _, err := pe.be.Instance(1).RunCalls(1); err != nil {
		t.Fatal(err)
	}

	warm, err := pe.be.MigrateJob(j, "ha", 0)
	if err != nil {
		t.Fatal(err)
	}
	j.Host = "ha"
	if warm.BytesLogical < 2*warm.BytesShipped {
		t.Errorf("warm migration dedup ratio %.2f, want >= 2 (logical %d, shipped %d)",
			float64(warm.BytesLogical)/float64(warm.BytesShipped), warm.BytesLogical, warm.BytesShipped)
	}
	if warm.ChunksDeduped == 0 {
		t.Error("warm migration deduped no chunks")
	}
	pe.finish(t, j, want)
	pe.assertStoresEmpty(t)
}

// TestFleetHostKillRecovery: jobs checkpoint twice with k=2
// replication, the whole host dies, and each job restarts on the
// surviving holder closest to the dead host with the second
// checkpoint's state, byte-identical (same context chunk digests, same
// progress, same final checksum).
func TestFleetHostKillRecovery(t *testing.T) {
	spec := platSpec("FK", 8)
	want := platReference(t, spec)
	fp := platFootprint(spec)
	pe := newPlatformBackend(t, 3, 1, 2, 4*fp)

	var jobs []*Job
	digests := make(map[int]string)
	for id := 1; id <= 2; id++ {
		j := backendJob(id, "ha", 0, spec)
		inst := pe.launch(t, j, 2)
		if _, err := pe.be.Checkpoint(j); err != nil {
			t.Fatal(err)
		}
		// The replica must follow the re-capture, not keep the first.
		if _, err := inst.RunCalls(2); err != nil {
			t.Fatal(err)
		}
		if _, err := pe.be.Checkpoint(j); err != nil {
			t.Fatal(err)
		}
		if holders := pe.be.Holders(j); len(holders) < 2 {
			t.Fatalf("job %d replicated to %v, want >= 2 holders", id, holders)
		}
		digests[id] = pe.ctxDigests(t, "ha", id)
		jobs = append(jobs, j)
	}

	pe.be.HostKilled("ha")
	for _, j := range jobs {
		if pe.be.Instance(j.ID) != nil {
			t.Fatalf("job %d still has live processes after its host died", j.ID)
		}
	}
	if _, err := pe.be.Launch(backendJob(3, "ha", 0, spec)); err == nil {
		t.Fatal("launching on a dead host must fail")
	}

	for _, j := range jobs {
		dst := pe.fed.ClosestHolder(SnapshotDir(j.ID), "ha", fp)
		if _, err := pe.be.Recover(j, dst, 0); err != nil {
			t.Fatal(err)
		}
		j.Host = dst
		// Progress rolled back exactly to the checkpoint.
		if got := pe.be.Instance(j.ID).Progress(); got != 4 {
			t.Errorf("job %d restored progress %d, want 4", j.ID, got)
		}
		// Byte identity: the replica's context manifest lists the same
		// chunk digests the source committed.
		if pe.ctxDigests(t, dst, j.ID) != digests[j.ID] {
			t.Errorf("job %d context digests differ after recovery", j.ID)
		}
	}
	for _, j := range jobs {
		pe.finish(t, j, want)
	}
	pe.assertStoresEmpty(t)
}

// TestFleetRecoverNeedsReplicas: without replication the snapshot lives
// only on the job's host, dies with it, and Recover reports the loss
// instead of fabricating state.
func TestFleetRecoverNeedsReplicas(t *testing.T) {
	spec := platSpec("FN", 4)
	pe := newPlatformBackend(t, 2, 1, 0, 2*platFootprint(spec))
	j := backendJob(1, "ha", 0, spec)
	pe.launch(t, j, 2)
	if _, err := pe.be.Checkpoint(j); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(pe.be.Holders(j), ","); got != "ha" {
		t.Fatalf("unreplicated snapshot held by %q, want ha", got)
	}
	pe.be.HostKilled("ha")
	if got := pe.be.Holders(j); len(got) != 0 {
		t.Fatalf("snapshot on a dead host still held by %v", got)
	}
	if _, err := pe.be.Recover(j, "hb", 0); err == nil {
		t.Fatal("recover without replicas must fail")
	}
}

// TestChaosFleetKillDuringReplication injects a host crash in the
// middle of the replication ship: the checkpoint's replication leg
// fails, the repair loop re-establishes k on the remaining host, and
// after the source also dies the job still recovers.
func TestChaosFleetKillDuringReplication(t *testing.T) {
	spec := platSpec("FC", 8)
	want := platReference(t, spec)
	fp := platFootprint(spec)
	pe := newPlatformBackend(t, 3, 1, 2, 2*fp)
	j := backendJob(1, "ha", 0, spec)
	pe.launch(t, j, 4)

	// The destination host dies while chunks are in flight.
	pe.inj = faultinject.New(faultinject.Plan{{Site: faultinject.SiteFederation, Key: "chunk", Kind: faultinject.Crash, Nth: 2}}, nil)
	_, err := pe.be.Checkpoint(j)
	pe.inj = nil
	if err == nil {
		t.Fatal("replication onto a dying host must surface an error")
	}
	if pe.fed.ReplicaLag() == 0 {
		t.Fatal("no replica lag after a failed replication")
	}

	// The repair loop tops the set back up on the surviving host.
	stats, _, err := pe.fed.Repair(0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReplicasAdded == 0 {
		t.Fatal("repair added no replicas")
	}
	if lag := pe.fed.ReplicaLag(); lag != 0 {
		t.Fatalf("replica lag %d after repair, want 0", lag)
	}

	// Now the source dies too; the repaired replica carries the job.
	pe.be.HostKilled("ha")
	dst := pe.fed.ClosestHolder(SnapshotDir(1), "ha", fp)
	if dst == "" {
		t.Fatal("no living holder after repair")
	}
	if _, err := pe.be.Recover(j, dst, 0); err != nil {
		t.Fatal(err)
	}
	j.Host = dst
	if got := pe.be.Instance(1).Progress(); got != 4 {
		t.Errorf("recovered progress %d, want 4", got)
	}
	pe.finish(t, j, want)
	pe.assertStoresEmpty(t)
}

// TestFleetRecoverPrefersClosestHolder pins the recovery source: with
// the first-sorted surviving holder across the rack from the
// destination, Recover must ship from the in-rack (later-sorted) one
// and price exactly that link.
func TestFleetRecoverPrefersClosestHolder(t *testing.T) {
	spec := platSpec("FL", 6)
	want := platReference(t, spec)
	fp := platFootprint(spec)
	pe := newPlatformBackend(t, 4, 1, 3, 2*fp)
	j := backendJob(1, "ha", 0, spec)
	pe.launch(t, j, 3)
	if _, err := pe.be.Checkpoint(j); err != nil {
		t.Fatal(err)
	}
	if holders := pe.be.Holders(j); len(holders) != 3 {
		t.Fatalf("holders = %v, want 3", holders)
	}
	pe.be.HostKilled("ha")
	survivors := pe.be.Holders(j)
	if len(survivors) != 2 {
		t.Fatalf("surviving holders = %v, want 2", survivors)
	}
	var dst string
	for _, h := range pe.fed.Members() {
		if h != survivors[0] && h != survivors[1] {
			dst = h
		}
	}
	pe.fed.SetLink(dst, survivors[0], snapstore.CrossRackLink())

	dur, err := pe.be.Recover(j, dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	j.Host = dst
	if wantDur := simclock.Default().RDMA(fp) + pe.be.LinkCost(survivors[1], dst, fp); dur != wantDur {
		t.Fatalf("recovery onto %s took %v, want %v (shipped from closest holder %s, survivors %v)",
			dst, dur, wantDur, survivors[1], survivors)
	}
	if got := pe.be.Instance(1).Progress(); got != 3 {
		t.Errorf("recovered progress %d, want 3", got)
	}
	pe.finish(t, j, want)
	pe.assertStoresEmpty(t)
}

// TestMultiTenancyViaSwapping: two jobs share a card that physically
// holds only one. The test plays the controller's round robin — the
// resident job runs a burst and swaps out, the other comes in — and
// both finish with the reference checksum.
func TestMultiTenancyViaSwapping(t *testing.T) {
	spec := platSpec("MT", 6)
	want := platReference(t, spec)
	fp := platFootprint(spec)
	// The Phi OS keeps 512 MiB; the rest fits one job but not two.
	pe := newPlatformBackendPhys(t, 1, 1, 0, fp+fp/2, 512*simclock.MiB+fp+fp/2)

	j1, j2 := backendJob(1, "ha", 0, spec), backendJob(2, "ha", 0, spec)
	pe.launch(t, j1, 2)
	if _, err := pe.be.Launch(j2); err == nil {
		t.Fatal("the card held both jobs; nothing forced them to share it")
	}
	if _, err := pe.be.SwapOut(j1); err != nil {
		t.Fatal(err)
	}
	pe.launch(t, j2, 2)

	// Round robin: j1 waits swapped out, j2 runs. Each turn the
	// resident job swaps out (or, once done, finishes) and the other
	// swaps in for a burst.
	swaps := 1
	cur, next := j2, j1
	for {
		finished := pe.be.Instance(cur.ID).Done()
		if finished {
			pe.finish(t, cur, want)
		} else {
			if _, err := pe.be.SwapOut(cur); err != nil {
				t.Fatal(err)
			}
			swaps++
		}
		if _, err := pe.be.SwapIn(next, ""); err != nil {
			t.Fatal(err)
		}
		if _, err := pe.be.Instance(next.ID).RunCalls(2); err != nil {
			t.Fatal(err)
		}
		if finished {
			pe.finish(t, next, want)
			break
		}
		cur, next = next, cur
	}
	if swaps < 3 {
		t.Errorf("round robin finished with only %d swap-outs; no real sharing happened", swaps)
	}
}

// TestSwapCyclesThroughStore cycles one job through repeated swap-outs:
// each swap-out's context lives only in the host's store, never as a
// plain file, and a later swap-out of the barely-changed image
// re-stores few new chunks. After the job finishes, GC empties the
// store.
func TestSwapCyclesThroughStore(t *testing.T) {
	spec := platSpec("SC", 6)
	want := platReference(t, spec)
	pe := newPlatformBackend(t, 1, 1, 0, 2*platFootprint(spec))
	st, err := pe.fed.StoreOf("ha")
	if err != nil {
		t.Fatal(err)
	}
	ctx := SnapshotDir(1) + "/" + coi.ContextFileName

	j := backendJob(1, "ha", 0, spec)
	inst := pe.launch(t, j, 1)
	var added []int
	for cycle := 0; cycle < 3; cycle++ {
		before := st.Stats().Chunks
		if _, err := pe.be.SwapOut(j); err != nil {
			t.Fatal(err)
		}
		added = append(added, st.Stats().Chunks-before)
		if !st.Has(ctx) {
			t.Fatalf("swap-out %d committed no store manifest", cycle+1)
		}
		if pe.plats["ha"].Host().FS.Exists(ctx) {
			t.Errorf("swap-out %d left a plain context file", cycle+1)
		}
		if _, err := pe.be.SwapIn(j, ""); err != nil {
			t.Fatal(err)
		}
		if _, err := inst.RunCalls(1); err != nil {
			t.Fatal(err)
		}
	}
	if added[0] == 0 || added[2] >= added[0] {
		t.Errorf("new chunks per swap-out %v: a repeat swap-out must dedupe against the first", added)
	}
	pe.finish(t, j, want)
	pe.assertStoresEmpty(t)
}

// evacuateHost moves jobs onto dst the way a host drain does —
// checkpoint, ship the snapshot directory, restart — and returns each
// move's ship accounting.
func (pe *platEnv) evacuateHost(t *testing.T, jobs []*Job, dst string) []snapstore.ShipStats {
	t.Helper()
	var ships []snapstore.ShipStats
	for _, j := range jobs {
		stats, err := pe.be.MigrateJob(j, dst, 0)
		if err != nil {
			t.Fatal(err)
		}
		j.Host = dst
		ships = append(ships, stats)
	}
	return ships
}

// TestEvacuateMigratesJobs: fault prediction flags ha, so both of its
// jobs move to hb mid-run. When ha then fails, the jobs are untouched,
// ha takes no new work, and both finish with the reference checksum.
func TestEvacuateMigratesJobs(t *testing.T) {
	spec := platSpec("EM", 6)
	want := platReference(t, spec)
	pe := newPlatformBackend(t, 2, 1, 0, 4*platFootprint(spec))

	jobs := []*Job{backendJob(1, "ha", 0, spec), backendJob(2, "ha", 0, spec)}
	for _, j := range jobs {
		pe.launch(t, j, 2)
	}
	pe.evacuateHost(t, jobs, "hb")
	for _, j := range jobs {
		if inst := pe.be.Instance(j.ID); inst.Plat != pe.plats["hb"] || inst.Progress() != 2 {
			t.Errorf("job %d after evacuation: on hb %v, progress %d, want hb and 2",
				j.ID, inst.Plat == pe.plats["hb"], inst.Progress())
		}
	}

	pe.be.HostKilled("ha")
	for _, j := range jobs {
		if pe.be.Instance(j.ID) == nil {
			t.Fatalf("job %d died with the host it was evacuated from", j.ID)
		}
	}
	if _, err := pe.be.MigrateJob(jobs[0], "ha", 0); err == nil {
		t.Error("evacuating onto the failed host must fail")
	}
	for _, j := range jobs {
		pe.finish(t, j, want)
	}
}

// TestEvacuateThroughStore: an evacuation ships each job's snapshot
// directory into the destination's store — the context manifest there
// lists the chunks the source committed — and once the jobs finish, GC
// empties both stores.
func TestEvacuateThroughStore(t *testing.T) {
	spec := platSpec("ES", 6)
	want := platReference(t, spec)
	pe := newPlatformBackend(t, 2, 1, 0, 4*platFootprint(spec))

	jobs := []*Job{backendJob(1, "ha", 0, spec), backendJob(2, "ha", 0, spec)}
	for _, j := range jobs {
		pe.launch(t, j, 2)
	}
	ships := pe.evacuateHost(t, jobs, "hb")
	for i, j := range jobs {
		if ships[i].BytesShipped == 0 {
			t.Errorf("job %d evacuation shipped nothing", j.ID)
		}
		if pe.ctxDigests(t, "hb", j.ID) != pe.ctxDigests(t, "ha", j.ID) {
			t.Errorf("job %d context manifest on hb differs from the one ha committed", j.ID)
		}
	}
	for _, j := range jobs {
		pe.finish(t, j, want)
	}
	pe.assertStoresEmpty(t)
}
