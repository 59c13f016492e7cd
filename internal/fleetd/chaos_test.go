package fleetd

// Chaos coverage for the control plane, driven by seeded fault plans:
// a destination host dying mid-evacuation-wave, and a capture crashing
// mid-preemption. The chaosBackend wraps ModelBackend and consults a
// faultinject plan at the two riskiest backend operations; every run
// is a pure function of its seed, so a failure replays from nothing
// but the seed.

import (
	"fmt"
	"testing"

	"snapify/internal/faultinject"
	"snapify/internal/obs"
	"snapify/internal/simclock"
	"snapify/internal/snapstore"
)

// Chaos keys at the federation site: the controller's migrate and
// swap-out choke points.
const (
	chaosMigrateKey = "fleet-migrate"
	chaosSwapKey    = "fleet-swapout"
)

// chaosPlan derives a seeded crash plan over the given keys: n faults
// with trigger ordinals in [1, maxNth], kinds pinned to Crash (the
// meaningful kind at these choke points).
func chaosPlan(seed uint64, keys []string, n, maxNth int) faultinject.Plan {
	menu := make([]faultinject.SiteKey, len(keys))
	for i, k := range keys {
		menu[i] = faultinject.SiteKey{Site: faultinject.SiteFederation, Key: k}
	}
	plan := faultinject.SeededPlan(seed, menu, n, maxNth)
	for i := range plan {
		plan[i].Kind = faultinject.Crash
	}
	return plan
}

// chaosBackend wraps ModelBackend with fault injection: a fired
// migrate fault kills the destination host mid-transfer (the op fails
// with ErrHostDead, as the federation would report it), and a fired
// swap-out fault crashes the capture (clean failure, snapshot absent).
type chaosBackend struct {
	*ModelBackend
	inj *faultinject.Injector
}

func (b *chaosBackend) Migrate(j *Job, dstHost string, dstCard int) (simclock.Duration, error) {
	if f := b.inj.Fire(faultinject.SiteFederation, chaosMigrateKey); f != nil {
		return 0, fmt.Errorf("chaos: migrating job %d to %s: %w", j.ID, dstHost, snapstore.ErrHostDead)
	}
	return b.ModelBackend.Migrate(j, dstHost, dstCard)
}

func (b *chaosBackend) SwapOut(j *Job) (simclock.Duration, error) {
	if f := b.inj.Fire(faultinject.SiteFederation, chaosSwapKey); f != nil {
		return 0, fmt.Errorf("chaos: capture of job %d crashed", j.ID)
	}
	return b.ModelBackend.SwapOut(j)
}

var _ Backend = (*chaosBackend)(nil)

// runChaosEvacuation runs chaosEvacuation to the end and returns the
// final stats.
func runChaosEvacuation(t *testing.T, seed uint64) Stats {
	t.Helper()
	c := chaosEvacuation(t, seed)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return c.Stats()
}

// chaosEvacuation sets up, without running it, the drain of a fully
// packed host while a seeded plan kills migration destinations mid-wave.
func chaosEvacuation(t *testing.T, seed uint64) *Controller {
	t.Helper()
	be := &chaosBackend{
		ModelBackend: NewModelBackend(ModelOptions{
			Hosts: 4, CardsPerHost: 1, CardMem: 4 << 30, ReplicaK: 2,
		}),
		inj: faultinject.New(chaosPlan(seed, []string{chaosMigrateKey}, 2, 4), nil),
	}
	c := New(Options{EvacWave: 4}, be, obs.New())
	var specs []JobSpec
	for id := 1; id <= 8; id++ {
		specs = append(specs, JobSpec{
			ID: id, Tenant: "tenant-a",
			Footprint: 512 << 20, Bursts: 4,
			BurstLen: 50 * ms, ThinkLen: 2000 * ms,
		})
	}
	if err := c.SubmitTrace(specs); err != nil {
		t.Fatal(err)
	}
	c.ScheduleEvacuation(2*ms, "h000", 300000*ms)
	return c
}

// TestChaosFleetEvacuationHostKill packs eight jobs onto one host and
// drains it while the fault plan kills destination hosts mid-wave. The
// controller must absorb the losses — re-routing in-flight moves,
// requeueing jobs stranded on the dead destinations — and still land
// every job on a living host.
func TestChaosFleetEvacuationHostKill(t *testing.T) {
	st := runChaosEvacuation(t, 0xC0FFEE)
	if st.Completed != 8 {
		t.Fatalf("completed %d of 8 jobs: %+v", st.Completed, st)
	}
	if st.EvacFails == 0 {
		t.Fatalf("seeded plan fired no mid-wave host kill: %+v", st)
	}
	if st.EvacMoves == 0 {
		t.Fatalf("evacuation moved nothing: %+v", st)
	}
}

// TestChaosFleetEvacuationSeedReplay replays the evacuation chaos run:
// the same seed must reproduce the identical stats, and other seeds
// must still drive every job to completion.
func TestChaosFleetEvacuationSeedReplay(t *testing.T) {
	a := runChaosEvacuation(t, 0xC0FFEE)
	b := runChaosEvacuation(t, 0xC0FFEE)
	if a != b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		if st := runChaosEvacuation(t, seed); st.Completed != 8 {
			t.Errorf("seed %d: completed %d of 8: %+v", seed, st.Completed, st)
		}
	}
}

// runChaosPreemption runs chaosPreemption to the end and returns the
// final stats.
func runChaosPreemption(t *testing.T, seed uint64) Stats {
	t.Helper()
	c := chaosPreemption(t, seed)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return c.Stats()
}

// chaosPreemption sets up, without running it, a high-priority arrival
// racing a resident low-priority job while a seeded plan crashes
// swap-out captures.
func chaosPreemption(t *testing.T, seed uint64) *Controller {
	t.Helper()
	be := &chaosBackend{
		ModelBackend: NewModelBackend(ModelOptions{
			Hosts: 1, CardsPerHost: 1, CardMem: 1 << 30, ReplicaK: 1,
		}),
		inj: faultinject.New(chaosPlan(seed, []string{chaosSwapKey}, 1, 1), nil),
	}
	c := New(Options{}, be, obs.New())
	specs := []JobSpec{
		{ID: 1, Tenant: "tenant-a", Priority: 0, Arrival: 0,
			Footprint: 1 << 30, Bursts: 3, BurstLen: 10 * ms, ThinkLen: 100 * ms},
		{ID: 2, Tenant: "tenant-b", Priority: 2, Arrival: 200 * ms,
			Footprint: 1 << 30, Bursts: 2, BurstLen: 10 * ms, ThinkLen: 10 * ms},
	}
	if err := c.SubmitTrace(specs); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestChaosFleetPreemptionCrash crashes the eviction capture the first
// time a high-priority arrival preempts the resident job. The aborted
// eviction must leave the victim unharmed and running; the next
// dispatch retries, succeeds, and both jobs finish.
func TestChaosFleetPreemptionCrash(t *testing.T) {
	st := runChaosPreemption(t, 0xBADBEEF)
	if st.Completed != 2 {
		t.Fatalf("completed %d of 2 jobs: %+v", st.Completed, st)
	}
	if st.PreemptAborts == 0 || st.SwapFails == 0 {
		t.Fatalf("seeded plan crashed no capture mid-preemption: %+v", st)
	}
	if st.Preemptions == 0 {
		t.Fatalf("retry after the aborted eviction never preempted: %+v", st)
	}
}

// TestChaosFleetHostKillMidPreemptionEviction kills the victim's host
// while its preemption-eviction swap-out is in flight. The dead host
// must release the pending preemptor's in-flight eviction count —
// otherwise the preemptor blocks the admission queue head-of-line
// forever and nothing ever places again.
func TestChaosFleetHostKillMidPreemptionEviction(t *testing.T) {
	be := NewModelBackend(ModelOptions{Hosts: 2, CardsPerHost: 1, CardMem: 1 << 30, ReplicaK: 2})
	c := New(Options{}, be, obs.New())
	// Jobs 1 and 2 fill the two cards and think long; job 3 arrives
	// mid-think at higher priority and must preempt one of them.
	if err := c.SubmitTrace([]JobSpec{
		{ID: 1, Tenant: "a", Priority: 0, Arrival: 0, Footprint: 1 << 30, Bursts: 3, BurstLen: 10 * ms, ThinkLen: 500 * ms},
		{ID: 2, Tenant: "a", Priority: 0, Arrival: 0, Footprint: 1 << 30, Bursts: 3, BurstLen: 10 * ms, ThinkLen: 500 * ms},
		{ID: 3, Tenant: "b", Priority: 2, Arrival: 250 * ms, Footprint: 1 << 30, Bursts: 2, BurstLen: 10 * ms, ThinkLen: 10 * ms},
	}); err != nil {
		t.Fatal(err)
	}
	var victim *Job
	if !stepUntil(t, c, func() bool {
		for _, j := range c.order {
			if j.preemptFor != nil {
				victim = j
				return true
			}
		}
		return false
	}) {
		t.Fatal("setup: no preemption eviction ever started")
	}
	preemptor := victim.preemptFor
	if preemptor.preemptEvicts == 0 {
		t.Fatalf("setup: victim %d has no pending preemptor", victim.ID)
	}
	// Kill in two phases (KillHost = markHostDead + dispatch) so the
	// accounting is observable before dispatch starts a fresh preemption
	// on the surviving host.
	if err := c.markHostDead(victim.Host); err != nil {
		t.Fatal(err)
	}
	if preemptor.preemptEvicts != 0 {
		t.Fatalf("host kill left preemptor %d with %d in-flight evictions — dispatch is wedged",
			preemptor.ID, preemptor.preemptEvicts)
	}
	if err := c.dispatch(); err != nil {
		t.Fatal(err)
	}
	if !stepUntil(t, c, func() bool { return c.events.Len() == 0 }) {
		t.Fatal("unreachable")
	}
	completedAll(t, c)
	st := c.Stats()
	if st.JobsLost == 0 {
		t.Fatalf("kill lost no jobs: %+v", st)
	}
	if st.Preemptions == 0 {
		t.Fatalf("the released preemptor never preempted on the surviving host: %+v", st)
	}
}

// TestChaosFleetDestKillMidSwappedRecover evacuates a host holding a
// swapped-out job and kills the move's destination while the recover
// is in flight. The job was a snapshot before the move, so it must
// come back as one — not as a thinking job bursting on residency it
// never held (which would corrupt the card's residency accounting).
func TestChaosFleetDestKillMidSwappedRecover(t *testing.T) {
	be := NewModelBackend(ModelOptions{Hosts: 3, CardsPerHost: 1, CardMem: 1 << 30, ReplicaK: 2})
	c := New(Options{OversubPct: 200}, be, obs.New())
	// Jobs 1+2 churn through the swap path on h000, so one of them is a
	// snapshot when the drain starts. Job 3 keeps h001 physically full
	// with long bursts, so after the destination dies there is nowhere
	// to re-route: the failed move must park the job on the source in
	// its true pre-move state instead of hiding the bug behind an
	// instant re-move.
	sec := 1000 * ms
	if err := c.SubmitTrace([]JobSpec{
		{ID: 1, Tenant: "a", Arrival: 0, Footprint: 1 << 30, Bursts: 6, BurstLen: 50 * ms, ThinkLen: 3 * sec},
		{ID: 2, Tenant: "a", Arrival: 0, Footprint: 1 << 30, Bursts: 6, BurstLen: 50 * ms, ThinkLen: 3 * sec},
		{ID: 3, Tenant: "b", Arrival: 0, Footprint: 1 << 30, Bursts: 4, BurstLen: 3 * sec, ThinkLen: 10 * ms},
	}); err != nil {
		t.Fatal(err)
	}
	if !stepUntil(t, c, func() bool {
		for _, j := range c.order {
			if j.Host == "h000" && j.State == StateSwappedOut && j.curOp == opNone {
				return true
			}
		}
		return false
	}) {
		t.Fatal("setup: no job ever sat swapped out on h000")
	}
	c.ScheduleEvacuation(c.now+1*ms, "h000", 600*sec)
	// Wait for a swapped-out job's recover move to be in flight: it is
	// migrating but holds no residency on the source card.
	var moving *Job
	if !stepUntil(t, c, func() bool {
		for _, j := range c.order {
			if j.dst == nil || j.Host != "h000" {
				continue
			}
			if c.cardOf(j).residents[j.ID] == nil {
				moving = j
				return true
			}
		}
		return false
	}) {
		t.Fatal("setup: the drain never moved a swapped-out job")
	}
	if err := c.KillHost(c.hosts[moving.dst.hostIdx].name); err != nil {
		t.Fatal(err)
	}
	// stepUntil's per-step invariant check is the teeth here: the job
	// must never show up running or thinking without residency, and no
	// card's residency may go negative or past capacity.
	if !stepUntil(t, c, func() bool { return c.events.Len() == 0 }) {
		t.Fatal("unreachable")
	}
	completedAll(t, c)
	st := c.Stats()
	if st.EvacFails == 0 {
		t.Fatalf("destination kill produced no failed evacuation move: %+v", st)
	}
}

// TestChaosFleetPreemptionSeedReplay pins determinism of the
// preemption chaos run.
func TestChaosFleetPreemptionSeedReplay(t *testing.T) {
	a := runChaosPreemption(t, 0xBADBEEF)
	b := runChaosPreemption(t, 0xBADBEEF)
	if a != b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}
