package fleetd

import (
	"fmt"
	"testing"

	"snapify/internal/obs"
	"snapify/internal/simclock"
)

const ms = simclock.Duration(1e6)

// newModel builds a controller over a synthetic fleet.
func newModel(t *testing.T, opts Options, mo ModelOptions) (*Controller, *ModelBackend) {
	t.Helper()
	be := NewModelBackend(mo)
	return New(opts, be, obs.New()), be
}

// simpleSpec is a one-liner job spec for targeted scenarios.
func simpleSpec(id int, tenant string, prio int, at simclock.Duration, fp int64, bursts int) JobSpec {
	return JobSpec{
		ID: id, Tenant: tenant, Priority: prio, Arrival: at,
		Footprint: fp, Bursts: bursts, BurstLen: 4 * ms, ThinkLen: 4 * ms,
	}
}

func mustRun(t *testing.T, c *Controller) {
	t.Helper()
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func completedAll(t *testing.T, c *Controller) {
	t.Helper()
	st := c.Stats()
	if st.Completed != st.Admitted {
		t.Fatalf("completed %d of %d admitted", st.Completed, st.Admitted)
	}
	for _, j := range c.order {
		if j.State != StateDone && j.State != StateRejected {
			t.Errorf("job %d stuck in state %s", j.ID, j.State)
		}
	}
}

// stepUntil advances the controller in 1ms steps, checking invariants
// at every step, until cond holds or the event queue drains. It
// reports whether cond was met.
func stepUntil(t *testing.T, c *Controller, cond func() bool) bool {
	t.Helper()
	for !cond() {
		if c.events.Len() == 0 {
			return false
		}
		if err := c.RunUntil(c.now + 1*ms); err != nil {
			t.Fatal(err)
		}
		if err := c.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	return true
}

// TestEventHeapOrdering pops events in (time, seq) order regardless of
// push order.
func TestEventHeapOrdering(t *testing.T) {
	var h eventHeap
	// Deterministically scrambled times.
	s := uint64(7)
	for i := 0; i < 500; i++ {
		h.Push(event{at: simclock.Duration(splitmix64(&s) % 1000), seq: uint64(i)})
	}
	var prev event
	for i := 0; h.Len() > 0; i++ {
		e := h.Pop()
		if i > 0 && (e.at < prev.at || (e.at == prev.at && e.seq < prev.seq)) {
			t.Fatalf("pop %d out of order: (%d,%d) after (%d,%d)", i, e.at, e.seq, prev.at, prev.seq)
		}
		prev = e
	}
}

// TestEventHeapLogN pins the heap's complexity: total comparisons for n
// pushes and n pops must stay within c*n*log2(n), far under the n^2/4 a
// linear-scan queue would burn.
func TestEventHeapLogN(t *testing.T) {
	for _, n := range []int{1 << 10, 1 << 13} {
		var h eventHeap
		s := uint64(11)
		for i := 0; i < n; i++ {
			h.Push(event{at: simclock.Duration(splitmix64(&s)), seq: uint64(i)})
		}
		for h.Len() > 0 {
			h.Pop()
		}
		log2 := 0
		for v := n; v > 1; v >>= 1 {
			log2++
		}
		bound := int64(3 * n * log2)
		if h.cmps > bound {
			t.Fatalf("n=%d: %d comparisons, O(n log n) bound %d", n, h.cmps, bound)
		}
	}
}

// TestJobHeapPriority orders by priority desc, then arrival, then ID.
func TestJobHeapPriority(t *testing.T) {
	var h jobHeap
	h.Push(&Job{ID: 1, Spec: JobSpec{Priority: 0, Arrival: 5}})
	h.Push(&Job{ID: 2, Spec: JobSpec{Priority: 2, Arrival: 9}})
	h.Push(&Job{ID: 3, Spec: JobSpec{Priority: 2, Arrival: 3}})
	h.Push(&Job{ID: 4, Spec: JobSpec{Priority: 1, Arrival: 1}})
	want := []int{3, 2, 4, 1}
	for _, w := range want {
		if got := h.Pop().ID; got != w {
			t.Fatalf("pop order got job %d, want %d", got, w)
		}
	}
}

// TestAdmissionBackpressure rejects arrivals beyond the per-tenant
// queue depth while capacity is saturated.
func TestAdmissionBackpressure(t *testing.T) {
	c, _ := newModel(t, Options{QueueDepth: 2}, ModelOptions{Hosts: 1, CardsPerHost: 1, CardMem: 1 << 30})
	// One job fills the card; five more from the same tenant arrive
	// while it runs. Depth 2 admits two of them, rejects three.
	var specs []JobSpec
	specs = append(specs, simpleSpec(1, "a", 0, 0, 1<<30, 4))
	for i := 2; i <= 6; i++ {
		specs = append(specs, simpleSpec(i, "a", 0, 1*ms, 1<<30, 1))
	}
	if err := c.SubmitTrace(specs); err != nil {
		t.Fatal(err)
	}
	mustRun(t, c)
	st := c.Stats()
	if st.Rejected != 3 {
		t.Fatalf("rejected %d, want 3 (admitted %d)", st.Rejected, st.Admitted)
	}
	if st.Admitted != 3 || st.Completed != 3 {
		t.Fatalf("admitted %d completed %d, want 3/3", st.Admitted, st.Completed)
	}
	completedAll(t, c)
}

// TestPlacementBestFit packs two half-card jobs onto the same card
// before opening the second card.
func TestPlacementBestFit(t *testing.T) {
	c, _ := newModel(t, Options{}, ModelOptions{Hosts: 1, CardsPerHost: 2, CardMem: 1 << 30})
	// Job 1 takes half of card 0. Job 2 (quarter) should best-fit into
	// card 0's smaller leftover, not the empty card 1.
	if err := c.SubmitTrace([]JobSpec{
		simpleSpec(1, "a", 0, 0, 512<<20, 2),
		simpleSpec(2, "a", 0, 0, 256<<20, 2),
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(1 * ms); err != nil {
		t.Fatal(err)
	}
	j1, j2 := c.JobByID(1), c.JobByID(2)
	if j1.Card != 0 || j2.Card != 0 {
		t.Fatalf("best-fit broke: job1 on card %d, job2 on card %d, want both on 0", j1.Card, j2.Card)
	}
	mustRun(t, c)
	completedAll(t, c)
}

// TestSubmitRejectsOversizedJob: a job larger than every card is
// refused at submission. Queued, it would sit at the head of its
// tenant's queue forever and nothing behind it would ever place.
func TestSubmitRejectsOversizedJob(t *testing.T) {
	c, _ := newModel(t, Options{OversubPct: 300}, ModelOptions{Hosts: 2, CardsPerHost: 2, CardMem: 1 << 30})
	if err := c.SubmitTrace([]JobSpec{simpleSpec(1, "a", 0, 0, 1<<30+1, 2)}); err == nil {
		t.Fatal("a job no card can hold must be refused")
	}
	if err := c.SubmitTrace([]JobSpec{simpleSpec(2, "a", 0, 0, 1<<30, 2)}); err != nil {
		t.Fatalf("a job that fills one card exactly: %v", err)
	}
	mustRun(t, c)
	completedAll(t, c)
}

// TestOversubscriptionSwaps: at 100% two jobs too big to share a card
// serialize with no swaps; at 200% they interleave through the
// store-backed swap path during each other's long think phases,
// raising utilization and shrinking makespan.
func TestOversubscriptionSwaps(t *testing.T) {
	// 256 MiB jobs on a 384 MiB card: one resident at a time, two
	// committed at 200%. Thinks (5s) dwarf the swap cycle (~2s), so
	// oversubscription pays.
	sec := 1000 * ms
	trace := []JobSpec{
		{ID: 1, Tenant: "a", Arrival: 0, Footprint: 256 << 20, Bursts: 4, BurstLen: 100 * ms, ThinkLen: 5 * sec},
		{ID: 2, Tenant: "b", Arrival: 0, Footprint: 256 << 20, Bursts: 4, BurstLen: 100 * ms, ThinkLen: 5 * sec},
	}
	run := func(pct int) (Stats, int64, []simclock.Duration) {
		c, _ := newModel(t, Options{OversubPct: pct}, ModelOptions{Hosts: 1, CardsPerHost: 1, CardMem: 384 << 20})
		if err := c.SubmitTrace(trace); err != nil {
			t.Fatal(err)
		}
		mustRun(t, c)
		completedAll(t, c)
		return c.Stats(), c.UtilizationPct(), c.SwapLatencies()
	}
	flat, flatUtil, _ := run(100)
	over, overUtil, lats := run(200)
	if flat.SwapOuts != 0 {
		t.Fatalf("no-oversub run swapped %d times", flat.SwapOuts)
	}
	if over.SwapOuts == 0 || over.SwapIns == 0 {
		t.Fatalf("oversubscribed run never swapped (outs=%d ins=%d)", over.SwapOuts, over.SwapIns)
	}
	if overUtil <= flatUtil {
		t.Fatalf("oversubscription did not raise utilization: %d <= %d", overUtil, flatUtil)
	}
	if over.Makespan >= flat.Makespan {
		t.Fatalf("oversubscription did not shrink makespan: %v >= %v", over.Makespan, flat.Makespan)
	}
	if len(lats) == 0 || Percentile(lats, 99) <= 0 {
		t.Fatalf("no swap latency samples recorded: %v", lats)
	}
}

// TestPriorityPreemption: a high-priority arrival evicts a thinking
// low-priority job through the store and takes its memory.
func TestPriorityPreemption(t *testing.T) {
	c, _ := newModel(t, Options{}, ModelOptions{Hosts: 1, CardsPerHost: 1, CardMem: 1 << 30})
	// Low-priority job fills the card and has long thinks; the
	// high-priority job arrives during its first think phase.
	if err := c.SubmitTrace([]JobSpec{
		{ID: 1, Tenant: "lo", Priority: 0, Arrival: 0, Footprint: 1 << 30, Bursts: 3, BurstLen: 4 * ms, ThinkLen: 40 * ms},
		{ID: 2, Tenant: "hi", Priority: 2, Arrival: 6 * ms, Footprint: 1 << 30, Bursts: 2, BurstLen: 4 * ms, ThinkLen: 1 * ms},
	}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, c)
	st := c.Stats()
	if st.Preemptions == 0 {
		t.Fatalf("no preemption happened: %+v", st)
	}
	completedAll(t, c)
	// The victim must have come back and finished all bursts.
	if j := c.JobByID(1); !j.Done() {
		t.Fatalf("victim stuck in %s", j.State)
	}
}

// TestPercentile pins the exact-index percentile arithmetic.
func TestPercentile(t *testing.T) {
	s := []simclock.Duration{10, 20, 30, 40}
	if got := Percentile(s, 50); got != 20 {
		t.Fatalf("p50 = %d, want 20", got)
	}
	if got := Percentile(s, 99); got != 30 {
		t.Fatalf("p99 = %d, want 30", got)
	}
	if got := Percentile(nil, 99); got != 0 {
		t.Fatalf("empty p99 = %d, want 0", got)
	}
}

// TestEvacuationWaves drains a host under deadline: every job moves in
// bounded waves and completes elsewhere.
func TestEvacuationWaves(t *testing.T) {
	c, _ := newModel(t, Options{EvacWave: 2}, ModelOptions{Hosts: 3, CardsPerHost: 1, CardMem: 4 << 30})
	// Six eighth-card jobs, all placed on h000 (it fits them all and
	// wins every tie), with enough remaining work (~6s each) that the
	// ~0.5s migrations move them before they finish. Then h000 drains.
	var specs []JobSpec
	for i := 1; i <= 6; i++ {
		specs = append(specs, JobSpec{
			ID: i, Tenant: "a", Arrival: 0, Footprint: 512 << 20,
			Bursts: 4, BurstLen: 50 * ms, ThinkLen: 2000 * ms,
		})
	}
	if err := c.SubmitTrace(specs); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(1 * ms); err != nil {
		t.Fatal(err)
	}
	for _, j := range c.order {
		if j.Host != "h000" {
			t.Fatalf("setup: job %d on %s, want h000", j.ID, j.Host)
		}
	}
	c.ScheduleEvacuation(2*ms, "h000", 60*1000*ms)
	mustRun(t, c)
	completedAll(t, c)
	st := c.Stats()
	if st.EvacMoves == 0 {
		t.Fatal("no evacuation moves")
	}
	// Waves bound concurrency at 2: six jobs need at least 3 waves.
	if st.EvacWaves < 3 {
		t.Fatalf("6 jobs moved in %d waves of 2", st.EvacWaves)
	}
	evs := c.Evacuations()
	if len(evs) != 1 || !evs[0].Done || !evs[0].DeadlineMet {
		t.Fatalf("evacuation report %+v, want done under deadline", evs)
	}
	// The drained host must hold nothing.
	for _, j := range c.order {
		if j.Host == "h000" {
			t.Errorf("job %d still homed on drained host", j.ID)
		}
	}
}

// TestKillHostRecovery: killing a host loses its jobs; those with
// replicated snapshots recover with progress, the rest restart.
func TestKillHostRecovery(t *testing.T) {
	c, be := newModel(t, Options{OversubPct: 200}, ModelOptions{Hosts: 4, CardsPerHost: 1, CardMem: 1 << 30, ReplicaK: 2})
	// Two card-filling jobs on h000 (oversubscribed): their swap churn
	// leaves durable snapshots. One fresh job arrives on another host.
	if err := c.SubmitTrace([]JobSpec{
		simpleSpec(1, "a", 0, 0, 1<<30, 6),
		simpleSpec(2, "b", 0, 0, 1<<30, 6),
	}); err != nil {
		t.Fatal(err)
	}
	// 1 GiB swap cycles price in the seconds; run far enough for the
	// first eviction to land durably.
	if err := c.RunUntil(8000 * ms); err != nil {
		t.Fatal(err)
	}
	if c.Stats().SwapOuts == 0 {
		t.Fatal("setup: no swaps happened before the kill")
	}
	snapshotted := 0
	for _, j := range c.order {
		if j.snapshotted && len(be.Holders(j)) > 1 {
			snapshotted++
		}
	}
	if snapshotted == 0 {
		t.Fatal("setup: no job has a replicated snapshot")
	}
	if err := c.KillHost("h000"); err != nil {
		t.Fatal(err)
	}
	mustRun(t, c)
	completedAll(t, c)
	st := c.Stats()
	if st.JobsLost == 0 {
		t.Fatal("kill lost no jobs")
	}
	if st.Recovered == 0 {
		t.Fatal("no job recovered from its replica")
	}
	for _, j := range c.order {
		if j.Host == "h000" {
			t.Errorf("job %d completed on the dead host", j.ID)
		}
	}
}

// TestGenerateTraceDeterministic: a trace is a pure function of its
// config, and different seeds give different traces.
func TestGenerateTraceDeterministic(t *testing.T) {
	cfg := TraceConfig{Seed: 42, Jobs: 200, Tenants: 5, CardMem: 8 << 30}
	a, b := GenerateTrace(cfg), GenerateTrace(cfg)
	if len(a) != 200 || len(b) != 200 {
		t.Fatalf("trace lengths %d/%d, want 200", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at job %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	cfg.Seed = 43
	cDiff := GenerateTrace(cfg)
	same := true
	for i := range a {
		if a[i] != cDiff[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
	// Arrivals are non-decreasing (open loop).
	for i := 1; i < len(a); i++ {
		if a[i].Arrival < a[i-1].Arrival {
			t.Fatalf("arrival order broken at %d", i)
		}
	}
}

// TestTraceRunConservation runs a generated trace end to end on the
// model backend and checks the conservation laws the bench gate relies
// on.
func TestTraceRunConservation(t *testing.T) {
	c, _ := newModel(t, Options{OversubPct: 150, QueueDepth: 64},
		ModelOptions{Hosts: 8, CardsPerHost: 2, CardMem: 8 << 30})
	trace := GenerateTrace(TraceConfig{Seed: 1, Jobs: 120, Tenants: 4, CardMem: 8 << 30})
	if err := c.SubmitTrace(trace); err != nil {
		t.Fatal(err)
	}
	mustRun(t, c)
	st := c.Stats()
	if st.Admitted+st.Rejected != st.Submitted {
		t.Fatalf("admission leak: %d + %d != %d", st.Admitted, st.Rejected, st.Submitted)
	}
	completedAll(t, c)
	if st.Placements < st.Admitted {
		t.Fatalf("placements %d < admitted %d", st.Placements, st.Admitted)
	}
	if u := c.UtilizationPct(); u <= 0 || u > 10000 {
		t.Fatalf("utilization %d out of range", u)
	}
	if st.SwapOuts != st.SwapIns && st.SwapOuts != st.SwapIns+st.JobsLost {
		// Swapped-out jobs may die with the host instead of swapping in.
		t.Logf("note: swap outs %d, ins %d, lost %d", st.SwapOuts, st.SwapIns, st.JobsLost)
	}
}

// TestUtilizationWindowStartsAtFirstPlacement: utilization is measured
// from the first placement, not from t=0, so a delayed trace reports
// the same utilization as the identical trace starting immediately.
func TestUtilizationWindowStartsAtFirstPlacement(t *testing.T) {
	run := func(offset simclock.Duration) int64 {
		c, _ := newModel(t, Options{}, ModelOptions{Hosts: 1, CardsPerHost: 1, CardMem: 1 << 30})
		if err := c.SubmitTrace([]JobSpec{
			simpleSpec(1, "a", 0, offset, 512<<20, 3),
			simpleSpec(2, "a", 0, offset, 256<<20, 3),
		}); err != nil {
			t.Fatal(err)
		}
		mustRun(t, c)
		completedAll(t, c)
		return c.UtilizationPct()
	}
	immediate, delayed := run(0), run(5000*ms)
	if immediate <= 0 {
		t.Fatalf("utilization %d, want positive", immediate)
	}
	if delayed != immediate {
		t.Fatalf("5s arrival delay changed utilization: %d vs %d — window not anchored at first placement",
			delayed, immediate)
	}
}

// TestEvacDestinationNeedsPhysicalRoom: with oversubscription on, a
// card can have commit headroom while its physical memory is full.
// Evacuation moves land resident, so such a card must not be chosen —
// residency must never exceed card memory.
func TestEvacDestinationNeedsPhysicalRoom(t *testing.T) {
	c, _ := newModel(t, Options{OversubPct: 200},
		ModelOptions{Hosts: 3, CardsPerHost: 1, CardMem: 1 << 30, ReplicaK: 2})
	sec := 1000 * ms
	// Jobs 1+2 oversubscribe h000 and churn through the swap path; job 3
	// holds h001 physically full with long bursts (commit headroom
	// remains at 200%), so h001 is the tempting-but-wrong destination —
	// doubly so for the swapped jobs, whose snapshot replicas land there.
	if err := c.SubmitTrace([]JobSpec{
		{ID: 1, Tenant: "a", Arrival: 0, Footprint: 1 << 30, Bursts: 4, BurstLen: 50 * ms, ThinkLen: 3 * sec},
		{ID: 2, Tenant: "a", Arrival: 0, Footprint: 1 << 30, Bursts: 4, BurstLen: 50 * ms, ThinkLen: 3 * sec},
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
	if j3 := c.JobByID(3); j3.Host != "h001" {
		t.Fatalf("setup: job 3 on %s, want h001", j3.Host)
	}
	c.ScheduleEvacuation(c.now+1*ms, "h000", 600*sec)
	if !stepUntil(t, c, func() bool { return c.events.Len() == 0 }) {
		t.Fatal("unreachable")
	}
	completedAll(t, c)
	if st := c.Stats(); st.EvacMoves == 0 {
		t.Fatalf("evacuation moved nothing: %+v", st)
	}
}

// failSwapInBackend fails the first `failures` swap-in attempts, then
// behaves like the model.
type failSwapInBackend struct {
	*ModelBackend
	failures int
	calls    int
}

func (b *failSwapInBackend) SwapIn(j *Job, from string) (simclock.Duration, error) {
	b.calls++
	if b.calls <= b.failures {
		return 0, fmt.Errorf("transient swap-in failure %d", b.calls)
	}
	return b.ModelBackend.SwapIn(j, from)
}

// TestServeRetryAfterSwapInFailure: a failed swap-in must schedule its
// own card-targeted retry. The scenario is tuned so both transient
// failures strike when no other event would ever touch the card again
// — without the retry the waiter (and the run) stalls forever.
func TestServeRetryAfterSwapInFailure(t *testing.T) {
	be := &failSwapInBackend{
		ModelBackend: NewModelBackend(ModelOptions{Hosts: 1, CardsPerHost: 1, CardMem: 1 << 30, ReplicaK: 1}),
		failures:     2,
	}
	c := New(Options{OversubPct: 200}, be, obs.New())
	// Job 1 runs, swaps out for job 2, and wants back in while job 2
	// occupies the card; every later swap-in attempt for it happens with
	// an otherwise-empty event queue.
	if err := c.SubmitTrace([]JobSpec{
		{ID: 1, Tenant: "a", Arrival: 0, Footprint: 1 << 30, Bursts: 2, BurstLen: 50 * ms, ThinkLen: 200 * ms},
		{ID: 2, Tenant: "b", Arrival: 0, Footprint: 1 << 30, Bursts: 2, BurstLen: 300 * ms, ThinkLen: 10 * ms},
	}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, c)
	st := c.Stats()
	if st.SwapFails != 2 {
		t.Fatalf("swap failures %d, want the 2 injected ones", st.SwapFails)
	}
	if st.Completed != 2 {
		t.Fatalf("completed %d of 2 — the failed swap-in was never retried: %+v", st.Completed, st)
	}
	completedAll(t, c)
}

// TestRunDeterminism: two controllers over the same trace produce
// byte-identical stats — the control plane is a pure function of its
// inputs.
func TestRunDeterminism(t *testing.T) {
	run := func() Stats {
		c, _ := newModel(t, Options{OversubPct: 200, QueueDepth: 32},
			ModelOptions{Hosts: 6, CardsPerHost: 2, CardMem: 8 << 30})
		trace := GenerateTrace(TraceConfig{Seed: 99, Jobs: 150, Tenants: 6, CardMem: 8 << 30})
		if err := c.SubmitTrace(trace); err != nil {
			t.Fatal(err)
		}
		mustRun(t, c)
		return c.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same trace diverged:\n%+v\n%+v", a, b)
	}
}
