package fleetd

// Whole-run checks of the controller: the invariant and no-stranding
// sweeps over generated traces, the regressions they first caught, and
// how Run reports a run that drains unfinished. Two fleet shapes recur:
// the 4-host x 2-card placer-sweep shape (TestPlacerMatchesScan's) and
// the fleet benchmark's smoke shape (12 one-card hosts, 240 jobs, h000
// drained at 500 ms).

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"

	"snapify/internal/obs"
	"snapify/internal/simclock"
)

// smallFleet sets up, without running it, the 4 x 2 sweep shape at
// oversubscription pct: 60 jobs of trace seed, h000 drained at 30 ms.
func smallFleet(t *testing.T, pct int, seed uint64) *Controller {
	t.Helper()
	c := New(Options{OversubPct: pct, QueueDepth: 16, EvacWave: 2},
		NewModelBackend(ModelOptions{Hosts: 4, CardsPerHost: 2, CardMem: 1 << 30, HostsPerRack: 2, ReplicaK: 2}), obs.New())
	if err := c.SubmitTrace(GenerateTrace(TraceConfig{
		Seed: seed, Jobs: 60, Tenants: 6, CardMem: 1 << 30, ThinkScale: 200,
	})); err != nil {
		t.Fatal(err)
	}
	c.ScheduleEvacuation(30*ms, "h000", 600000*ms)
	return c
}

// smokeFleet sets up, without running it, the fleet benchmark's smoke
// shape at oversubscription pct over trace seed.
func smokeFleet(t *testing.T, pct int, seed uint64) *Controller {
	t.Helper()
	const cardMem = 256 << 20
	c := New(Options{OversubPct: pct, QueueDepth: 128},
		NewModelBackend(ModelOptions{Hosts: 12, CardsPerHost: 1, CardMem: cardMem}), obs.New())
	if err := c.SubmitTrace(GenerateTrace(TraceConfig{
		Seed: seed, Jobs: 240, Tenants: 4, CardMem: cardMem, BurstScale: 10, ThinkScale: 400,
	})); err != nil {
		t.Fatal(err)
	}
	c.ScheduleEvacuation(500*ms, "h000", 120000*ms)
	return c
}

// TestSmokeFleetStrandsNoJob: the smoke shape at 200 %, trace seed 32,
// once ended with six admitted jobs never finished. A completed job's
// residency stayed on a card it had left, so the waiters behind it
// never fit.
func TestSmokeFleetStrandsNoJob(t *testing.T) {
	c := smokeFleet(t, 200, 32)
	mustRun(t, c)
	completedAll(t, c)
}

// TestResidencyFollowsAssignment: the 4 x 2 shape at 150 %, trace seed
// 10, once held job 16 in the residents of h001/0 while it was assigned
// to h002/0. A waiter entry left on a card the job had moved off was
// served when the new card had the same index. (An evacuation move is
// resident on its destination before it lands.)
func TestResidencyFollowsAssignment(t *testing.T) {
	c := smallFleet(t, 150, 10)
	for !noEventsLeft(c) {
		if err := c.step(); err != nil {
			t.Fatal(err)
		}
		for _, h := range c.hosts {
			for _, cd := range h.cards {
				for _, j := range cd.residents {
					if j.dst != cd && (j.Host != h.name || j.Card != cd.idx) {
						t.Fatalf("at %v: job %d (%s) resident on %s/%d, assigned to %s/%d",
							c.now, j.ID, j.State, h.name, cd.idx, j.Host, j.Card)
					}
				}
			}
		}
	}
}

// runChecked runs c dry one event at a time with its invariants checked
// after every event, then holds the drained run to what Run holds it to.
func runChecked(t *testing.T, name string, c *Controller) {
	t.Helper()
	for !noEventsLeft(c) {
		if err := c.step(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := c.checkInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// No event is left, so Run only makes its end-of-run checks.
	if err := c.Run(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestNoStrandingSweep: no seed of either shape strands a job or breaks
// an invariant at any event — the 4 x 2 shape over seeds 1-200 at 100,
// 150 and 200 %, the smoke shape over seeds 1-51 at 150 and 200 %.
func TestNoStrandingSweep(t *testing.T) {
	for _, pct := range []int{100, 150, 200} {
		for seed := uint64(1); seed <= 200; seed++ {
			runChecked(t, fmt.Sprintf("4x2 %d%% seed %d", pct, seed), smallFleet(t, pct, seed))
		}
	}
	for _, pct := range []int{150, 200} {
		for seed := uint64(1); seed <= 51; seed++ {
			runChecked(t, fmt.Sprintf("smoke %d%% seed %d", pct, seed), smokeFleet(t, pct, seed))
		}
	}
}

// benchFleet sets up, without running it, the fleet benchmark's full
// shape — 120 one-card hosts, 2400 jobs, h000 drained at 500 ms — at
// oversubscription pct over trace seed.
func benchFleet(t *testing.T, pct int, seed uint64) *Controller {
	t.Helper()
	const cardMem = 256 << 20
	c := New(Options{OversubPct: pct, QueueDepth: 512},
		NewModelBackend(ModelOptions{Hosts: 120, CardsPerHost: 1, CardMem: cardMem}), obs.New())
	if err := c.SubmitTrace(GenerateTrace(TraceConfig{
		Seed: seed, Jobs: 2400, Tenants: 8, CardMem: cardMem, BurstScale: 10, ThinkScale: 400,
	})); err != nil {
		t.Fatal(err)
	}
	c.ScheduleEvacuation(500*ms, "h000", 120000*ms)
	return c
}

// TestBenchShapeNoStranding runs the bench shape at 200 % over trace
// seeds 1-20. Run's own end-of-run checks are the oracle: every
// invariant holds and no job is left unfinished.
func TestBenchShapeNoStranding(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		if err := benchFleet(t, 200, seed).Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// decisionDigest runs c dry one event at a time and hashes every
// handled event — stale ones included — as its virtual time, kind and
// job, and the job's host, card and state after it.
func decisionDigest(t *testing.T, c *Controller) string {
	t.Helper()
	h := fnv.New64a()
	var buf []byte
	for !noEventsLeft(c) {
		e := *c.events.next()
		if err := c.step(); err != nil {
			t.Fatal(err)
		}
		buf = binary.AppendVarint(buf[:0], int64(e.at))
		buf = binary.AppendVarint(buf, int64(e.kind))
		if j := e.job; j == nil {
			buf = binary.AppendVarint(buf, 0)
		} else {
			buf = binary.AppendVarint(buf, int64(j.ID))
			buf = append(buf, j.Host...)
			buf = binary.AppendVarint(buf, int64(j.Card))
			buf = binary.AppendVarint(buf, int64(j.State))
		}
		h.Write(buf)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestDecisionTracePinned pins every decision of the bench shape, at
// 200 % (fleet_oversub) and 100 %, over trace seeds 1, 2 and 42 (the
// bench's own trace): the digests were recorded before the event loop
// moved from ID, name and seq maps to pointers and topology indices
// with the arrivals on a cursor. A change meant to leave the placer's
// behaviour alone must leave them standing.
func TestDecisionTracePinned(t *testing.T) {
	for _, tc := range []struct {
		pct    int
		seed   uint64
		digest string
		events int64
	}{
		{200, 1, "49675c493f6e7c9a", 35338},
		{200, 2, "296e35f9e7219f98", 35066},
		{200, 42, "686f52611f26118f", 34554},
		{100, 1, "3042a0cd52a6713b", 19275},
		{100, 2, "9e8ed1a5401eab40", 19207},
		{100, 42, "ef1111ffa7327029", 19111},
	} {
		c := benchFleet(t, tc.pct, tc.seed)
		if got := decisionDigest(t, c); got != tc.digest || c.Stats().Events != tc.events {
			t.Errorf("%d%% seed %d: digest %s over %d events, pinned %s over %d",
				tc.pct, tc.seed, got, c.Stats().Events, tc.digest, tc.events)
		}
	}
}

// TestRunSteadyStateAllocs is the event loop's allocation gate on the
// model backend. After a warm-up that grows the heap, the maps and the
// replica sets, the rest of the bench shape's run allocates only the
// amortized growth of its latency samples, event heap and maps: about
// 13 B per event (79 before the loop ran on indices and pointers).
func TestRunSteadyStateAllocs(t *testing.T) {
	c := benchFleet(t, 200, 42)
	if err := c.RunUntil(5000 * ms); err != nil {
		t.Fatal(err)
	}
	warm := c.Stats().Events
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	events := c.Stats().Events - warm
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(events)
	t.Logf("%d events after %d of warm-up: %.1f B/event", events, warm, perEvent)
	if perEvent > 24 {
		t.Errorf("the event loop allocates %.1f B/event, want <= 24", perEvent)
	}
}

// TestRecoverSpanOnItsOwnCard: a job that lands by evacuation, is later
// preempted and then recovered onto another card draws its
// fleet_recover span on that card's lane, not on the lane of the move
// that landed it.
func TestRecoverSpanOnItsOwnCard(t *testing.T) {
	o := obs.New()
	c := New(Options{Trace: true}, NewModelBackend(ModelOptions{Hosts: 3, CardsPerHost: 1, CardMem: 1 << 30, ReplicaK: 2}), o)
	// Job 1 starts on h000; job 3 fills h001 for 6 s. h000's evacuation
	// moves job 1 onto h002, where job 2 preempts it while it thinks and
	// then runs for 10 s, so job 1 recovers on h001 once job 3 is done.
	if err := c.SubmitTrace([]JobSpec{
		{ID: 1, Tenant: "a", Priority: 0, Footprint: 512 << 20, Bursts: 20, BurstLen: 10 * ms, ThinkLen: 500 * ms},
		{ID: 2, Tenant: "b", Priority: 2, Arrival: 1000 * ms, Footprint: 1 << 30, Bursts: 1, BurstLen: 10000 * ms},
		{ID: 3, Tenant: "c", Priority: 2, Arrival: 2 * ms, Footprint: 1 << 30, Bursts: 1, BurstLen: 6000 * ms},
	}); err != nil {
		t.Fatal(err)
	}
	c.ScheduleEvacuation(200*ms, "h000", 600000*ms)
	j := c.JobByID(1)
	if !stepUntil(t, c, func() bool { return j.curOp == opRecover }) {
		t.Fatal("setup: job 1 was never recovered")
	}
	if st := c.Stats(); st.EvacMoves != 1 || st.Preemptions != 1 || j.Host != "h001" {
		t.Fatalf("setup: job 1 recovering on %s after %+v, want h001 after one move and one preemption", j.Host, st)
	}
	mustRun(t, c)
	var lanes []string
	for _, s := range o.TracerOf().Spans() {
		if s.Name == "fleet_recover" && s.Args["job"] == 1 {
			lanes = append(lanes, s.Process+" "+s.Thread)
		}
	}
	if fmt.Sprint(lanes) != "[fleet/h001 card0]" {
		t.Fatalf("job 1's recover spans are on %v, want one on fleet/h001 card0", lanes)
	}
}

// stuckSwapInBackend fails every swap-in.
type stuckSwapInBackend struct{ *ModelBackend }

func (stuckSwapInBackend) SwapIn(j *Job, _ string) (simclock.Duration, error) {
	return 0, fmt.Errorf("swap-in of job %d refused", j.ID)
}

// TestRunFailsWithStrandedWaiter: a waiter whose swap-ins always fail
// parks once its card's retries run out and the heap drains under it.
// Run must not report that as a finished run: it names the job.
func TestRunFailsWithStrandedWaiter(t *testing.T) {
	be := stuckSwapInBackend{NewModelBackend(ModelOptions{Hosts: 1, CardsPerHost: 1, CardMem: 1 << 30, ReplicaK: 1})}
	c := New(Options{OversubPct: 200}, be, obs.New())
	if err := c.SubmitTrace([]JobSpec{
		{ID: 1, Tenant: "a", Footprint: 1 << 30, Bursts: 2, BurstLen: 50 * ms, ThinkLen: 200 * ms},
		{ID: 2, Tenant: "b", Footprint: 1 << 30, Bursts: 2, BurstLen: 300 * ms, ThinkLen: 10 * ms},
	}); err != nil {
		t.Fatal(err)
	}
	err := c.Run()
	if err == nil || !strings.Contains(err.Error(), "job 1 (swapped-out)") {
		t.Fatalf("Run = %v, want it to name job 1 left swapped out", err)
	}
	if st := c.Stats(); st.SwapFails <= maxServeRetries {
		t.Fatalf("swap failures %d, want the first and %d retries at least", st.SwapFails, maxServeRetries)
	}
}
