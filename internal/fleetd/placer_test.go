package fleetd

// The placer's differential oracle. findCardScan and preemptPlanScan are
// the brute-force placement and preemption searches the indexed ones
// replaced, kept verbatim: findCardScan prices every host's locality
// before testing fit, preemptPlanScan walks every host's assigned jobs
// for each card instead of reading the card's idle tally and idlers.
// Stepping a run one event at a time, the indexed and the scan searches
// must agree on the head job's card and victims after every event, and
// both scans must find nothing for a head dispatch would skip.

import (
	"fmt"
	"sort"
	"testing"

	"snapify/internal/obs"
	"snapify/internal/simclock"
)

// findCardScan is findCard as a brute-force scan: every living host's
// replica locality is priced, fitting or not.
func (c *Controller) findCardScan(j *Job, needRoom bool) *card {
	holders := c.liveHolders(j)
	var best *card
	var bestLoc simclock.Duration
	var bestLeft int64
	for _, h := range c.hosts {
		if h.dead || h.draining {
			continue
		}
		loc := simclock.Duration(0)
		if len(holders) > 0 {
			loc = -1
			for _, hold := range holders {
				cost := simclock.Duration(0)
				if hold != h.idx {
					cost = c.be.LinkCost(h.name, c.hosts[hold].name, j.Spec.Footprint)
				}
				if loc < 0 || cost < loc {
					loc = cost
				}
			}
		}
		for _, cd := range h.cards {
			left := cd.commitCap - cd.committed - j.Spec.Footprint
			if left < 0 {
				continue
			}
			if needRoom && cd.cap-cd.resident < j.Spec.Footprint {
				continue
			}
			if best == nil || loc < bestLoc || (loc == bestLoc && left < bestLeft) {
				best, bestLoc, bestLeft = cd, loc, left
			}
		}
	}
	return best
}

// preemptPlanScan is preemptPlan as a brute-force scan: each card's
// candidates are found by walking its host's assigned jobs.
func (c *Controller) preemptPlanScan(j *Job) (*card, []*Job) {
	type plan struct {
		cd      *card
		victims []*Job
	}
	var best *plan
	for _, h := range c.hosts {
		if h.dead || h.draining {
			continue
		}
		for _, cd := range h.cards {
			deficit := j.Spec.Footprint - (cd.commitCap - cd.committed)
			if deficit <= 0 {
				continue // findCard would have taken it
			}
			var cands []*Job
			for _, v := range h.assigned {
				if v.Card != cd.idx || v.preemptFor != nil {
					continue
				}
				if v.Spec.Priority >= j.Spec.Priority {
					continue
				}
				if v.State == StateThinking || v.State == StateSwappedOut {
					cands = append(cands, v)
				}
			}
			// Evict lowest priority first; ties prefer swapped-out (free
			// to evict), then latest-returning, then ID.
			sort.Slice(cands, func(a, b int) bool {
				va, vb := cands[a], cands[b]
				if va.Spec.Priority != vb.Spec.Priority {
					return va.Spec.Priority < vb.Spec.Priority
				}
				aSwapped, bSwapped := va.State == StateSwappedOut, vb.State == StateSwappedOut
				if aSwapped != bSwapped {
					return aSwapped
				}
				if va.thinkEndAt != vb.thinkEndAt {
					return va.thinkEndAt > vb.thinkEndAt
				}
				return va.ID < vb.ID
			})
			var take []*Job
			freed := int64(0)
			for _, v := range cands {
				take = append(take, v)
				freed += v.Spec.Footprint
				if freed >= deficit {
					break
				}
			}
			if freed < deficit {
				continue
			}
			if best == nil || len(take) < len(best.victims) ||
				(len(take) == len(best.victims) && (cd.hostIdx < best.cd.hostIdx ||
					(cd.hostIdx == best.cd.hostIdx && cd.idx < best.cd.idx))) {
				best = &plan{cd: cd, victims: take}
			}
		}
	}
	if best == nil {
		return nil, nil
	}
	return best.cd, best.victims
}

// placerSweep counts what a differential sweep exercised.
type placerSweep struct {
	events, compared, noCard, plans, skips int
}

// stepCompare runs c dry one event at a time. After every event it
// checks the controller's invariants (the idle tallies the indexed
// searches read among them) and, when dispatch would search for the
// head job, compares the indexed searches with the scans for it:
// findCard with and without needRoom, and preemptPlan. While a job is
// blocked, dispatch skips its searches when it heads the queue, so then
// neither scan may find it a card or a plan.
func stepCompare(t *testing.T, c *Controller, sw *placerSweep) {
	t.Helper()
	for !noEventsLeft(c) {
		if err := c.step(); err != nil {
			t.Fatal(err)
		}
		sw.events++
		if err := c.checkInvariants(); err != nil {
			t.Fatal(err)
		}
		j := c.pending.Peek()
		if b := c.blocked; b != nil {
			if b.State != StatePending {
				t.Fatalf("at %v: blocked job %d is %s", c.now, b.ID, b.State)
			}
			plan, _ := c.preemptPlanScan(b)
			if fit := c.findCardScan(b, false); fit != nil || plan != nil {
				t.Fatalf("at %v: blocked job %d: the scans find card %s, a plan on %s",
					c.now, b.ID, orNone(c, fit), orNone(c, plan))
			}
			if b == j {
				sw.skips++
			}
		}
		if j == nil || j.preemptEvicts > 0 {
			continue
		}
		sw.compared++
		for _, needRoom := range []bool{false, true} {
			got, want := c.findCard(j, needRoom), c.findCardScan(j, needRoom)
			if got != want {
				t.Fatalf("at %v: job %d needRoom=%v: findCard picked %s, the scan %s",
					c.now, j.ID, needRoom, orNone(c, got), orNone(c, want))
			}
			if got == nil && !needRoom {
				sw.noCard++
			}
		}
		gotCd, gotV := c.preemptPlan(j)
		gotIDs := jobIDs(gotV)
		wantCd, wantV := c.preemptPlanScan(j)
		if gotCd != wantCd || fmt.Sprint(gotIDs) != fmt.Sprint(jobIDs(wantV)) {
			t.Fatalf("at %v: job %d: preemptPlan chose %s %v, the scan %s %v",
				c.now, j.ID, orNone(c, gotCd), gotIDs, orNone(c, wantCd), jobIDs(wantV))
		}
		if gotCd != nil {
			sw.plans++
		}
	}
}

func orNone(c *Controller, cd *card) string {
	if cd == nil {
		return "none"
	}
	return c.cardName(cd)
}

func jobIDs(js []*Job) []int {
	ids := make([]int, len(js))
	for i, j := range js {
		ids[i] = j.ID
	}
	return ids
}

// TestPlacerMatchesScan is the indexed placer's differential: seeds 1-50
// of the 4 x 2 sweep shape at 100, 150 and 200 % oversubscription, then
// the kill-mid-evacuation and crash-mid-preemption chaos plans. Every
// run also holds the controller's invariants after every event. The
// sweep must reach a blocked head that dispatch skips.
func TestPlacerMatchesScan(t *testing.T) {
	var sw placerSweep
	for _, pct := range []int{100, 150, 200} {
		for seed := uint64(1); seed <= 50; seed++ {
			stepCompare(t, smallFleet(t, pct, seed), &sw)
		}
	}
	for _, seed := range []uint64{0xC0FFEE, 1, 2, 3} {
		stepCompare(t, chaosEvacuation(t, seed), &sw)
	}
	stepCompare(t, chaosPreemption(t, 0xBADBEEF), &sw)
	t.Logf("%d events, %d head-job comparisons, %d with no card, %d preemption plans, %d with the head blocked",
		sw.events, sw.compared, sw.noCard, sw.plans, sw.skips)
	if sw.noCard == 0 || sw.plans == 0 || sw.skips == 0 {
		t.Fatalf("the sweep never exercised preemption or a skipped head: %+v", sw)
	}
}

// TestFindCardForgetsDeadSnapshotWithoutFit: findCard drops a snapshot
// whose every holder died even when no card fits. Fit-before-locality
// must not skip that: an evacuation move that finds no destination
// still restarts such a job's progress, and later decisions see it.
func TestFindCardForgetsDeadSnapshotWithoutFit(t *testing.T) {
	c, _ := newModel(t, Options{}, ModelOptions{Hosts: 2, CardsPerHost: 1, CardMem: 1 << 30})
	c.markHostDead(c.hosts[1])
	// h000 full: nothing fits.
	c.assign(&Job{ID: 2, Spec: simpleSpec(2, "a", 0, 0, 1<<30, 1)}, c.hosts[0].cards[0])
	j := &Job{ID: 1, Spec: simpleSpec(1, "a", 0, 0, 1<<30, 4), Card: -1,
		snapshotted: true, burstsDone: 2, ckptBursts: 2}
	j.replicas = []int{1}
	if cd := c.findCard(j, false); cd != nil {
		t.Fatalf("placed on %s with the fleet full", orNone(c, cd))
	}
	if j.snapshotted || j.burstsDone != 0 || j.ckptBursts != 0 {
		t.Fatalf("snapshot with no living holder kept: snapshotted=%v bursts done %d, checkpointed %d",
			j.snapshotted, j.burstsDone, j.ckptBursts)
	}
}

// TestDispatchForgetsDeadSnapshotOfBlockedHead: a queue head that is
// blocked while its only snapshot holder drains elsewhere, and that
// holder then dies, has its snapshot forgotten by the dispatch that
// follows the death. The death frees no card the head could take, so
// only the host-death reset sends dispatch back to liveHolders.
func TestDispatchForgetsDeadSnapshotOfBlockedHead(t *testing.T) {
	c, _ := newModel(t, Options{}, ModelOptions{Hosts: 2, CardsPerHost: 1, CardMem: 1 << 30})
	// h000 full; h001 draining and empty, so no card can take the head.
	c.assign(&Job{ID: 2, Spec: simpleSpec(2, "a", 0, 0, 1<<30, 1)}, c.hosts[0].cards[0])
	if err := c.startDrain("h001", 1000*ms); err != nil {
		t.Fatal(err)
	}
	j := &Job{ID: 1, Spec: simpleSpec(1, "a", 0, 0, 1<<30, 4), Card: -1,
		snapshotted: true, burstsDone: 2, ckptBursts: 2}
	j.replicas = []int{1}
	c.pending.Push(j)
	if err := c.dispatch(); err != nil {
		t.Fatal(err)
	}
	if c.blocked != j || !j.snapshotted {
		t.Fatalf("setup: blocked %v, snapshotted %v; want job 1 blocked with its snapshot", c.blocked, j.snapshotted)
	}
	if err := c.KillHost("h001"); err != nil {
		t.Fatal(err)
	}
	if j.snapshotted || j.burstsDone != 0 || j.ckptBursts != 0 {
		t.Fatalf("snapshot with no living holder kept: snapshotted=%v bursts done %d, checkpointed %d",
			j.snapshotted, j.burstsDone, j.ckptBursts)
	}
}

// TestModelBackendRackIndex: reading racks off the host index prices
// every pair exactly as parsing the host names did.
func TestModelBackendRackIndex(t *testing.T) {
	b := NewModelBackend(ModelOptions{Hosts: 40, CardsPerHost: 1, CardMem: 1 << 30, HostsPerRack: 16})
	for _, a := range b.names {
		for _, z := range b.names {
			var ia, iz int
			if _, err := fmt.Sscanf(a, "h%d", &ia); err != nil {
				t.Fatal(err)
			}
			if _, err := fmt.Sscanf(z, "h%d", &iz); err != nil {
				t.Fatal(err)
			}
			want := b.cross.Cost(1 << 20)
			if a == z {
				want = 0
			} else if ia/16 == iz/16 {
				want = b.local.Cost(1 << 20)
			}
			if got := b.LinkCost(a, z, 1<<20); got != want {
				t.Fatalf("LinkCost(%s, %s) = %v, want %v", a, z, got, want)
			}
			if got := b.link(ia, iz, 1<<20); got != want {
				t.Fatalf("link(%d, %d) = %v, want %v", ia, iz, got, want)
			}
		}
	}
	if b.rackOf("h040") != -1 || b.rackOf("x") != -1 {
		t.Fatal("a host the backend did not name has a rack")
	}
}

// holderFrom records where each swap-in pulls its snapshot from.
type holderFrom struct {
	*ModelBackend
	from []string
}

func (b *holderFrom) SwapIn(j *Job, from string) (simclock.Duration, error) {
	b.from = append(b.from, from)
	return b.ModelBackend.SwapIn(j, from)
}

// TestHolderOrderPastH999: with 1001 hosts, index order and name order
// part ("h1000" < "h999"). A replica set is kept in name order, as
// sorting the names did, so the first-on-ties holder nearestHolder
// picks and the first holder swapIn falls back to are the first by
// name, not by index.
func TestHolderOrderPastH999(t *testing.T) {
	be := &holderFrom{ModelBackend: NewModelBackend(ModelOptions{Hosts: 1001, CardsPerHost: 1, CardMem: 1 << 30, ReplicaK: 2})}
	c := New(Options{}, be, obs.New())
	j := &Job{ID: 1, Spec: simpleSpec(1, "a", 0, 0, 256<<20, 2), Card: -1}
	c.assign(j, c.hosts[999].cards[0])
	if _, err := be.SwapOut(j); err != nil {
		t.Fatal(err)
	}
	j.snapshotted = true
	var names []string
	for _, h := range c.liveHolders(j) {
		names = append(names, c.hosts[h].name)
	}
	if want := []string{"h1000", "h999"}; fmt.Sprint(names) != fmt.Sprint(want) || !sort.StringsAreSorted(names) {
		t.Fatalf("holders %v, want %v", names, want)
	}
	// h993 shares h999's and h1000's rack: a tie the name order breaks.
	if from, _ := c.nearestHolder(c.hosts[993], c.liveHolders(j), j.Spec.Footprint); c.hosts[from].name != "h1000" {
		t.Fatalf("nearest holder to h993 is %s, want h1000", c.hosts[from].name)
	}
	c.unassign(j)
	c.assign(j, c.hosts[5].cards[0])
	if err := c.swapIn(j, j.cd); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(be.from) != "[h1000]" {
		t.Fatalf("swap-in onto h005 pulled from %v, want [h1000]", be.from)
	}
}

// BenchmarkControllerRun runs the bench's fleet_oversub shape: 20 jobs
// per one-card host at 200 % oversubscription, h000 drained at 500 ms.
// hosts=120 is the shape itself (2400 jobs); hosts=1000 scales it the
// way the bench's fleet-size probe does, with the arrival rate and the
// admission queues growing with the fleet so the load per host stays
// the same. Set-up (New, SubmitTrace) is outside the timer.
func BenchmarkControllerRun(b *testing.B) {
	const cardMem = 256 << 20
	for _, hosts := range []int{120, 1000} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			specs := GenerateTrace(TraceConfig{
				Seed: 42, Jobs: 20 * hosts, Tenants: 8, CardMem: cardMem, BurstScale: 10, ThinkScale: 400,
				BurstEvery: 20 * ms * 120 / simclock.Duration(hosts), MeanGap: ms * 120 / simclock.Duration(hosts),
			})
			b.ReportAllocs()
			var events int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := New(Options{OversubPct: 200, QueueDepth: 512 * hosts / 120},
					NewModelBackend(ModelOptions{Hosts: hosts, CardsPerHost: 1, CardMem: cardMem}), obs.New())
				if err := c.SubmitTrace(specs); err != nil {
					b.Fatal(err)
				}
				c.ScheduleEvacuation(500*ms, "h000", 120000*ms)
				b.StartTimer()
				if err := c.Run(); err != nil {
					b.Fatal(err)
				}
				events += c.Stats().Events
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}
