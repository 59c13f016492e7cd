// Package fleetd is the event-driven fleet control plane (DESIGN.md
// §16): one virtual-clock discrete-event core scheduling thousands of
// offload jobs over hundreds of cards. Jobs arrive on an open-loop
// trace, pass a per-tenant admission queue with backpressure, and are
// bin-packed onto cards scored by free memory, snapshot replica
// locality, and link cost. Card memory oversubscribes: jobs in their
// host think-phase are swapped out through the store-backed Swapout
// path to let another job's offload burst run, higher-priority arrivals
// preempt lower-priority idle jobs, and a whole host drains under a
// deadline in waves of live pre-copy migrations.
//
// The controller is strictly single-threaded: every state change
// happens inside its event loop, ordered by (time, seq) — the submitted
// trace's arrivals stream from a cursor merged with an O(log n) heap of
// the events in flight — so a run is a pure function of its inputs.
// Inside the loop jobs, hosts and cards are records reached by pointer
// and topology index; host names stay at the API edge. Execution
// mechanics and cost pricing hide behind the Backend interface —
// ModelBackend prices operations from the calibrated simclock model at
// 100+ host scale, PlatformBackend drives real simulated platforms
// through the store federation at test scale.
package fleetd

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"snapify/internal/obs"
	"snapify/internal/simclock"
	"snapify/internal/workloads"
)

// JobState is a fleet job's scheduling state.
type JobState int

const (
	// StatePending means admitted and waiting for placement.
	StatePending JobState = iota
	// StateLaunching means the first placement's data motion is in flight.
	StateLaunching
	// StateRunning means an offload burst is executing on a card.
	StateRunning
	// StateThinking means the job is in a host phase; its card memory idles.
	StateThinking
	// StateSwappingOut means a store-backed swap-out is in flight.
	StateSwappingOut
	// StateSwappedOut means the job lives as a snapshot; card memory is free.
	StateSwappedOut
	// StateSwappingIn means a swap-in (or snapshot re-placement) is in flight.
	StateSwappingIn
	// StateMigrating means an evacuation pre-copy migration is in flight.
	StateMigrating
	// StateDone means all bursts completed.
	StateDone
	// StateRejected means admission refused the job (backpressure).
	StateRejected
)

var stateNames = [...]string{"pending", "launching", "running", "thinking", "swapping-out",
	"swapped-out", "swapping-in", "migrating", "done", "rejected"}

func (s JobState) String() string {
	if s >= 0 && int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// states is the set of ss, one bit per state.
func states(ss ...JobState) (set uint16) {
	for _, s := range ss {
		set |= 1 << s
	}
	return set
}

// successors is the job lifecycle: the states setState may move a job
// to from each state. Every placed state may fall back to pending — a
// host death or a preemption requeues the job.
var successors = [...]uint16{
	StatePending:     states(StateLaunching, StateSwappingIn, StateSwappedOut, StateRejected),
	StateLaunching:   states(StateRunning, StatePending),
	StateRunning:     states(StateThinking, StateDone, StateMigrating, StatePending),
	StateThinking:    states(StateRunning, StateSwappingOut, StateMigrating, StatePending),
	StateSwappingOut: states(StateSwappedOut, StatePending),
	StateSwappedOut:  states(StateLaunching, StateSwappingIn, StateMigrating, StatePending),
	StateSwappingIn:  states(StateRunning, StatePending),
	StateMigrating:   states(StateRunning, StateThinking, StateSwappedOut, StatePending),
	StateDone:        0,
	StateRejected:    0,
}

// JobSpec describes one job on the arrival trace. A job alternates
// Bursts offload bursts of BurstLen with host think-phases of ThinkLen
// — the think-phase is when its card memory is idle and the
// oversubscription machinery may reclaim it.
type JobSpec struct {
	ID       int
	Tenant   string
	Priority int
	Arrival  simclock.Duration
	// Footprint is the card memory the job occupies while resident.
	Footprint int64
	Bursts    int
	BurstLen  simclock.Duration
	ThinkLen  simclock.Duration
	// Workload carries the real workload spec in platform-backed mode;
	// the model backend ignores it.
	Workload *workloads.Spec
}

// opKind is a card-engine data-motion op.
type opKind int

const (
	opNone opKind = iota
	opLaunch
	opSwapOut
	opSwapIn
	opMigrate
	opRecover
)

// ops gives each op kind its trace span and the state a job holds
// while the op is in flight.
var ops = [...]struct {
	span  string
	state JobState
}{
	opLaunch:  {"fleet_launch", StateLaunching},
	opSwapOut: {"fleet_swap_out", StateSwappingOut},
	opSwapIn:  {"fleet_swap_in", StateSwappingIn},
	opMigrate: {"fleet_migrate", StateMigrating},
	opRecover: {"fleet_recover", StateSwappingIn},
}

// Job is one job's control-plane record.
type Job struct {
	ID    int
	Spec  JobSpec
	State JobState

	// Host/Card name the job's assignment (committed memory) for
	// display and the platform backend; Card is -1 while unassigned.
	Host string
	Card int
	// cd is the assigned card itself, nil while unassigned.
	cd *card

	epoch      int
	burstsDone int
	// ckptBursts is the progress captured in the last durable snapshot;
	// recovery resumes from it.
	ckptBursts  int
	snapshotted bool
	// launched marks a live execution context on j.Host/j.Card; cleared
	// when the job loses it (host death, preemption eviction).
	launched   bool
	wantsBurst bool

	// preemptEvicts counts this job's in-flight victim swap-outs when it
	// is the preemptor; preemptFor is the preemptor while this job is a
	// victim swapping out, nil otherwise.
	preemptEvicts int
	preemptFor    *Job
	// idleOn is the card whose idle tally counts this job, nil when none
	// does; only touch moves it.
	idleOn *card

	// curOp is the in-flight engine op and opDur its length; it completes
	// opDur after it started.
	curOp opKind
	opDur simclock.Duration
	// dst is an evacuation move's destination while the move is in
	// flight, nil otherwise.
	dst *card

	enqueuedAt   simclock.Duration
	swapWantedAt simclock.Duration
	thinkEndAt   simclock.Duration

	// replicas and swaps are ModelBackend's record of the job: its
	// snapshot's holders as topology indices in host-name order, and how
	// many times it was captured.
	replicas []int
	swaps    int
}

// Done reports whether the job completed all bursts.
func (j *Job) Done() bool { return j.State == StateDone }

// HostTopo describes one host a backend exposes: its name and the card
// memory capacities, in card order.
type HostTopo struct {
	Name  string
	Cards []int64
}

// Backend executes (and prices) the control plane's operations. The
// model backend answers from the calibrated cost model; the platform
// backend drives real simulated hosts. Durations are virtual time on
// the controller's timeline.
type Backend interface {
	// Topology enumerates hosts and card capacities, in placement order.
	Topology() []HostTopo
	// LinkCost prices moving n bytes between two hosts.
	LinkCost(a, b string, n int64) simclock.Duration
	// Launch starts job j on j.Host/j.Card for the first time.
	Launch(j *Job) (simclock.Duration, error)
	// RunBurst executes one offload burst (real compute in platform mode).
	RunBurst(j *Job) error
	// SwapOut captures j through the store-backed swap path and
	// replicates the snapshot; j's card memory is reclaimable after.
	SwapOut(j *Job) (simclock.Duration, error)
	// SwapIn revives j on j.Host/j.Card from the holder `from`.
	SwapIn(j *Job, from string) (simclock.Duration, error)
	// Checkpoint captures a durable replicated snapshot without stopping j.
	Checkpoint(j *Job) (simclock.Duration, error)
	// Replicas returns the topology indices of the hosts holding j's
	// snapshot, in host-name order; dead hosts may be among them. The
	// slice stays the backend's: read it before the next call for j.
	Replicas(j *Job) []int
	// Migrate live pre-copy migrates resident job j to dstHost/dstCard.
	Migrate(j *Job, dstHost string, dstCard int) (simclock.Duration, error)
	// Recover restarts j from a replica onto dstHost/dstCard after its
	// host died or while it is swapped out on a draining host.
	Recover(j *Job, dstHost string, dstCard int) (simclock.Duration, error)
	// Finish releases j's execution resources.
	Finish(j *Job) error
	// HostKilled tells the backend a host died.
	HostKilled(name string)
}

// Options tunes the control plane's policies.
type Options struct {
	// OversubPct caps committed card memory at capacity*OversubPct/100.
	// 100 disables oversubscription.
	OversubPct int
	// QueueDepth bounds each tenant's pending queue; arrivals beyond it
	// are rejected (backpressure). 0 means unbounded.
	QueueDepth int
	// EvacWave is how many migrations one evacuation wave runs
	// concurrently. 0 defaults to 4.
	EvacWave int
	// Trace emits fleet_* spans on the tracer (per-card engine lanes and
	// per-job lifecycle lanes). Off for full-scale benches.
	Trace bool
}

func (o Options) oversubPct() int64 {
	if o.OversubPct < 100 {
		return 100
	}
	return int64(o.OversubPct)
}

func (o Options) evacWave() int {
	if o.EvacWave <= 0 {
		return 4
	}
	return o.EvacWave
}

type card struct {
	hostIdx int
	idx     int
	cap     int64
	// commitCap caps committed: cap * Options.OversubPct / 100.
	commitCap int64
	// committed is the memory promised to the jobs assigned here and to
	// evacuation moves landing here (<= cap * oversub); resident is the
	// memory physically on the card (<= cap), residents' footprints.
	committed int64
	resident  int64
	residents map[int]*Job
	// busyUntil serializes the card's swap/DMA engine: one data-motion
	// op at a time per card, which is also what keeps its trace lane
	// well-nested.
	busyUntil simclock.Duration
	// waiters queues jobs assigned here that want residency, FIFO.
	waiters []*Job
	// retries counts consecutive failed serve attempts; it drives the
	// card-targeted retry backoff and resets on the first success.
	retries int
	// idlers are the card's assigned jobs that preemption may evict:
	// thinking or swapped out, and not already a victim. idle tallies
	// their footprint per priority, in ascending priority order. touch
	// is their only writer.
	idlers map[int]*Job
	idle   []prioBytes
}

// prioBytes is one priority's entry in a card's idle tally.
type prioBytes struct {
	prio  int
	bytes int64
}

// idleBelow is the footprint of the card's idlers below priority prio:
// everything a job of that priority could free here by preemption.
func (c *card) idleBelow(prio int) int64 {
	var n int64
	for _, t := range c.idle {
		if t.prio >= prio {
			break
		}
		n += t.bytes
	}
	return n
}

// addIdle moves priority prio's idle tally by delta bytes.
func (c *card) addIdle(prio int, delta int64) {
	i := 0
	for i < len(c.idle) && c.idle[i].prio < prio {
		i++
	}
	if i == len(c.idle) || c.idle[i].prio != prio {
		c.idle = slices.Insert(c.idle, i, prioBytes{prio: prio})
	}
	c.idle[i].bytes += delta
}

type drainState struct {
	deadline  simclock.Duration
	remaining []*Job
	inflight  int
	waves     int
	moved     int
	done      bool
	met       bool
}

type hostState struct {
	name     string
	idx      int
	cards    []*card
	dead     bool
	draining bool
	drain    *drainState
	assigned map[int]*Job
}

// Stats aggregates one run's control-plane counters.
type Stats struct {
	Submitted   int64
	Admitted    int64
	Rejected    int64
	Completed   int64
	Placements  int64
	Preemptions int64
	// PreemptAborts counts preemption evictions undone because the
	// victim's swap-out failed (the victim is unharmed).
	PreemptAborts int64
	SwapOuts      int64
	SwapIns       int64
	SwapFails     int64
	EvacMoves     int64
	EvacWaves     int64
	EvacFails     int64
	JobsLost      int64
	Recovered     int64
	Restarted     int64
	// BurstNs is the total virtual compute time of completed bursts —
	// the numerator of utilization.
	BurstNs int64
	// Events counts handled controller events (the heap's workload).
	Events int64
	// Makespan is the virtual time of the last completion.
	Makespan simclock.Duration
}

// Controller is the fleet control plane. It is strictly
// single-threaded: drive it with Run/RunUntil and call the mutating
// methods only between runs.
type Controller struct {
	opts Options
	be   Backend
	obs  *obs.Obs

	now    simclock.Duration
	events timeline
	seq    uint64
	// illegal records the first move outside the successor table; step
	// returns it, ending the run at the event that made it.
	illegal error

	pending      jobHeap
	tenantQueued map[string]int

	hosts []*hostState
	// hostIdx and jobs resolve names and IDs at the API edge.
	hostIdx map[string]int
	cards   int

	jobs    map[int]*Job
	order   []*Job // submission order
	drained []*hostState

	stats     Stats
	swapLats  []simclock.Duration
	waitLats  []simclock.Duration
	totalCap  int64
	firstTime simclock.Duration

	// cands and take are preemptPlan's scratch: one card's candidates,
	// and the best plan's victims so far. live is liveHolders'.
	cands, take []*Job
	live        []int
	// blocked is the last queue head that found neither a card nor a
	// preemption plan, nil once recheck or a host death finds that may
	// have changed. dispatch skips its searches while it heads the queue.
	blocked *Job

	mAdmitted, mRejected, mPlacements, mPreempts *obs.Counter
	mSwapOuts, mSwapIns, mEvacMoves, mLost       *obs.Counter
	hSwapLat, hQueueWait                         *obs.Histogram
}

// New builds a controller over the backend's topology.
func New(opts Options, be Backend, o *obs.Obs) *Controller {
	c := &Controller{
		opts:         opts,
		be:           be,
		obs:          o,
		tenantQueued: make(map[string]int),
		hostIdx:      make(map[string]int),
		jobs:         make(map[int]*Job),
	}
	pct := opts.oversubPct()
	for i, ht := range be.Topology() {
		h := &hostState{name: ht.Name, idx: i, assigned: make(map[int]*Job)}
		for ci, capBytes := range ht.Cards {
			h.cards = append(h.cards, &card{hostIdx: i, idx: ci, cap: capBytes, commitCap: capBytes * pct / 100,
				residents: make(map[int]*Job), idlers: make(map[int]*Job)})
			c.totalCap += capBytes
			c.cards++
		}
		c.hosts = append(c.hosts, h)
		c.hostIdx[ht.Name] = i
	}
	reg := o.MetricsOf()
	c.mAdmitted = reg.Counter("fleet_admitted_total", "Jobs admitted past backpressure.")
	c.mRejected = reg.Counter("fleet_rejected_total", "Jobs rejected by admission backpressure.")
	c.mPlacements = reg.Counter("fleet_placements_total", "Placement decisions executed.")
	c.mPreempts = reg.Counter("fleet_preemptions_total", "Jobs evicted by priority preemption.")
	c.mSwapOuts = reg.Counter("fleet_swap_out_total", "Store-backed swap-outs issued.")
	c.mSwapIns = reg.Counter("fleet_swap_in_total", "Swap-ins completed.")
	c.mEvacMoves = reg.Counter("fleet_evac_moves_total", "Jobs moved by evacuation waves.")
	c.mLost = reg.Counter("fleet_jobs_lost_total", "Jobs lost to host failures.")
	bounds := []int64{1e5, 1e6, 1e7, 1e8, 1e9, 1e10}
	c.hSwapLat = reg.Histogram("fleet_swap_latency_ns", "Virtual swap-in latency: burst wanted to burst running.", bounds)
	c.hQueueWait = reg.Histogram("fleet_queue_wait_ns", "Virtual wait from admission to placement.", bounds)
	return c
}

// Stats returns the run counters so far.
func (c *Controller) Stats() Stats { return c.stats }

// CardStatus is one card's occupancy snapshot.
type CardStatus struct {
	CapacityBytes  int64
	CommittedBytes int64
	ResidentBytes  int64
	Residents      int
	Waiters        int
}

// HostStatus is one host's occupancy snapshot.
type HostStatus struct {
	Host     string
	Dead     bool
	Draining bool
	Assigned int
	Cards    []CardStatus
}

// HostStatuses snapshots every host's occupancy in topology order.
func (c *Controller) HostStatuses() []HostStatus {
	out := make([]HostStatus, 0, len(c.hosts))
	for _, h := range c.hosts {
		hs := HostStatus{Host: h.name, Dead: h.dead, Draining: h.draining, Assigned: len(h.assigned)}
		for _, cd := range h.cards {
			hs.Cards = append(hs.Cards, CardStatus{
				CapacityBytes:  cd.cap,
				CommittedBytes: cd.committed,
				ResidentBytes:  cd.resident,
				Residents:      len(cd.residents),
				Waiters:        len(cd.waiters),
			})
		}
		out = append(out, hs)
	}
	return out
}

// PendingJobs returns the admission queue's jobs in submission order
// (the heap's pop order is priority-then-arrival; this is for
// inspection, not dispatch).
func (c *Controller) PendingJobs() []*Job {
	var out []*Job
	for _, j := range c.order {
		if j.State == StatePending {
			out = append(out, j)
		}
	}
	return out
}

// Now returns the controller's virtual time.
func (c *Controller) Now() simclock.Duration { return c.now }

// JobByID returns the job record, or nil.
func (c *Controller) JobByID(id int) *Job { return c.jobs[id] }

// SwapLatencies returns the observed swap-in latencies, sorted.
func (c *Controller) SwapLatencies() []simclock.Duration { return sorted(c.swapLats) }

// QueueWaits returns the observed admission-to-placement waits, sorted.
func (c *Controller) QueueWaits() []simclock.Duration { return sorted(c.waitLats) }

func sorted(ds []simclock.Duration) []simclock.Duration {
	out := slices.Clone(ds)
	slices.Sort(out)
	return out
}

// Percentile returns the p-th percentile (0-100) of a sorted sample
// set, 0 when empty.
func Percentile(sorted []simclock.Duration, p int) simclock.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted) - 1) * p / 100
	return sorted[idx]
}

// UtilizationPct returns card-compute utilization as a per-10000
// fraction: completed burst time over cards x makespan.
func (c *Controller) UtilizationPct() int64 {
	if c.stats.Makespan <= c.firstTime || c.cards == 0 {
		return 0
	}
	window := int64(c.stats.Makespan - c.firstTime)
	return 10000 * c.stats.BurstNs / (int64(c.cards) * window)
}

// EventComparisons returns the event heap's comparison count — the
// complexity-pin tests consume it.
func (c *Controller) EventComparisons() int64 { return c.events.heap.cmps }

func (c *Controller) schedule(at simclock.Duration, kind eventKind, j *Job) {
	c.seq++
	c.events.heap.Push(event{at: at, seq: c.seq, kind: kind, job: j, epoch: j.epoch})
}

func (c *Controller) scheduleControl(at simclock.Duration, kind eventKind, ctl *control) {
	c.seq++
	c.events.heap.Push(event{at: at, seq: c.seq, kind: kind, ctl: ctl})
}

var errUnknownHost = errors.New("fleetd: unknown host")

func (c *Controller) hostByName(name string) (*hostState, error) {
	i, ok := c.hostIdx[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", errUnknownHost, name)
	}
	return c.hosts[i], nil
}

func (c *Controller) cardName(cd *card) string {
	return fmt.Sprintf("%s/%d", c.hosts[cd.hostIdx].name, cd.idx)
}

// SubmitTrace schedules every job on the arrival trace, up to the first
// one it refuses. A job no card can hold is refused: queued, it would
// block its queue's head forever.
func (c *Controller) SubmitTrace(specs []JobSpec) error {
	var largest int64
	for _, h := range c.hosts {
		for _, cd := range h.cards {
			largest = max(largest, cd.cap)
		}
	}
	c.order = slices.Grow(c.order, len(specs))
	c.events.arrivals = slices.Grow(c.events.arrivals, len(specs))
	var err error
	for _, sp := range specs {
		switch {
		case c.jobs[sp.ID] != nil:
			err = fmt.Errorf("fleetd: duplicate job id %d", sp.ID)
		case sp.Bursts < 1 || sp.Footprint <= 0 || sp.BurstLen <= 0:
			err = fmt.Errorf("fleetd: job %d: bursts, footprint and burst length must be positive", sp.ID)
		case sp.Footprint > largest:
			err = fmt.Errorf("fleetd: job %d: footprint %d bytes exceeds every card (largest %d)", sp.ID, sp.Footprint, largest)
		}
		if err != nil {
			break
		}
		j := &Job{ID: sp.ID, Spec: sp, State: StatePending, Card: -1}
		c.jobs[sp.ID] = j
		c.order = append(c.order, j)
		c.stats.Submitted++
		c.seq++
		c.events.arrivals = append(c.events.arrivals, event{at: sp.Arrival, seq: c.seq, kind: evArrival, job: j})
	}
	c.events.sortArrivals()
	return err
}

// Run drives the event loop until no events remain, then checks the run
// ended whole: the card accounting recounts exactly, and every job is
// done or rejected. A job left short of that — a waiter parked past its
// retries included — is named in the error.
func (c *Controller) Run() error {
	if err := c.RunUntil(-1); err != nil {
		return err
	}
	if err := c.checkInvariants(); err != nil {
		return err
	}
	var left []string
	for _, j := range c.order {
		if j.State != StateDone && j.State != StateRejected {
			left = append(left, fmt.Sprintf("job %d (%s)", j.ID, j.State))
		}
	}
	if len(left) > 0 {
		return fmt.Errorf("fleetd: run drained at %v with %d jobs unfinished: %s", c.now, len(left), strings.Join(left, ", "))
	}
	return nil
}

// RunUntil drives the event loop through every event at or before
// `until` (negative: run dry). Virtual time never rewinds.
func (c *Controller) RunUntil(until simclock.Duration) error {
	for e := c.events.next(); e != nil && (until < 0 || e.at <= until); e = c.events.next() {
		if err := c.step(); err != nil {
			return err
		}
	}
	if until >= 0 && until > c.now {
		c.now = until
	}
	return nil
}

// step handles the next event; one must be left.
func (c *Controller) step() error {
	e := c.events.pop()
	c.stats.Events++
	if e.at > c.now {
		c.now = e.at
	}
	if err := c.handle(e); err != nil {
		return err
	}
	return c.illegal
}

func (c *Controller) handle(e event) error {
	j := e.job
	if j != nil && j.epoch != e.epoch {
		return nil // stale: the job's world changed under this event
	}
	var err error
	switch e.kind {
	case evArrival:
		c.admit(j)
	case evBurstEnd:
		err = c.burstEnd(j)
	case evThinkEnd:
		err = c.thinkEnd(j)
	case evOpDone:
		err = c.opDone(j)
	case evEvacuate:
		err = c.startDrain(e.ctl.host, e.ctl.deadline)
	case evServeCard:
		if cd := e.ctl.card; !c.hosts[cd.hostIdx].dead {
			c.serveWaiters(cd)
		}
	}
	if err != nil {
		return err
	}
	return c.dispatch()
}

// --- one writer per fact ---
//
// Each fact of the card accounting has one writer. A job's assignment —
// Job.Host/Card, its host's assigned set and its card's commitment —
// changes only in assign and unassign; an evacuation move's hold on its
// destination in reserve and unreserve; residency in land and lift;
// waiter membership in wait and unwait; and Job.State in setState.
// checkInvariants recounts each of them from the jobs.

// setState moves j to state s, the only writer of Job.State, and
// re-derives j's idle tally. A move the successor table does not allow
// is a controller bug, not a backend failure to retry, so it is kept
// where no retry path can swallow it and the run ends at that event.
func (c *Controller) setState(j *Job, s JobState) {
	if successors[j.State]&(1<<s) == 0 && c.illegal == nil {
		c.illegal = fmt.Errorf("fleetd: at %v: job %d cannot move from %s to %s", c.now, j.ID, j.State, s)
	}
	j.State = s
	c.touch(j)
}

// assign makes cd j's card and commits j's footprint there.
func (c *Controller) assign(j *Job, cd *card) {
	h := c.hosts[cd.hostIdx]
	j.cd, j.Host, j.Card = cd, h.name, cd.idx
	cd.committed += j.Spec.Footprint
	h.assigned[j.ID] = j
	c.touch(j)
}

// unassign releases everything j holds on its card: residency, its
// waiter entry and its commitment.
func (c *Controller) unassign(j *Job) {
	cd := j.cd
	cd.lift(j)
	cd.unwait(j)
	cd.committed -= j.Spec.Footprint
	delete(c.hosts[cd.hostIdx].assigned, j.ID)
	j.cd, j.Host, j.Card = nil, "", -1
	c.touch(j)
	c.recheck(cd)
}

// reserve holds commitment and residency for j on an evacuation move's
// destination while the move is in flight: it lands resident.
func (c *Controller) reserve(j *Job, dst *card) {
	j.dst = dst
	dst.committed += j.Spec.Footprint
	dst.land(j)
}

// unreserve drops the hold reserve took; j.dst stays until the move
// resolves.
func (c *Controller) unreserve(j *Job) {
	j.dst.committed -= j.Spec.Footprint
	j.dst.lift(j)
	c.recheck(j.dst)
}

// land makes j resident on cd.
func (cd *card) land(j *Job) {
	cd.resident += j.Spec.Footprint
	cd.residents[j.ID] = j
}

// lift is the only way out of cd's residents.
func (cd *card) lift(j *Job) {
	if cd.residents[j.ID] != nil {
		cd.resident -= j.Spec.Footprint
		delete(cd.residents, j.ID)
	}
}

// wait queues j, once, for residency on its card.
func (c *Controller) wait(j *Job) {
	if cd := j.cd; !slices.Contains(cd.waiters, j) {
		cd.waiters = append(cd.waiters, j)
	}
}

// unwait drops j's entry, if any, from cd's waiter queue.
func (cd *card) unwait(j *Job) {
	if i := slices.Index(cd.waiters, j); i >= 0 {
		cd.waiters = slices.Delete(cd.waiters, i, i+1)
	}
}

// requeue sends a placed job back to the admission queue: it gives up
// its card and its scheduled future, and places anew, recovering from
// its snapshot when one survives.
func (c *Controller) requeue(j *Job) {
	c.unassign(j)
	j.epoch++
	j.curOp, j.dst = opNone, nil
	j.wantsBurst = false
	j.launched = false
	c.setState(j, StatePending)
	j.enqueuedAt = c.now
	c.tenantQueued[j.Spec.Tenant]++
	c.pending.Push(j)
}

// spare ends v's part in a preemption: its preemptor stops waiting for
// v's swap-out.
func spare(v *Job) {
	if p := v.preemptFor; p != nil {
		p.preemptEvicts--
		v.preemptFor = nil
	}
}

// touch re-derives j's place in the idle tally: a job counts on its
// assigned card while it is thinking or swapped out and not already a
// preemption victim. It runs after every change to one of those inputs:
// the state, the assignment and preemptFor.
func (c *Controller) touch(j *Job) {
	var on *card
	if j.preemptFor == nil && (j.State == StateThinking || j.State == StateSwappedOut) {
		on = j.cd
	}
	if on == j.idleOn {
		return
	}
	if was := j.idleOn; was != nil {
		was.addIdle(j.Spec.Priority, -j.Spec.Footprint)
		delete(was.idlers, j.ID)
	}
	if on != nil {
		on.addIdle(j.Spec.Priority, j.Spec.Footprint)
		on.idlers[j.ID] = j
		c.recheck(on)
	}
	j.idleOn = on
}

// recheck clears the blocked head when cd, whose commitment just
// dropped or whose idle tally just grew, could now take it: it fits, or
// what idles there below its priority covers its deficit. Those two
// writes are the only ones that can make a card feasible, and each
// calls recheck after it, so a head stays blocked only while no card
// could take it.
func (c *Controller) recheck(cd *card) {
	if b := c.blocked; b != nil {
		if deficit := b.Spec.Footprint - (cd.commitCap - cd.committed); deficit <= 0 || cd.idleBelow(b.Spec.Priority) >= deficit {
			c.blocked = nil
		}
	}
}

// --- admission ---

func (c *Controller) admit(j *Job) {
	depth := c.opts.QueueDepth
	if depth > 0 && c.tenantQueued[j.Spec.Tenant] >= depth {
		c.setState(j, StateRejected)
		c.stats.Rejected++
		c.mRejected.Inc()
		return
	}
	c.tenantQueued[j.Spec.Tenant]++
	j.enqueuedAt = c.now
	c.stats.Admitted++
	c.mAdmitted.Inc()
	c.pending.Push(j)
}

// --- placement ---

// findCard scores every placeable card for j and returns the best, or
// nil. Score is lexicographic: replica-locality link cost first (jobs
// with snapshots land near their replicas), then best-fit leftover
// (bin packing), then host/card index for determinism. With needRoom
// the card must also have physical residency headroom — evacuation
// moves land resident immediately, so commit headroom alone (which
// oversubscription inflates past card memory) is not enough for them.
//
// Fit comes before locality: a host's link cost is priced only once one
// of its cards fits, since a host with no fitting card cannot win.
func (c *Controller) findCard(j *Job, needRoom bool) *card {
	// Called even when no host fits: it forgets a snapshot whose every
	// holder died, and later decisions read that.
	holders := c.liveHolders(j)
	var best *card
	var bestLoc simclock.Duration
	var bestLeft int64
	for _, h := range c.hosts {
		if h.dead || h.draining {
			continue
		}
		loc := simclock.Duration(-1) // priced at the host's first fitting card
		for _, cd := range h.cards {
			left := cd.commitCap - cd.committed - j.Spec.Footprint
			if left < 0 {
				continue
			}
			if needRoom && cd.cap-cd.resident < j.Spec.Footprint {
				continue
			}
			if loc < 0 {
				_, loc = c.nearestHolder(h, holders, j.Spec.Footprint)
			}
			if best == nil || loc < bestLoc || (loc == bestLoc && left < bestLeft) {
				best, bestLoc, bestLeft = cd, loc, left
			}
		}
	}
	return best
}

// nearestHolder returns the holder cheapest to move n bytes from onto
// h (the first one on ties) and that link cost; with no holders, -1 and
// 0.
func (c *Controller) nearestHolder(h *hostState, holders []int, n int64) (int, simclock.Duration) {
	from, best := -1, simclock.Duration(0)
	for i, hold := range holders {
		cost := simclock.Duration(0)
		if hold != h.idx {
			cost = c.be.LinkCost(h.name, c.hosts[hold].name, n)
		}
		if i == 0 || cost < best {
			from, best = hold, cost
		}
	}
	return from, best
}

// liveHolders returns j's replica holders on living hosts: the
// backend's slice when none died, else a copy without the dead valid
// until the next call. When the job thought it had a snapshot but every
// holder died, the snapshot is gone: the job restarts from scratch.
func (c *Controller) liveHolders(j *Job) []int {
	if !j.snapshotted {
		return nil
	}
	dead := func(h int) bool { return c.hosts[h].dead }
	out := c.be.Replicas(j)
	if slices.ContainsFunc(out, dead) {
		c.live = slices.DeleteFunc(append(c.live[:0], out...), dead)
		out = c.live
	}
	if len(out) == 0 {
		j.snapshotted = false
		j.burstsDone = 0
		j.ckptBursts = 0
	}
	return out
}

// dispatch places pending jobs head-of-line: the highest-priority job
// places first; when nothing fits it may preempt; while it waits no
// lower-priority job jumps it. It also re-pumps parked evacuation
// drains — jobs that were mid-op when the drain started become movable
// as their ops complete. A head that found neither a card nor a plan is
// not searched for again until recheck says some card could take it.
func (c *Controller) dispatch() error {
	for _, h := range c.drained {
		// Only a parked drain (empty wave) re-pumps here; a partial wave
		// refills when its last move lands, keeping waves batched.
		if h.draining && !h.drain.done && h.drain.inflight == 0 {
			if err := c.pumpDrain(h); err != nil {
				return err
			}
		}
	}
	for c.pending.Len() > 0 {
		j := c.pending.Peek()
		if j.preemptEvicts > 0 || j == c.blocked {
			return nil // its evictions are still in flight, or nothing could place it
		}
		cd := c.findCard(j, false)
		if cd == nil {
			c.tryPreempt(j)
			return nil
		}
		c.pending.Pop()
		c.tenantQueued[j.Spec.Tenant]--
		if err := c.place(j, cd); err != nil {
			return err
		}
	}
	return nil
}

// place assigns j to cd (committing its memory) and, when the card has
// physical room, starts its data motion. When committed memory
// oversubscribes the card, the job queues as a non-resident image and
// the eviction machinery makes room.
func (c *Controller) place(j *Job, cd *card) error {
	c.assign(j, cd)
	c.stats.Placements++
	if c.stats.Placements == 1 {
		// The utilization window opens when work first reaches a card;
		// idle lead time before the trace starts is not the fleet's fault.
		c.firstTime = c.now
	}
	c.mPlacements.Inc()
	wait := c.now - j.enqueuedAt
	c.waitLats = append(c.waitLats, wait)
	c.hQueueWait.Observe(int64(wait))

	if cd.cap-cd.resident >= j.Spec.Footprint {
		cd.land(j)
		return c.placedMotion(j, cd)
	}
	// Oversubscribed: the job waits for residency like a swapped-out
	// one; serveWaiters launches or recovers it once memory frees.
	c.setState(j, StateSwappedOut)
	j.wantsBurst = true
	j.swapWantedAt = c.now
	c.wait(j)
	c.serveWaiters(cd)
	return nil
}

// placedMotion starts the data motion of a freshly placed, resident
// job: a snapshot recovery when a replica survives, a cold launch
// otherwise.
func (c *Controller) placedMotion(j *Job, cd *card) error {
	h := c.hosts[cd.hostIdx]
	holders := c.liveHolders(j)
	if len(holders) > 0 {
		from, _ := c.nearestHolder(h, holders, j.Spec.Footprint)
		j.swapWantedAt = c.now
		dur, err := c.be.Recover(j, h.name, cd.idx)
		if err != nil {
			return fmt.Errorf("fleetd: recovering job %d on %s from %s: %w", j.ID, h.name, c.hosts[from].name, err)
		}
		j.burstsDone = j.ckptBursts
		j.launched = true
		c.startOp(j, opRecover, dur, cd)
		return nil
	}
	dur, err := c.be.Launch(j)
	if err != nil {
		return fmt.Errorf("fleetd: launching job %d on %s: %w", j.ID, h.name, err)
	}
	j.launched = true
	c.startOp(j, opLaunch, dur, cd)
	return nil
}

// tryPreempt evicts the victims preemptPlan picks for j. Swapped
// victims unassign immediately; thinking victims swap out through the
// store first.
func (c *Controller) tryPreempt(j *Job) {
	cd, victims := c.preemptPlan(j)
	if cd == nil {
		c.blocked = j
	}
	for _, v := range victims {
		// Evicting an earlier victim re-serves the card, which may have
		// launched, swapped in or evicted a later one for residency: a
		// victim no longer idle there is no longer the plan's to take.
		if v.idleOn != cd {
			continue
		}
		if v.State == StateSwappedOut {
			c.evictPreempted(v)
			continue
		}
		// Thinking: its state must move through the store first.
		v.preemptFor = j
		c.touch(v)
		j.preemptEvicts++
		v.epoch++ // cancel its scheduled thinkEnd
		if err := c.startSwapOut(v); err != nil {
			// The capture failed; the victim is unharmed (atomic-or-absent).
			c.abortEviction(v)
		}
	}
}

// preemptPlan finds the card where evicting strictly-lower-priority idle
// jobs (thinking or swapped out) frees enough committed memory for j
// with the fewest victims, ties to the earliest card in topology order,
// and returns it with those victims in eviction order; a nil card when
// no card can. It changes nothing. The victims alias c.take and are
// valid until the next call.
func (c *Controller) preemptPlan(j *Job) (*card, []*Job) {
	var best *card
	for _, h := range c.hosts {
		if h.dead || h.draining {
			continue
		}
		for _, cd := range h.cards {
			deficit := j.Spec.Footprint - (cd.commitCap - cd.committed)
			if deficit <= 0 {
				continue // findCard would have taken it
			}
			// The tally is exactly what evicting every candidate below
			// frees, so a card it cannot cover is skipped unwalked.
			if cd.idleBelow(j.Spec.Priority) < deficit {
				continue
			}
			cands := c.cands[:0]
			for _, v := range cd.idlers {
				if v.Spec.Priority < j.Spec.Priority {
					cands = append(cands, v)
				}
			}
			slices.SortFunc(cands, evictOrder)
			take := cands
			for i, v := range cands {
				if deficit -= v.Spec.Footprint; deficit <= 0 {
					take = cands[:i+1]
					break
				}
			}
			// Cards come in topology order, so a tie keeps the earlier one.
			if best == nil || len(take) < len(c.take) {
				best = cd
				c.cands, c.take = c.take, take
			} else {
				c.cands = cands
			}
		}
	}
	if best == nil {
		return nil, nil
	}
	return best, c.take
}

// evictOrder ranks preemption victims: lowest priority first; ties
// prefer swapped-out (free to evict), then latest-returning, then ID.
func evictOrder(a, b *Job) int {
	if a.Spec.Priority != b.Spec.Priority {
		return cmp.Compare(a.Spec.Priority, b.Spec.Priority)
	}
	if aSwapped, bSwapped := a.State == StateSwappedOut, b.State == StateSwappedOut; aSwapped != bSwapped {
		if aSwapped {
			return -1
		}
		return 1
	}
	if a.thinkEndAt != b.thinkEndAt {
		return cmp.Compare(b.thinkEndAt, a.thinkEndAt)
	}
	return cmp.Compare(a.ID, b.ID)
}

// evictPreempted requeues a victim whose state is already safely in the
// store, and re-serves the card it left.
func (c *Controller) evictPreempted(v *Job) {
	cd := v.cd
	c.requeue(v)
	c.stats.Preemptions++
	c.mPreempts.Inc()
	c.serveWaiters(cd)
}

// abortEviction undoes an eviction whose capture failed: the thinking
// victim keeps going as if nothing happened (the failed capture is
// atomic-or-absent).
func (c *Controller) abortEviction(v *Job) {
	spare(v)
	c.touch(v)
	c.stats.PreemptAborts++
	// Its think phase already elapsed conceptually; resume bursting.
	c.schedule(c.now, evThinkEnd, v)
}

// --- engine ops ---

// startOp schedules an engine op completion on j's card. The card's
// engine runs one data-motion op at a time: the op starts when the
// engine frees and the completion event fires dur later.
func (c *Controller) startOp(j *Job, k opKind, dur simclock.Duration, cd *card) {
	start := max(c.now, cd.busyUntil)
	cd.busyUntil = start + dur
	j.curOp, j.opDur = k, dur
	c.setState(j, ops[k].state)
	c.schedule(start+dur, evOpDone, j)
}

// startSwapOut begins a store-backed swap-out of a thinking job.
func (c *Controller) startSwapOut(v *Job) error {
	dur, err := c.be.SwapOut(v)
	if err != nil {
		c.stats.SwapFails++
		return fmt.Errorf("fleetd: swapping out job %d: %w", v.ID, err)
	}
	c.stats.SwapOuts++
	c.mSwapOuts.Inc()
	c.startOp(v, opSwapOut, dur, v.cd)
	return nil
}

// swapOutIdle swaps out thinking job v to free its card's memory for a
// waiter; its think end is re-raised after the swap cycle.
func (c *Controller) swapOutIdle(v *Job) {
	v.epoch++
	v.wantsBurst = false
	if err := c.startSwapOut(v); err != nil {
		c.abortEviction(v)
	}
}

func (c *Controller) opDone(j *Job) error {
	k := j.curOp
	j.curOp = opNone
	c.emitOpSpan(j, k)
	switch k {
	case opSwapOut:
		return c.swapOutDone(j)
	case opMigrate:
		return c.migrateDone(j)
	case opSwapIn, opRecover:
		lat := c.now - j.swapWantedAt
		c.swapLats = append(c.swapLats, lat)
		c.hSwapLat.Observe(int64(lat))
		c.stats.SwapIns++
		c.mSwapIns.Inc()
		c.emitJobSpan(j, "fleet_wait", j.swapWantedAt, lat)
		fallthrough
	case opLaunch:
		return c.startBurst(j)
	}
	return nil
}

func (c *Controller) swapOutDone(j *Job) error {
	cd := j.cd
	cd.lift(j)
	c.setState(j, StateSwappedOut)
	j.snapshotted = true
	j.ckptBursts = j.burstsDone
	if j.preemptFor != nil {
		spare(j)
		c.evictPreempted(j)
	} else if j.wantsBurst {
		// Churn: the job's think phase ended while it was being evicted;
		// it immediately queues to come back.
		c.wait(j)
	} else {
		// Its think clock kept running through the capture; re-raise the
		// burst trigger the eviction's epoch bump canceled.
		c.schedule(max(j.thinkEndAt, c.now), evThinkEnd, j)
	}
	c.serveWaiters(cd)
	return nil
}

// serveWaiters starts swap-ins for the card's waiters while residency
// allows, evicting thinking jobs when it does not.
func (c *Controller) serveWaiters(cd *card) {
	for len(cd.waiters) > 0 {
		j := cd.waiters[0]
		if j.State != StateSwappedOut {
			// Mid-move off the card; a move that fails queues it again.
			cd.unwait(j)
			continue
		}
		if cd.cap-cd.resident < j.Spec.Footprint {
			// Whether or not a victim was found, wait: either the eviction
			// or a later burst end frees the memory, and both re-serve.
			c.evictForResidency(cd)
			return
		}
		cd.land(j)
		var err error
		if j.launched {
			err = c.swapIn(j, cd)
		} else {
			// A placed-but-never-resident job (oversubscribed admission or
			// post-failure requeue): launch or recover, not swap in.
			err = c.placedMotion(j, cd)
		}
		if err != nil {
			// Retryable: the job keeps the head of the queue and a
			// card-targeted retry is arranged — nothing else is
			// guaranteed to touch this card again.
			c.stats.SwapFails++
			cd.lift(j)
			c.scheduleServeRetry(cd)
			return
		}
		cd.unwait(j)
		cd.retries = 0
	}
}

// swapIn revives launched job j on cd, pulling its snapshot from a copy
// on cd's own host when there is one, else from its first live holder.
func (c *Controller) swapIn(j *Job, cd *card) error {
	from := c.hosts[cd.hostIdx]
	if holders := c.liveHolders(j); len(holders) > 0 && !slices.Contains(holders, from.idx) {
		from = c.hosts[holders[0]]
	}
	dur, err := c.be.SwapIn(j, from.name)
	if err != nil {
		return err
	}
	c.startOp(j, opSwapIn, dur, cd)
	return nil
}

// maxServeRetries bounds a card's self-scheduled retry chain: past it
// the waiter parks until another event on the card re-serves it, so a
// backend that fails forever cannot keep the event loop alive forever.
const maxServeRetries = 10

// serveRetryBase is the first retry's backoff; it doubles per
// consecutive failure on the card.
const serveRetryBase = simclock.Duration(1e6) // 1ms virtual

// scheduleServeRetry arranges a card-targeted re-serve after a failed
// swap-in or launch attempt. Without it a failure on a card that no
// later burst end, swap-out, or completion happens to touch would
// strand the waiter queue indefinitely.
func (c *Controller) scheduleServeRetry(cd *card) {
	if cd.retries >= maxServeRetries {
		return
	}
	backoff := serveRetryBase << uint(cd.retries)
	cd.retries++
	c.scheduleControl(c.now+backoff, evServeCard, &control{card: cd})
}

// evictForResidency swaps out the thinking resident whose next burst
// is furthest away (it needs its memory last; ties go to the lowest
// ID). One victim at a time — swap-outs serialize on the card engine
// anyway, and each completion re-runs serveWaiters.
func (c *Controller) evictForResidency(cd *card) {
	var victim *Job
	for _, v := range cd.residents {
		if v.State != StateThinking {
			continue
		}
		if victim == nil || v.thinkEndAt > victim.thinkEndAt ||
			(v.thinkEndAt == victim.thinkEndAt && v.ID < victim.ID) {
			victim = v
		}
	}
	if victim != nil { // else every resident is bursting; a burst end frees one
		c.swapOutIdle(victim)
	}
}

// --- job lifecycle ---

func (c *Controller) startBurst(j *Job) error {
	c.setState(j, StateRunning)
	j.wantsBurst = false
	if err := c.be.RunBurst(j); err != nil {
		return fmt.Errorf("fleetd: job %d burst %d: %w", j.ID, j.burstsDone+1, err)
	}
	c.schedule(c.now+j.Spec.BurstLen, evBurstEnd, j)
	return nil
}

func (c *Controller) burstEnd(j *Job) error {
	j.burstsDone++
	c.stats.BurstNs += int64(j.Spec.BurstLen)
	c.emitJobSpan(j, "fleet_burst", c.now-j.Spec.BurstLen, j.Spec.BurstLen)
	if j.burstsDone >= j.Spec.Bursts {
		return c.complete(j)
	}
	c.setState(j, StateThinking)
	j.thinkEndAt = c.now + j.Spec.ThinkLen
	c.schedule(j.thinkEndAt, evThinkEnd, j)
	// Oversubscription: if someone is waiting for this card's memory,
	// the thinking job's idle footprint is the cheapest thing to
	// reclaim.
	if len(j.cd.waiters) > 0 {
		c.swapOutIdle(j)
	}
	return nil
}

func (c *Controller) thinkEnd(j *Job) error {
	c.emitJobSpan(j, "fleet_think", j.thinkEndAt-j.Spec.ThinkLen, j.Spec.ThinkLen)
	switch j.State {
	case StateThinking:
		// Still resident: burst immediately.
		return c.startBurst(j)
	case StateSwappedOut:
		j.wantsBurst = true
		j.swapWantedAt = c.now
		c.wait(j)
		c.serveWaiters(j.cd)
	case StateSwappingOut:
		// Mid-eviction: remember the burst is due; swapOutDone requeues.
		j.wantsBurst = true
		j.swapWantedAt = c.now
	}
	return nil
}

func (c *Controller) complete(j *Job) error {
	c.setState(j, StateDone)
	c.stats.Completed++
	c.stats.Makespan = c.now
	if err := c.be.Finish(j); err != nil {
		return fmt.Errorf("fleetd: finishing job %d: %w", j.ID, err)
	}
	cd := j.cd
	c.unassign(j)
	c.serveWaiters(cd)
	c.dropFromDrain(c.hosts[cd.hostIdx], j)
	c.serveWaiters(cd)
	return nil
}

// --- invariants ---

// checkInvariants recounts the card accounting from the jobs and
// returns the first disagreement:
//   - 0 <= resident <= cap and 0 <= committed <= cap * oversub;
//   - a card's residents are exactly the jobs resident there — assigned
//     to it, or landing on it by an evacuation move — and its resident
//     and committed bytes are their footprints;
//   - a job that runs, thinks or moves data is resident on its card; a
//     swapped-out one is not; an unassigned one is pending or finished;
//   - every waiter entry names a job assigned to that card, once;
//   - the idle tally holds exactly the thinking and swapped-out jobs
//     that are no preemption victim, and each preemptor's count of
//     in-flight evictions matches its victims;
//   - conservation: admitted = queued + placed + done.
func (c *Controller) checkInvariants() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("fleetd: at %v: "+format, append([]any{c.now}, args...)...)
	}
	type hold struct {
		bytes int64
		jobs  int
	}
	var moving map[*card]hold // evacuation moves landing on each card
	var evicts map[*Job]int   // each preemptor's victims
	placed, listed, victims, evicting := 0, 0, 0, 0
	for _, j := range c.order {
		if p := j.preemptFor; p != nil {
			if j.State != StateSwappingOut {
				return fail("preemption victim %d is %s", j.ID, j.State)
			}
			if evicts == nil {
				evicts = make(map[*Job]int)
			}
			evicts[p]++
			victims++
		}
		evicting += j.preemptEvicts
		if d := j.dst; d != nil && !c.hosts[d.hostIdx].dead {
			if d.residents[j.ID] != j {
				return fail("job %d moving to %s holds no residency there", j.ID, c.cardName(d))
			}
			if moving == nil {
				moving = make(map[*card]hold)
			}
			m := moving[d]
			moving[d] = hold{m.bytes + j.Spec.Footprint, m.jobs + 1}
		}
		if j.cd != nil {
			placed++
		} else if j.State != StatePending && j.State != StateDone && j.State != StateRejected || j.idleOn != nil {
			return fail("unassigned job %d is %s", j.ID, j.State)
		}
	}
	for p, n := range evicts {
		if p.preemptEvicts != n {
			return fail("preemptor %d counts %d evictions, has %d victims", p.ID, p.preemptEvicts, n)
		}
	}
	if victims != evicting {
		return fail("%d evictions counted, %d victims", evicting, victims)
	}
	for _, h := range c.hosts {
		type recount struct {
			committed, resident int64
			residents, idlers   int
			idle                []int64 // per entry of the card's tally
		}
		counts := make([]recount, len(h.cards))
		for _, j := range h.assigned {
			cd := j.cd
			if h.dead || cd == nil || c.hosts[cd.hostIdx] != h || j.Host != h.name || j.Card != cd.idx {
				return fail("host %s lists job %d, assigned to %s/%d", h.name, j.ID, j.Host, j.Card)
			}
			n := &counts[cd.idx]
			n.committed += j.Spec.Footprint
			resident := cd.residents[j.ID] == j
			if resident {
				n.resident += j.Spec.Footprint
				n.residents++
			}
			switch j.State {
			case StatePending, StateDone, StateRejected:
				resident = false
			case StateSwappedOut:
				resident = !resident
			case StateMigrating:
				resident = true
			}
			if !resident {
				return fail("job %d is %s on %s with the wrong residency", j.ID, j.State, c.cardName(cd))
			}
			idle := j.preemptFor == nil && (j.State == StateThinking || j.State == StateSwappedOut)
			if idle != (j.idleOn != nil) || idle && (j.idleOn != cd || cd.idlers[j.ID] != j) {
				return fail("job %d (%s) idle=%v, not so in %s's tally", j.ID, j.State, idle, c.cardName(cd))
			}
			if idle {
				k := slices.IndexFunc(cd.idle, func(e prioBytes) bool { return e.prio == j.Spec.Priority })
				if k < 0 {
					return fail("%s's idle tally has no priority %d", c.cardName(cd), j.Spec.Priority)
				}
				if n.idle == nil {
					n.idle = make([]int64, len(cd.idle))
				}
				n.idle[k] += j.Spec.Footprint
				n.idlers++
			}
		}
		listed += len(h.assigned)
		for i, cd := range h.cards {
			n, m := &counts[i], moving[cd]
			if cd.resident < 0 || cd.resident > cd.cap || cd.committed < 0 || cd.committed > cd.commitCap {
				return fail("card %s resident %d, committed %d, cap %d", c.cardName(cd), cd.resident, cd.committed, cd.cap)
			}
			if cd.committed != n.committed+m.bytes || cd.resident != n.resident+m.bytes || len(cd.residents) != n.residents+m.jobs {
				return fail("card %s committed %d, resident %d in %d jobs; recount %d, %d in %d",
					c.cardName(cd), cd.committed, cd.resident, len(cd.residents), n.committed+m.bytes, n.resident+m.bytes, n.residents+m.jobs)
			}
			for i, w := range cd.waiters {
				if w.cd != cd || slices.Index(cd.waiters, w) != i ||
					w.State != StateSwappedOut && w.State != StateMigrating {
					return fail("card %s queues job %d (%s on %s/%d), not its own waiter or twice", c.cardName(cd), w.ID, w.State, w.Host, w.Card)
				}
			}
			if len(cd.idlers) != n.idlers {
				return fail("card %s has %d idlers, recount %d", c.cardName(cd), len(cd.idlers), n.idlers)
			}
			for k, e := range cd.idle {
				if k > 0 && cd.idle[k-1].prio >= e.prio || n.idle == nil && e.bytes != 0 || n.idle != nil && e.bytes != n.idle[k] {
					return fail("card %s idle tally %v, recount %v", c.cardName(cd), cd.idle, n.idle)
				}
			}
		}
	}
	if placed != listed {
		return fail("%d jobs hold an assignment, their hosts list %d", placed, listed)
	}
	if queued := c.pending.Len(); int64(queued+placed)+c.stats.Completed != c.stats.Admitted {
		return fail("%d queued + %d placed + %d done != %d admitted", queued, placed, c.stats.Completed, c.stats.Admitted)
	}
	return nil
}

// --- tracing ---

func (c *Controller) emitOpSpan(j *Job, k opKind) {
	if !c.opts.Trace || j.opDur <= 0 {
		return
	}
	cd := j.dst // an evacuation move runs on its destination's engine
	if cd == nil {
		cd = j.cd
	}
	tk := c.obs.TracerOf().Track("fleet/"+c.hosts[cd.hostIdx].name, fmt.Sprintf("card%d", cd.idx))
	tk.Emit(0, ops[k].span, c.now-j.opDur, j.opDur, map[string]int64{
		"job":      int64(j.ID),
		"bytes":    j.Spec.Footprint,
		"priority": int64(j.Spec.Priority),
	})
}

func (c *Controller) emitJobSpan(j *Job, name string, start, dur simclock.Duration) {
	if !c.opts.Trace || dur <= 0 {
		return
	}
	tk := c.obs.TracerOf().Track("fleet/jobs", fmt.Sprintf("job%04d", j.ID))
	tk.Emit(0, name, start, dur, map[string]int64{"bursts_done": int64(j.burstsDone)})
}
