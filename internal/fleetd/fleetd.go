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
// happens inside its event loop, ordered by an O(log n) (time, seq)
// event heap, so a run is a pure function of its inputs. Execution
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
	"sort"

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

func (s JobState) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateLaunching:
		return "launching"
	case StateRunning:
		return "running"
	case StateThinking:
		return "thinking"
	case StateSwappingOut:
		return "swapping-out"
	case StateSwappedOut:
		return "swapped-out"
	case StateSwappingIn:
		return "swapping-in"
	case StateMigrating:
		return "migrating"
	case StateDone:
		return "done"
	case StateRejected:
		return "rejected"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
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

type opKind int

const (
	opNone opKind = iota
	opLaunch
	opSwapOut
	opSwapIn
	opMigrate
	opRecover
)

func (k opKind) spanName() string {
	switch k {
	case opLaunch:
		return "fleet_launch"
	case opSwapOut:
		return "fleet_swap_out"
	case opSwapIn:
		return "fleet_swap_in"
	case opMigrate:
		return "fleet_migrate"
	case opRecover:
		return "fleet_recover"
	default:
		return "fleet_op"
	}
}

// Job is one job's control-plane record.
type Job struct {
	ID    int
	Spec  JobSpec
	State JobState

	// Host/Card locate the job's assignment (committed memory); Card is
	// -1 while unassigned.
	Host string
	Card int

	epoch      int
	burstsDone int
	// ckptBursts is the progress captured in the last durable snapshot;
	// recovery resumes from it.
	ckptBursts  int
	snapshotted bool
	// launched marks a live execution context on j.Host/j.Card; cleared
	// when the job loses it (host death, preemption eviction).
	launched bool

	wantsBurst     bool
	beingPreempted bool
	// preemptEvicts counts this job's in-flight victim swap-outs when it
	// is the preemptor; preemptFor names the preemptor when this job is
	// the victim.
	preemptEvicts int
	preemptFor    int
	// idleOn is the card whose idle tally counts this job, nil when none
	// does; only touch moves it.
	idleOn *card

	curOp   opKind
	opStart simclock.Duration
	opDur   simclock.Duration
	// opPreempt marks an in-flight swap-out as a preemption eviction.
	opPreempt bool
	// opDst is the destination of an in-flight migrate/recover.
	opDstHost string
	opDstCard int

	enqueuedAt   simclock.Duration
	swapWantedAt simclock.Duration
	thinkStart   simclock.Duration
	thinkEndAt   simclock.Duration
	burstStart   simclock.Duration
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
	// Holders returns the living replica holders of j's snapshot, sorted.
	Holders(j *Job) []string
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
	// committed is the memory promised to assigned jobs (<= cap *
	// oversub); resident is the memory physically on the card (<= cap).
	committed int64
	resident  int64
	residents map[int]*Job
	// busyUntil serializes the card's swap/DMA engine: one data-motion
	// op at a time per card, which is also what keeps its trace lane
	// well-nested.
	busyUntil simclock.Duration
	// waiters queues job IDs wanting residency (swap-in), FIFO.
	waiters []int
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

func (c *card) commitCap(pct int64) int64 { return c.cap * pct / 100 }

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
	remaining []int
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
	events eventHeap
	seq    uint64

	pending      jobHeap
	tenantQueued map[string]int

	hosts   []*hostState
	hostIdx map[string]int
	cards   int

	jobs     map[int]*Job
	order    []int
	controls map[uint64]controlPayload
	drained  []string

	stats     Stats
	swapLats  []simclock.Duration
	waitLats  []simclock.Duration
	totalCap  int64
	firstTime simclock.Duration

	// cands and take are preemptPlan's scratch: one card's candidates,
	// and the best plan's victims so far.
	cands, take []*Job

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
		controls:     make(map[uint64]controlPayload),
	}
	for i, ht := range be.Topology() {
		h := &hostState{name: ht.Name, idx: i, assigned: make(map[int]*Job)}
		for ci, capBytes := range ht.Cards {
			h.cards = append(h.cards, &card{hostIdx: i, idx: ci, cap: capBytes, residents: make(map[int]*Job)})
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
	for _, id := range c.order {
		if j := c.jobs[id]; j != nil && j.State == StatePending {
			out = append(out, j)
		}
	}
	return out
}

// Now returns the controller's virtual time.
func (c *Controller) Now() simclock.Duration { return c.now }

// JobByID returns the job record, or nil.
func (c *Controller) JobByID(id int) *Job { return c.jobs[id] }

// Jobs returns all jobs in submission order.
func (c *Controller) Jobs() []*Job {
	out := make([]*Job, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.jobs[id])
	}
	return out
}

// SwapLatencies returns the observed swap-in latencies, sorted.
func (c *Controller) SwapLatencies() []simclock.Duration {
	out := append([]simclock.Duration(nil), c.swapLats...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// QueueWaits returns the observed admission-to-placement waits, sorted.
func (c *Controller) QueueWaits() []simclock.Duration {
	out := append([]simclock.Duration(nil), c.waitLats...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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
func (c *Controller) EventComparisons() int64 { return c.events.cmps }

func (c *Controller) schedule(at simclock.Duration, kind eventKind, j *Job) {
	c.seq++
	e := event{at: at, seq: c.seq, kind: kind}
	if j != nil {
		e.job = j.ID
		e.epoch = j.epoch
	}
	c.events.Push(e)
}

// control events carry their payload out of band, keyed by seq.
type controlPayload struct {
	host     string
	deadline simclock.Duration
	// card targets an evServeCard retry at one card's waiter queue.
	card int
}

var errUnknownHost = errors.New("fleetd: unknown host")

func (c *Controller) hostByName(name string) (*hostState, error) {
	i, ok := c.hostIdx[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", errUnknownHost, name)
	}
	return c.hosts[i], nil
}

// SubmitTrace schedules every job on the arrival trace. A job no card
// can hold is refused: queued, it would block its queue's head forever.
func (c *Controller) SubmitTrace(specs []JobSpec) error {
	var largest int64
	for _, h := range c.hosts {
		for _, cd := range h.cards {
			largest = max(largest, cd.cap)
		}
	}
	for _, sp := range specs {
		if _, ok := c.jobs[sp.ID]; ok {
			return fmt.Errorf("fleetd: duplicate job id %d", sp.ID)
		}
		if sp.Bursts < 1 || sp.Footprint <= 0 || sp.BurstLen <= 0 {
			return fmt.Errorf("fleetd: job %d: bursts, footprint and burst length must be positive", sp.ID)
		}
		if sp.Footprint > largest {
			return fmt.Errorf("fleetd: job %d: footprint %d bytes exceeds every card (largest %d)", sp.ID, sp.Footprint, largest)
		}
		j := &Job{ID: sp.ID, Spec: sp, State: StatePending, Card: -1}
		c.jobs[sp.ID] = j
		c.order = append(c.order, sp.ID)
		c.stats.Submitted++
		c.schedule(sp.Arrival, evArrival, j)
	}
	return nil
}

// Run drives the event loop until no events remain.
func (c *Controller) Run() error { return c.RunUntil(-1) }

// RunUntil drives the event loop through every event at or before
// `until` (negative: run dry). Virtual time never rewinds.
func (c *Controller) RunUntil(until simclock.Duration) error {
	for c.events.Len() > 0 {
		if until >= 0 && c.events.es[0].at > until {
			break
		}
		if err := c.step(); err != nil {
			return err
		}
	}
	if until >= 0 && until > c.now {
		c.now = until
	}
	return nil
}

// step handles the next event; the heap must not be empty.
func (c *Controller) step() error {
	e := c.events.Pop()
	c.stats.Events++
	if e.at > c.now {
		c.now = e.at
	}
	return c.handle(e)
}

func (c *Controller) handle(e event) error {
	var j *Job
	if e.job != 0 {
		j = c.jobs[e.job]
		if j == nil || j.epoch != e.epoch {
			return nil // stale: the job's world changed under this event
		}
	}
	switch e.kind {
	case evArrival:
		c.admit(j)
	case evBurstEnd:
		if err := c.burstEnd(j); err != nil {
			return err
		}
	case evThinkEnd:
		if err := c.thinkEnd(j); err != nil {
			return err
		}
	case evOpDone:
		if err := c.opDone(j); err != nil {
			return err
		}
	case evEvacuate:
		p := c.controls[e.seq]
		delete(c.controls, e.seq)
		if err := c.startDrain(p.host, p.deadline); err != nil {
			return err
		}
	case evServeCard:
		p := c.controls[e.seq]
		delete(c.controls, e.seq)
		if h, err := c.hostByName(p.host); err == nil && !h.dead {
			c.serveWaiters(h.cards[p.card])
		}
	case evHeartbeat:
		// fallthrough to dispatch below
	}
	return c.dispatch()
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
	pct := c.opts.oversubPct()
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
			left := cd.commitCap(pct) - cd.committed - j.Spec.Footprint
			if left < 0 {
				continue
			}
			if needRoom && cd.cap-cd.resident < j.Spec.Footprint {
				continue
			}
			if loc < 0 {
				_, loc = c.nearestHolder(h.name, holders, j.Spec.Footprint)
			}
			if best == nil || loc < bestLoc || (loc == bestLoc && left < bestLeft) {
				best, bestLoc, bestLeft = cd, loc, left
			}
		}
	}
	return best
}

// nearestHolder returns the holder cheapest to move n bytes from onto
// host (the first one on ties) and that link cost; with no holders, ""
// and 0.
func (c *Controller) nearestHolder(host string, holders []string, n int64) (string, simclock.Duration) {
	from, best := "", simclock.Duration(0)
	for i, hold := range holders {
		cost := simclock.Duration(0)
		if hold != host {
			cost = c.be.LinkCost(host, hold, n)
		}
		if i == 0 || cost < best {
			from, best = hold, cost
		}
	}
	return from, best
}

// liveHolders returns j's replica holders on living hosts. When the
// job thought it had a snapshot but every holder died, the snapshot is
// gone: the job restarts from scratch.
func (c *Controller) liveHolders(j *Job) []string {
	if !j.snapshotted {
		return nil
	}
	var out []string
	for _, h := range c.be.Holders(j) {
		if hs, err := c.hostByName(h); err == nil && !hs.dead {
			out = append(out, h)
		}
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
// as their ops complete.
func (c *Controller) dispatch() error {
	for _, name := range c.drained {
		h, err := c.hostByName(name)
		if err != nil {
			return err
		}
		// Only a parked drain (empty wave) re-pumps here; a partial wave
		// refills when its last move lands, keeping waves batched.
		if h.draining && h.drain != nil && !h.drain.done && h.drain.inflight == 0 {
			if err := c.pumpDrain(h); err != nil {
				return err
			}
		}
	}
	for c.pending.Len() > 0 {
		j := c.pending.Peek()
		if j.preemptEvicts > 0 {
			return nil // its evictions are still in flight
		}
		cd := c.findCard(j, false)
		if cd == nil {
			if c.tryPreempt(j) {
				return nil
			}
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
	h := c.hosts[cd.hostIdx]
	j.Host, j.Card = h.name, cd.idx
	cd.committed += j.Spec.Footprint
	h.assigned[j.ID] = j
	c.touch(j)
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
		cd.resident += j.Spec.Footprint
		cd.residents[j.ID] = j
		return c.placedMotion(j, cd)
	}
	// Oversubscribed: the job waits for residency like a swapped-out
	// one; serveWaiters launches or recovers it once memory frees.
	c.setState(j, StateSwappedOut)
	j.wantsBurst = true
	j.swapWantedAt = c.now
	cd.waiters = append(cd.waiters, j.ID)
	c.serveWaiters(cd)
	return nil
}

// placedMotion starts the data motion of a freshly placed, resident
// job: a snapshot recovery when a replica survives, a cold launch
// otherwise. The caller has already reserved committed and resident
// memory on cd.
func (c *Controller) placedMotion(j *Job, cd *card) error {
	h := c.hosts[cd.hostIdx]
	holders := c.liveHolders(j)
	if len(holders) > 0 {
		from, _ := c.nearestHolder(h.name, holders, j.Spec.Footprint)
		j.swapWantedAt = c.now
		dur, err := c.be.Recover(j, h.name, cd.idx)
		if err != nil {
			return fmt.Errorf("fleetd: recovering job %d on %s from %s: %w", j.ID, h.name, from, err)
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
// store first. Returns true when a preemption started.
func (c *Controller) tryPreempt(j *Job) bool {
	cd, victims := c.preemptPlan(j)
	if cd == nil {
		return false
	}
	for _, v := range victims {
		v.beingPreempted = true
		c.touch(v)
		if v.State == StateSwappedOut {
			c.evictPreempted(v)
			continue
		}
		// Thinking: its state must move through the store first.
		j.preemptEvicts++
		v.preemptFor = j.ID
		v.epoch++ // cancel its scheduled thinkEnd
		if err := c.startSwapOut(v, true); err != nil {
			// The capture failed; the victim is unharmed (atomic-or-absent).
			c.abortEviction(v, j)
		}
	}
	return true
}

// preemptPlan finds the card where evicting strictly-lower-priority idle
// jobs (thinking or swapped out) frees enough committed memory for j
// with the fewest victims, ties to the earliest card in topology order,
// and returns it with those victims in eviction order; a nil card when
// no card can. It changes nothing. The victims alias c.take and are
// valid until the next call.
func (c *Controller) preemptPlan(j *Job) (*card, []*Job) {
	pct := c.opts.oversubPct()
	var best *card
	for _, h := range c.hosts {
		if h.dead || h.draining {
			continue
		}
		for _, cd := range h.cards {
			deficit := j.Spec.Footprint - (cd.commitCap(pct) - cd.committed)
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

// evictPreempted unassigns a victim whose state is already safely in
// the store and requeues it.
func (c *Controller) evictPreempted(v *Job) {
	c.unassign(v)
	v.beingPreempted = false
	v.wantsBurst = false
	v.launched = false // it may be re-placed anywhere; recovery re-homes it
	v.epoch++
	c.setState(v, StatePending)
	v.enqueuedAt = c.now
	c.tenantQueued[v.Spec.Tenant]++
	c.stats.Preemptions++
	c.mPreempts.Inc()
	c.pending.Push(v)
}

// abortEviction undoes a failed eviction: the victim keeps running as
// if nothing happened (the failed capture is atomic-or-absent).
func (c *Controller) abortEviction(v *Job, preemptor *Job) {
	v.beingPreempted = false
	v.preemptFor = 0
	c.setState(v, StateThinking)
	c.stats.PreemptAborts++
	if preemptor != nil && preemptor.preemptEvicts > 0 {
		preemptor.preemptEvicts--
	}
	// Its think phase already elapsed conceptually; resume bursting.
	c.schedule(c.now, evThinkEnd, v)
}

// unassign releases j's committed and resident memory.
func (c *Controller) unassign(j *Job) {
	if j.Card < 0 {
		return
	}
	h, err := c.hostByName(j.Host)
	if err != nil {
		return
	}
	cd := h.cards[j.Card]
	cd.committed -= j.Spec.Footprint
	if _, ok := cd.residents[j.ID]; ok {
		cd.resident -= j.Spec.Footprint
		delete(cd.residents, j.ID)
	}
	delete(h.assigned, j.ID)
	j.Host, j.Card = "", -1
	c.touch(j)
	c.serveWaiters(cd)
}

// setState moves j to state s. It is the only writer of Job.State, so
// the idle tally it refreshes cannot drift from the states it sums.
func (c *Controller) setState(j *Job, s JobState) {
	j.State = s
	c.touch(j)
}

// touch re-derives j's place in the idle tally: a job counts on its
// assigned card while it is thinking or swapped out and not already a
// preemption victim. It runs after every change to one of those inputs:
// the state (setState), the assignment (place, unassign, migrateDone)
// and the beingPreempted flag.
func (c *Controller) touch(j *Job) {
	var on *card
	if j.Card >= 0 && !j.beingPreempted && (j.State == StateThinking || j.State == StateSwappedOut) {
		on = c.hosts[c.hostIdx[j.Host]].cards[j.Card]
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
		if on.idlers == nil {
			on.idlers = make(map[int]*Job)
		}
		on.idlers[j.ID] = j
	}
	j.idleOn = on
}

// --- engine ops ---

// startOp schedules an engine op completion on j's card. The card's
// engine runs one data-motion op at a time: the op starts when the
// engine frees and the completion event fires dur later.
func (c *Controller) startOp(j *Job, k opKind, dur simclock.Duration, cd *card) {
	start := c.now
	if cd.busyUntil > start {
		start = cd.busyUntil
	}
	cd.busyUntil = start + dur
	j.curOp = k
	j.opStart = start
	j.opDur = dur
	switch k {
	case opLaunch:
		c.setState(j, StateLaunching)
	case opRecover, opSwapIn:
		c.setState(j, StateSwappingIn)
	case opSwapOut:
		c.setState(j, StateSwappingOut)
	case opMigrate:
		c.setState(j, StateMigrating)
	}
	c.schedule(start+dur, evOpDone, j)
}

// startSwapOut begins a store-backed swap-out of a thinking job.
func (c *Controller) startSwapOut(v *Job, preempt bool) error {
	h, err := c.hostByName(v.Host)
	if err != nil {
		return err
	}
	cd := h.cards[v.Card]
	dur, err := c.be.SwapOut(v)
	if err != nil {
		c.stats.SwapFails++
		return fmt.Errorf("fleetd: swapping out job %d: %w", v.ID, err)
	}
	v.opPreempt = preempt
	c.stats.SwapOuts++
	c.mSwapOuts.Inc()
	c.startOp(v, opSwapOut, dur, cd)
	return nil
}

func (c *Controller) opDone(j *Job) error {
	k := j.curOp
	j.curOp = opNone
	c.emitOpSpan(j, k)
	switch k {
	case opLaunch, opSwapIn, opRecover:
		if k != opLaunch {
			lat := c.now - j.swapWantedAt
			c.swapLats = append(c.swapLats, lat)
			c.hSwapLat.Observe(int64(lat))
			c.stats.SwapIns++
			c.mSwapIns.Inc()
			c.emitJobSpan(j, "fleet_wait", j.swapWantedAt, lat)
		}
		return c.startBurst(j)
	case opSwapOut:
		return c.swapOutDone(j)
	case opMigrate:
		return c.migrateDone(j)
	}
	return nil
}

func (c *Controller) swapOutDone(j *Job) error {
	h, err := c.hostByName(j.Host)
	if err != nil {
		return err
	}
	cd := h.cards[j.Card]
	cd.resident -= j.Spec.Footprint
	delete(cd.residents, j.ID)
	c.setState(j, StateSwappedOut)
	j.snapshotted = true
	j.ckptBursts = j.burstsDone
	if j.opPreempt {
		j.opPreempt = false
		if p := c.jobs[j.preemptFor]; p != nil && p.preemptEvicts > 0 {
			p.preemptEvicts--
		}
		j.preemptFor = 0
		c.evictPreempted(j)
		c.serveWaiters(cd)
		return nil
	}
	if j.wantsBurst {
		// Churn: the job's think phase ended while it was being evicted;
		// it immediately queues to come back.
		cd.waiters = append(cd.waiters, j.ID)
	} else {
		// Its think clock kept running through the capture; re-raise the
		// burst trigger the eviction's epoch bump canceled.
		at := j.thinkEndAt
		if at < c.now {
			at = c.now
		}
		c.schedule(at, evThinkEnd, j)
	}
	c.serveWaiters(cd)
	return nil
}

// serveWaiters starts swap-ins for the card's waiters while residency
// allows, evicting thinking jobs when it does not.
func (c *Controller) serveWaiters(cd *card) {
	for len(cd.waiters) > 0 {
		j := c.jobs[cd.waiters[0]]
		if j == nil || j.State != StateSwappedOut || j.Card != cd.idx {
			cd.waiters = cd.waiters[1:]
			continue
		}
		if cd.cap-cd.resident < j.Spec.Footprint {
			// Whether or not a victim was found, wait: either the eviction
			// or a later burst end frees the memory, and both re-serve.
			c.evictForResidency(cd)
			return
		}
		cd.waiters = cd.waiters[1:]
		cd.resident += j.Spec.Footprint
		cd.residents[j.ID] = j
		if !j.launched {
			// A placed-but-never-resident job (oversubscribed admission or
			// post-failure requeue): launch or recover, not swap in.
			if err := c.placedMotion(j, cd); err != nil {
				c.stats.SwapFails++
				cd.resident -= j.Spec.Footprint
				delete(cd.residents, j.ID)
				cd.waiters = append([]int{j.ID}, cd.waiters...)
				c.scheduleServeRetry(cd)
				return
			}
			cd.retries = 0
			continue
		}
		holders := c.liveHolders(j)
		from := c.hosts[cd.hostIdx].name
		if len(holders) > 0 {
			from = holders[0]
			for _, hold := range holders {
				if hold == c.hosts[cd.hostIdx].name {
					from = hold
					break
				}
			}
		}
		dur, err := c.be.SwapIn(j, from)
		if err != nil {
			// Retryable: put the job back at the head and arrange a
			// card-targeted retry — nothing else is guaranteed to touch
			// this card again.
			c.stats.SwapFails++
			cd.resident -= j.Spec.Footprint
			delete(cd.residents, j.ID)
			cd.waiters = append([]int{j.ID}, cd.waiters...)
			c.scheduleServeRetry(cd)
			return
		}
		cd.retries = 0
		c.startOp(j, opSwapIn, dur, cd)
	}
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
	c.seq++
	c.controls[c.seq] = controlPayload{host: c.hosts[cd.hostIdx].name, card: cd.idx}
	c.events.Push(event{at: c.now + backoff, seq: c.seq, kind: evServeCard})
}

// evictForResidency swaps out the thinking resident whose next burst
// is furthest away (it needs its memory last; ties go to the lowest
// ID). One victim at a time — swap-outs serialize on the card engine
// anyway, and each completion re-runs serveWaiters.
func (c *Controller) evictForResidency(cd *card) {
	var victim *Job
	for _, v := range cd.residents {
		if v.State != StateThinking || v.beingPreempted {
			continue
		}
		if victim == nil || v.thinkEndAt > victim.thinkEndAt ||
			(v.thinkEndAt == victim.thinkEndAt && v.ID < victim.ID) {
			victim = v
		}
	}
	if victim == nil {
		return // every resident is bursting; a burst end frees one
	}
	victim.epoch++ // its thinkEnd will be re-raised after the swap cycle
	victim.wantsBurst = false
	if err := c.startSwapOut(victim, false); err != nil {
		c.abortEviction(victim, nil)
	}
}

// --- job lifecycle ---

func (c *Controller) startBurst(j *Job) error {
	c.setState(j, StateRunning)
	j.wantsBurst = false
	j.burstStart = c.now
	if err := c.be.RunBurst(j); err != nil {
		return fmt.Errorf("fleetd: job %d burst %d: %w", j.ID, j.burstsDone+1, err)
	}
	c.schedule(c.now+j.Spec.BurstLen, evBurstEnd, j)
	return nil
}

func (c *Controller) burstEnd(j *Job) error {
	j.burstsDone++
	c.stats.BurstNs += int64(j.Spec.BurstLen)
	c.emitJobSpan(j, "fleet_burst", j.burstStart, j.Spec.BurstLen)
	if j.burstsDone >= j.Spec.Bursts {
		return c.complete(j)
	}
	c.setState(j, StateThinking)
	j.thinkStart = c.now
	j.thinkEndAt = c.now + j.Spec.ThinkLen
	c.schedule(j.thinkEndAt, evThinkEnd, j)
	// Oversubscription: if someone is waiting for this card's memory,
	// the thinking job's idle footprint is the cheapest thing to
	// reclaim.
	h, err := c.hostByName(j.Host)
	if err != nil {
		return err
	}
	cd := h.cards[j.Card]
	if len(cd.waiters) > 0 {
		j.epoch++
		j.wantsBurst = false
		if err := c.startSwapOut(j, false); err != nil {
			c.abortEviction(j, nil)
		}
	}
	return nil
}

func (c *Controller) thinkEnd(j *Job) error {
	c.emitJobSpan(j, "fleet_think", j.thinkStart, j.Spec.ThinkLen)
	switch j.State {
	case StateThinking:
		// Still resident: burst immediately.
		return c.startBurst(j)
	case StateSwappedOut:
		j.wantsBurst = true
		j.swapWantedAt = c.now
		h, err := c.hostByName(j.Host)
		if err != nil {
			return err
		}
		cd := h.cards[j.Card]
		cd.waiters = append(cd.waiters, j.ID)
		c.serveWaiters(cd)
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
	h, err := c.hostByName(j.Host)
	if err != nil {
		return err
	}
	cd := h.cards[j.Card]
	c.unassign(j)
	if h.draining && h.drain != nil {
		c.dropFromDrain(h, j.ID)
	}
	c.serveWaiters(cd)
	return nil
}

// --- tracing ---

func (c *Controller) emitOpSpan(j *Job, k opKind) {
	if !c.opts.Trace || j.opDur <= 0 {
		return
	}
	host := j.Host
	cardIdx := j.Card
	if k == opMigrate || k == opRecover {
		host, cardIdx = j.opDstHost, j.opDstCard
		if host == "" {
			host, cardIdx = j.Host, j.Card
		}
	}
	tk := c.obs.TracerOf().Track("fleet/"+host, fmt.Sprintf("card%d", cardIdx))
	tk.Emit(0, k.spanName(), j.opStart, j.opDur, map[string]int64{
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
