package fleetd

// Evacuation waves and whole-host failure. An evacuation drains every
// job off a host under a deadline: resident jobs move by live pre-copy
// migration, swapped-out jobs re-materialize from their replicated
// snapshots, and at most EvacWave moves run concurrently per wave. A
// host kill is the involuntary version — jobs with replicated
// snapshots recover onto the closest holders, the rest restart from
// scratch.

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"snapify/internal/simclock"
	"snapify/internal/snapstore"
)

// EvacReport summarizes one host evacuation.
type EvacReport struct {
	Host        string
	Moved       int
	Waves       int
	Done        bool
	DeadlineMet bool
}

// Evacuations returns the report of every drain started so far, in
// start order.
func (c *Controller) Evacuations() []EvacReport {
	var out []EvacReport
	for _, h := range c.drained {
		out = append(out, EvacReport{
			Host: h.name, Moved: h.drain.moved, Waves: h.drain.waves,
			Done: h.drain.done, DeadlineMet: h.drain.met,
		})
	}
	return out
}

// ScheduleEvacuation arranges for host to start draining at virtual
// time `at`, finishing by `deadline`.
func (c *Controller) ScheduleEvacuation(at simclock.Duration, host string, deadline simclock.Duration) {
	c.scheduleControl(at, evEvacuate, &control{host: host, deadline: deadline})
}

// startDrain begins the evacuation of host.
func (c *Controller) startDrain(name string, deadline simclock.Duration) error {
	h, err := c.hostByName(name)
	if err != nil {
		return err
	}
	if h.dead {
		return fmt.Errorf("fleetd: evacuating dead host %s", name)
	}
	if h.draining {
		return fmt.Errorf("fleetd: host %s is already draining", name)
	}
	h.draining = true
	h.drain = &drainState{deadline: deadline, remaining: h.byID()}
	c.drained = append(c.drained, h)
	return c.pumpDrain(h)
}

// byID returns the jobs assigned to h in ID order.
func (h *hostState) byID() []*Job {
	js := make([]*Job, 0, len(h.assigned))
	for _, j := range h.assigned {
		js = append(js, j)
	}
	slices.SortFunc(js, func(a, b *Job) int { return cmp.Compare(a.ID, b.ID) })
	return js
}

// pumpDrain starts evacuation moves until the wave is full. Jobs in a
// transient op (launching, swapping) rotate to the back of the queue
// and are picked up stabilized; if a pass starts nothing while nothing
// is in flight, the drain parks until dispatch re-pumps it after the
// next event. A pump that starts the first moves of an empty wave
// counts as a new wave.
func (c *Controller) pumpDrain(h *hostState) error {
	d := h.drain
	wave := c.opts.evacWave()
	fresh := d.inflight == 0
	started := 0
	// Each entry gets one look per pump; rotated entries wait for the
	// next one, bounding the pass.
	for looks := len(d.remaining); looks > 0 && d.inflight < wave && len(d.remaining) > 0; looks-- {
		j := d.remaining[0]
		d.remaining = d.remaining[1:]
		if j.Done() || j.cd == nil || j.cd.hostIdx != h.idx {
			continue
		}
		switch j.State {
		case StateRunning, StateThinking, StateSwappedOut:
			before := d.inflight
			if err := c.startEvacMove(h, j); err != nil {
				return err
			}
			if d.inflight > before {
				started++
			}
		default:
			// Mid-op: rotate to the back and let it stabilize.
			d.remaining = append(d.remaining, j)
		}
	}
	if fresh && started > 0 {
		d.waves++
		c.stats.EvacWaves++
	}
	d.settle(c.now)
	return nil
}

// settle marks the drain done once nothing is left to move or in flight.
func (d *drainState) settle(now simclock.Duration) {
	if d.inflight == 0 && len(d.remaining) == 0 && !d.done {
		d.done, d.met = true, now <= d.deadline
	}
}

// startEvacMove moves one job off the draining host: live pre-copy for
// resident jobs, snapshot re-placement for swapped-out ones. When no
// destination exists (fleet full, or the chosen one died mid-ship) the
// job rotates to the back of the queue without starting.
func (c *Controller) startEvacMove(h *hostState, j *Job) error {
	// An evacuation move lands resident, so the destination needs
	// physical room, not just commit headroom.
	dst := c.findCard(j, true)
	if dst == nil {
		// Fleet full elsewhere: park the job at the back; capacity may
		// free before the deadline.
		h.drain.remaining = append(h.drain.remaining, j)
		return nil
	}
	dstHost := c.hosts[dst.hostIdx]
	// Reserve the destination before the bytes move.
	c.reserve(j, dst)
	var dur simclock.Duration
	var err error
	if j.State == StateSwappedOut {
		dur, err = c.be.Recover(j, dstHost.name, dst.idx)
	} else {
		dur, err = c.be.Migrate(j, dstHost.name, dst.idx)
	}
	if err != nil {
		// Undo the reservation; the job is untouched on the source (the
		// ship failed before the switch-over), its scheduled future too.
		c.unreserve(j)
		j.dst = nil
		c.stats.EvacFails++
		if errors.Is(err, snapstore.ErrHostDead) {
			// The destination died mid-ship: mark it dead fleet-wide and
			// let the next pump re-route to a living host.
			h.drain.remaining = append(h.drain.remaining, j)
			c.markHostDead(dstHost)
			return nil
		}
		return fmt.Errorf("fleetd: evacuating job %d off %s: %w", j.ID, h.name, err)
	}
	j.epoch++ // cancel scheduled burst/think ends; they resume on landing
	h.drain.inflight++
	c.startOp(j, opMigrate, dur, dst)
	return nil
}

// migrateDone lands an evacuation move on its destination: the source
// card is released and the reservation becomes the assignment.
func (c *Controller) migrateDone(j *Job) error {
	src, dst := j.cd, j.dst
	h := c.hosts[src.hostIdx]
	h.drain.inflight--
	if c.hosts[dst.hostIdx].dead {
		// The destination died while the bytes were in flight (model
		// mode): the switch-over never happened, the job lives on, and
		// its hold on the destination went with the host.
		j.dst = nil
		c.stats.EvacFails++
		c.resumeOnSource(j, src)
		h.drain.remaining = append(h.drain.remaining, j)
		return c.drainStep(h)
	}
	wasResident := src.residents[j.ID] != nil
	c.unassign(j)
	c.serveWaiters(src)
	c.unreserve(j)
	j.dst = nil
	c.assign(j, dst)
	dst.land(j)
	j.snapshotted = true
	j.ckptBursts = j.burstsDone
	c.stats.EvacMoves++
	c.mEvacMoves.Inc()
	h.drain.moved++
	// Resume the job's lifecycle on the new card.
	if !wasResident || j.wantsBurst || j.thinkEndAt <= c.now {
		if err := c.startBurst(j); err != nil {
			return err
		}
	} else {
		c.setState(j, StateThinking)
		c.schedule(j.thinkEndAt, evThinkEnd, j)
	}
	return c.drainStep(h)
}

// resumeOnSource puts a job whose evacuation move failed in flight back
// into its normal lifecycle on its source card. The move's epoch bump
// canceled its scheduled future, so it is rebuilt here. The pre-move
// state cannot be read off j.State (StateMigrating overwrote it):
// residency on the source card is the ground truth — a job absent from
// it was swapped out before the move and still is.
func (c *Controller) resumeOnSource(j *Job, src *card) {
	if src.residents[j.ID] == nil {
		c.setState(j, StateSwappedOut)
		if j.wantsBurst {
			// Its burst is already due: back in the queue, if the move
			// had not left it there.
			c.wait(j)
			return
		}
	} else {
		c.setState(j, StateThinking)
	}
	// Its think clock kept running during the failed move.
	c.schedule(max(j.thinkEndAt, c.now), evThinkEnd, j)
}

// drainStep advances the wave machinery after one move resolved: when
// the whole wave has landed, the next one fills.
func (c *Controller) drainStep(src *hostState) error {
	if src.drain.inflight == 0 {
		return c.pumpDrain(src)
	}
	return nil
}

// dropFromDrain removes a job that no longer needs moving (it
// completed) from the host's drain queue.
func (c *Controller) dropFromDrain(h *hostState, j *Job) {
	d := h.drain
	if d == nil {
		return
	}
	if i := slices.Index(d.remaining, j); i >= 0 {
		d.remaining = slices.Delete(d.remaining, i, i+1)
	}
	d.settle(c.now)
}

// KillHost fails a host immediately: every job assigned there is lost.
// Jobs with a replicated snapshot requeue and recover from their
// closest holder through placement's locality scoring; the rest
// restart from scratch.
func (c *Controller) KillHost(name string) error {
	h, err := c.hostByName(name)
	if err != nil {
		return err
	}
	c.markHostDead(h)
	if err := c.dispatch(); err != nil {
		return err
	}
	return c.illegal
}

func (c *Controller) markHostDead(h *hostState) {
	if h.dead {
		return
	}
	h.dead = true
	h.draining = false
	// The blocked head is searched for again: liveHolders forgets a
	// snapshot whose last holder died here on this event, not later.
	c.blocked = nil
	if h.drain != nil && !h.drain.done {
		h.drain.done = true
		h.drain.met = false
	}
	c.be.HostKilled(h.name)
	for _, j := range h.byID() {
		c.stats.JobsLost++
		c.mLost.Inc()
		if j.dst != nil && !c.hosts[j.dst.hostIdx].dead {
			// Its escape was in flight; the source died first, so the
			// switch-over never happens.
			c.unreserve(j)
		}
		// A victim dying mid-eviction: its swap-out completion is now
		// stale, so its preemptor must stop waiting for it here or block
		// the admission queue head-of-line forever.
		spare(j)
		if j.snapshotted {
			c.stats.Recovered++
		} else {
			j.burstsDone = 0
			j.ckptBursts = 0
			c.stats.Restarted++
		}
		c.requeue(j)
	}
	for _, cd := range h.cards {
		// What is left resident are moves landing here; they lose their
		// hold, and migrateDone finds the destination dead.
		for _, j := range cd.residents {
			c.unreserve(j)
		}
		cd.retries = 0
		cd.busyUntil = c.now
	}
}

// CheckpointJob captures a durable replicated snapshot of a resident
// job without stopping it for long — the fault-tolerance premium. The
// card engine is busy for the capture duration.
func (c *Controller) CheckpointJob(id int) error {
	j := c.jobs[id]
	if j == nil {
		return fmt.Errorf("fleetd: no job %d", id)
	}
	if j.State != StateRunning && j.State != StateThinking {
		return fmt.Errorf("fleetd: checkpointing job %d in state %s", id, j.State)
	}
	dur, err := c.be.Checkpoint(j)
	if err != nil {
		return fmt.Errorf("fleetd: checkpointing job %d: %w", id, err)
	}
	cd := j.cd
	cd.busyUntil = max(cd.busyUntil, c.now) + dur
	j.snapshotted = true
	j.ckptBursts = j.burstsDone
	return nil
}
