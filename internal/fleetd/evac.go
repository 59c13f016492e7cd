package fleetd

// Evacuation waves and whole-host failure. An evacuation drains every
// job off a host under a deadline: resident jobs move by live pre-copy
// migration, swapped-out jobs re-materialize from their replicated
// snapshots, and at most EvacWave moves run concurrently per wave. A
// host kill is the involuntary version — jobs with replicated
// snapshots recover onto the closest holders, the rest restart from
// scratch.

import (
	"errors"
	"fmt"
	"sort"

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
	for _, name := range c.drained {
		h, err := c.hostByName(name)
		if err != nil || h.drain == nil {
			continue
		}
		out = append(out, EvacReport{
			Host: name, Moved: h.drain.moved, Waves: h.drain.waves,
			Done: h.drain.done, DeadlineMet: h.drain.met,
		})
	}
	return out
}

// ScheduleEvacuation arranges for host to start draining at virtual
// time `at`, finishing by `deadline`.
func (c *Controller) ScheduleEvacuation(at simclock.Duration, host string, deadline simclock.Duration) {
	c.seq++
	c.controls[c.seq] = controlPayload{host: host, deadline: deadline}
	c.events.Push(event{at: at, seq: c.seq, kind: evEvacuate})
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
	ids := make([]int, 0, len(h.assigned))
	for id := range h.assigned {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h.drain = &drainState{deadline: deadline, remaining: ids}
	c.drained = append(c.drained, name)
	if len(ids) == 0 {
		h.drain.done = true
		h.drain.met = c.now <= deadline
		return nil
	}
	return c.pumpDrain(h)
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
		id := d.remaining[0]
		d.remaining = d.remaining[1:]
		j := c.jobs[id]
		if j == nil || j.Done() || j.Host != h.name {
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
			d.remaining = append(d.remaining, id)
		}
	}
	if fresh && started > 0 {
		d.waves++
		c.stats.EvacWaves++
	}
	if d.inflight == 0 && len(d.remaining) == 0 && !d.done {
		d.done = true
		d.met = c.now <= d.deadline
	}
	return nil
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
		h.drain.remaining = append(h.drain.remaining, j.ID)
		return nil
	}
	dstHost := c.hosts[dst.hostIdx]
	// Reserve the destination before the bytes move.
	dst.committed += j.Spec.Footprint
	dst.resident += j.Spec.Footprint
	j.opDstHost, j.opDstCard = dstHost.name, dst.idx
	j.epoch++ // cancel scheduled burst/think ends; they resume on landing

	var dur simclock.Duration
	var err error
	if j.State == StateSwappedOut {
		dur, err = c.be.Recover(j, dstHost.name, dst.idx)
	} else {
		dur, err = c.be.Migrate(j, dstHost.name, dst.idx)
	}
	if err != nil {
		// Undo the reservation; the job is untouched on the source (the
		// ship failed before the switch-over).
		dst.committed -= j.Spec.Footprint
		dst.resident -= j.Spec.Footprint
		j.opDstHost, j.opDstCard = "", 0
		c.stats.EvacFails++
		if errors.Is(err, snapstore.ErrHostDead) {
			// The destination died mid-ship: mark it dead fleet-wide and
			// let the next pump re-route to a living host.
			if derr := c.markHostDead(dstHost.name); derr != nil {
				return derr
			}
			c.resumeOnSource(j)
			h.drain.remaining = append(h.drain.remaining, j.ID)
			return nil
		}
		return fmt.Errorf("fleetd: evacuating job %d off %s: %w", j.ID, h.name, err)
	}
	h.drain.inflight++
	c.startOp(j, opMigrate, dur, dst)
	return nil
}

// resumeOnSource puts an evacuation-interrupted job back into its
// normal lifecycle on its current host. The move's epoch bump canceled
// the job's scheduled future, so it is rebuilt here. The pre-move state
// cannot be read off j.State (an in-flight move overwrote it with
// StateMigrating): residency on the source card is the ground truth —
// a job absent from it was swapped out before the move and still is.
func (c *Controller) resumeOnSource(j *Job) {
	h, err := c.hostByName(j.Host)
	if err != nil {
		return
	}
	cd := h.cards[j.Card]
	if _, resident := cd.residents[j.ID]; !resident {
		// Still a snapshot; nothing was moving on the card. Re-raise the
		// burst trigger the move canceled: the waiter entry when its
		// burst is already due, the think end otherwise.
		c.setState(j, StateSwappedOut)
		if j.wantsBurst {
			queued := false
			for _, id := range cd.waiters {
				if id == j.ID {
					queued = true
					break
				}
			}
			if !queued {
				cd.waiters = append(cd.waiters, j.ID)
			}
		} else {
			at := j.thinkEndAt
			if at < c.now {
				at = c.now
			}
			c.schedule(at, evThinkEnd, j)
		}
		return
	}
	c.setState(j, StateThinking)
	// Its think clock kept running during the failed move.
	if j.thinkEndAt > c.now {
		c.schedule(j.thinkEndAt, evThinkEnd, j)
	} else {
		c.schedule(c.now, evThinkEnd, j)
	}
}

// migrateDone lands an evacuation move on its destination.
func (c *Controller) migrateDone(j *Job) error {
	srcName := j.Host
	src, err := c.hostByName(srcName)
	if err != nil {
		return err
	}
	dstHost, err := c.hostByName(j.opDstHost)
	if err != nil {
		return err
	}
	dst := dstHost.cards[j.opDstCard]
	if dstHost.dead {
		// The destination died while the bytes were in flight (model
		// mode): the switch-over never happened, the job lives on.
		c.stats.EvacFails++
		c.resumeOnSource(j)
		if src.drain != nil {
			src.drain.inflight--
			src.drain.remaining = append(src.drain.remaining, j.ID)
		}
		j.opDstHost, j.opDstCard = "", 0
		return c.drainStep(src)
	}
	// Release the source.
	wasResident := true
	if cd := src.cards[j.Card]; cd != nil {
		cd.committed -= j.Spec.Footprint
		if _, ok := cd.residents[j.ID]; ok {
			cd.resident -= j.Spec.Footprint
			delete(cd.residents, j.ID)
		} else {
			wasResident = false
		}
		c.serveWaiters(cd)
	}
	delete(src.assigned, j.ID)
	// Land on the destination (reserved at move start).
	j.Host, j.Card = dstHost.name, dst.idx
	dst.residents[j.ID] = j
	dstHost.assigned[j.ID] = j
	c.touch(j)
	j.snapshotted = true
	j.ckptBursts = j.burstsDone
	c.stats.EvacMoves++
	c.mEvacMoves.Inc()
	if src.drain != nil {
		src.drain.inflight--
		src.drain.moved++
	}
	// Resume the job's lifecycle on the new card.
	if !wasResident || j.wantsBurst || j.thinkEndAt <= c.now {
		if err := c.startBurst(j); err != nil {
			return err
		}
	} else {
		c.setState(j, StateThinking)
		c.schedule(j.thinkEndAt, evThinkEnd, j)
	}
	return c.drainStep(src)
}

// drainStep advances the wave machinery after one move resolved: when
// the whole wave has landed, the next one fills.
func (c *Controller) drainStep(src *hostState) error {
	d := src.drain
	if d == nil {
		return nil
	}
	if d.inflight == 0 && len(d.remaining) > 0 {
		return c.pumpDrain(src)
	}
	if d.inflight == 0 && len(d.remaining) == 0 && !d.done {
		d.done = true
		d.met = c.now <= d.deadline
	}
	return nil
}

// dropFromDrain removes a job that no longer needs moving (it
// completed) from the host's drain queue.
func (c *Controller) dropFromDrain(h *hostState, id int) {
	d := h.drain
	if d == nil {
		return
	}
	for i, r := range d.remaining {
		if r == id {
			d.remaining = append(d.remaining[:i], d.remaining[i+1:]...)
			break
		}
	}
	if d.inflight == 0 && len(d.remaining) == 0 && !d.done {
		d.done = true
		d.met = c.now <= d.deadline
	}
}

// KillHost fails a host immediately: every job assigned there is lost.
// Jobs with a replicated snapshot requeue and recover from their
// closest holder through placement's locality scoring; the rest
// restart from scratch.
func (c *Controller) KillHost(name string) error {
	if err := c.markHostDead(name); err != nil {
		return err
	}
	return c.dispatch()
}

func (c *Controller) markHostDead(name string) error {
	h, err := c.hostByName(name)
	if err != nil {
		return err
	}
	if h.dead {
		return nil
	}
	h.dead = true
	h.draining = false
	if h.drain != nil && !h.drain.done {
		h.drain.done = true
		h.drain.met = false
	}
	c.be.HostKilled(name)
	ids := make([]int, 0, len(h.assigned))
	for id := range h.assigned {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		j := c.jobs[id]
		c.stats.JobsLost++
		c.mLost.Inc()
		j.epoch++ // cancel everything scheduled for it
		if j.curOp == opMigrate && j.opDstHost != "" && j.opDstHost != name {
			// Its escape was in flight; the source died first. Undo the
			// destination reservation — the switch-over never happened.
			if dh, derr := c.hostByName(j.opDstHost); derr == nil && !dh.dead {
				dc := dh.cards[j.opDstCard]
				dc.committed -= j.Spec.Footprint
				dc.resident -= j.Spec.Footprint
			}
		}
		if j.curOp == opSwapOut && j.opPreempt {
			// The victim died mid-eviction: its swap-out completion is now
			// stale and will never decrement the preemptor's in-flight
			// count, so release the preemptor here or it blocks the
			// admission queue head-of-line forever.
			if p := c.jobs[j.preemptFor]; p != nil && p.preemptEvicts > 0 {
				p.preemptEvicts--
			}
		}
		j.curOp = opNone
		j.opPreempt = false
		j.opDstHost, j.opDstCard = "", 0
		j.Host, j.Card = "", -1
		j.wantsBurst = false
		j.beingPreempted = false
		j.preemptFor = 0
		j.launched = false
		if j.snapshotted {
			c.stats.Recovered++
		} else {
			j.burstsDone = 0
			j.ckptBursts = 0
			c.stats.Restarted++
		}
		c.setState(j, StatePending)
		j.enqueuedAt = c.now
		c.tenantQueued[j.Spec.Tenant]++
		c.pending.Push(j)
	}
	h.assigned = make(map[int]*Job)
	for _, cd := range h.cards {
		cd.committed, cd.resident = 0, 0
		cd.residents = make(map[int]*Job)
		cd.waiters = nil
		cd.retries = 0
		cd.busyUntil = c.now
	}
	// Jobs elsewhere migrating INTO the dead host fail their landing in
	// migrateDone (dstHost.dead check); nothing to do here.
	return nil
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
	h, err := c.hostByName(j.Host)
	if err != nil {
		return err
	}
	dur, err := c.be.Checkpoint(j)
	if err != nil {
		return fmt.Errorf("fleetd: checkpointing job %d: %w", id, err)
	}
	cd := h.cards[j.Card]
	if cd.busyUntil < c.now {
		cd.busyUntil = c.now
	}
	cd.busyUntil += dur
	j.snapshotted = true
	j.ckptBursts = j.burstsDone
	return nil
}
