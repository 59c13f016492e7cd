package blcr

import (
	"fmt"

	"snapify/internal/obs"
	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/stream"
)

// PageChunk is the granularity at which region pages are written to the
// sink. BLCR's vmadump writes VMAs in large extents; 4 MiB matches the
// Snapify-IO staging buffer (Section 6).
const PageChunk = 4 * simclock.MiB

// Stats describes one checkpoint or restart.
type Stats struct {
	// Bytes is the context-file size.
	Bytes int64
	// MetaWrites counts the small metadata records (the pre-page-loop
	// writes that dominate plain-NFS checkpoint cost).
	MetaWrites int
	// Regions and Threads count what was serialized.
	Regions int
	Threads int
	// Duration is the end-to-end virtual time of the operation, including
	// quiesce, serialization, and transport. Per-stream timings of the
	// parallel paths are not carried here: workers emit spans on the
	// tracer installed by WithSpans, and consumers read them back by scope
	// (internal/obs) — the trace is the source of truth.
	Duration simclock.Duration
	// Geometry is the shape of the context image a restart parsed — what
	// a DigestCache seeded from that image's manifest needs. Nil for
	// checkpoints and delta replays.
	Geometry *Geometry
}

// Checkpointer captures and restores process snapshots.
type Checkpointer struct {
	model *simclock.Model
	sp    *spanOpts
	retry RetryPolicy
}

// New returns a checkpointer using the given cost model.
func New(model *simclock.Model) *Checkpointer {
	return &Checkpointer{model: model}
}

// spanOpts wires one operation to the observability tracer.
type spanOpts struct {
	tracer *obs.Tracer
	scope  uint64
	start  simclock.Duration // virtual time at which the operation begins
}

// WithSpans returns a shallow copy of c whose checkpoint/restart workers
// emit per-stream spans under scope on tr, starting at the virtual time
// start. A zero scope (or nil tracer) records nothing, so callers without
// observability pass through unchanged.
func (c *Checkpointer) WithSpans(tr *obs.Tracer, scope uint64, start simclock.Duration) *Checkpointer {
	cp := *c
	cp.sp = &spanOpts{tracer: tr, scope: scope, start: start}
	return &cp
}

// emitStreamSpans records one span per worker of a checkpoint or restart,
// each on its own track ("<proc>/stream N" under the process's node), all
// starting at the operation's begin time — exactly how the real workers
// overlap. No-op unless WithSpans installed a tracer and scope.
func (c *Checkpointer) emitStreamSpans(p *proc.Process, name string, at simclock.Duration, durs []simclock.Duration, bytes []int64) {
	if c.sp == nil || c.sp.scope == 0 {
		return
	}
	for i, d := range durs {
		tk := c.sp.tracer.Track(p.Node().String(), fmt.Sprintf("%s/stream %d", p.Name(), i))
		tk.Emit(c.sp.scope, name, at, d, map[string]int64{"bytes": bytes[i], "stream": int64(i)})
	}
}

// walkStage returns the serialization cost of n bytes on p's node.
func (c *Checkpointer) walkStage(onHost bool, n int64) simclock.Duration {
	if onHost {
		return c.model.HostPageWalk(n)
	}
	return c.model.PhiPageWalk(n)
}

// copyStage returns the memcpy cost of n bytes on the host or a card.
func (c *Checkpointer) copyStage(onHost bool, n int64) simclock.Duration {
	if onHost {
		return c.model.HostMemcpy(n)
	}
	return c.model.PhiMemcpy(n)
}

// Checkpoint freezes p at a safe point, serializes it to sink, and resumes
// it. The returned stats include the virtual end-to-end latency (BLCR's
// "checkpoint time" in Table 4). The sink is closed on success and aborted
// on error.
func (c *Checkpointer) Checkpoint(p *proc.Process, sink stream.Sink) (*Stats, error) {
	// Freeze: every thread reaches a safe point.
	p.PauseSteps()
	defer p.ResumeSteps()
	st, err := c.writePlan(p, c.planFull(p), sink)
	if err != nil {
		return nil, err
	}
	st.Duration += simclock.Duration(p.ThreadCount()) * c.model.ThreadQuiesce
	return st, nil
}

// CheckpointFrozen serializes an already-quiesced process without touching
// its step gate. Snapify's capture path uses it: the pause protocol has
// already drained the channels and frozen the process (Section 4.1).
func (c *Checkpointer) CheckpointFrozen(p *proc.Process, sink stream.Sink) (*Stats, error) {
	st, err := c.writePlan(p, c.planFull(p), sink)
	if err != nil {
		return nil, err
	}
	c.emitStreamSpans(p, "capture_stream", c.spanStart(), []simclock.Duration{st.Duration}, []int64{st.Bytes})
	return st, nil
}

// writePlan is the one-sink transport: the whole plan as a single shard,
// walked into the caller's sink at PageChunk. The sink is closed on success
// and aborted on error.
func (c *Checkpointer) writePlan(p *proc.Process, pl *plan, sink stream.Sink) (*Stats, error) {
	if p.State() != proc.Running {
		sink.Abort()
		return nil, fmt.Errorf("blcr: cannot checkpoint %s process %s", p.State(), p.Name())
	}
	acc := simclock.NewPipelineAccum()
	whole := shard{n: pl.total, segs: pl.segs}
	if err := c.writeShard(sink, whole, 0, p.Node().IsHost(), PageChunk, acc); err != nil {
		sink.Abort()
		return nil, err
	}
	if err := sink.Close(); err != nil {
		return nil, err
	}
	st := pl.st
	st.Duration = acc.Total()
	return &st, nil
}
