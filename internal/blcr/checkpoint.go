package blcr

import (
	"fmt"

	"snapify/internal/blob"
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

// Checkpoint freezes p at a safe point, serializes it to sink, and resumes
// it. The returned stats include the virtual end-to-end latency (BLCR's
// "checkpoint time" in Table 4). The sink is closed on success and aborted
// on error.
func (c *Checkpointer) Checkpoint(p *proc.Process, sink stream.Sink) (*Stats, error) {
	if p.State() != proc.Running {
		return nil, fmt.Errorf("blcr: cannot checkpoint %s process %s", p.State(), p.Name())
	}
	acc := simclock.NewPipelineAccum()

	// Freeze: every thread reaches a safe point.
	p.PauseSteps()
	defer p.ResumeSteps()
	acc.Add(simclock.Duration(p.ThreadCount()) * c.model.ThreadQuiesce)

	st, err := c.write(p, sink, acc)
	if err != nil {
		sink.Abort()
		return nil, err
	}
	if err := sink.Close(); err != nil {
		return nil, err
	}
	st.Duration = acc.Total()
	return st, nil
}

// CheckpointFrozen serializes an already-quiesced process without touching
// its step gate. Snapify's capture path uses it: the pause protocol has
// already drained the channels and frozen the process (Section 4.1).
func (c *Checkpointer) CheckpointFrozen(p *proc.Process, sink stream.Sink) (*Stats, error) {
	if p.State() != proc.Running {
		return nil, fmt.Errorf("blcr: cannot checkpoint %s process %s", p.State(), p.Name())
	}
	acc := simclock.NewPipelineAccum()
	st, err := c.write(p, sink, acc)
	if err != nil {
		sink.Abort()
		return nil, err
	}
	if err := sink.Close(); err != nil {
		return nil, err
	}
	st.Duration = acc.Total()
	if c.sp != nil {
		c.emitStreamSpans(p, "capture_stream", c.sp.start, []simclock.Duration{st.Duration}, []int64{st.Bytes})
	}
	return st, nil
}

func (c *Checkpointer) write(p *proc.Process, sink stream.Sink, acc *simclock.PipelineAccum) (*Stats, error) {
	onHost := p.Node().IsHost()
	st := &Stats{}
	enc := &recEncoder{}

	emit := func(b blob.Blob, meta bool) error {
		cost, err := sink.WriteBlob(b)
		if err != nil {
			return err
		}
		stream.Observe(acc, cost, c.walkStage(onHost, b.Len()))
		st.Bytes += b.Len()
		if meta {
			st.MetaWrites++
		}
		return nil
	}

	regions := p.Regions()
	threads := p.ThreadNames()

	// Header.
	if err := emit(enc.record(tagHeader, func(e *recEncoder) {
		e.str(magic)
		e.u64(formatVersion)
	}), true); err != nil {
		return nil, err
	}
	// Process metadata.
	if err := emit(enc.record(tagProcMeta, func(e *recEncoder) {
		e.str(p.Name())
		e.u64(uint64(p.PID()))
		e.u64(uint64(p.Node()))
		e.u64(uint64(len(threads)))
		e.u64(uint64(len(regions)))
	}), true); err != nil {
		return nil, err
	}
	// One small record per thread — part of BLCR's small-write preamble.
	for _, name := range threads {
		if err := emit(enc.record(tagThread, func(e *recEncoder) {
			e.str(name)
		}), true); err != nil {
			return nil, err
		}
		st.Threads++
	}
	// Regions: a small metadata record, then the pages in large chunks.
	// Local-store regions are memory-mapped files (COI buffers, Section 2):
	// like the real BLCR, only the mapping is recorded — the content is
	// external, saved separately by Snapify's pause phase. This is why the
	// paper reports snapshot size and local-store size as distinct
	// quantities (Fig 10b).
	for _, r := range regions {
		pinned := uint64(0)
		if r.Pinned() {
			pinned = 1
		}
		external := uint64(0)
		if r.Kind() == proc.RegionLocalStore {
			external = 1
		}
		if err := emit(enc.record(tagRegionMeta, func(e *recEncoder) {
			e.str(r.Name())
			e.u64(uint64(r.Kind()))
			e.u64(r.Seed())
			e.u64(uint64(r.Size()))
			e.u64(pinned)
			e.u64(external)
		}), true); err != nil {
			return nil, err
		}
		if external == 0 {
			snap := r.Snapshot()
			if err := snap.ForEachChunk(PageChunk, func(chunk blob.Blob) error {
				return emit(chunk, false)
			}); err != nil {
				return nil, err
			}
		}
		st.Regions++
	}
	// Trailer.
	if err := emit(enc.record(tagTrailer, func(e *recEncoder) {
		e.u64(uint64(len(regions)))
	}), true); err != nil {
		return nil, err
	}
	return st, nil
}
