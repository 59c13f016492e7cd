package blcr

import (
	"fmt"

	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/stream"
)

// Incremental checkpointing is an extension beyond the paper: after a full
// checkpoint marks every region clean, a delta checkpoint serializes only
// the byte ranges written since (tracked by proc.Region). Restart applies
// a base context followed by its chain of deltas. The page-walk cost of a
// delta still covers the whole address space (dirty detection walks page
// tables), but the transport moves only the dirty bytes — which is where
// the paper's checkpoints spend their time, so deltas shrink checkpoint
// latency roughly by the workload's dirty fraction (see
// BenchmarkAblation_IncrementalCheckpoint).

// CheckpointFull is Checkpoint plus a clean mark on every region, making
// the snapshot a valid base for subsequent CheckpointDelta calls. The
// outer freeze keeps the mark with the snapshot: a step between
// Checkpoint's resume and the mark would be missing from the next delta.
func (c *Checkpointer) CheckpointFull(p *proc.Process, sink stream.Sink) (*Stats, error) {
	p.PauseSteps()
	defer p.ResumeSteps()
	st, err := c.Checkpoint(p, sink)
	if err != nil {
		return nil, err
	}
	markClean(p)
	return st, nil
}

// markClean starts a new delta epoch: what is written from here on is the
// next delta's dirty set.
func markClean(p *proc.Process) {
	for _, r := range p.Regions() {
		r.MarkClean()
	}
}

// CheckpointDelta freezes p and serializes only the ranges written since
// the last CheckpointFull or CheckpointDelta, then marks every region
// clean. Region creation or removal since the base is not supported and
// returns an error.
func (c *Checkpointer) CheckpointDelta(p *proc.Process, sink stream.Sink) (*Stats, error) {
	p.PauseSteps()
	defer p.ResumeSteps()
	st, err := c.CheckpointDeltaFrozen(p, sink)
	if err != nil {
		return nil, err
	}
	markClean(p)
	st.Duration += simclock.Duration(p.ThreadCount()) * c.model.ThreadQuiesce
	return st, nil
}

// CheckpointDeltaFrozen serializes the dirty ranges of an already-quiesced
// process (the Snapify capture path after a pause has drained everything).
// The regions stay dirty: a caller that verifies the snapshot end to end —
// and may have to redo the capture from the same dirty set — marks them
// clean itself once satisfied.
func (c *Checkpointer) CheckpointDeltaFrozen(p *proc.Process, sink stream.Sink) (*Stats, error) {
	st, err := c.writePlan(p, c.planDelta(p), sink)
	if err != nil {
		return nil, err
	}
	c.emitStreamSpans(p, "capture_stream", c.spanStart(), []simclock.Duration{st.Duration}, []int64{st.Bytes})
	return st, nil
}

// ApplyDelta replays a delta context onto an already-restored process.
func (c *Checkpointer) ApplyDelta(p *proc.Process, source stream.Source) (*Stats, error) {
	r := &reader{c: c, feed: sequential(source), acc: simclock.NewPipelineAccum(), onHost: p.Node().IsHost()}
	st := &Stats{}

	dec, err := r.record(tagDeltaHeader, "delta header")
	if err != nil {
		return nil, err
	}
	m, v, nRegions := dec.str(), dec.u64(), dec.i64()
	switch {
	case dec.err != nil:
		return nil, dec.err
	case m != magic:
		return nil, badContext("bad magic %q", m)
	case v != formatVersion:
		return nil, badContext("unsupported version %d", v)
	}
	st.MetaWrites++

	for i := int64(0); i < nRegions; i++ {
		dec, err = r.record(tagDeltaRegion, "delta region")
		if err != nil {
			return nil, err
		}
		name, nRanges := dec.str(), dec.i64()
		if dec.err != nil {
			return nil, dec.err
		}
		st.MetaWrites++
		reg := p.Region(name)
		if reg == nil {
			return nil, badContext("delta names unknown region %q", name)
		}
		for j := int64(0); j < nRanges; j++ {
			dec, err = r.record(tagDeltaRange, "delta range")
			if err != nil {
				return nil, err
			}
			off, n := dec.i64(), dec.i64()
			if dec.err != nil {
				return nil, dec.err
			}
			st.MetaWrites++
			if off > reg.Size() || n > reg.Size()-off {
				return nil, badContext("delta range [%d,+%d) outside region %q", off, n, name)
			}
			if err := r.copyTo(reg, off, n); err != nil {
				return nil, err
			}
			st.Bytes += n
		}
		st.Regions++
	}
	dec, err = r.record(tagDeltaTrailer, "delta trailer")
	if err != nil {
		return nil, err
	}
	if n := dec.i64(); dec.err != nil || n != nRegions {
		return nil, badContext("delta trailer region count %d != %d", n, nRegions)
	}
	st.Duration = r.acc.Total()
	return st, nil
}

// RestartChain restores a process from base, the whole stream of a full
// context file of size bytes, and an ordered chain of delta contexts. A
// fault on base under a retry policy reopens the rest through reopen.
func (c *Checkpointer) RestartChain(base stream.Source, size int64, reopen RangeSourceFactory, deltas []stream.Source, spawn Spawner) (*proc.Process, *Stats, error) {
	acc := simclock.NewPipelineAccum()
	src := &resumable{open: reopen, src: base, end: size, retry: c.retries(acc)}
	defer src.Close() //nolint:errcheck // read side: close only releases the descriptor
	p, st, err := c.restartFrom(sequential(src), acc, spawn, false)
	if err != nil {
		return nil, nil, err
	}
	return c.applyChain(p, st, deltas)
}

// applyChain replays deltas in order onto the freshly restored p, folding
// their bytes and time into the base restore's stats.
func (c *Checkpointer) applyChain(p *proc.Process, st *Stats, deltas []stream.Source) (*proc.Process, *Stats, error) {
	for i, d := range deltas {
		ds, err := c.ApplyDelta(p, d)
		if err != nil {
			p.Terminate()
			return nil, nil, fmt.Errorf("blcr: applying delta %d: %w", i, err)
		}
		st.Bytes += ds.Bytes
		st.Duration += ds.Duration
	}
	return p, st, nil
}
