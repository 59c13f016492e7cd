package blcr

import (
	"fmt"
	"io"

	"snapify/internal/blob"
	"snapify/internal/fanout"
	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/stream"
)

// This file is the striped transport of the context-file data path. A
// checkpoint stripes contiguous byte ranges of a plan (context.go) across N
// workers, each writing its own sink; the plan fixes every byte's offset up
// front, so the assembled file is the same whatever N is, and the same the
// one-sink transport (checkpoint.go) writes. Restart runs the inverse: the
// one parser (restart.go), fed through small range reads, hops over the
// page runs (the format is length-prefixed, so pages are skippable once the
// region table is known), then workers stream the runs back into the
// regions concurrently.

// ShardSinkFactory opens the sink for one shard of a parallel checkpoint:
// the byte range [off, off+n) of a context file totaling total bytes
// (e.g. a striped Snapify-IO stream).
type ShardSinkFactory func(off, n, total int64) (stream.Sink, error)

// RangeSourceFactory opens the byte range [off, off+n) of a stored context
// file for a parallel restart.
type RangeSourceFactory func(off, n int64) (stream.Source, error)

// shard is one worker's contiguous byte range of the layout.
type shard struct {
	off  int64
	n    int64
	segs []seg
}

// chunkOrDefault normalizes a caller-supplied I/O chunk granularity:
// anything non-positive means PageChunk, the one-sink transport's.
func chunkOrDefault(chunk int64) int64 {
	if chunk <= 0 {
		return PageChunk
	}
	return chunk
}

// buildShards partitions the layout into at most workers contiguous
// shards of roughly equal size. Metadata records travel whole; page runs
// split only at chunk boundaries (the shard walker's chunk boundaries), so
// per-chunk cost accounting is unchanged by sharding.
func buildShards(segs []seg, total int64, workers int, chunk int64) []shard {
	if workers < 1 {
		workers = 1
	}
	target := (total + int64(workers) - 1) / int64(workers)
	if target < chunk {
		target = chunk
	}
	var shards []shard
	cur := shard{}
	flush := func() {
		if len(cur.segs) > 0 {
			shards = append(shards, cur)
			cur = shard{off: cur.off + cur.n}
		}
	}
	for _, sg := range segs {
		for {
			room := target - cur.n
			if sg.fileLen() <= room || sg.region == nil {
				// Fits (or is an unsplittable record: take it and run over).
				if sg.fileLen() > room && cur.n > 0 {
					flush()
				}
				cur.segs = append(cur.segs, sg)
				cur.n += sg.fileLen()
				if cur.n >= target {
					flush()
				}
				break
			}
			// Split the page run at the last chunk boundary within room.
			split := room - room%chunk
			if split <= 0 {
				flush()
				continue
			}
			head := sg
			head.n = split
			cur.segs = append(cur.segs, head)
			cur.n += split
			flush()
			sg.regOff += split
			sg.n -= split
		}
	}
	flush()
	// The flush cadence can overrun by one when unsplittable records land
	// badly; fold any excess into the last shard so a request for N
	// streams never opens more than N.
	for len(shards) > workers {
		last := shards[len(shards)-1]
		dst := &shards[len(shards)-2]
		dst.segs = append(dst.segs, last.segs...)
		dst.n += last.n
		shards = shards[:len(shards)-1]
	}
	return shards
}

func maxDur(ds []simclock.Duration) simclock.Duration {
	var m simclock.Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}

// runShards opens one sink per shard and streams them concurrently, one
// worker per shard. Every worker closes (or aborts) its own sink, so a striped
// assembly either completes or is discarded as a whole. The merged
// Duration is the slowest worker — the wall-clock of the parallel capture.
func (c *Checkpointer) runShards(p *proc.Process, pl *plan, workers int, chunk int64, open ShardSinkFactory) (*Stats, error) {
	if p.State() != proc.Running {
		return nil, fmt.Errorf("blcr: cannot checkpoint %s process %s", p.State(), p.Name())
	}
	onHost := p.Node().IsHost()
	chunk = chunkOrDefault(chunk)
	shards := buildShards(pl.segs, pl.total, workers, chunk)
	sinks := make([]stream.Sink, len(shards))
	for i, sh := range shards {
		s, err := open(sh.off, sh.n, pl.total)
		if err != nil {
			for _, prev := range sinks[:i] {
				prev.Abort()
			}
			return nil, err
		}
		sinks[i] = s
	}
	durs := make([]simclock.Duration, len(shards))
	marks := make([][]retryMark, len(shards))
	err := fanout.Run(len(shards), func(i int) error {
		acc := simclock.NewPipelineAccum()
		retry := c.retries(acc)
		sink := sinks[i]
		written := int64(0) // durable watermark, bytes into the shard
		for {
			werr := c.writeShard(sink, shards[i], written, onHost, chunk, acc)
			if werr == nil {
				werr = sink.Close()
			}
			if werr == nil {
				durs[i] = acc.Total()
				return nil
			}
			// Advance the watermark by whatever this transport got
			// acknowledged before it failed; the resumed stream starts
			// there instead of at the shard's front.
			if wm, ok := sink.(stream.Watermarked); ok {
				written += wm.Acked()
			}
			at := acc.Total()
			if err := retry.spend(werr); err != nil {
				sink.Abort()
				return err
			}
			// Part company with the failed transport. A Detacher keeps
			// the remote assembly (and its durable bytes) alive for the
			// resumed stream; anything else is aborted and the shard
			// starts over.
			if dt, ok := sink.(stream.Detacher); ok {
				dt.Detach()
			} else {
				sink.Abort()
				written = 0
			}
			marks[i] = append(marks[i], retryMark{at: at, backoff: Backoff(retry.used), attempt: retry.used + 1})
			off, n := shards[i].off+written, shards[i].n-written
			if n <= 0 {
				// Every byte was acknowledged but the close handshake was
				// lost: rejoin the assembly over the full stripe, write
				// nothing, and close it again (idempotent — the remote
				// coverage is already credited).
				off, n, written = shards[i].off, shards[i].n, shards[i].n
			}
			ns, err := open(off, n, pl.total)
			if err != nil {
				return err
			}
			sink = ns
			sinks[i] = ns
		}
	})
	if err != nil {
		return nil, err
	}
	bytes := make([]int64, len(shards))
	for i, sh := range shards {
		bytes[i] = sh.n
	}
	c.emitStreamSpans(p, "capture_stream", c.spanStart(), durs, bytes)
	c.emitRetrySpans(p, c.spanStart(), marks)
	st := pl.st
	st.Duration = maxDur(durs)
	return &st, nil
}

// writeShard replays a shard's layout into sink, skipping the first
// written bytes (already durable at the remote end from a previous
// attempt), then flushes the sink; closing or aborting it is the caller's.
// The skipped prefix charges nothing: those pages were walked and shipped
// by the attempt that got them acknowledged.
func (c *Checkpointer) writeShard(sink stream.Sink, sh shard, written int64, onHost bool, chunk int64, acc *simclock.PipelineAccum) error {
	pos := int64(0)
	for _, sg := range sh.segs {
		l := sg.fileLen()
		if pos+l <= written {
			pos += l
			continue
		}
		skip := written - pos
		if skip < 0 {
			skip = 0
		}
		pos += l
		if sg.extraWalk > 0 && skip == 0 {
			acc.Add(sg.extraWalk)
		}
		if sg.region == nil {
			b := sg.meta
			wb := sg.walkBytes
			if skip > 0 {
				b = b.Slice(skip, l-skip)
				wb = b.Len()
			}
			cost, err := sink.WriteBlob(b)
			if err != nil {
				return err
			}
			stream.Observe(acc, cost, c.walkStage(onHost, wb))
			continue
		}
		content := sg.region.SnapshotRange(sg.regOff+skip, sg.n-skip)
		err := content.ForEachChunk(chunk, func(piece blob.Blob) error {
			cost, err := sink.WriteBlob(piece)
			if err != nil {
				return err
			}
			stream.Observe(acc, cost, c.walkStage(onHost, piece.Len()))
			return nil
		})
		if err != nil {
			return err
		}
	}
	if fl, ok := sink.(stream.Flusher); ok {
		cost, err := fl.Flush()
		if err != nil {
			return err
		}
		stream.Observe(acc, cost)
	}
	return nil
}

// retryMark records one stream retry for the trace: at which virtual
// offset of the worker's pipeline it happened and how long it backed off.
type retryMark struct {
	at      simclock.Duration
	backoff simclock.Duration
	attempt int
}

// emitRetrySpans records a "stream_retry" span on each stream's track for
// every retry it took, so a Perfetto trace shows the fault and the
// recovery gap. No-op unless WithSpans installed a tracer and scope.
func (c *Checkpointer) emitRetrySpans(p *proc.Process, base simclock.Duration, marks [][]retryMark) {
	if c.sp == nil || c.sp.scope == 0 {
		return
	}
	for i, ms := range marks {
		for _, m := range ms {
			tk := c.sp.tracer.Track(p.Node().String(), fmt.Sprintf("%s/stream %d", p.Name(), i))
			tk.Emit(c.sp.scope, "stream_retry", base+m.at, m.backoff,
				map[string]int64{"attempt": int64(m.attempt), "stream": int64(i)})
		}
	}
}

// spanStart returns the operation's begin time installed by WithSpans.
func (c *Checkpointer) spanStart() simclock.Duration {
	if c.sp == nil {
		return 0
	}
	return c.sp.start
}

// CheckpointFrozenParallel serializes an already-quiesced process across
// workers concurrent sinks, chunking page runs at chunk bytes (<=0 means
// PageChunk). The concatenated shards are byte-identical to what
// CheckpointFrozen writes to a single sink.
func (c *Checkpointer) CheckpointFrozenParallel(p *proc.Process, workers int, chunk int64, open ShardSinkFactory) (*Stats, error) {
	return c.runShards(p, c.planFull(p), workers, chunk, open)
}

// CheckpointDeltaFrozenParallel is CheckpointFrozenParallel for the delta
// format: only dirty ranges travel, striped across workers. Like
// CheckpointDeltaFrozen it leaves the regions dirty.
func (c *Checkpointer) CheckpointDeltaFrozenParallel(p *proc.Process, workers int, chunk int64, open ShardSinkFactory) (*Stats, error) {
	return c.runShards(p, c.planDelta(p), workers, chunk, open)
}

// RestartParallel rebuilds a process from a context file of size bytes
// reachable through range reads. The parser, fed by small windowed range
// opens, hops the region table (noting each page run's offset and skipping
// it); then the page runs are cut into at most workers shards by the
// capture's rule (buildShards), and each shard is one worker's pipeline:
// its runs, in order, each from its own range-opened source, chunk bytes
// at a time (<=0 means PageChunk).
func (c *Checkpointer) RestartParallel(size int64, workers int, chunk int64, open RangeSourceFactory, spawn Spawner) (*proc.Process, *Stats, error) {
	chunk = chunkOrDefault(chunk)
	r := &reader{c: c, acc: simclock.NewPipelineAccum(), geo: &Geometry{}}
	win := &rangeWindows{r: r, size: size, win: resumable{open: open, retry: c.retries(r.acc)}}
	r.feed = win.next
	defer win.win.Close() //nolint:errcheck // scanner teardown; reads already completed

	// A full context holds each region's pages as one run from the
	// region's first byte, so a piece of a run at regOff sits at the
	// run's file offset plus regOff.
	var runs []seg
	var pages int64
	runAt := make(map[*proc.Region]int64)
	p, st, err := c.parseContext(r, spawn, func(reg *proc.Region, fileOff, n int64) error {
		runs = append(runs, seg{region: reg, n: n})
		runAt[reg] = fileOff
		pages += n
		return win.skip(n)
	})
	if err != nil {
		return nil, nil, err
	}

	shards := buildShards(runs, pages, workers, chunk)
	durs := make([]simclock.Duration, len(shards))
	err = fanout.Run(len(shards), func(i int) error {
		acc := simclock.NewPipelineAccum()
		for _, sg := range shards[i].segs {
			if err := c.loadRun(sg, runAt[sg.region]+sg.regOff, r.onHost, chunk, open, acc); err != nil {
				return err
			}
		}
		durs[i] = acc.Total()
		return nil
	})
	if err != nil {
		p.Terminate()
		return nil, nil, err
	}
	bytes := make([]int64, len(shards))
	for i, sh := range shards {
		bytes[i] = sh.n
	}
	scanDur := r.acc.Total()
	c.emitStreamSpans(p, "restore_stream", c.spanStart()+scanDur, durs, bytes)
	st.Duration = scanDur + maxDur(durs)
	return p, st, nil
}

// loadRun streams one piece of a region's pages, at file offset fileOff,
// into the region, observing its costs on the worker's acc. It reads from
// a range source of its own, which resumes at its offset after a
// transport fault (resumable, with a budget of its own).
func (c *Checkpointer) loadRun(run seg, fileOff int64, onHost bool, chunk int64, open RangeSourceFactory, acc *simclock.PipelineAccum) error {
	src := &resumable{open: open, off: fileOff, end: fileOff + run.n, retry: c.retries(acc)}
	defer src.Close() //nolint:errcheck // read-side close failure has nothing to recover
	for off := int64(0); off < run.n; {
		piece, cost, err := src.Next(chunk)
		if err == io.EOF {
			return badContext("truncated page run")
		}
		if err != nil {
			return err
		}
		switch {
		case !cost.Hole:
			stream.Observe(acc, cost, c.copyStage(onHost, piece.Len()))
			run.region.WriteBlob(run.regOff+off, piece)
		case run.region.Seed() != 0:
			// A hole is written, and its copy charged, only where the
			// fresh region is not zeros already (copyTo's rule).
			stream.Observe(acc, cost)
			acc.Add(c.copyStage(onHost, piece.Len()))
			run.region.WriteBlob(run.regOff+off, piece)
		default:
			stream.Observe(acc, cost)
		}
		off += piece.Len()
	}
	return nil
}

// RestartChainParallel restores a base context in parallel, then applies
// the delta chain in order (deltas are small; the base carries the bytes).
func (c *Checkpointer) RestartChainParallel(size int64, workers int, chunk int64, open RangeSourceFactory, deltas []stream.Source, spawn Spawner) (*proc.Process, *Stats, error) {
	p, st, err := c.RestartParallel(size, workers, chunk, open, spawn)
	if err != nil {
		return nil, nil, err
	}
	return c.applyChain(p, st, deltas)
}

// rangeWindows feeds a reader the front of a context file through
// successive small range opens, and skips page runs by offset instead of
// reading them — the cheap scan that makes parallel restart possible. win
// is the current window; every window draws on the scan's one retry
// budget.
type rangeWindows struct {
	r    *reader
	size int64
	win  resumable
}

// scanWindow is how much of the file one scan range-open covers. Large
// enough to swallow a burst of metadata records in one open, small enough
// that over-reading into page bytes is cheap.
const scanWindow = 4096

// next returns the rest of the current window, opening the next one when
// it is spent; io.EOF at the end of the file.
func (w *rangeWindows) next() (blob.Blob, stream.Cost, error) {
	if w.win.off >= w.win.end {
		w.win.Close() //nolint:errcheck // the window is spent; its reads completed
		w.win.end = min(w.win.off+scanWindow, w.size)
	}
	return w.win.Next(scanWindow)
}

// skip advances the reader past n bytes (a page run) without reading them.
func (w *rangeWindows) skip(n int64) error {
	if n <= w.r.buffered() {
		w.r.off += n
		return nil
	}
	if n -= w.r.buffered(); n > w.size-w.win.off {
		return badContext("page run past end of context file")
	}
	w.win.Close() //nolint:errcheck // the scan moves past the window; its reads completed
	w.win.off += n
	w.win.end = w.win.off
	w.r.pending, w.r.off, w.r.holes = blob.Blob{}, 0, nil
	return nil
}
