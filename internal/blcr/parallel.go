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

// This file parallelizes the context-file data path. A checkpoint first
// lays out the file — every record's bytes and every region's page run at
// its exact offset — then stripes contiguous byte ranges of that layout
// across N workers, each writing its own sink. Because the layout is
// computed up front, the striped output is byte-identical to the serial
// writer's, whatever N is. Restart runs the inverse: a cheap scan hops
// over the page runs (the format is length-prefixed, so pages are
// skippable once the region table is known), then workers stream the runs
// back into the regions concurrently.

// ShardSinkFactory opens the sink for one shard of a parallel checkpoint:
// the byte range [off, off+n) of a context file totaling total bytes
// (e.g. a striped Snapify-IO stream).
type ShardSinkFactory func(off, n, total int64) (stream.Sink, error)

// RangeSourceFactory opens the byte range [off, off+n) of a stored context
// file for a parallel restart.
type RangeSourceFactory func(off, n int64) (stream.Source, error)

// seg is one element of a context-file layout: either a small metadata
// record (meta non-empty) or a run of region pages.
type seg struct {
	meta      blob.Blob
	walkBytes int64 // producer-stage size charged for a meta record
	region    *proc.Region
	regOff    int64
	n         int64             // page-run length; meta segments use len(meta)
	extraWalk simclock.Duration // flat cost (delta dirty-page-table walk)
}

func (s seg) fileLen() int64 {
	if s.region != nil {
		return s.n
	}
	return s.meta.Len()
}

// plan is a fully laid-out context file.
type plan struct {
	segs  []seg
	total int64
	st    Stats // counts only; Duration filled by the runner
}

func (p *plan) add(s seg) {
	p.segs = append(p.segs, s)
	p.total += s.fileLen()
}

func (p *plan) addMeta(b blob.Blob, walkBytes int64) {
	p.add(seg{meta: b, walkBytes: walkBytes})
	p.st.MetaWrites++
	p.st.Bytes += b.Len()
}

// planFull lays out the format write() produces, record for record.
func (c *Checkpointer) planFull(p *proc.Process) *plan {
	enc := &recEncoder{}
	pl := &plan{}
	regions := p.Regions()
	threads := p.ThreadNames()

	pl.addMeta(enc.record(tagHeader, func(e *recEncoder) {
		e.str(magic)
		e.u64(formatVersion)
	}), 0)
	pl.addMeta(enc.record(tagProcMeta, func(e *recEncoder) {
		e.str(p.Name())
		e.u64(uint64(p.PID()))
		e.u64(uint64(p.Node()))
		e.u64(uint64(len(threads)))
		e.u64(uint64(len(regions)))
	}), 0)
	for _, name := range threads {
		pl.addMeta(enc.record(tagThread, func(e *recEncoder) { e.str(name) }), 0)
		pl.st.Threads++
	}
	for _, r := range regions {
		pinned := uint64(0)
		if r.Pinned() {
			pinned = 1
		}
		external := uint64(0)
		if r.Kind() == proc.RegionLocalStore {
			external = 1
		}
		pl.addMeta(enc.record(tagRegionMeta, func(e *recEncoder) {
			e.str(r.Name())
			e.u64(uint64(r.Kind()))
			e.u64(r.Seed())
			e.u64(uint64(r.Size()))
			e.u64(pinned)
			e.u64(external)
		}), 0)
		if external == 0 && r.Size() > 0 {
			pl.add(seg{region: r, regOff: 0, n: r.Size()})
			pl.st.Bytes += r.Size()
		}
		pl.st.Regions++
	}
	pl.addMeta(enc.record(tagTrailer, func(e *recEncoder) {
		e.u64(uint64(len(regions)))
	}), 0)
	// The full-checkpoint writer charges the page walk on each record's
	// framed length.
	for i := range pl.segs {
		if pl.segs[i].meta.Len() > 0 {
			pl.segs[i].walkBytes = pl.segs[i].meta.Len()
		}
	}
	return pl
}

// planDelta lays out the delta format CheckpointDeltaFrozen produces.
func (c *Checkpointer) planDelta(p *proc.Process, onHost bool) *plan {
	enc := &recEncoder{}
	pl := &plan{}
	regions := p.Regions()

	pl.addMeta(enc.record(tagDeltaHeader, func(e *recEncoder) {
		e.str(magic)
		e.u64(formatVersion)
		e.u64(uint64(len(regions)))
	}), metaRecordSize)
	for _, r := range regions {
		ranges := r.DirtyRanges()
		pl.addMeta(enc.record(tagDeltaRegion, func(e *recEncoder) {
			e.str(r.Name())
			e.u64(uint64(len(ranges)))
		}), metaRecordSize)
		// Dirty detection walks the whole region's page tables; attach the
		// cost to the shard carrying this region's record.
		pl.segs[len(pl.segs)-1].extraWalk = c.walkStage(onHost, r.Size()) / 8
		for _, rg := range ranges {
			pl.addMeta(enc.record(tagDeltaRange, func(e *recEncoder) {
				e.u64(uint64(rg.Off))
				e.u64(uint64(rg.Len))
			}), metaRecordSize)
			if rg.Len > 0 {
				pl.add(seg{region: r, regOff: rg.Off, n: rg.Len})
				pl.st.Bytes += rg.Len
			}
		}
		pl.st.Regions++
	}
	pl.addMeta(enc.record(tagDeltaTrailer, func(e *recEncoder) {
		e.u64(uint64(len(regions)))
	}), metaRecordSize)
	return pl
}

// shard is one worker's contiguous byte range of the layout.
type shard struct {
	off  int64
	n    int64
	segs []seg
}

// chunkOrDefault normalizes a caller-supplied I/O chunk granularity:
// anything non-positive means the serial writer's PageChunk.
func chunkOrDefault(chunk int64) int64 {
	if chunk <= 0 {
		return PageChunk
	}
	return chunk
}

// buildShards partitions the layout into at most workers contiguous
// shards of roughly equal size. Metadata records travel whole; page runs
// split only at chunk boundaries (the writer's chunk boundaries), so
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
			head.extraWalk = sg.extraWalk
			cur.segs = append(cur.segs, head)
			cur.n += split
			flush()
			sg.regOff += split
			sg.n -= split
			sg.extraWalk = 0
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

// runShards opens one sink per shard and streams them concurrently on a
// bounded pool. Every worker closes (or aborts) its own sink, so a striped
// assembly either completes or is discarded as a whole. The merged
// Duration is the slowest worker — the wall-clock of the parallel capture.
func (c *Checkpointer) runShards(p *proc.Process, pl *plan, workers int, chunk int64, open ShardSinkFactory) (*Stats, error) {
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
	err := fanout.Run(workers, len(shards), func(i int) error {
		acc := simclock.NewPipelineAccum()
		sink := sinks[i]
		written := int64(0) // durable watermark, bytes into the shard
		attempt := 1
		for {
			werr := c.streamShard(sink, shards[i], written, onHost, chunk, acc)
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
			if !c.retry.Enabled() || attempt >= c.retry.MaxAttempts {
				sink.Abort()
				return werr
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
			attempt++
			backoff := c.retry.BackoffFor(attempt)
			marks[i] = append(marks[i], retryMark{at: acc.Total(), backoff: backoff, attempt: attempt})
			acc.Add(backoff)
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

// streamShard replays a shard's layout into sink, skipping the first
// written bytes (already durable at the remote end from a previous
// attempt), then flushes and closes the sink. The skipped prefix charges
// nothing: those pages were walked and shipped by the attempt that got
// them acknowledged.
func (c *Checkpointer) streamShard(sink stream.Sink, sh shard, written int64, onHost bool, chunk int64, acc *simclock.PipelineAccum) error {
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
	return sink.Close()
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
	if p.State() != proc.Running {
		return nil, fmt.Errorf("blcr: cannot checkpoint %s process %s", p.State(), p.Name())
	}
	return c.runShards(p, c.planFull(p), workers, chunk, open)
}

// CheckpointDeltaFrozenParallel is CheckpointFrozenParallel for the delta
// format: only dirty ranges travel, striped across workers. Regions are
// marked clean once every shard has committed.
func (c *Checkpointer) CheckpointDeltaFrozenParallel(p *proc.Process, workers int, chunk int64, open ShardSinkFactory) (*Stats, error) {
	st, err := c.CheckpointDeltaFrozenParallelKeepDirty(p, workers, chunk, open)
	if err != nil {
		return nil, err
	}
	for _, r := range p.Regions() {
		r.MarkClean()
	}
	return st, nil
}

// CheckpointDeltaFrozenParallelKeepDirty is CheckpointDeltaFrozenParallel
// without the clean-mark. Callers that verify the snapshot end-to-end —
// and may have to redo the whole capture from the same dirty set — mark
// the regions clean themselves once satisfied.
func (c *Checkpointer) CheckpointDeltaFrozenParallelKeepDirty(p *proc.Process, workers int, chunk int64, open ShardSinkFactory) (*Stats, error) {
	if p.State() != proc.Running {
		return nil, fmt.Errorf("blcr: cannot checkpoint %s process %s", p.State(), p.Name())
	}
	return c.runShards(p, c.planDelta(p, p.Node().IsHost()), workers, chunk, open)
}

// pageRun is one region's pages at a known context-file offset, discovered
// by the restart scan.
type pageRun struct {
	region  *proc.Region
	regOff  int64
	fileOff int64
	n       int64
}

// RestartParallel rebuilds a process from a context file of size bytes
// reachable through range reads. A serial scan hops the region table
// (skipping page runs by offset), the process is spawned and its regions
// allocated, and then workers stream the page runs back concurrently —
// each from its own range-opened source, chunk bytes at a time (<=0 means
// PageChunk).
func (c *Checkpointer) RestartParallel(size int64, workers int, chunk int64, open RangeSourceFactory, spawn Spawner) (*proc.Process, *Stats, error) {
	chunk = chunkOrDefault(chunk)
	acc := simclock.NewPipelineAccum()
	sc := &rangeScanner{c: c, open: open, size: size, acc: acc, geo: &Geometry{}}
	defer sc.close()
	st := &Stats{Geometry: sc.geo}

	dec, err := sc.readRecord()
	if err != nil {
		return nil, nil, err
	}
	if tag := dec.u16(); tag != tagHeader {
		return nil, nil, badContext("expected header, got tag %#x", tag)
	}
	if m := dec.str(); m != magic {
		return nil, nil, badContext("bad magic %q", m)
	}
	if v := dec.u64(); v != formatVersion {
		return nil, nil, badContext("unsupported version %d", v)
	}
	st.MetaWrites++

	dec, err = sc.readRecord()
	if err != nil {
		return nil, nil, err
	}
	if tag := dec.u16(); tag != tagProcMeta {
		return nil, nil, badContext("expected process metadata, got tag %#x", tag)
	}
	img := &Image{Name: dec.str(), PID: int(dec.u64())}
	_ = dec.u64() // original node
	nThreads := int(dec.u64())
	nRegions := int(dec.u64())
	st.MetaWrites++

	for i := 0; i < nThreads; i++ {
		dec, err = sc.readRecord()
		if err != nil {
			return nil, nil, err
		}
		if tag := dec.u16(); tag != tagThread {
			return nil, nil, badContext("expected thread record, got tag %#x", tag)
		}
		img.Threads = append(img.Threads, dec.str())
		st.MetaWrites++
		st.Threads++
	}

	p, err := spawn(img)
	if err != nil {
		return nil, nil, fmt.Errorf("blcr: spawning restore target: %w", err)
	}
	sc.onHost = p.Node().IsHost()
	p.PauseSteps()
	abandon := func(err error) (*proc.Process, *Stats, error) {
		p.Terminate()
		return nil, nil, err
	}

	var runs []pageRun
	for i := 0; i < nRegions; i++ {
		dec, err = sc.readRecord()
		if err != nil {
			return abandon(err)
		}
		if tag := dec.u16(); tag != tagRegionMeta {
			return abandon(badContext("expected region metadata, got tag %#x", tag))
		}
		name := dec.str()
		kind := proc.RegionKind(dec.u64())
		seed := dec.u64()
		rsize := int64(dec.u64())
		pinned := dec.u64() == 1
		external := dec.u64() == 1
		st.MetaWrites++

		reg, err := p.AddRegion(name, kind, rsize, seed)
		if err != nil {
			return abandon(fmt.Errorf("blcr: restoring region %q: %w", name, err))
		}
		if pinned {
			reg.Pin()
		}
		st.Regions++
		if external {
			continue
		}
		if rsize > 0 {
			sc.geo.addRun(name, rsize)
			runs = append(runs, pageRun{region: reg, fileOff: sc.pos(), n: rsize})
			if err := sc.skip(rsize); err != nil {
				return abandon(err)
			}
		}
		st.Bytes += rsize
	}
	dec, err = sc.readRecord()
	if err != nil {
		return abandon(err)
	}
	if tag := dec.u16(); tag != tagTrailer {
		return abandon(badContext("expected trailer, got tag %#x", tag))
	}
	if n := int(dec.u64()); n != nRegions {
		return abandon(badContext("trailer region count %d != %d", n, nRegions))
	}
	st.MetaWrites++
	st.Bytes += int64(st.MetaWrites) * (metaRecordSize + 8)

	// Load the page runs concurrently, splitting at chunk boundaries so
	// big regions spread across all workers.
	pieces := splitRuns(runs, workers, chunk)
	durs := make([]simclock.Duration, len(pieces))
	onHost := p.Node().IsHost()
	err = fanout.Run(workers, len(pieces), func(i int) error {
		d, err := c.loadRun(pieces[i], onHost, chunk, open)
		durs[i] = d
		return err
	})
	if err != nil {
		return abandon(err)
	}
	scanDur := acc.Total()
	bytes := make([]int64, len(pieces))
	for i, pc := range pieces {
		bytes[i] = pc.n
	}
	c.emitStreamSpans(p, "restore_stream", c.spanStart()+scanDur, durs, bytes)
	st.Duration = scanDur + maxDur(durs)
	return p, st, nil
}

// splitRuns cuts page runs so that workers can balance: each piece is at
// most ceil(total/workers) bytes, cut at chunk boundaries.
func splitRuns(runs []pageRun, workers int, chunk int64) []pageRun {
	if workers < 1 {
		workers = 1
	}
	var total int64
	for _, r := range runs {
		total += r.n
	}
	if total == 0 {
		return runs
	}
	target := (total + int64(workers) - 1) / int64(workers)
	target -= target % chunk
	if target < chunk {
		target = chunk
	}
	var pieces []pageRun
	for _, r := range runs {
		for r.n > target {
			head := r
			head.n = target
			pieces = append(pieces, head)
			r.regOff += target
			r.fileOff += target
			r.n -= target
		}
		pieces = append(pieces, r)
	}
	return pieces
}

// loadRun streams one piece of a region's pages from its own range source.
// Reads are idempotent, so a transport fault retries by reopening the
// range at the current offset and continuing (bounded by the retry
// policy, with virtual backoff charged into the pipeline).
func (c *Checkpointer) loadRun(run pageRun, onHost bool, chunk int64, open RangeSourceFactory) (simclock.Duration, error) {
	acc := simclock.NewPipelineAccum()
	restoreStage := c.model.PhiMemcpy
	if onHost {
		restoreStage = c.model.HostMemcpy
	}
	var off int64
	attempt := 1
	for {
		err := func() error {
			src, err := open(run.fileOff+off, run.n-off)
			if err != nil {
				return err
			}
			defer src.Close() //nolint:errcheck // read-side close failure has nothing to recover
			for off < run.n {
				piece, cost, err := src.Next(chunk)
				if err == io.EOF {
					return badContext("truncated page run")
				}
				if err != nil {
					return err
				}
				stream.Observe(acc, cost, restoreStage(piece.Len()))
				run.region.WriteBlob(run.regOff+off, piece)
				off += piece.Len()
			}
			return nil
		}()
		if err == nil {
			return acc.Total(), nil
		}
		if !c.retry.Enabled() || attempt >= c.retry.MaxAttempts {
			return acc.Total(), err
		}
		attempt++
		acc.Add(c.retry.BackoffFor(attempt))
	}
}

// RestartChainParallel restores a base context in parallel, then applies
// the delta chain in order (deltas are small; the base carries the bytes).
func (c *Checkpointer) RestartChainParallel(size int64, workers int, chunk int64, open RangeSourceFactory, deltas []stream.Source, spawn Spawner) (*proc.Process, *Stats, error) {
	p, st, err := c.RestartParallel(size, workers, chunk, open, spawn)
	if err != nil {
		return nil, nil, err
	}
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

// rangeScanner reads metadata records from the front of a context file
// through successive small range opens, and skips page runs by offset
// instead of reading them — the cheap scan that makes parallel restart
// possible.
type rangeScanner struct {
	c      *Checkpointer
	open   RangeSourceFactory
	size   int64
	acc    *simclock.PipelineAccum
	onHost bool
	geo    *Geometry // records the image's shape as it is scanned

	src     stream.Source
	readPos int64 // absolute offset of the next byte src will return
	winEnd  int64 // absolute end of the current window
	pending blob.Blob
	pendOff int64
	filePos int64 // absolute offset of the next byte take() returns
	retries int   // transport retries used so far, bounded by the policy
}

// scanWindow is how much of the file one scan range-open covers. Large
// enough to swallow a burst of metadata records in one open, small enough
// that over-reading into page bytes is cheap.
const scanWindow = 4096

func (s *rangeScanner) buffered() int64 { return s.pending.Len() - s.pendOff }

func (s *rangeScanner) close() {
	if s.src != nil {
		s.src.Close() //nolint:errcheck // scanner teardown; reads already completed
		s.src = nil
	}
}

// fault consumes one retry from the scanner's budget: the current source
// is dropped (pull reopens a window at readPos — reads are idempotent)
// and the backoff is charged as virtual time. Out of budget, it returns
// the original error.
func (s *rangeScanner) fault(err error) error {
	rp := s.c.retry
	if !rp.Enabled() || s.retries >= rp.MaxAttempts-1 {
		return err
	}
	s.retries++
	s.acc.Add(rp.BackoffFor(s.retries + 1))
	s.close()
	return nil
}

func (s *rangeScanner) pull(n int64) error {
	for s.buffered() < n {
		if s.src == nil || s.readPos >= s.winEnd {
			s.close()
			win := int64(scanWindow)
			if rem := s.size - s.readPos; win > rem {
				win = rem
			}
			if win <= 0 {
				return badContext("truncated context file")
			}
			src, err := s.open(s.readPos, win)
			if err != nil {
				if ferr := s.fault(err); ferr != nil {
					return ferr
				}
				continue
			}
			s.src = src
			s.winEnd = s.readPos + win
		}
		chunk, cost, err := s.src.Next(s.winEnd - s.readPos)
		if err == io.EOF {
			return badContext("truncated context file")
		}
		if err != nil {
			if ferr := s.fault(err); ferr != nil {
				return ferr
			}
			continue
		}
		restoreStage := s.c.model.PhiMemcpy
		if s.onHost {
			restoreStage = s.c.model.HostMemcpy
		}
		stream.Observe(s.acc, cost, restoreStage(chunk.Len()))
		s.readPos += chunk.Len()
		if s.pendOff > 0 {
			s.pending = s.pending.Slice(s.pendOff, s.pending.Len()-s.pendOff)
			s.pendOff = 0
		}
		s.pending = blob.Concat(s.pending, chunk)
	}
	return nil
}

func (s *rangeScanner) take(n int64) (blob.Blob, error) {
	if err := s.pull(n); err != nil {
		return blob.Blob{}, err
	}
	b := s.pending.Slice(s.pendOff, n)
	s.pendOff += n
	s.filePos += n
	return b, nil
}

// pos is the file offset of the next unconsumed byte.
func (s *rangeScanner) pos() int64 { return s.filePos }

// skip advances past n bytes (a page run) without reading them.
func (s *rangeScanner) skip(n int64) error {
	if n <= s.buffered() {
		s.pendOff += n
		s.filePos += n
		return nil
	}
	rest := n - s.buffered()
	s.pending = blob.Blob{}
	s.pendOff = 0
	s.close()
	s.filePos = s.readPos + rest
	s.readPos = s.filePos
	if s.filePos > s.size {
		return badContext("page run past end of context file")
	}
	return nil
}

// readRecord parses one framed metadata record.
func (s *rangeScanner) readRecord() (*recDecoder, error) {
	hdr, err := s.take(8)
	if err != nil {
		return nil, err
	}
	hb := hdr.Bytes()
	var n int64
	for _, b := range hb {
		n = n<<8 | int64(b)
	}
	if n <= 0 || n > 1<<20 {
		return nil, badContext("implausible record length %d", n)
	}
	body, err := s.take(n)
	if err != nil {
		return nil, err
	}
	buf := body.Bytes()
	s.geo.addMeta(append(hb, buf...))
	return &recDecoder{buf: buf}, nil
}
