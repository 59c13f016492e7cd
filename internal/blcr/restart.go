package blcr

import (
	"fmt"

	"snapify/internal/blob"
	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/stream"
)

// Image is the parsed identity of a checkpointed process, available to the
// Spawner before memory is restored.
type Image struct {
	Name    string
	PID     int
	Threads []string
}

// Spawner creates the process object a snapshot is restored into. It runs
// on the restore target, so region allocation draws on that node's memory
// budget (allocation failure aborts the restart, as it would on a full
// card). The COI daemon supplies the spawner when restoring offload
// processes.
type Spawner func(img *Image) (*proc.Process, error)

// Restart rebuilds a process from the context stream via spawn. The
// restored process is returned with its step gate paused; the caller
// resumes it once reconnection (Section 4.3) is complete.
func (c *Checkpointer) Restart(source stream.Source, spawn Spawner) (*proc.Process, *Stats, error) {
	return c.restartFrom(sequential(source), spawn, false)
}

// restartFrom is the sequential parse behind Restart and RestartAdopted:
// each region's pages are written as feed delivers them. adopt selects
// the page-adoption cost model.
func (c *Checkpointer) restartFrom(feed func() (blob.Blob, stream.Cost, error), spawn Spawner, adopt bool) (*proc.Process, *Stats, error) {
	r := &reader{c: c, feed: feed, acc: simclock.NewPipelineAccum(), adopt: adopt, geo: &Geometry{}}
	p, st, err := c.parseContext(r, spawn, func(reg *proc.Region, _, n int64) error {
		return r.copyTo(reg, 0, n)
	})
	if err != nil {
		return nil, nil, err
	}
	st.Duration = r.acc.Total()
	return p, st, nil
}

// copyTo writes the file's next n bytes into reg at off as they arrive,
// PageChunk at a time.
func (r *reader) copyTo(reg *proc.Region, off, n int64) error {
	for done := int64(0); done < n; {
		m := min(n-done, PageChunk)
		content, err := r.take(m)
		if err != nil {
			return err
		}
		reg.WriteBlob(off+done, content)
		done += m
	}
	return nil
}

// parseContext is the one parser of the full context format. It reads the
// header, process and thread records, spawns the target, and rebuilds the
// region table; for every region whose pages are in the file it calls
// pages with r positioned at the run's first byte (file offset fileOff),
// and pages must consume exactly those n bytes — copying them now
// (restartFrom) or noting where they are and skipping them
// (RestartParallel). The returned process has its step gate paused and is
// terminated if anything after the spawn fails. Stats.Duration is the
// caller's to fill.
func (c *Checkpointer) parseContext(r *reader, spawn Spawner, pages func(reg *proc.Region, fileOff, n int64) error) (*proc.Process, *Stats, error) {
	st := &Stats{Geometry: r.geo}

	dec, err := r.record(tagHeader, "header")
	if err != nil {
		return nil, nil, err
	}
	m, v := dec.str(), dec.u64()
	switch {
	case dec.err != nil:
		return nil, nil, dec.err
	case m != magic:
		return nil, nil, badContext("bad magic %q", m)
	case v != formatVersion:
		return nil, nil, badContext("unsupported version %d", v)
	}

	dec, err = r.record(tagProcMeta, "process metadata")
	if err != nil {
		return nil, nil, err
	}
	img := &Image{Name: dec.str(), PID: int(dec.i64())}
	_ = dec.u64() // original node; the target node is the spawner's choice
	nThreads, nRegions := dec.i64(), dec.i64()
	if dec.err != nil {
		return nil, nil, dec.err
	}
	for i := int64(0); i < nThreads; i++ {
		dec, err = r.record(tagThread, "thread record")
		if err != nil {
			return nil, nil, err
		}
		img.Threads = append(img.Threads, dec.str())
		if dec.err != nil {
			return nil, nil, dec.err
		}
	}

	p, err := spawn(img)
	if err != nil {
		return nil, nil, fmt.Errorf("blcr: spawning restore target: %w", err)
	}
	r.onHost = p.Node().IsHost()
	// The restored process starts frozen; the caller resumes after
	// reconnection. Abandon cleans up if region restore fails midway.
	p.PauseSteps()
	abandon := func(err error) (*proc.Process, *Stats, error) {
		p.Terminate()
		return nil, nil, err
	}

	for i := int64(0); i < nRegions; i++ {
		dec, err = r.record(tagRegionMeta, "region metadata")
		if err != nil {
			return abandon(err)
		}
		name := dec.str()
		kind := proc.RegionKind(dec.u64())
		seed := dec.u64()
		size := dec.i64()
		pinned := dec.u64() == 1
		// Memory-mapped file content is not in the context; the restore
		// driver (the COI daemon) reloads it from the saved local-store
		// files.
		external := dec.u64() == 1
		switch {
		case dec.err != nil:
			return abandon(dec.err)
		case external != (kind == proc.RegionLocalStore):
			return abandon(badContext("region %q: kind %v with external flag %v", name, kind, external))
		case p.Region(name) != nil:
			return abandon(badContext("region %q appears twice", name))
		}
		reg, err := p.AddRegion(name, kind, size, seed)
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
		if size > 0 {
			fileOff := r.geo.size
			r.geo.addRun(name, size)
			if err := pages(reg, fileOff, size); err != nil {
				return abandon(err)
			}
		}
		st.Bytes += size
	}

	dec, err = r.record(tagTrailer, "trailer")
	if err != nil {
		return abandon(err)
	}
	if n := dec.i64(); dec.err != nil || n != nRegions {
		return abandon(badContext("trailer region count %d != %d", n, nRegions))
	}
	st.Threads = len(img.Threads)
	st.MetaWrites = 3 + st.Threads + st.Regions
	st.Bytes += int64(st.MetaWrites) * (metaRecordSize + 8)
	return p, st, nil
}
