package blcr

import (
	"fmt"
	"io"

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
	return c.restartFrom(source, spawn, false)
}

// restartFrom is the shared record-parse loop behind Restart and
// RestartAdopted; adopt selects the page-adoption cost model.
func (c *Checkpointer) restartFrom(source stream.Source, spawn Spawner, adopt bool) (*proc.Process, *Stats, error) {
	acc := simclock.NewPipelineAccum()
	r := &contextReader{c: c, src: source, acc: acc, adopt: adopt, geo: &Geometry{}}
	st := &Stats{Geometry: r.geo}

	// Header.
	dec, err := r.readRecord()
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

	// Process metadata.
	dec, err = r.readRecord()
	if err != nil {
		return nil, nil, err
	}
	if tag := dec.u16(); tag != tagProcMeta {
		return nil, nil, badContext("expected process metadata, got tag %#x", tag)
	}
	img := &Image{Name: dec.str(), PID: int(dec.u64())}
	_ = dec.u64() // original node; the target node is the spawner's choice
	nThreads := int(dec.u64())
	nRegions := int(dec.u64())
	st.MetaWrites++

	for i := 0; i < nThreads; i++ {
		dec, err = r.readRecord()
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
	r.onHost = p.Node().IsHost()
	// The restored process starts frozen; the caller resumes after
	// reconnection. Abandon cleans up if region restore fails midway.
	p.PauseSteps()
	abandon := func(err error) (*proc.Process, *Stats, error) {
		p.Terminate()
		return nil, nil, err
	}

	for i := 0; i < nRegions; i++ {
		dec, err = r.readRecord()
		if err != nil {
			return abandon(err)
		}
		if tag := dec.u16(); tag != tagRegionMeta {
			return abandon(badContext("expected region metadata, got tag %#x", tag))
		}
		name := dec.str()
		kind := proc.RegionKind(dec.u64())
		seed := dec.u64()
		size := int64(dec.u64())
		pinned := dec.u64() == 1
		external := dec.u64() == 1
		st.MetaWrites++

		reg, err := p.AddRegion(name, kind, size, seed)
		if err != nil {
			return abandon(fmt.Errorf("blcr: restoring region %q: %w", name, err))
		}
		if pinned {
			reg.Pin()
		}
		if external {
			// Memory-mapped file content is not in the context; the
			// restore driver (the COI daemon) reloads it from the saved
			// local-store files.
			st.Regions++
			continue
		}
		if size > 0 {
			r.geo.addRun(name, size)
		}
		// Pages arrive in PageChunk pieces; restore them as they come.
		for off := int64(0); off < size; {
			n := size - off
			if n > PageChunk {
				n = PageChunk
			}
			content, err := r.readContent(n)
			if err != nil {
				return abandon(err)
			}
			reg.WriteBlob(off, content)
			off += n
		}
		st.Regions++
		st.Bytes += size
	}

	dec, err = r.readRecord()
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

	st.Duration = acc.Total()
	return p, st, nil
}

// contextReader streams framed records and raw page content out of a
// stream.Source, charging virtual time as chunks arrive. Page content
// stays in blob form (synthetic background is never materialized).
type contextReader struct {
	c      *Checkpointer
	src    stream.Source
	acc    *simclock.PipelineAccum
	onHost bool      // restore target is the host (set once the spawner ran)
	adopt  bool      // pages are adopted in place, not copied (RestartAdopted)
	geo    *Geometry // records the image's shape as it is parsed; nil for deltas

	pending blob.Blob
	off     int64
}

// pull ensures at least n bytes are buffered (or returns an error).
func (r *contextReader) pull(n int64) error {
	for r.pending.Len()-r.off < n {
		chunk, cost, err := r.src.Next(PageChunk)
		if err == io.EOF {
			return badContext("truncated context file")
		}
		if err != nil {
			return err
		}
		// Restore-side producer stage: writing the pages into memory —
		// or, on the adoption path, only installing page-table entries
		// over frames that are already resident.
		restoreStage := r.c.model.PhiMemcpy
		if r.onHost {
			restoreStage = r.c.model.HostMemcpy
		}
		n := chunk.Len()
		if r.adopt {
			n /= pteBytesPerByte
		}
		stream.Observe(r.acc, cost, restoreStage(n))
		if r.off > 0 {
			r.pending = r.pending.Slice(r.off, r.pending.Len()-r.off)
			r.off = 0
		}
		r.pending = blob.Concat(r.pending, chunk)
	}
	return nil
}

// take returns the next n bytes as a blob.
func (r *contextReader) take(n int64) (blob.Blob, error) {
	if err := r.pull(n); err != nil {
		return blob.Blob{}, err
	}
	b := r.pending.Slice(r.off, n)
	r.off += n
	return b, nil
}

// readRecord parses one framed metadata record.
func (r *contextReader) readRecord() (*recDecoder, error) {
	hdr, err := r.take(8)
	if err != nil {
		return nil, err
	}
	hb := hdr.Bytes()
	n := int64(uint64(hb[0])<<56 | uint64(hb[1])<<48 | uint64(hb[2])<<40 | uint64(hb[3])<<32 |
		uint64(hb[4])<<24 | uint64(hb[5])<<16 | uint64(hb[6])<<8 | uint64(hb[7]))
	if n <= 0 || n > 1<<20 {
		return nil, badContext("implausible record length %d", n)
	}
	body, err := r.take(n)
	if err != nil {
		return nil, err
	}
	buf := body.Bytes()
	if r.geo != nil {
		r.geo.addMeta(append(hb, buf...))
	}
	return &recDecoder{buf: buf}, nil
}

// readContent returns n bytes of raw page content without materializing.
func (r *contextReader) readContent(n int64) (blob.Blob, error) {
	return r.take(n)
}
