package blcr

import (
	"bytes"

	"snapify/internal/blob"
	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/stream"
)

// This file is the incremental digest pass of the dedup-aware capture
// path. A store capture needs the chunk digests of the whole context
// image, but between two captures of one process almost no chunk changes,
// and the process already knows which: proc.Region records every write in
// a digest-epoch dirty set. A DigestCache carries the previous image's
// digests forward; a pass re-reads and re-hashes only the chunks a dirty
// range or a changed metadata record touches. Of those, a chunk that lies
// wholly in never-written pages of seed-0 regions is not read at all: the
// page-table sweep names it the zero chunk (DESIGN.md §11).
//
// A wrongly carried digest is undetectable downstream — the store is
// content-addressed, so a manifest naming an old chunk is self-consistent
// and Store.Verify passes on it. The defence is here: the cache is used
// only when the new layout has the cached geometry exactly, epochs are cut
// before any content is read, and the full recompute stays as the oracle
// the tests check every pass against: Layout.ChunkDigests here,
// snapstore.ChunkDigests over Layout.Materialize in internal/core's
// differential test.

// Geometry is the shape of a full-layout context image: where each
// metadata record sits and the bytes it holds, and where each region's
// page run sits. Two images of equal geometry differ only inside page
// runs, so a chunk digest of one describes the other wherever no region
// write intervened. A layout computes it from the process; a restart
// records it from the file it parsed (Stats.Geometry), which is how the
// restoring daemon seeds a cache for an image it never laid out.
type Geometry struct {
	size int64
	segs []geoSeg
}

type geoSeg struct {
	off, n int64
	meta   []byte // the framed record; nil for a page run
	region string // page run: the region whose pages [0, n) it holds
}

func (g *Geometry) addMeta(raw []byte) {
	g.segs = append(g.segs, geoSeg{off: g.size, n: int64(len(raw)), meta: raw})
	g.size += int64(len(raw))
}

func (g *Geometry) addRun(region string, n int64) {
	g.segs = append(g.segs, geoSeg{off: g.size, n: n, region: region})
	g.size += n
}

// Size is the image's byte length.
func (g *Geometry) Size() int64 { return g.size }

// metaDiff compares g with the geometry prev of an earlier image. ok is
// false when the shapes differ (a region or thread came or went, a record
// changed length): no digest carries over. Otherwise it returns the file
// ranges of the metadata records whose bytes changed.
func (g *Geometry) metaDiff(prev *Geometry) (changed []proc.ByteRange, ok bool) {
	if g.size != prev.size || len(g.segs) != len(prev.segs) {
		return nil, false
	}
	for i, s := range g.segs {
		p := prev.segs[i]
		if s.off != p.off || s.n != p.n || s.region != p.region || (s.meta == nil) != (p.meta == nil) {
			return nil, false
		}
		if s.meta != nil && !bytes.Equal(s.meta, p.meta) {
			changed = append(changed, proc.ByteRange{Off: s.off, Len: s.n})
		}
	}
	return changed, true
}

// Geometry returns the shape of a full layout.
func (l *Layout) Geometry() *Geometry {
	g := &Geometry{}
	for _, sg := range l.pl.segs {
		if sg.region == nil {
			g.addMeta(sg.meta.Bytes())
		} else {
			g.addRun(sg.region.Name(), sg.n)
		}
	}
	return g
}

// DigestSeed names what produced a DigestCache (the seeded_from span arg).
type DigestSeed int64

const (
	// SeedNone: no cache was used; the pass digested every chunk.
	SeedNone DigestSeed = iota
	// SeedCapture: a store capture's digest pass.
	SeedCapture
	// SeedRestore: the manifest a store-mode restore rebuilt the process from.
	SeedRestore
	// SeedPrecopy: a live migration's pre-copy round.
	SeedPrecopy
)

// DigestCache is the chunk digests of one full-layout image of a
// process, with the geometry and chunk size they were computed under. A
// pass returns its successor, which shares the pass's digest list and is
// complete once the pass has handed out its last window; until then it
// carries nothing forward, so a pass abandoned half way (its caller drops
// the cache) can never seed another.
type DigestCache struct {
	chunk   int64
	geo     *Geometry
	digests []string
	seed    DigestSeed
	partial bool // the pass that produces it has windows left
}

// NewDigestCache builds the cache of an image that was not digested here:
// digests is the manifest's list for an image of geometry geo in
// chunkBytes chunks. It returns nil if the list does not fit the geometry.
func NewDigestCache(geo *Geometry, chunkBytes int64, digests []string, seed DigestSeed) *DigestCache {
	if geo == nil || chunkBytes <= 0 || int64(len(digests)) != (geo.size+chunkBytes-1)/chunkBytes {
		return nil
	}
	return &DigestCache{chunk: chunkBytes, geo: geo, digests: digests, seed: seed}
}

// ChunkBytes is the chunk size the digests were computed under.
func (c *DigestCache) ChunkBytes() int64 { return c.chunk }

// Digests returns the cached list. Callers must not mutate it.
func (c *DigestCache) Digests() []string { return c.digests }

// Seed reports what produced the cache.
func (c *DigestCache) Seed() DigestSeed { return c.seed }

// Arm starts digest-epoch tracking on every region of p that has pages in
// the cached image, as of p's current content. A cache that did not come
// out of a DigestPass on p (NewDigestCache) must be armed while p still
// holds exactly the image the digests describe.
func (c *DigestCache) Arm(p *proc.Process) {
	c.eachRegion(p, func(r *proc.Region) { r.CutEpoch() })
}

// Disarm stops the tracking Arm (or a pass) started: the cache is being
// dropped, and writes should stop paying for it.
func (c *DigestCache) Disarm(p *proc.Process) {
	c.eachRegion(p, (*proc.Region).DropEpoch)
}

func (c *DigestCache) eachRegion(p *proc.Process, fn func(*proc.Region)) {
	for _, s := range c.geo.segs {
		if s.meta != nil {
			continue
		}
		if r := p.Region(s.region); r != nil {
			fn(r)
		}
	}
}

// DigestPass is one digest pass over a layout, handed out window by
// window: Next reads and digests the next few chunks, the caller ships
// what the store lacks of them and comes back for more, so the first chunk
// is on the wire long before the last one is read. Everything that can be
// known without reading — the epochs' dirty ranges, the geometry, the
// carried digests, which chunks to re-read — is settled when the pass is
// made. Nothing is read twice: a chunk the pass read stays with it (Chunk)
// and is what ships, now or on a retry.
type DigestPass struct {
	// Cache describes the image the pass cut; the caller installs it for
	// the next pass (and drops it if the pass is abandoned or what follows
	// it fails — the epochs were cut and cannot be replayed).
	Cache *DigestCache
	// SeededFrom is the seed of the cache the pass carries digests from,
	// SeedNone if it carries none.
	SeededFrom DigestSeed
	// Prelude is the serial cost ahead of the first chunk: the PTE sweep
	// (see sweep). Per-chunk costs go through Observe.
	Prelude simclock.Duration
	// ChunksRehashed and BytesRehashed count what the windows handed out
	// so far re-read and re-hashed; ChunksSwept and BytesSwept what the
	// sweep named zero without reading. Every other digest was carried
	// forward.
	ChunksRehashed int
	BytesRehashed  int64
	ChunksSwept    int
	BytesSwept     int64
	// ChangedBytes sums the swept and re-hashed chunks whose digest
	// differs from the carried one (every chunk when nothing was
	// carried): what a store holding the previous image lacks.
	ChangedBytes int64

	lay     *Layout
	chunk   int64
	digest  func(blob.Blob) string
	digests []string          // carried digests in place; "" where a chunk's window is still to come
	from    []string          // the list digests were carried from; nil when nothing was
	due     []int             // chunks still to re-read, ascending
	next    int               // first chunk of the next window
	read    map[int]chunkRead // the pass's own reads
}

// chunkRead is one chunk as the pass read it; priced once an accumulator
// holds the walk and copy of that read.
type chunkRead struct {
	data   blob.Blob
	priced bool
}

// Digests is the image's chunk digest list, complete once Next has handed
// out the last window.
func (p *DigestPass) Digests() []string { return p.digests }

// ImageBytes and ChunkBytes are the geometry the digests are computed
// under.
func (p *DigestPass) ImageBytes() int64 { return p.lay.Size() }
func (p *DigestPass) ChunkBytes() int64 { return p.chunk }

// Next reads and digests the next window and returns it as the chunk
// range [lo, hi): the chunks up to and including the w-th (w >= 1) one the
// pass still has to re-read, and on the last window the carried chunks
// behind it — so a pass with at most w chunks to re-read is one window
// over the whole list. ok is false once every window was handed out.
func (p *DigestPass) Next(w int) (lo, hi int, ok bool) {
	if p.next == len(p.digests) {
		return 0, 0, false
	}
	take := min(w, len(p.due))
	lo, hi = p.next, len(p.digests)
	if take < len(p.due) {
		hi = p.due[take-1] + 1
	}
	for _, i := range p.due[:take] {
		piece := p.readChunk(i)
		p.digests[i] = p.digest(piece)
		p.ChunksRehashed++
		p.BytesRehashed += piece.Len()
		if p.from == nil || p.digests[i] != p.from[i] {
			p.ChangedBytes += piece.Len()
		}
	}
	p.due, p.next = p.due[take:], hi
	if hi == len(p.digests) && p.Cache != nil {
		p.Cache.partial = false
	}
	return lo, hi, true
}

// Whole reads and digests whatever windows are left and winds the pass
// back, so that the next Next hands out the whole list as one window with
// nothing left to read: for a pass that must know its totals before
// anything ships, and for the retry of one that failed half way.
func (p *DigestPass) Whole() {
	p.Next(max(1, len(p.due)))
	p.next = 0
}

// Reread reports whether the pass holds its own read of chunk i.
func (p *DigestPass) Reread(i int) bool {
	_, ok := p.read[i]
	return ok
}

// Chunk returns chunk i of the image the pass describes: the pass's own
// point-in-time read if it has one, else — a carried or swept chunk — a
// read of the process now, kept like any other. That is the same bytes
// only while the process is frozen: a pass over a running process (a
// pre-copy round) must not ask for a chunk for which Reread is false.
func (p *DigestPass) Chunk(i int) blob.Blob {
	if r, ok := p.read[i]; ok {
		return r.data
	}
	return p.readChunk(i)
}

func (p *DigestPass) readChunk(i int) blob.Blob {
	off := int64(i) * p.chunk
	b := p.lay.Range(off, min(p.chunk, p.lay.Size()-off))
	p.read[i] = chunkRead{data: b}
	return b
}

// Observe feeds chunk i into acc as one pipeline step: the walk and the
// copy of the pass's read of it — once, however often the chunk ships —
// beside the transport stages of shipping it. It is the rule writeShard
// prices a plain capture's chunks by, with the digest copy as one more
// stage.
func (p *DigestPass) Observe(acc *simclock.PipelineAccum, i int, cost stream.Cost) {
	if r, ok := p.read[i]; ok && !r.priced {
		p.read[i] = chunkRead{data: r.data, priced: true}
		c, onHost, n := p.lay.c, p.lay.onHost, r.data.Len()
		stream.Observe(acc, cost, c.walkStage(onHost, n), c.copyStage(onHost, n))
	} else if len(cost.Stages) > 0 {
		stream.Observe(acc, cost)
	}
}

// ObserveUnshipped feeds acc the reads among chunks [lo, hi) that no
// accumulator holds yet — re-read, and found unchanged or already in the
// store — as pipeline steps with no transport stage.
func (p *DigestPass) ObserveUnshipped(acc *simclock.PipelineAccum, lo, hi int) {
	for i := lo; i < hi; i++ {
		p.Observe(acc, i, stream.Cost{})
	}
}

// newPass starts a pass that re-reads the chunks in due.
func (l *Layout) newPass(chunk int64, digest func(blob.Blob) string, digests []string, due []int) *DigestPass {
	return &DigestPass{lay: l, chunk: chunk, digest: digest, digests: digests, due: due,
		read: make(map[int]chunkRead, len(due))}
}

// allChunks lists chunks 0..n-1: the re-read set of a pass that carries
// nothing.
func allChunks(n int) []int {
	due := make([]int, n)
	for i := range due {
		due[i] = i
	}
	return due
}

// DigestPass starts a pass over a full layout that carries forward from
// prev every digest that neither a region write since prev's cut nor a
// changed metadata record can have invalidated. prev may be nil, and is
// ignored when its chunk size or geometry differs from the layout's or the
// pass that was to complete it never did. Of the chunks left to re-read,
// the sweep names the untouched ones zero, and the windows read the rest.
//
// The pass cuts every region's digest epoch here, before the sweep and
// before any window reads any content, so it is safe on a running
// process: a write that lands after a region's cut is in the next epoch
// whether or not this pass's sweep or read also saw it. The returned cache
// is stamped with seed.
func (l *Layout) DigestPass(prev *DigestCache, chunk int64, seed DigestSeed, digest func(blob.Blob) string) *DigestPass {
	chunk = chunkOrDefault(chunk)
	geo := l.Geometry()

	// Cut first, read after. The cuts also arm tracking on regions this
	// process has never been digested with.
	var dirty []proc.ByteRange
	pos := int64(0)
	for _, sg := range l.pl.segs {
		if sg.region != nil {
			for _, rg := range sg.region.CutEpoch() {
				if rg.Len > 0 {
					dirty = append(dirty, proc.ByteRange{Off: pos + rg.Off, Len: rg.Len})
				}
			}
		}
		pos += sg.fileLen()
	}

	usable := prev != nil && prev.chunk == chunk && !prev.partial
	if usable {
		var metaDirty []proc.ByteRange
		metaDirty, usable = geo.metaDiff(prev.geo)
		dirty = append(dirty, metaDirty...)
	}
	n := int((geo.size + chunk - 1) / chunk)
	var pass *DigestPass
	if !usable {
		pass = l.newPass(chunk, digest, make([]string, n), allChunks(n))
	} else {
		stale := make([]bool, n)
		for _, rg := range dirty {
			for i := int(rg.Off / chunk); i <= int((rg.End()-1)/chunk); i++ {
				stale[i] = true
			}
		}
		digests := append([]string(nil), prev.digests...)
		var due []int
		for i, s := range stale {
			if s {
				due = append(due, i)
				digests[i] = ""
			}
		}
		pass = l.newPass(chunk, digest, digests, due)
		pass.from, pass.SeededFrom = prev.digests, prev.seed
	}
	pass.sweep()
	covered := geo.size // a warm pass's sweep reads every entry, for the dirty bits
	if !usable {
		covered = pass.BytesSwept
	}
	pass.Prelude = l.c.copyStage(l.onHost, covered/pteBytesPerByte)
	pass.Cache = &DigestCache{chunk: chunk, geo: geo, digests: pass.digests, seed: seed, partial: true}
	return pass
}

// sweep is the page-table sweep, run after the cuts: of the chunks due to
// be re-read, every one whose bytes all lie in page runs where
// proc.Region.Untouched holds (no metadata byte, no page present) gets the
// digest of that many zero bytes and leaves the re-read set — it is never
// read, walked, copied or hashed. A warm pass's sweep reads every page
// table entry of the image, for the dirty bits; a cold pass prices only
// the entries of the chunks it spares, because a walked chunk's walk reads
// its own.
func (p *DigestPass) sweep() {
	segs, size := p.lay.pl.segs, p.lay.Size()
	zero := map[int64]string{}
	s, at := 0, int64(0) // segs[s] starts at file offset at
	read := p.due[:0]
	for _, i := range p.due {
		off := int64(i) * p.chunk
		end := min(off+p.chunk, size)
		for at+segs[s].fileLen() <= off {
			at += segs[s].fileLen()
			s++
		}
		untouched := true
		for k, pos := s, at; untouched && pos < end; k++ {
			sg := segs[k]
			lo, hi := max(off, pos), min(end, pos+sg.fileLen())
			untouched = sg.region != nil && sg.region.Untouched(sg.regOff+lo-pos, hi-lo)
			pos += sg.fileLen()
		}
		if !untouched {
			read = append(read, i)
			continue
		}
		n := end - off
		if _, ok := zero[n]; !ok {
			zero[n] = p.digest(blob.Zeros(n))
		}
		p.digests[i] = zero[n]
		p.ChunksSwept++
		p.BytesSwept += n
		if p.from == nil || p.digests[i] != p.from[i] {
			p.ChangedBytes += n
		}
	}
	p.due = read
}
