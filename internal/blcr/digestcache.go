package blcr

import (
	"bytes"

	"snapify/internal/blob"
	"snapify/internal/proc"
	"snapify/internal/simclock"
)

// This file is the incremental digest pass of the dedup-aware capture
// path. A store capture needs the chunk digests of the whole context
// image, but between two captures of one process almost no chunk changes,
// and the process already knows which: proc.Region records every write in
// a digest-epoch dirty set. A DigestCache carries the previous image's
// digests forward; a pass re-reads and re-hashes only the chunks a dirty
// range or a changed metadata record touches.
//
// A wrongly carried digest is undetectable downstream — the store is
// content-addressed, so a manifest naming an old chunk is self-consistent
// and Store.Verify passes on it. The defence is here: the cache is used
// only when the new layout has the cached geometry exactly, epochs are cut
// before any content is read, and the full recompute stays as the oracle
// the tests check every pass against: Layout.DigestWhole here (behind
// ChunkDigests), snapstore.ChunkDigests over Layout.Materialize in
// internal/core's differential test.

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
// process, with the geometry and chunk size they were computed under. It
// is immutable; each pass returns its successor.
type DigestCache struct {
	chunk   int64
	geo     *Geometry
	digests []string
	seed    DigestSeed
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

// DigestPass is the outcome of one digest pass over a layout.
type DigestPass struct {
	// Cache describes the image the pass cut; the caller installs it for
	// the next pass (and drops it if what follows the pass fails — the
	// epochs were cut and cannot be replayed). Nil from DigestWhole.
	Cache *DigestCache
	// SeededFrom is the seed of the cache the pass carried digests from,
	// SeedNone if it carried none.
	SeededFrom DigestSeed
	// ChunksRehashed and BytesRehashed count what the pass re-read and
	// re-hashed; every other digest was carried forward.
	ChunksRehashed int
	BytesRehashed  int64
	// ChangedBytes sums the re-hashed chunks whose digest differs from
	// the carried one (every chunk when nothing was carried): what a
	// store holding the previous image lacks.
	ChangedBytes int64
	// Dur is the virtual cost of the pass: a full Materialize when
	// nothing was carried, else RescanCost over the bytes re-read.
	Dur simclock.Duration

	lay     *Layout
	chunk   int64
	digests []string
	whole   blob.Blob         // the materialized image, when nothing was carried
	read    map[int]blob.Blob // the chunks re-read, when something was
}

// Digests is the image's chunk digest list.
func (p *DigestPass) Digests() []string { return p.digests }

// Reread reports whether the pass read chunk i itself.
func (p *DigestPass) Reread(i int) bool {
	if p.read == nil {
		return true
	}
	_, ok := p.read[i]
	return ok
}

// Chunk returns chunk i of the image the pass describes. A chunk the pass
// re-read comes from the pass's own point-in-time snapshot. A carried
// chunk is read from the process now, which is the same bytes only while
// the process is frozen: a pass over a running process (a pre-copy round)
// must not ship a chunk for which Reread is false.
func (p *DigestPass) Chunk(i int) blob.Blob {
	off := int64(i) * p.chunk
	n := p.lay.Size() - off
	if n > p.chunk {
		n = p.chunk
	}
	if p.read == nil {
		return p.whole.Slice(off, n)
	}
	if b, ok := p.read[i]; ok {
		return b
	}
	return p.lay.Range(off, n)
}

// DigestWhole materializes the whole layout and digests it in chunk-sized
// windows (<=0 means PageChunk): the pass that carries nothing forward and
// leaves the regions' digest epochs alone. It is what a delta layout — a
// different file every time — is digested with, and the oracle an
// incremental pass is checked against. Like ChunkDigests, the digest
// function is a parameter so blcr stays free of hash imports.
func (l *Layout) DigestWhole(chunk int64, digest func(blob.Blob) string) *DigestPass {
	chunk = chunkOrDefault(chunk)
	pass := &DigestPass{lay: l, chunk: chunk}
	pass.whole, pass.Dur = l.Materialize()
	pass.digests = make([]string, (l.Size()+chunk-1)/chunk)
	for i := range pass.digests {
		pass.digests[i] = digest(pass.Chunk(i))
	}
	pass.ChunksRehashed, pass.BytesRehashed, pass.ChangedBytes = len(pass.digests), l.Size(), l.Size()
	return pass
}

// DigestPass digests a full layout like DigestWhole, but carries forward
// from prev every digest that neither a region write since prev's cut nor
// a changed metadata record can have invalidated. prev may be nil, and is
// ignored when its chunk size or geometry differs from the layout's.
//
// The pass cuts every region's digest epoch before it reads any content,
// so it is safe on a running process: a write that lands after a region's
// cut is in the next epoch whether or not this pass's read also saw it.
// The returned cache is stamped with seed.
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

	usable := prev != nil && prev.chunk == chunk
	if usable {
		var metaDirty []proc.ByteRange
		metaDirty, usable = geo.metaDiff(prev.geo)
		dirty = append(dirty, metaDirty...)
	}
	if !usable {
		pass := l.DigestWhole(chunk, digest)
		pass.Cache = &DigestCache{chunk: chunk, geo: geo, digests: pass.digests, seed: seed}
		return pass
	}

	pass := &DigestPass{lay: l, chunk: chunk, SeededFrom: prev.seed, read: make(map[int]blob.Blob)}
	pass.digests = append([]string(nil), prev.digests...)
	for _, rg := range dirty {
		for i := int(rg.Off / chunk); i <= int((rg.End()-1)/chunk); i++ {
			if pass.Reread(i) {
				continue
			}
			piece := l.Range(int64(i)*chunk, min(chunk, geo.size-int64(i)*chunk))
			pass.read[i] = piece
			pass.digests[i] = digest(piece)
			pass.ChunksRehashed++
			pass.BytesRehashed += piece.Len()
			if pass.digests[i] != prev.digests[i] {
				pass.ChangedBytes += piece.Len()
			}
		}
	}
	pass.Cache = &DigestCache{chunk: chunk, geo: geo, digests: pass.digests, seed: seed}
	pass.Dur = l.c.RescanCost(l.onHost, geo.size, pass.BytesRehashed)
	return pass
}
