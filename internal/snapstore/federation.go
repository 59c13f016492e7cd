package snapstore

// Federation makes a set of per-host stores behave like one fleet-wide
// snapshot repository (DESIGN.md §15): cross-host ships negotiate
// have/need against the destination store so repeated migrations of
// similar images move almost nothing, and k-copy replication of
// snapshot directories plus an idempotent repair loop make a whole-host
// kill survivable — every replicated snapshot can be restored from a
// surviving holder with byte-identical content.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"snapify/internal/blob"
	"snapify/internal/faultinject"
	"snapify/internal/obs"
	"snapify/internal/simclock"
)

// ErrHostDead reports an operation that named a federation member
// killed by KillHost (or by an injected Crash mid-op). The op fails;
// surviving members are untouched and the op is retryable against them.
var ErrHostDead = errors.New("snapstore: federation host is dead")

// LinkModel prices the inter-host link every cross-host byte crosses.
type LinkModel struct {
	Latency   simclock.Duration
	Bandwidth int64 // bytes per second
}

// DefaultLink models a 10 GbE-class cluster interconnect.
func DefaultLink() LinkModel {
	return LinkModel{Latency: 100 * time.Microsecond, Bandwidth: 1200 * simclock.MiB}
}

// CrossRackLink models the slower aggregation-layer path between racks:
// higher latency and roughly a third of the in-rack bandwidth.
func CrossRackLink() LinkModel {
	return LinkModel{Latency: 500 * time.Microsecond, Bandwidth: 400 * simclock.MiB}
}

// cost prices moving n bytes across the link.
func (l LinkModel) cost(n int64) simclock.Duration {
	return l.Latency + simclock.Rate(l.Bandwidth)(n)
}

// Cost prices moving n bytes across the link (the exported form placement
// scorers use).
func (l LinkModel) Cost(n int64) simclock.Duration { return l.cost(n) }

// InjectorFunc resolves the current fault injector at fire time (nil
// injector, or a nil func, means no faults). The alias lets callers
// outside the fault-injection choke points (fleetd's platform
// backend) thread an injector through without importing faultinject —
// the faultgate boundary (DESIGN.md §10) stays intact because only the
// choke point dereferences it.
type InjectorFunc = func() *faultinject.Injector

// replicaSet records where the copies of one replicated snapshot
// directory live. Holders includes the original host.
type replicaSet struct {
	dir     string
	k       int
	holders []string // sorted; dead members pruned lazily by Repair
}

// Federation is the fleet-wide control plane over per-host stores. It
// is bookkeeping plus data movement: placement records (which hosts
// hold which replicated directory) survive any member's death, like a
// real deployment's external metadata service.
type Federation struct {
	link     LinkModel
	injector InjectorFunc
	obs      *obs.Obs

	mu      sync.Mutex
	names   []string // sorted member names
	members map[string]*Store
	dead    map[string]bool
	sets    map[string]*replicaSet
	// links holds per-host-pair overrides of the uniform link model,
	// keyed by the sorted pair (SetLink). Pairs without an entry fall
	// back to the uniform link, so topologies are opt-in and the
	// default federation behaves exactly as before.
	links map[string]LinkModel

	chunksShipped *obs.Counter
	chunksDeduped *obs.Counter
	bytesShipped  *obs.Counter
	repairs       *obs.Counter
}

// NewFederation builds an empty federation. o carries the federation's
// spans and metrics (typically the observer of the host driving the
// fleet); injector may be nil.
func NewFederation(o *obs.Obs, link LinkModel, injector InjectorFunc) *Federation {
	reg := o.MetricsOf()
	f := &Federation{
		link:     link,
		injector: injector,
		obs:      o,
		members:  make(map[string]*Store),
		dead:     make(map[string]bool),
		sets:     make(map[string]*replicaSet),
		links:    make(map[string]LinkModel),
		chunksShipped: reg.Counter("fed_chunks_shipped_total",
			"Chunks physically shipped across hosts."),
		chunksDeduped: reg.Counter("fed_chunks_deduped_total",
			"Chunks a cross-host negotiation found already at the destination."),
		bytesShipped: reg.Counter("fed_bytes_shipped_total",
			"Bytes physically shipped across hosts."),
		repairs: reg.Counter("fed_repairs_total",
			"Replicas re-established by the repair loop."),
	}
	reg.RegisterCollector(func(r *obs.Registry) {
		r.Gauge("fed_replica_lag", "Replica sets below their replication target.").Set(int64(f.ReplicaLag()))
	})
	return f
}

func (f *Federation) fire(key string) *faultinject.Fault {
	if f.injector == nil {
		return nil
	}
	return f.injector().Fire(faultinject.SiteFederation, key)
}

// Add registers a member host's store under name.
func (f *Federation) Add(name string, st *Store) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.members[name]; ok {
		return fmt.Errorf("snapstore: federation member %s already registered", name)
	}
	f.members[name] = st
	f.names = append(f.names, name)
	sort.Strings(f.names)
	return nil
}

// pairKey canonicalizes an unordered host pair (links are symmetric).
func pairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "\x00" + b
}

// SetLink overrides the link model between hosts a and b (symmetric).
// Pairs without an override use the federation-wide uniform link, so a
// topology — say intra-rack DefaultLink and CrossRackLink between
// racks — is built by overriding only the slow pairs.
func (f *Federation) SetLink(a, b string, l LinkModel) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.links[pairKey(a, b)] = l
}

// LinkBetween returns the link model priced between hosts a and b —
// the per-pair override if one was set, the uniform default otherwise.
func (f *Federation) LinkBetween(a, b string) LinkModel {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.linkLocked(a, b)
}

func (f *Federation) linkLocked(a, b string) LinkModel {
	if l, ok := f.links[pairKey(a, b)]; ok {
		return l
	}
	return f.link
}

// LinkCost prices moving n bytes between hosts a and b.
func (f *Federation) LinkCost(a, b string, n int64) simclock.Duration {
	return f.LinkBetween(a, b).cost(n)
}

// ClosestHolder returns the living holder of dir cheapest to reach from
// host `from` when moving `bytes` bytes, breaking cost ties by name for
// determinism. A holder equal to `from` wins outright (zero transfer).
// Empty when dir has no living holder.
func (f *Federation) ClosestHolder(dir, from string, bytes int64) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	best := ""
	var bestCost simclock.Duration
	for _, h := range f.holdersLocked(normPath(dir)) {
		if h == from {
			return h
		}
		c := f.linkLocked(from, h).cost(bytes)
		if best == "" || c < bestCost {
			best, bestCost = h, c
		}
	}
	return best
}

// StoreOf returns the live member's store.
func (f *Federation) StoreOf(name string) (*Store, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.storeLocked(name)
}

func (f *Federation) storeLocked(name string) (*Store, error) {
	st, ok := f.members[name]
	if !ok {
		return nil, fmt.Errorf("snapstore: federation has no member %s", name)
	}
	if f.dead[name] {
		return nil, fmt.Errorf("%w: %s", ErrHostDead, name)
	}
	return st, nil
}

// Alive reports whether name is a registered, living member.
func (f *Federation) Alive(name string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.members[name] != nil && !f.dead[name]
}

// Members returns the living member names, sorted.
func (f *Federation) Members() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.aliveLocked()
}

func (f *Federation) aliveLocked() []string {
	out := make([]string, 0, len(f.names))
	for _, n := range f.names {
		if !f.dead[n] {
			out = append(out, n)
		}
	}
	return out
}

// KillHost marks a member dead: its store becomes unreachable through
// the federation and its pending uploads die with it. Replica records
// naming it survive — they live in the federation's metadata, which is
// exactly what Repair consumes to re-establish k.
func (f *Federation) KillHost(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.killLocked(name)
}

func (f *Federation) killLocked(name string) error {
	st, ok := f.members[name]
	if !ok {
		return fmt.Errorf("snapstore: federation has no member %s", name)
	}
	f.markDeadLocked(name, st)
	return nil
}

// markDeadLocked is the kill for a member whose store is already
// resolved — the injected-crash paths use it, where the destination
// was looked up before any fault could fire.
func (f *Federation) markDeadLocked(name string, st *Store) {
	if f.dead[name] {
		return
	}
	f.dead[name] = true
	st.AbortAll()
}

// ShipStats reports one cross-host snapshot ship.
type ShipStats struct {
	ChunksShipped int64
	ChunksDeduped int64
	BytesShipped  int64
	BytesLogical  int64
}

func (s *ShipStats) add(o ShipStats) {
	s.ChunksShipped += o.ChunksShipped
	s.ChunksDeduped += o.ChunksDeduped
	s.BytesShipped += o.BytesShipped
	s.BytesLogical += o.BytesLogical
}

// shipSnapshotLocked moves the store-resident snapshot at path from src to
// dst, negotiating have/need against the destination store first: only
// chunks dst lacks cross the link. The shipped manifest flattens the
// delta chain (no parent at dst) but lists the identical chunk digests,
// so restored content is byte-identical to the source.
func (f *Federation) shipSnapshotLocked(src, dst, path string) (ShipStats, simclock.Duration, error) {
	var stats ShipStats
	srcStore, err := f.storeLocked(src)
	if err != nil {
		return stats, 0, err
	}
	dstStore, err := f.storeLocked(dst)
	if err != nil {
		return stats, 0, err
	}
	m, dur, err := srcStore.Manifest(path)
	if err != nil {
		return stats, dur, err
	}
	if fault := f.fire("negotiate"); fault != nil && fault.Kind == faultinject.Crash {
		// The destination store crashed while negotiating: the host is
		// dead, nothing shipped, the source untouched.
		f.markDeadLocked(dst, dstStore)
		return stats, dur, fmt.Errorf("%w: %s crashed mid-negotiate shipping %s", ErrHostDead, dst, path)
	}
	link := f.linkLocked(src, dst)
	// The digest list crosses the link, the need set comes back.
	dur += link.cost(64 * int64(len(m.Chunks)))
	need, committed, d, err := dstStore.Negotiate(path, "", m.Size, m.ChunkBytes, m.Chunks)
	dur += d
	if err != nil {
		return stats, dur, err
	}
	dur += link.cost(8 * int64(len(need)))
	stats.BytesLogical = m.Size
	stats.ChunksDeduped = int64(len(m.Chunks) - len(need))
	f.chunksDeduped.Add(stats.ChunksDeduped)
	if committed {
		return stats, dur, nil
	}
	for _, idx := range need {
		content, d, err := srcStore.ReadChunk(m.Chunks[idx])
		dur += d
		if err != nil {
			return stats, dur, err
		}
		linkCost := link.cost(content.Len())
		if fault := f.fire("chunk"); fault != nil {
			switch fault.Kind {
			case faultinject.Crash:
				f.markDeadLocked(dst, dstStore)
				return stats, dur, fmt.Errorf("%w: %s crashed mid-ship of %s", ErrHostDead, dst, path)
			case faultinject.Slow:
				linkCost *= simclock.Duration(fault.SlowFactor())
			case faultinject.Drop:
				dstStore.AbortUpload(path)
				return stats, dur, fmt.Errorf("snapstore: federation link dropped shipping %s chunk %d (retryable)", path, idx)
			case faultinject.Corrupt, faultinject.Truncate:
				// Deliver a damaged copy; the destination's digest check
				// rejects it and the ship fails cleanly (retryable).
				dur += linkCost
				_, err := dstStore.PutChunkAt(path, int64(idx)*m.ChunkBytes, corruptChunk(content, fault.Kind))
				dstStore.AbortUpload(path)
				return stats, dur, fmt.Errorf("snapstore: federation ship of %s chunk %d damaged in flight: %v", path, idx, err)
			}
		}
		dur += linkCost
		d, err = dstStore.PutChunkAt(path, int64(idx)*m.ChunkBytes, content)
		dur += d
		if err != nil {
			return stats, dur, err
		}
		stats.ChunksShipped++
		stats.BytesShipped += content.Len()
	}
	f.chunksShipped.Add(stats.ChunksShipped)
	f.bytesShipped.Add(stats.BytesShipped)
	committed, d, err = dstStore.CloseUpload(path)
	dur += d
	if err != nil {
		return stats, dur, err
	}
	if !committed {
		return stats, dur, fmt.Errorf("snapstore: ship of %s closed without committing", path)
	}
	return stats, dur, nil
}

// corruptChunk damages a chunk payload the way the fault kind says.
func corruptChunk(b blob.Blob, kind faultinject.Kind) blob.Blob {
	if kind == faultinject.Truncate && b.Len() > 1 {
		return b.Slice(0, b.Len()-1)
	}
	data := append([]byte(nil), b.Bytes()...)
	if len(data) > 0 {
		data[0] ^= 0xFF
	}
	return blob.FromBytes(data)
}

// shipFileLocked copies one plain host file from src to dst, skipping the
// transfer when dst already holds identical content (whole-file dedup
// by digest — the runtime-libs blob ships once per destination, ever).
func (f *Federation) shipFileLocked(src, dst, path string) (ShipStats, simclock.Duration, error) {
	var stats ShipStats
	srcStore, err := f.storeLocked(src)
	if err != nil {
		return stats, 0, err
	}
	dstStore, err := f.storeLocked(dst)
	if err != nil {
		return stats, 0, err
	}
	content, dur, err := srcStore.fs.ReadFile(path)
	if err != nil {
		return stats, dur, err
	}
	stats.BytesLogical = content.Len()
	link := f.linkLocked(src, dst)
	if fault := f.fire("chunk"); fault != nil && fault.Kind == faultinject.Crash {
		f.markDeadLocked(dst, dstStore)
		return stats, dur, fmt.Errorf("%w: %s crashed mid-ship of %s", ErrHostDead, dst, path)
	}
	if dstStore.fs.Exists(path) {
		have, d, err := dstStore.fs.ReadFile(path)
		dur += d
		if err == nil && blob.Equal(have, content) {
			// Digest exchange instead of bytes.
			dur += link.cost(64)
			stats.ChunksDeduped = 1
			f.chunksDeduped.Inc()
			return stats, dur, nil
		}
	}
	dur += link.cost(content.Len())
	d, err := dstStore.fs.WriteFile(path, content)
	dur += d
	if err != nil {
		return stats, dur, err
	}
	stats.ChunksShipped = 1
	stats.BytesShipped = content.Len()
	f.chunksShipped.Inc()
	f.bytesShipped.Add(content.Len())
	return stats, dur, nil
}

// ShipDir moves a whole snapshot directory — its plain host files and
// its store-resident snapshots — from src to dst.
func (f *Federation) ShipDir(src, dst, dir string) (ShipStats, simclock.Duration, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.shipDirLocked(src, dst, dir)
}

func (f *Federation) shipDirLocked(src, dst, dir string) (ShipStats, simclock.Duration, error) {
	var stats ShipStats
	var dur simclock.Duration
	srcStore, err := f.storeLocked(src)
	if err != nil {
		return stats, 0, err
	}
	dir = normPath(dir)
	prefix := strings.TrimSuffix(dir, "/") + "/"
	for _, p := range srcStore.fs.List(prefix) {
		s, d, err := f.shipFileLocked(src, dst, p)
		stats.add(s)
		dur += d
		if err != nil {
			return stats, dur, err
		}
	}
	for _, p := range srcStore.List() {
		if !strings.HasPrefix(p, prefix) {
			continue
		}
		s, d, err := f.shipSnapshotLocked(src, dst, p)
		stats.add(s)
		dur += d
		if err != nil {
			return stats, dur, err
		}
	}
	return stats, dur, nil
}

// placementLocked orders the living members other than src as
// replication candidates, rotated by a hash of dir so different
// directories spread across the fleet deterministically.
func (f *Federation) placementLocked(src, dir string) []string {
	var cands []string
	for _, n := range f.aliveLocked() {
		if n != src {
			cands = append(cands, n)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	h := fnv.New32a()
	h.Write([]byte(dir))
	off := int(h.Sum32()) % len(cands)
	if off < 0 {
		off += len(cands)
	}
	return append(cands[off:], cands[:off]...)
}

// ReplicateDir establishes k total copies of the snapshot directory dir
// (the copy on src counts). Placement is deterministic. A holder from an
// earlier call keeps the previous capture, so it is brought up to date
// first (the negotiation ships only what changed); one whose refresh
// fails leaves the set. If a destination dies mid-ship the error
// surfaces, but every completed copy is recorded — a subsequent Repair
// tops the set back up to k.
func (f *Federation) ReplicateDir(src, dir string, k int) ([]string, simclock.Duration, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if k < 1 {
		return nil, 0, fmt.Errorf("snapstore: replicate %s: k=%d, want >= 1", dir, k)
	}
	if _, err := f.storeLocked(src); err != nil {
		return nil, 0, err
	}
	dir = normPath(dir)
	set := f.sets[dir]
	if set == nil {
		set = &replicaSet{dir: dir, holders: []string{src}}
		f.sets[dir] = set
	}
	set.k = k
	if !contains(set.holders, src) {
		set.holders = append(set.holders, src)
		sort.Strings(set.holders)
	}
	var dur simclock.Duration
	for _, dst := range f.holdersLocked(dir) {
		if dst == src {
			continue
		}
		_, d, err := f.shipDirLocked(src, dst, dir)
		dur += d
		if err != nil {
			set.holders = slices.DeleteFunc(set.holders, func(h string) bool { return h == dst })
			return f.holdersLocked(dir), dur, err
		}
	}
	for _, dst := range f.placementLocked(src, dir) {
		if f.holdersAliveLocked(set) >= k {
			break
		}
		if contains(set.holders, dst) {
			continue
		}
		_, d, err := f.shipDirLocked(src, dst, dir)
		dur += d
		if err != nil {
			return f.holdersLocked(dir), dur, err
		}
		set.holders = append(set.holders, dst)
		sort.Strings(set.holders)
	}
	if f.holdersAliveLocked(set) < k {
		return f.holdersLocked(dir), dur, fmt.Errorf("snapstore: replicate %s: only %d of %d replicas placed (fleet too small or hosts dead)", dir, f.holdersAliveLocked(set), k)
	}
	return f.holdersLocked(dir), dur, nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func (f *Federation) holdersAliveLocked(set *replicaSet) int {
	n := 0
	for _, h := range set.holders {
		if !f.dead[h] {
			n++
		}
	}
	return n
}

// Holders returns the living members holding a full copy of dir,
// sorted. Empty when dir was never replicated or every holder is dead.
func (f *Federation) Holders(dir string) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.holdersLocked(normPath(dir))
}

func (f *Federation) holdersLocked(dir string) []string {
	set := f.sets[dir]
	if set == nil {
		return nil
	}
	var out []string
	for _, h := range set.holders {
		if !f.dead[h] {
			out = append(out, h)
		}
	}
	return out
}

// ReplicaLag counts replica sets whose living copies are below their
// target k — the number Repair would fix.
func (f *Federation) ReplicaLag() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, set := range f.sets {
		if f.holdersAliveLocked(set) < set.k {
			n++
		}
	}
	return n
}

// DropDir is the owner letting go of dir for good: on every living
// member it releases each snapshot committed under dir and removes dir's
// plain files, and it forgets dir's replica set so Repair and
// ReplicaLag stop counting it. Chunks are left for each store's GC.
func (f *Federation) DropDir(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	dir = normPath(dir)
	delete(f.sets, dir)
	prefix := strings.TrimSuffix(dir, "/") + "/"
	for _, name := range f.aliveLocked() {
		st := f.members[name]
		for _, p := range st.List() {
			// A release cascades up a delta chain, so a parent listed
			// later may already be gone.
			if strings.HasPrefix(p, prefix) && st.Has(p) {
				if _, err := st.Release(p); err != nil {
					return fmt.Errorf("snapstore: dropping %s on %s: %w", p, name, err)
				}
			}
		}
		st.fs.RemoveAll(prefix)
	}
	return nil
}

// RepairStats reports one repair pass.
type RepairStats struct {
	SetsChecked   int
	ReplicasAdded int
	SetsLost      int // sets with no living holder — unrecoverable
}

// Repair re-establishes every replica set's target k after host deaths:
// for each set below target, it ships dir from a surviving holder to
// new hosts. Idempotent and re-runnable — an injected crash mid-pass
// (SiteFederation, key "repair") abandons the pass with ErrInterrupted
// and a re-run converges; sets with no surviving holder are counted
// lost, never silently dropped. The pass is traced as a fed_repair span
// at virtual time at.
func (f *Federation) Repair(at simclock.Duration) (RepairStats, simclock.Duration, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var rs RepairStats
	var dur simclock.Duration
	var passErr error
	sp := f.obs.TracerOf().Track("host", "federation").BeginAt(0, "fed_repair", at, nil)
	defer func() {
		sp.SetArg("sets_checked", int64(rs.SetsChecked))
		sp.SetArg("replicas_added", int64(rs.ReplicasAdded))
		sp.SetArg("sets_lost", int64(rs.SetsLost))
		sp.EndAt(at + dur)
	}()
	dirs := make([]string, 0, len(f.sets))
	for dir := range f.sets {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
pass:
	for _, dir := range dirs {
		set := f.sets[dir]
		rs.SetsChecked++
		alive := f.holdersLocked(dir)
		if len(alive) == 0 {
			rs.SetsLost++
			continue
		}
		for _, dst := range f.placementLocked(alive[0], dir) {
			if f.holdersAliveLocked(set) >= set.k {
				break
			}
			if contains(set.holders, dst) {
				continue
			}
			if fault := f.fire("repair"); fault != nil && fault.Kind == faultinject.Crash {
				passErr = fmt.Errorf("%w: repair pass after %d replicas", ErrInterrupted, rs.ReplicasAdded)
				break pass
			}
			_, d, err := f.shipDirLocked(alive[0], dst, dir)
			dur += d
			if err != nil {
				// The destination died mid-ship (or the link failed); try
				// the next candidate. Chunks already landed are reused by
				// the retry or swept by the destination's GC.
				continue
			}
			set.holders = append(set.holders, dst)
			sort.Strings(set.holders)
			rs.ReplicasAdded++
			f.repairs.Inc()
		}
	}
	return rs, dur, passErr
}
