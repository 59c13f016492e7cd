package fleetd

// ModelBackend prices control-plane operations from the calibrated
// simclock cost model, with no real platforms behind it. It is the
// backend for fleet-scale benchmarking: 100+ hosts and 1000+ jobs cost
// only the controller's own bookkeeping, so the bench measures
// placement throughput rather than simulated platform churn.

import (
	"fmt"
	"sort"
	"time"

	"snapify/internal/simclock"
	"snapify/internal/snapstore"
)

// ModelOptions shapes a synthetic fleet.
type ModelOptions struct {
	Hosts        int
	CardsPerHost int
	// CardMem is each card's memory capacity in bytes.
	CardMem int64
	// HostsPerRack groups hosts into racks: intra-rack pairs use the
	// default federation link, cross-rack pairs the slow one. 0 defaults
	// to 16.
	HostsPerRack int
	// ReplicaK is how many hosts hold each snapshot (self + K-1 peers).
	// 0 defaults to 3.
	ReplicaK int
}

func (o ModelOptions) hostsPerRack() int {
	if o.HostsPerRack <= 0 {
		return 16
	}
	return o.HostsPerRack
}

func (o ModelOptions) replicaK() int {
	if o.ReplicaK <= 0 {
		return 3
	}
	return o.ReplicaK
}

// ModelBackend implements Backend on the cost model alone.
type ModelBackend struct {
	opts  ModelOptions
	model *simclock.Model
	names []string
	// index maps a host name to its position in names: the rack
	// arithmetic and the replica ring read positions, never names.
	index map[string]int
	local snapstore.LinkModel
	cross snapstore.LinkModel

	// holders maps job ID to the sorted host names replicating its
	// snapshot; dead hosts are pruned on HostKilled.
	holders map[int][]string
	dead    map[string]bool
	// swapped tracks how many times a job swapped out: the first capture
	// ships the full footprint, later ones only the re-dirtied quarter.
	swapped map[int]int
}

// NewModelBackend builds a synthetic fleet of opts.Hosts hosts.
func NewModelBackend(opts ModelOptions) *ModelBackend {
	if opts.Hosts < 1 || opts.CardsPerHost < 1 || opts.CardMem <= 0 {
		panic("fleetd: model backend needs at least one host, one card and positive card memory") //nolint:paniclib // configuration bug: bench topology is fixed at setup
	}
	b := &ModelBackend{
		opts:    opts,
		model:   simclock.Default(),
		local:   snapstore.DefaultLink(),
		cross:   snapstore.CrossRackLink(),
		index:   make(map[string]int, opts.Hosts),
		holders: make(map[int][]string),
		dead:    make(map[string]bool),
		swapped: make(map[int]int),
	}
	for i := 0; i < opts.Hosts; i++ {
		name := fmt.Sprintf("h%03d", i)
		b.names = append(b.names, name)
		b.index[name] = i
	}
	return b
}

// Topology enumerates the synthetic hosts.
func (b *ModelBackend) Topology() []HostTopo {
	out := make([]HostTopo, len(b.names))
	for i, name := range b.names {
		cards := make([]int64, b.opts.CardsPerHost)
		for ci := range cards {
			cards[ci] = b.opts.CardMem
		}
		out[i] = HostTopo{Name: name, Cards: cards}
	}
	return out
}

// rackOf returns host's rack, -1 for a host this backend did not name.
func (b *ModelBackend) rackOf(host string) int {
	i, ok := b.index[host]
	if !ok {
		return -1
	}
	return i / b.opts.hostsPerRack()
}

// LinkCost prices an a->b transfer: default link within a rack, the
// slow cross-rack link otherwise.
func (b *ModelBackend) LinkCost(a, bHost string, n int64) simclock.Duration {
	if a == bHost {
		return 0
	}
	if b.rackOf(a) == b.rackOf(bHost) {
		return b.local.Cost(n)
	}
	return b.cross.Cost(n)
}

// Launch prices pushing the job's footprint to its card over PCIe.
func (b *ModelBackend) Launch(j *Job) (simclock.Duration, error) {
	return b.model.RDMA(j.Spec.Footprint), nil
}

// RunBurst is free in model mode — burst time is virtual by construction.
func (b *ModelBackend) RunBurst(*Job) error { return nil }

// dirtyBytes is how much a capture must move: the full footprint the
// first time, the re-dirtied quarter after.
func (b *ModelBackend) dirtyBytes(j *Job) int64 {
	if b.swapped[j.ID] == 0 {
		return j.Spec.Footprint
	}
	d := j.Spec.Footprint / 4
	if d < 1 {
		d = 1
	}
	return d
}

// replicate records the snapshot's holders (self plus the next K-1
// living hosts) and prices shipping the dirty bytes to the farthest one
// (replication fans out in parallel; the slowest link dominates).
func (b *ModelBackend) replicate(j *Job, dirty int64) simclock.Duration {
	n := len(b.names)
	self := j.Host
	holders := []string{self}
	var worst simclock.Duration
	start := b.index[self]
	for i := 1; i < n && len(holders) < b.opts.replicaK(); i++ {
		peer := b.names[(start+i)%n]
		if b.dead[peer] {
			continue
		}
		holders = append(holders, peer)
		if c := b.LinkCost(self, peer, dirty); c > worst {
			worst = c
		}
	}
	sort.Strings(holders)
	b.holders[j.ID] = holders
	return worst
}

// SwapOut prices capture (page walk + store write) plus replication.
func (b *ModelBackend) SwapOut(j *Job) (simclock.Duration, error) {
	dirty := b.dirtyBytes(j)
	dur := b.model.PhiPageWalk(j.Spec.Footprint) +
		simclock.Rate(b.model.HostFSWriteBandwidth)(dirty) +
		b.replicate(j, dirty)
	b.swapped[j.ID]++
	return dur, nil
}

// SwapIn prices restoring the footprint from `from` onto j's card.
func (b *ModelBackend) SwapIn(j *Job, from string) (simclock.Duration, error) {
	fp := j.Spec.Footprint
	dur := simclock.Rate(b.model.HostFSReadCachedBandwidth)(fp) + b.model.RDMA(fp)
	if from != j.Host {
		dur += b.LinkCost(from, j.Host, fp)
	}
	return dur, nil
}

// Checkpoint prices a capture-without-stop: same bytes as a swap-out.
func (b *ModelBackend) Checkpoint(j *Job) (simclock.Duration, error) {
	return b.SwapOut(j)
}

// Holders returns the living holders of j's snapshot, sorted.
func (b *ModelBackend) Holders(j *Job) []string {
	var out []string
	for _, h := range b.holders[j.ID] {
		if !b.dead[h] {
			out = append(out, h)
		}
	}
	return out
}

// Migrate prices a live pre-copy migration: three shrinking copy
// rounds over the inter-host link, a short stop-and-copy, and a
// reconnect handshake.
func (b *ModelBackend) Migrate(j *Job, dstHost string, dstCard int) (simclock.Duration, error) {
	fp := j.Spec.Footprint
	link := func(n int64) simclock.Duration {
		if dstHost == j.Host {
			return b.model.RDMA(n) // card-to-card on one host
		}
		return b.LinkCost(j.Host, dstHost, n)
	}
	dur := link(fp) + link(fp/4) + link(fp/16) + // pre-copy rounds
		link(fp/64) + // stop-and-copy of the final dirty set
		2*time.Millisecond // proxy teardown + reconnect
	// Landing counts as a durable snapshot on the destination.
	b.holders[j.ID] = []string{dstHost}
	return dur, nil
}

// Recover prices restoring j onto dstHost from its closest holder.
func (b *ModelBackend) Recover(j *Job, dstHost string, dstCard int) (simclock.Duration, error) {
	fp := j.Spec.Footprint
	from := closestHolder(b, dstHost, b.Holders(j), fp)
	dur := simclock.Rate(b.model.HostFSReadColdBandwidth)(fp) + b.model.RDMA(fp)
	if from != "" && from != dstHost {
		dur += b.LinkCost(from, dstHost, fp)
	}
	return dur, nil
}

// closestHolder is both backends' recovery source: the holder cheapest
// to move n bytes from onto dst, the first one on ties; "" with none.
func closestHolder(be Backend, dst string, holders []string, n int64) string {
	from, best := "", simclock.Duration(0)
	for _, h := range holders {
		if c := be.LinkCost(dst, h, n); from == "" || c < best {
			from, best = h, c
		}
	}
	return from
}

// Finish is free in model mode.
func (b *ModelBackend) Finish(*Job) error { return nil }

// HostKilled prunes the dead host from every replica set.
func (b *ModelBackend) HostKilled(name string) { b.dead[name] = true }
