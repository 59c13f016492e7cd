package fleetd

// ModelBackend prices control-plane operations from the calibrated
// simclock cost model, with no real platforms behind it. It is the
// backend for fleet-scale benchmarking: 100+ hosts and 1000+ jobs cost
// only the controller's own bookkeeping, so the bench measures
// placement throughput rather than simulated platform churn.

import (
	"fmt"
	"slices"
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

// ModelBackend implements Backend on the cost model alone. Each job's
// replica set and capture count live on the Job (replicas, swaps).
type ModelBackend struct {
	opts  ModelOptions
	model *simclock.Model
	names []string
	// index maps a host name to its position in names, the topology
	// index: the rack arithmetic and the replica ring read positions,
	// never names. rank is each position's place in name order.
	index map[string]int
	rank  []int
	local snapstore.LinkModel
	cross snapstore.LinkModel
	// dead marks, by position, the hosts HostKilled reported.
	dead []bool
}

// NewModelBackend builds a synthetic fleet of opts.Hosts hosts.
func NewModelBackend(opts ModelOptions) *ModelBackend {
	if opts.Hosts < 1 || opts.CardsPerHost < 1 || opts.CardMem <= 0 {
		panic("fleetd: model backend needs at least one host, one card and positive card memory") //nolint:paniclib // configuration bug: bench topology is fixed at setup
	}
	b := &ModelBackend{
		opts:  opts,
		model: simclock.Default(),
		local: snapstore.DefaultLink(),
		cross: snapstore.CrossRackLink(),
		index: make(map[string]int, opts.Hosts),
		rank:  make([]int, opts.Hosts),
		dead:  make([]bool, opts.Hosts),
	}
	for i := 0; i < opts.Hosts; i++ {
		name := fmt.Sprintf("h%03d", i)
		b.names = append(b.names, name)
		b.index[name] = i
	}
	// Past h999 name order leaves index order: "h1000" < "h101".
	byName := slices.Clone(b.names)
	slices.Sort(byName)
	for r, name := range byName {
		b.rank[b.index[name]] = r
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
	return b.rackLink(b.rackOf(a) == b.rackOf(bHost), n)
}

// link is LinkCost between the hosts at positions a and z.
func (b *ModelBackend) link(a, z int, n int64) simclock.Duration {
	if a == z {
		return 0
	}
	per := b.opts.hostsPerRack()
	return b.rackLink(a/per == z/per, n)
}

func (b *ModelBackend) rackLink(sameRack bool, n int64) simclock.Duration {
	if sameRack {
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
	if j.swaps == 0 {
		return j.Spec.Footprint
	}
	d := j.Spec.Footprint / 4
	if d < 1 {
		d = 1
	}
	return d
}

// replicate records the snapshot's holders (self plus the next K-1
// living hosts, in name order) over the job's last set, and prices
// shipping the dirty bytes to the farthest one (replication fans out in
// parallel; the slowest link dominates).
func (b *ModelBackend) replicate(j *Job, dirty int64) simclock.Duration {
	n, self := len(b.names), j.cd.hostIdx
	set := append(j.replicas[:0], self)
	var worst simclock.Duration
	for i := 1; i < n && len(set) < b.opts.replicaK(); i++ {
		peer := (self + i) % n
		if b.dead[peer] {
			continue
		}
		set = append(set, peer)
		for k := len(set) - 1; k > 0 && b.rank[set[k]] < b.rank[set[k-1]]; k-- {
			set[k], set[k-1] = set[k-1], set[k]
		}
		if c := b.link(self, peer, dirty); c > worst {
			worst = c
		}
	}
	j.replicas = set
	return worst
}

// SwapOut prices capture (page walk + store write) plus replication.
func (b *ModelBackend) SwapOut(j *Job) (simclock.Duration, error) {
	dirty := b.dirtyBytes(j)
	dur := b.model.PhiPageWalk(j.Spec.Footprint) +
		simclock.Rate(b.model.HostFSWriteBandwidth)(dirty) +
		b.replicate(j, dirty)
	j.swaps++
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

// Replicas returns j's replica set, dead holders included.
func (b *ModelBackend) Replicas(j *Job) []int { return j.replicas }

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
	j.replicas = append(j.replicas[:0], b.index[dstHost])
	return dur, nil
}

// Recover prices restoring j onto dstHost from its closest living
// holder (closestHolder's rule, on positions).
func (b *ModelBackend) Recover(j *Job, dstHost string, dstCard int) (simclock.Duration, error) {
	fp, dst := j.Spec.Footprint, b.index[dstHost]
	from, best := -1, simclock.Duration(0)
	for _, h := range j.replicas {
		if c := b.link(dst, h, fp); !b.dead[h] && (from < 0 || c < best) {
			from, best = h, c
		}
	}
	return simclock.Rate(b.model.HostFSReadColdBandwidth)(fp) + b.model.RDMA(fp) + best, nil
}

// closestHolder is the platform backend's recovery source: the holder
// cheapest to move n bytes from onto dst, the first one on ties; "" with
// none.
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

// HostKilled marks the host dead: replication skips it, recovery reads
// no replica from it.
func (b *ModelBackend) HostKilled(name string) {
	if i, ok := b.index[name]; ok {
		b.dead[i] = true
	}
}
