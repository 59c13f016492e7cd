// Package mpi implements the minimal message-passing runtime the paper's
// distributed experiments need (Section 7, "Checkpoint and restart for
// MPI"): a cluster of Xeon Phi servers, one MPI rank per node, ordered
// point-to-point messages, barrier and allreduce, and BLCR-integrated
// coordinated checkpoint/restart — the LAM/MPI style system-initiated
// checkpointing the paper piggybacks on, with each rank's offload process
// captured by Snapify through the registered callback.
package mpi

import (
	"errors"
	"fmt"
	"sync"

	"snapify/internal/coi"
	"snapify/internal/core"
	"snapify/internal/platform"
	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
)

// Cluster is a set of Xeon Phi servers connected by an interconnect.
type Cluster struct {
	Nodes []*platform.Platform
	model *simclock.Model
}

// NewCluster builds n identical servers and starts their COI daemons.
func NewCluster(n int, cfg platform.Config) (*Cluster, error) {
	if n < 1 {
		return nil, errors.New("mpi: cluster needs at least one node")
	}
	c := &Cluster{}
	for i := 0; i < n; i++ {
		plat, err := coi.Boot(cfg)
		if err != nil {
			c.Stop()
			return nil, err
		}
		c.Nodes = append(c.Nodes, plat)
	}
	c.model = c.Nodes[0].Model()
	return c, nil
}

// Stop shuts the cluster down.
func (c *Cluster) Stop() {
	for _, plat := range c.Nodes {
		coi.Shutdown(plat)
	}
}

// Model returns the cluster's cost model.
func (c *Cluster) Model() *simclock.Model { return c.model }

// message is one in-flight MPI message.
type message struct {
	tag  int
	data []byte
}

// World is one MPI job: size ranks, one per cluster node.
type World struct {
	cluster *Cluster
	ranks   []*Rank

	mu      sync.Mutex
	barrier *barrierState
	reduce  *reduceState
}

type barrierState struct {
	arrived int
	maxTime simclock.Duration
	release chan struct{}
}

type reduceState struct {
	arrived int
	sum     uint64
	release chan struct{}
}

// Rank is one MPI process: a host process (with its offload process) on
// one cluster node.
type Rank struct {
	ID    int
	Plat  *platform.Platform
	Host  *proc.Process
	TL    *simclock.Timeline
	world *World

	mu     sync.Mutex
	inbox  map[int][]message // keyed by source rank
	cond   *sync.Cond
	closed bool
	app    *core.App // the rank's CR attachment
}

// NewWorld launches size ranks across the cluster's nodes (rank i on node
// i; size must not exceed the node count, matching the paper's one rank
// per node).
func NewWorld(c *Cluster, size int) (*World, error) {
	if size < 1 || size > len(c.Nodes) {
		return nil, fmt.Errorf("mpi: world size %d does not fit %d nodes", size, len(c.Nodes))
	}
	w := &World{cluster: c}
	for i := 0; i < size; i++ {
		plat := c.Nodes[i]
		r := &Rank{
			ID:    i,
			Plat:  plat,
			Host:  plat.Procs.Spawn(fmt.Sprintf("mpi_rank_%d", i), simnet.HostNode, plat.Host().Mem),
			TL:    simclock.NewTimeline(),
			world: w,
			inbox: make(map[int][]message),
		}
		r.cond = sync.NewCond(&r.mu)
		w.ranks = append(w.ranks, r)
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// World returns the rank's world.
func (r *Rank) World() *World { return r.world }

// Rank returns rank i.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// netCost is the interconnect cost of moving n bytes between two nodes.
func (w *World) netCost(n int64) simclock.Duration {
	m := w.cluster.model
	return m.ClusterNetLatency + simclock.Rate(m.ClusterNetBandwidth)(n)
}

// Send delivers data to rank `to` with the given tag (ordered per sender).
func (r *Rank) Send(to, tag int, data []byte) error {
	if to < 0 || to >= len(r.world.ranks) {
		return fmt.Errorf("mpi: rank %d out of range", to)
	}
	dst := r.world.ranks[to]
	cp := make([]byte, len(data))
	copy(cp, data)
	dst.mu.Lock()
	if dst.closed {
		dst.mu.Unlock()
		return fmt.Errorf("mpi: rank %d is down", to)
	}
	dst.inbox[r.ID] = append(dst.inbox[r.ID], message{tag: tag, data: cp})
	dst.cond.Broadcast()
	dst.mu.Unlock()
	r.TL.Advance(r.world.netCost(int64(len(data))))
	return nil
}

// Recv blocks for the next message from rank `from` with the given tag.
func (r *Rank) Recv(from, tag int) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		q := r.inbox[from]
		for i, m := range q {
			if m.tag == tag {
				r.inbox[from] = append(q[:i:i], q[i+1:]...)
				r.TL.Advance(r.world.netCost(int64(len(m.data))))
				return m.data, nil
			}
		}
		if r.closed {
			return nil, errors.New("mpi: rank closed")
		}
		r.cond.Wait()
	}
}

// PendingBytes returns the bytes queued at this rank — the MPI half of the
// drain invariant at checkpoint time.
func (r *Rank) PendingBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, q := range r.inbox {
		for _, m := range q {
			n += int64(len(m.data))
		}
	}
	return n
}

// Barrier blocks until every rank arrives; timelines align to the latest
// arrival plus one round-trip.
func (r *Rank) Barrier() {
	w := r.world
	w.mu.Lock()
	if w.barrier == nil {
		w.barrier = &barrierState{release: make(chan struct{})}
	}
	b := w.barrier
	b.arrived++
	if t := r.TL.Now(); t > b.maxTime {
		b.maxTime = t
	}
	if b.arrived == len(w.ranks) {
		w.barrier = nil
		close(b.release)
		w.mu.Unlock()
	} else {
		w.mu.Unlock()
		<-b.release
	}
	r.TL.AdvanceTo(b.maxTime + 2*w.cluster.model.ClusterNetLatency)
}

// AllreduceSum returns the sum of each rank's contribution on every rank.
func (r *Rank) AllreduceSum(v uint64) uint64 {
	w := r.world
	w.mu.Lock()
	if w.reduce == nil {
		w.reduce = &reduceState{release: make(chan struct{})}
	}
	red := w.reduce
	red.sum += v
	red.arrived++
	if red.arrived == len(w.ranks) {
		w.reduce = nil
		close(red.release)
		w.mu.Unlock()
	} else {
		w.mu.Unlock()
		<-red.release
	}
	r.TL.Advance(simclock.Duration(len(w.ranks)) * w.cluster.model.ClusterNetLatency)
	return red.sum
}

// Run executes fn concurrently on every rank and waits for all of them.
func (w *World) Run(fn func(r *Rank) error) error {
	errs := make([]error, len(w.ranks))
	var wg sync.WaitGroup
	for i, r := range w.ranks {
		wg.Add(1)
		go func(i int, r *Rank) {
			defer wg.Done()
			errs[i] = fn(r)
		}(i, r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Close tears down every rank's host process (and, via the COI daemons,
// their offload processes).
func (w *World) Close() {
	for _, r := range w.ranks {
		r.mu.Lock()
		r.closed = true
		r.cond.Broadcast()
		r.mu.Unlock()
		r.Host.Terminate()
	}
}
