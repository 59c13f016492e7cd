package scif

import (
	"cmp"
	"slices"
	"sync"

	"snapify/internal/faultinject"
	"snapify/internal/simclock"
)

// Endpoint is one end of a SCIF connection.
type Endpoint struct {
	net    *Network
	local  Addr
	remote Addr
	peer   *Endpoint

	mu     sync.Mutex
	cond   *sync.Cond
	queue  [][]byte // received-but-not-consumed messages, in order
	qbytes int64
	closed bool

	windows map[int64]*Window // registered windows keyed by RDMA offset
}

func newEndpoint(n *Network, local, remote Addr) *Endpoint {
	ep := &Endpoint{
		net:     n,
		local:   local,
		remote:  remote,
		windows: make(map[int64]*Window),
	}
	ep.cond = sync.NewCond(&ep.mu)
	return ep
}

// CloseAll closes eps in (remote, local) address order, whatever order
// they were collected in, so a teardown that resets many connections
// touches the simulated network the same way on every run. It sorts eps
// in place. Close errors are dropped: resetting the connection is the
// point.
func CloseAll(eps []*Endpoint) {
	slices.SortFunc(eps, func(a, b *Endpoint) int {
		return cmp.Or(cmp.Compare(a.remote.Node, b.remote.Node), cmp.Compare(a.remote.Port, b.remote.Port),
			cmp.Compare(a.local.Node, b.local.Node), cmp.Compare(a.local.Port, b.local.Port))
	})
	for _, ep := range eps {
		ep.Close() //nolint:errcheck // teardown: the reset is the point
	}
}

// Send transmits data to the peer (scif_send). It returns the virtual cost
// of the transfer. Messages are delivered in order; Send does not block on
// the receiver (the kernel-side queue is unbounded in this model, which is
// safe because Snapify's drain protocol — not backpressure — is what
// guarantees empty channels at capture time).
func (e *Endpoint) Send(data []byte) (simclock.Duration, error) {
	p := e.peer
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0, ErrClosed
	}
	e.mu.Unlock()

	cp := make([]byte, len(data))
	copy(cp, data)

	// Consult the armed fault plan, if any. Drop severs the connection
	// (a link failure mid-message); Corrupt flips the framing byte so
	// the receiver's decoder rejects the message (the analogue of a
	// checksum failure); Truncate delivers only a prefix; Slow scales
	// the virtual cost. Cost faults apply after delivery.
	slow := simclock.Duration(1)
	if fault := e.net.fabric.Injector().Fire(faultinject.SiteSend,
		faultinject.LinkKey(e.local.Node.String(), e.remote.Node.String())); fault != nil {
		switch fault.Kind {
		case faultinject.Drop:
			_ = e.Close() //nolint:errcheck // simulating a link failure; the severed endpoint's close error is immaterial
			return 0, ErrConnReset
		case faultinject.Corrupt:
			if len(cp) > 0 {
				cp[0] ^= 0xFF
			}
		case faultinject.Truncate:
			cp = cp[:len(cp)/2]
		case faultinject.Slow:
			slow = simclock.Duration(fault.SlowFactor())
		}
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return 0, ErrConnReset
	}
	p.queue = append(p.queue, cp)
	p.qbytes += int64(len(cp))
	p.cond.Signal()
	p.mu.Unlock()
	return slow * e.net.fabric.MsgCost(e.local.Node, e.remote.Node, int64(len(data))), nil
}

// Recv blocks until a message arrives and returns it with the receive-side
// virtual cost (the copy out of the kernel queue).
func (e *Endpoint) Recv() ([]byte, simclock.Duration, error) {
	e.mu.Lock()
	for len(e.queue) == 0 && !e.closed {
		e.cond.Wait()
	}
	if len(e.queue) == 0 { // closed and drained
		e.mu.Unlock()
		return nil, 0, ErrConnReset
	}
	msg := e.queue[0]
	e.queue = e.queue[1:]
	e.qbytes -= int64(len(msg))
	e.mu.Unlock()

	m := e.net.fabric.Model()
	var d simclock.Duration
	if e.local.Node.IsHost() {
		d = m.HostMemcpy(int64(len(msg)))
	} else {
		d = m.PhiMemcpy(int64(len(msg)))
	}
	return msg, d, nil
}

// TryRecv returns a pending message without blocking; ok is false when the
// queue is empty.
func (e *Endpoint) TryRecv() (msg []byte, d simclock.Duration, ok bool, err error) {
	e.mu.Lock()
	if len(e.queue) == 0 {
		closed := e.closed
		e.mu.Unlock()
		if closed {
			return nil, 0, false, ErrConnReset
		}
		return nil, 0, false, nil
	}
	m := e.queue[0]
	e.queue = e.queue[1:]
	e.qbytes -= int64(len(m))
	e.mu.Unlock()
	return m, e.net.fabric.Model().HostMemcpy(int64(len(m))), true, nil
}

// QueuedBytes returns the bytes sent to this endpoint but not yet received.
// Snapify's consistency invariant requires this to be zero on every channel
// at the instant a snapshot is captured.
func (e *Endpoint) QueuedBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.qbytes
}

// Close tears down both ends of the connection. Pending and future Recvs on
// the peer fail with ErrConnReset once their queues drain; registered
// windows are dropped. Closing an already-closed endpoint is a no-op.
func (e *Endpoint) Close() error {
	e.closeOneSide()
	if e.peer != nil {
		e.peer.closeOneSide()
	}
	return nil
}

func (e *Endpoint) closeOneSide() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.windows = make(map[int64]*Window)
	e.cond.Broadcast()
	e.mu.Unlock()
}
