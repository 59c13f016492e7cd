package proc

import (
	"errors"
	"sync"

	"snapify/internal/simclock"
)

// ErrPipeClosed is returned on operations against a closed pipe.
var ErrPipeClosed = errors.New("proc: pipe closed")

// PipeEnd is one end of a bidirectional UNIX-pipe-style channel. The COI
// daemon opens one to each offload process during pause (Section 4.1) and
// the snapify command-line utility submits commands to a host process over
// one (Section 5). Messages are ordered; delivery costs the model's pipe
// latency, charged to the returned duration.
type PipeEnd struct {
	model *simclock.Model
	peer  *PipeEnd

	mu     sync.Mutex
	cond   *sync.Cond
	queue  [][]byte
	closed bool
}

// NewPipe returns the two connected ends of a pipe.
func NewPipe(model *simclock.Model) (*PipeEnd, *PipeEnd) {
	a := &PipeEnd{model: model}
	b := &PipeEnd{model: model}
	a.cond = sync.NewCond(&a.mu)
	b.cond = sync.NewCond(&b.mu)
	a.peer, b.peer = b, a
	return a, b
}

// Send writes msg to the peer end and returns the virtual cost.
func (p *PipeEnd) Send(msg []byte) (simclock.Duration, error) {
	cp := make([]byte, len(msg))
	copy(cp, msg)
	peer := p.peer
	peer.mu.Lock()
	if peer.closed {
		peer.mu.Unlock()
		return 0, ErrPipeClosed
	}
	peer.queue = append(peer.queue, cp)
	peer.cond.Signal()
	peer.mu.Unlock()
	return p.model.PipeLatency, nil
}

// Recv blocks until a message arrives.
func (p *PipeEnd) Recv() ([]byte, simclock.Duration, error) {
	p.mu.Lock()
	for len(p.queue) == 0 && !p.closed {
		p.cond.Wait()
	}
	if len(p.queue) == 0 {
		p.mu.Unlock()
		return nil, 0, ErrPipeClosed
	}
	msg := p.queue[0]
	p.queue = p.queue[1:]
	p.mu.Unlock()
	return msg, p.model.PipeLatency, nil
}

// Close shuts down both ends; blocked receivers drain queued messages and
// then fail with ErrPipeClosed.
func (p *PipeEnd) Close() error {
	p.closeOne()
	if p.peer != nil {
		p.peer.closeOne()
	}
	return nil
}

func (p *PipeEnd) closeOne() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}
