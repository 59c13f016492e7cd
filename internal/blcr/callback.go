package blcr

import (
	"errors"
	"fmt"

	"snapify/internal/proc"
	"snapify/internal/stream"
)

// The callback machinery mirrors BLCR's libcr API on the host
// (cr_register_callback / cr_request_checkpoint / cr_checkpoint), which is
// how Snapify hooks the host-process checkpoint: the registered callback
// pauses and captures the offload process around the host snapshot
// (Section 5, Fig 5).

// Rc values returned by Request.Checkpoint, matching cr_checkpoint's
// convention: 0 in the continuing original process, positive in a process
// that was just restarted from the snapshot.
const (
	RcContinue = 0
	RcRestart  = 1
)

// Callback is the registered checkpoint callback. It must call
// req.Checkpoint() exactly once and branch on the returned rc.
type Callback func(req *Request) error

// Client attaches the callback machinery to one host process.
type Client struct {
	cr       *Checkpointer
	p        *proc.Process
	callback Callback
}

// NewClient returns a client for p.
func NewClient(cr *Checkpointer, p *proc.Process) *Client {
	return &Client{cr: cr, p: p}
}

// RegisterCallback installs the checkpoint callback (cr_register_callback).
func (c *Client) RegisterCallback(cb Callback) { c.callback = cb }

// Request is the context passed to a Callback.
type Request struct {
	client  *Client
	restart bool
	sink    stream.Sink
	stats   *Stats
	called  bool
}

// Stats returns the checkpoint stats after Checkpoint ran with RcContinue.
func (r *Request) Stats() *Stats { return r.stats }

// Restarting reports whether this callback invocation belongs to a process
// that was just restored from a snapshot. In the real BLCR the code before
// cr_checkpoint does not re-execute on restart (execution resumes inside
// cr_checkpoint); a Go callback emulates that by skipping its pre-snapshot
// work when Restarting is true — the work's effects are already part of
// the restored state.
func (r *Request) Restarting() bool { return r.restart }

// Checkpoint performs the actual process snapshot (cr_checkpoint). In a
// checkpoint request it writes the host process to the request's sink and
// returns RcContinue; in a restarted process it writes nothing and returns
// RcRestart, which is the branch where the callback restores the offload
// process (Fig 5c).
func (r *Request) Checkpoint() (int, error) {
	if r.called {
		return 0, errors.New("blcr: cr_checkpoint called twice in one callback")
	}
	r.called = true
	if r.restart {
		return RcRestart, nil
	}
	st, err := r.client.cr.Checkpoint(r.client.p, r.sink)
	if err != nil {
		return 0, err
	}
	r.stats = st
	return RcContinue, nil
}

// RequestCheckpoint triggers the checkpoint path (cr_request_checkpoint or
// the cr_checkpoint command-line tool): the callback runs synchronously
// and must have invoked Checkpoint. It returns the checkpoint stats.
func (c *Client) RequestCheckpoint(sink stream.Sink) (*Stats, error) {
	if c.callback == nil {
		return nil, errors.New("blcr: no callback registered")
	}
	req := &Request{client: c, sink: sink}
	if err := c.callback(req); err != nil {
		return nil, fmt.Errorf("blcr: checkpoint callback: %w", err)
	}
	if !req.called {
		return nil, errors.New("blcr: callback returned without calling cr_checkpoint")
	}
	return req.stats, nil
}

// ResumeRestarted runs the callback in restart mode against an
// already-restored process: the callback's cr_checkpoint returns RcRestart
// and the callback rebuilds the offload side. BLCR enters the restarted
// process inside cr_checkpoint the same way.
func (c *Client) ResumeRestarted() error {
	if c.callback == nil {
		return errors.New("blcr: no callback registered")
	}
	req := &Request{client: c, restart: true}
	if err := c.callback(req); err != nil {
		return fmt.Errorf("blcr: restart callback: %w", err)
	}
	if !req.called {
		return errors.New("blcr: callback returned without calling cr_checkpoint")
	}
	return nil
}
