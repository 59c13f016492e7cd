package coi

import (
	"errors"
	"fmt"
	"sync"

	"snapify/internal/obs"
	"snapify/internal/scif"
	"snapify/internal/simclock"
)

// The COI runtime maintains several client-server command channels between
// the host process and the offload process — commands, events, and logs
// (Section 4.1, case 3). Each server thread serves exactly one client and
// handles requests sequentially, which is the property Snapify's shutdown
// marker exploits: once the server acknowledges the marker, the channel is
// provably empty until resume.

// CommandChannelNames are the client-server channels every offload process
// carries.
var CommandChannelNames = []string{"command", "event", "log"}

// ErrChannelDown is returned when a command channel's connection is gone.
var ErrChannelDown = errors.New("coi: command channel disconnected")

// ClientChan is the host side of one command channel.
type ClientChan struct {
	name string

	// mu is the lock Snapify's pause acquires (case 3): while held by the
	// pause thread, application threads cannot send commands.
	mu sync.Mutex
	ep *scif.Endpoint
	tl *simclock.Timeline

	hooks    bool // Snapify instrumentation compiled in
	hookCost simclock.Duration

	reqCtr   *obs.Counter // commands sent (nil-safe no-op without obs)
	drainCtr *obs.Counter // shutdown markers drained
}

func newClientChan(name string, ep *scif.Endpoint, tl *simclock.Timeline, hooks bool, hookCost simclock.Duration, mx *obs.Registry) *ClientChan {
	l := obs.L("channel", name)
	return &ClientChan{
		name: name, ep: ep, tl: tl, hooks: hooks, hookCost: hookCost,
		reqCtr: mx.Counter("coi_channel_requests_total",
			"Commands sent on a COI command channel.", l),
		drainCtr: mx.Counter("coi_channel_drains_total",
			"Shutdown markers injected and acknowledged on a COI command channel (one per pause).", l),
	}
}

// Request sends command op with req's fields and decodes the server's
// reply into resp; a failure the server reported is a remoteError.
func (c *ClientChan) Request(op uint8, req, resp Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reqCtr.Inc()
	if c.hooks {
		c.tl.Advance(c.hookCost)
	}
	d, err := c.ep.Send(encodeCommand(op, req)) // blocking under the lock is intended (Section 4.1 case 3): the channel lock IS the pause lock; a request holds it across the round-trip
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrChannelDown, c.name, err)
	}
	c.tl.Advance(d)
	raw, rd, err := c.ep.Recv() // blocking under the lock is intended (Section 4.1 case 3): the reply completes inside the same critical region the pause will take
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrChannelDown, c.name, err)
	}
	c.tl.Advance(rd)
	return decodeReply(raw, cmdReply, resp)
}

// PauseLock acquires the channel lock on behalf of Snapify's pause and
// injects the shutdown marker; it returns once the server acknowledged,
// proving the channel drained. The lock stays held until ResumeUnlock.
func (c *ClientChan) PauseLock() (simclock.Duration, error) {
	c.mu.Lock() // released by ResumeUnlock
	var total simclock.Duration
	d, err := c.ep.Send(encodeMsg(cmdShutdown, &Empty{})) // blocking under the lock is intended (Section 4.1): PauseLock drains the channel under the lock it keeps holding until resume
	if err != nil {
		c.mu.Unlock()
		return 0, fmt.Errorf("%w: %s: %v", ErrChannelDown, c.name, err)
	}
	total += d
	raw, rd, err := c.ep.Recv() // blocking under the lock is intended (Section 4.1): the drain acknowledgement must arrive while the channel is locked
	if err != nil {
		c.mu.Unlock()
		return 0, fmt.Errorf("%w: %s: %v", ErrChannelDown, c.name, err)
	}
	total += rd
	if err := decodeMsg(raw, cmdShutdownAck, &Empty{}); err != nil {
		c.mu.Unlock()
		return 0, fmt.Errorf("coi: %s: shutdown ack: %w", c.name, err)
	}
	c.drainCtr.Inc()
	return total, nil
}

// ResumeUnlock releases the pause lock (Section 4.2). If reconnected is
// non-nil the channel switches to the new endpoint first (restore path).
func (c *ClientChan) ResumeUnlock(reconnected *scif.Endpoint) {
	if reconnected != nil {
		c.ep = reconnected
	}
	c.mu.Unlock()
}

// Endpoint exposes the underlying endpoint for drain assertions in tests
// and in Snapify's consistency checks.
func (c *ClientChan) Endpoint() *scif.Endpoint { return c.ep }

// replaceEndpoint installs the post-restore endpoint. Only the rebind path
// calls it, while application threads are blocked on the pause lock.
func (c *ClientChan) replaceEndpoint(ep *scif.Endpoint) { c.ep = ep }

// serveCommandChannel is the device-side server thread: sequential service,
// one reply per request, shutdown markers acknowledged in order. A frame
// that does not decode is answered with a malformed-command error reply,
// and the channel keeps serving.
func serveCommandChannel(ep *scif.Endpoint, handle func(op uint8, req Message) (Message, error)) {
	for {
		raw, _, err := ep.Recv()
		if err != nil {
			return // connection torn down (swap-out, destroy)
		}
		var reply []byte
		if decodeMsg(raw, cmdShutdown, &Empty{}) == nil {
			// Everything sent before the marker has been consumed; the
			// client holds its lock, so nothing follows until resume.
			reply = encodeMsg(cmdShutdownAck, &Empty{})
		} else {
			op, req, err := decodeCommand(raw)
			var resp Message = &Empty{}
			if err == nil {
				resp, err = handle(op, req)
			}
			reply = encodeReply(cmdReply, resp, err)
		}
		if _, err := ep.Send(reply); err != nil {
			return
		}
	}
}
