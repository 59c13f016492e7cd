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

// Wire opcodes on command channels.
const (
	cmdRequest     uint8 = 1
	cmdReply       uint8 = 2
	cmdShutdown    uint8 = 3 // Snapify's marker: no more commands until resume
	cmdShutdownAck uint8 = 4
)

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

// Name returns the channel name.
func (c *ClientChan) Name() string { return c.name }

// Request sends one command and waits for the server's reply.
func (c *ClientChan) Request(payload []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reqCtr.Inc()
	if c.hooks {
		c.tl.Advance(c.hookCost)
	}
	msg := append([]byte{cmdRequest}, payload...)
	d, err := c.ep.Send(msg) // blocking under the lock is intended (Section 4.1 case 3): the channel lock IS the pause lock; a request holds it across the round-trip
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrChannelDown, c.name, err)
	}
	c.tl.Advance(d)
	raw, rd, err := c.ep.Recv() // blocking under the lock is intended (Section 4.1 case 3): the reply completes inside the same critical region the pause will take
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrChannelDown, c.name, err)
	}
	c.tl.Advance(rd)
	if raw[0] != cmdReply {
		return nil, fmt.Errorf("coi: %s: unexpected opcode %d", c.name, raw[0])
	}
	return raw[1:], nil
}

// Ping sends a no-op command and waits for the reply — real traffic on the
// event and log channels, so the drain protocol has live channels to prove
// empty.
func (c *ClientChan) Ping() error {
	reply, err := c.Request([]byte{cmdPing})
	if err != nil {
		return err
	}
	if len(reply) == 0 || reply[0] != 0 {
		return fmt.Errorf("coi: %s: ping rejected", c.name)
	}
	return nil
}

// PauseLock acquires the channel lock on behalf of Snapify's pause and
// injects the shutdown marker; it returns once the server acknowledged,
// proving the channel drained. The lock stays held until ResumeUnlock.
func (c *ClientChan) PauseLock() (simclock.Duration, error) {
	c.mu.Lock() // released by ResumeUnlock
	var total simclock.Duration
	d, err := c.ep.Send([]byte{cmdShutdown}) // blocking under the lock is intended (Section 4.1): PauseLock drains the channel under the lock it keeps holding until resume
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
	if raw[0] != cmdShutdownAck {
		c.mu.Unlock()
		return 0, fmt.Errorf("coi: %s: expected shutdown ack, got opcode %d", c.name, raw[0])
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
// one reply per request, shutdown markers acknowledged in order.
func serveCommandChannel(ep *scif.Endpoint, handle func(req []byte) []byte) {
	for {
		raw, _, err := ep.Recv()
		if err != nil {
			return // connection torn down (swap-out, destroy)
		}
		switch raw[0] {
		case cmdRequest:
			reply := handle(raw[1:])
			if _, err := ep.Send(append([]byte{cmdReply}, reply...)); err != nil {
				return
			}
		case cmdShutdown:
			// Everything sent before the marker has been consumed; the
			// client holds its lock, so nothing follows until resume.
			if _, err := ep.Send([]byte{cmdShutdownAck}); err != nil {
				return
			}
		default:
			return
		}
	}
}
