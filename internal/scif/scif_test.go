package scif

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"snapify/internal/blob"
	"snapify/internal/faultinject"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
)

func newTestNetwork(t testing.TB, devices int) *Network {
	t.Helper()
	return NewNetwork(simnet.NewFabric(simclock.Default(), devices))
}

// dial creates a connected pair with the server on (node, port).
func dial(t testing.TB, n *Network, clientNode, serverNode simnet.NodeID) (client, server *Endpoint) {
	t.Helper()
	l, err := n.Listen(serverNode, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan *Endpoint, 1)
	go func() {
		ep, err := l.Accept()
		if err != nil {
			t.Error(err)
		}
		done <- ep
	}()
	client, err = n.Connect(clientNode, l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	return client, <-done
}

func TestListenConnectAccept(t *testing.T) {
	n := newTestNetwork(t, 1)
	c, s := dial(t, n, 0, 1)
	if c.remote != s.local || s.remote != c.local {
		t.Errorf("address mismatch: c=%v->%v s=%v->%v",
			c.local, c.remote, s.local, s.remote)
	}
	if c.local.Node != 0 || s.local.Node != 1 {
		t.Error("node mismatch")
	}
}

func TestPortConflictAndRefused(t *testing.T) {
	n := newTestNetwork(t, 1)
	if _, err := n.Listen(1, 400); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen(1, 400); !errors.Is(err, ErrPortInUse) {
		t.Errorf("want ErrPortInUse, got %v", err)
	}
	if _, err := n.Connect(0, Addr{1, 999}); !errors.Is(err, ErrConnRefused) {
		t.Errorf("want ErrConnRefused, got %v", err)
	}
	if _, err := n.Listen(7, 1); err == nil {
		t.Error("listen on invalid node must fail")
	}
	if _, err := n.Connect(7, Addr{1, 400}); err == nil {
		t.Error("connect from invalid node must fail")
	}
}

func TestSendRecvOrdering(t *testing.T) {
	n := newTestNetwork(t, 1)
	c, s := dial(t, n, 0, 1)
	for i := 0; i < 100; i++ {
		if _, err := c.Send([]byte(fmt.Sprintf("msg-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		msg, d, err := s.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if d < 0 {
			t.Error("negative recv cost")
		}
		if want := fmt.Sprintf("msg-%03d", i); string(msg) != want {
			t.Fatalf("out of order: got %q want %q", msg, want)
		}
	}
	if s.QueuedBytes() != 0 || len(s.queue) != 0 {
		t.Errorf("queue not drained: %d bytes, %d msgs", s.QueuedBytes(), len(s.queue))
	}

	// A receiver that keeps a backlog never empties the queue: order and
	// byte count still hold, and the queue reuses one bounded array.
	c, s = dial(t, n, 0, 1)
	const backlog = 5
	sent, got := 0, 0
	for sent < 1000 {
		if _, err := c.Send([]byte(fmt.Sprintf("msg-%04d", sent))); err != nil {
			t.Fatal(err)
		}
		sent++
		if sent-got <= backlog {
			continue
		}
		msg, _, ok, err := s.TryRecv()
		if err != nil || !ok {
			t.Fatalf("TryRecv with %d queued: ok=%v err=%v", sent-got, ok, err)
		}
		if want := fmt.Sprintf("msg-%04d", got); string(msg) != want {
			t.Fatalf("backlogged queue out of order: got %q want %q", msg, want)
		}
		got++
		if q := s.QueuedBytes(); q != int64(backlog*len(msg)) {
			t.Fatalf("queued %d bytes with %d messages of %d waiting", q, backlog, len(msg))
		}
	}
	if c := cap(s.queue); c > 4*backlog {
		t.Errorf("a backlog of %d grew the queue's array to %d", backlog, c)
	}
}

func TestQueuedBytesObservable(t *testing.T) {
	n := newTestNetwork(t, 1)
	c, s := dial(t, n, 0, 1)
	c.Send(make([]byte, 10))
	c.Send(make([]byte, 20))
	if s.QueuedBytes() != 30 || len(s.queue) != 2 {
		t.Fatalf("queued = %d bytes / %d msgs, want 30/2", s.QueuedBytes(), len(s.queue))
	}
	s.Recv()
	if s.QueuedBytes() != 20 {
		t.Fatalf("queued = %d after one recv, want 20", s.QueuedBytes())
	}
}

func TestSendDoesNotAliasCallerBuffer(t *testing.T) {
	n := newTestNetwork(t, 1)
	c, s := dial(t, n, 0, 1)
	buf := []byte("original")
	c.Send(buf)
	copy(buf, "CLOBBER!")
	msg, _, _ := s.Recv()
	if string(msg) != "original" {
		t.Errorf("message aliased sender buffer: %q", msg)
	}
}

func TestCloseResetsPeer(t *testing.T) {
	n := newTestNetwork(t, 1)
	c, s := dial(t, n, 0, 1)
	c.Send([]byte("last words"))
	c.Close()
	// Queued message still delivered, then reset.
	msg, _, err := s.Recv()
	if err != nil || string(msg) != "last words" {
		t.Fatalf("queued delivery after close: %q, %v", msg, err)
	}
	if _, _, err := s.Recv(); !errors.Is(err, ErrConnReset) {
		t.Errorf("want ErrConnReset, got %v", err)
	}
	if _, err := s.Send([]byte("x")); err == nil {
		t.Error("send to closed peer must fail")
	}
	if !c.closed || !s.closed {
		t.Error("both sides should report closed")
	}
}

func TestRecvUnblocksOnClose(t *testing.T) {
	n := newTestNetwork(t, 1)
	c, s := dial(t, n, 0, 1)
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.Recv()
		errc <- err
	}()
	c.Close()
	if err := <-errc; !errors.Is(err, ErrConnReset) {
		t.Errorf("blocked Recv got %v, want ErrConnReset", err)
	}
}

func TestTryRecv(t *testing.T) {
	n := newTestNetwork(t, 1)
	c, s := dial(t, n, 0, 1)
	if _, _, ok, err := s.TryRecv(); ok || err != nil {
		t.Fatalf("TryRecv on empty queue: ok=%v err=%v", ok, err)
	}
	c.Send([]byte("hi"))
	msg, _, ok, err := s.TryRecv()
	if !ok || err != nil || string(msg) != "hi" {
		t.Fatalf("TryRecv: %q ok=%v err=%v", msg, ok, err)
	}
	c.Close()
	if _, _, _, err := s.TryRecv(); !errors.Is(err, ErrConnReset) {
		t.Errorf("TryRecv after close: %v", err)
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	n := newTestNetwork(t, 1)
	l, _ := n.Listen(1, 0)
	errc := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		errc <- err
	}()
	l.Close()
	if err := <-errc; !errors.Is(err, ErrListenerDone) {
		t.Errorf("Accept after close: %v", err)
	}
	// Port is free again.
	if _, err := n.Listen(1, l.Addr().Port); err != nil {
		t.Errorf("rebinding closed port: %v", err)
	}
}

func TestConcurrentSenders(t *testing.T) {
	n := newTestNetwork(t, 1)
	c, s := dial(t, n, 0, 1)
	const senders, per = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if _, err := c.Send([]byte("m")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < senders*per; i++ {
		if _, _, err := s.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.queue) != 0 {
		t.Error("messages left over")
	}
}

func TestRDMARoundTrip(t *testing.T) {
	n := newTestNetwork(t, 1)
	c, s := dial(t, n, 0, 1)

	// Server (device side) registers a 64 KiB window over its buffer.
	devMem := blob.NewBuffer(1<<20, 3)
	w, d, err := s.Register(devMem, 4096, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Error("register cost must be positive")
	}

	// Host writes into the device window via vwriteto.
	hostMem := blob.NewBuffer(1<<20, 5)
	hostMem.WriteAt([]byte("input data"), 100)
	if _, err := c.VWriteTo(hostMem, 100, 10, w.Offset+8); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 10)
	devMem.ReadAt(got, 4096+8)
	if string(got) != "input data" {
		t.Fatalf("device memory after vwriteto: %q", got)
	}

	// Device computes; host reads the result back via vreadfrom.
	devMem.WriteAt([]byte("OUTPUT"), 4096+100)
	if _, err := c.VReadFrom(hostMem, 500, 6, w.Offset+100); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 6)
	hostMem.ReadAt(out, 500)
	if string(out) != "OUTPUT" {
		t.Fatalf("host memory after vreadfrom: %q", out)
	}
}

func TestRDMARegisteredToRegistered(t *testing.T) {
	n := newTestNetwork(t, 1)
	c, s := dial(t, n, 0, 1)
	devMem := blob.NewBuffer(4096, 0)
	hostMem := blob.NewBuffer(4096, 0)
	hostMem.WriteAt([]byte("payload"), 0)
	rw, _, err := s.Register(devMem, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	lw, _, err := c.Register(hostMem, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteTo(lw.Offset, 7, rw.Offset); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 7)
	devMem.ReadAt(got, 0)
	if string(got) != "payload" {
		t.Fatalf("writeto: %q", got)
	}
	devMem.WriteAt([]byte("REPLY"), 100)
	if _, err := c.ReadFrom(lw.Offset+200, 5, rw.Offset+100); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 5)
	hostMem.ReadAt(out, 200)
	if string(out) != "REPLY" {
		t.Fatalf("readfrom: %q", out)
	}
}

func TestRDMAOffsetsUniqueAcrossReregistration(t *testing.T) {
	// Re-registering after a restore must return a different RDMA address;
	// Snapify's remap table exists because of this (Section 4.3).
	n := newTestNetwork(t, 1)
	c, s := dial(t, n, 0, 1)
	_ = c
	mem := blob.NewBuffer(4096, 0)
	w1, _, _ := s.Register(mem, 0, 4096)
	if err := s.Unregister(w1); err != nil {
		t.Fatal(err)
	}
	w2, _, _ := s.Register(mem, 0, 4096)
	if w1.Offset == w2.Offset {
		t.Fatal("re-registration reused the old RDMA offset")
	}
}

func TestRDMAErrors(t *testing.T) {
	n := newTestNetwork(t, 1)
	c, s := dial(t, n, 0, 1)
	mem := blob.NewBuffer(4096, 0)
	w, _, _ := s.Register(mem, 0, 1024)

	// Out-of-window access.
	if _, err := c.VReadFrom(mem, 0, 10, w.Offset+1020); !errors.Is(err, ErrBadWindow) {
		t.Errorf("out-of-window: %v", err)
	}
	// Unknown offset.
	if _, err := c.VWriteTo(mem, 0, 10, 0x42); !errors.Is(err, ErrBadWindow) {
		t.Errorf("unknown offset: %v", err)
	}
	// Local out of range.
	if _, err := c.VReadFrom(mem, 4090, 10, w.Offset); err == nil {
		t.Error("local overflow should fail")
	}
	// Bad registration ranges.
	if _, _, err := s.Register(mem, -1, 10); err == nil {
		t.Error("negative base should fail")
	}
	if _, _, err := s.Register(mem, 0, 8192); err == nil {
		t.Error("oversized window should fail")
	}
	// Unregister twice.
	if err := s.Unregister(w); err != nil {
		t.Fatal(err)
	}
	if err := s.Unregister(w); !errors.Is(err, ErrBadWindow) {
		t.Errorf("double unregister: %v", err)
	}
	// RDMA after close.
	c.Close()
	if _, err := c.VReadFrom(mem, 0, 10, w.Offset); !errors.Is(err, ErrConnReset) {
		t.Errorf("rdma after close: %v", err)
	}
	if _, _, err := c.Register(mem, 0, 10); !errors.Is(err, ErrClosed) {
		t.Errorf("register after close: %v", err)
	}
}

func TestRDMACostAccountedOnFabric(t *testing.T) {
	n := newTestNetwork(t, 1)
	c, s := dial(t, n, 0, 1)
	mem := blob.NewBuffer(1<<20, 0)
	w, _, _ := s.Register(mem, 0, 1<<20)
	before := n.Fabric().Traffic(0, 1)
	host := blob.NewBuffer(1<<20, 0)
	c.VWriteTo(host, 0, 1<<20, w.Offset)
	if got := n.Fabric().Traffic(0, 1) - before; got != 1<<20 {
		t.Errorf("fabric traffic = %d, want %d", got, 1<<20)
	}
}

// Each fault kind a plan arms at scif.send does what the failure model
// says to the one message it hits: Drop severs the link, Corrupt flips
// the type byte, Truncate delivers half, Slow scales the cost.
func TestSendFaults(t *testing.T) {
	msg := []byte("abcdefgh")
	for _, c := range []struct {
		kind faultinject.Kind
		want string // delivered message; empty: none
	}{
		{faultinject.Drop, ""},
		{faultinject.Corrupt, "\x9ebcdefgh"},
		{faultinject.Truncate, "abcd"},
		{faultinject.Slow, "abcdefgh"},
	} {
		t.Run(string(c.kind), func(t *testing.T) {
			n := newTestNetwork(t, 1)
			cl, sv := dial(t, n, 0, 1)
			clean, err := cl.Send(msg)
			if err != nil {
				t.Fatal(err)
			}
			sv.Recv()
			n.Fabric().SetInjector(faultinject.New(faultinject.Plan{{Site: faultinject.SiteSend, Key: "host->mic0", Kind: c.kind, Factor: 3}}, nil))
			d, err := cl.Send(msg)
			if c.want == "" {
				if !errors.Is(err, ErrConnReset) || !cl.closed || !sv.closed {
					t.Fatalf("Drop: err %v, closed %v/%v; want ErrConnReset and both ends closed", err, cl.closed, sv.closed)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got, _, err := sv.Recv(); err != nil || string(got) != c.want {
				t.Fatalf("delivered %q (%v), want %q", got, err, c.want)
			}
			if want := clean; c.kind == faultinject.Slow {
				if d != 3*want {
					t.Fatalf("slowed send cost %v, want 3 × %v", d, want)
				}
			} else if d != want {
				t.Fatalf("send cost %v, want %v", d, want)
			}
		})
	}
}
