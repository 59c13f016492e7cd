package coi

import (
	"strconv"
	"testing"

	"snapify/internal/blob"
	"snapify/internal/faultinject"
	"snapify/internal/scif"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/snapifyio"
)

// TestFaultKeysAtEverySite arms one keyed fault at each injection site
// that builds its key only behind an armed plan, and checks that it fires
// at exactly its Nth consult: the lazily built keys are the strings a plan
// names, consulted at the same ordinals.
func TestFaultKeysAtEverySite(t *testing.T) {
	RegisterBinary(counterBinary("app_faultkeys"))
	const (
		nth    = 3
		card   = simnet.NodeID(1)
		factor = 3
		piece  = simclock.MiB
	)
	stripeOff := 4 * snapifyio.DefaultBufSize
	key := strconv.FormatInt(stripeOff, 10)

	// link returns a connected host and card endpoint pair.
	link := func(t *testing.T, e *env) (host, dev *scif.Endpoint) {
		l, err := e.plat.Net.Listen(card, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		host, err = e.plat.Net.Connect(simnet.HostNode, l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		dev, err = l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		return host, dev
	}
	// slowed reports whether op cost factor times what it cost clean.
	slowed := func(t *testing.T, op func() (simclock.Duration, error)) func() bool {
		clean, err := op()
		if err != nil {
			t.Fatal(err)
		}
		return func() bool {
			d, err := op()
			if err != nil {
				t.Fatal(err)
			}
			return d == factor*clean
		}
	}
	// send sends one message from one end of a link and receives it at
	// the other.
	send := func(from, to *scif.Endpoint) func() (simclock.Duration, error) {
		return func() (simclock.Duration, error) {
			d, err := from.Send([]byte("fault key"))
			if err == nil {
				_, _, err = to.Recv()
			}
			return d, err
		}
	}
	// rdma moves a page between host bytes and a window on the card.
	rdma := func(t *testing.T, e *env, write bool) func() (simclock.Duration, error) {
		host, dev := link(t, e)
		var local scif.Memory = scif.Bytes(make([]byte, 4096))
		w, _, err := dev.Register(scif.Bytes(make([]byte, 4096)), 0, 4096)
		if err != nil {
			t.Fatal(err)
		}
		return func() (simclock.Duration, error) {
			if write {
				return host.VWriteTo(local, 0, local.Size(), w.Offset)
			}
			return host.VReadFrom(local, 0, local.Size(), w.Offset)
		}
	}
	// failed reports whether op failed.
	failed := func(op func() error) func() bool {
		return func() bool { return op() != nil }
	}
	// writer opens a one-slot stream from the card to a host file and
	// writes a piece per call.
	writer := func(t *testing.T, e *env, opts snapifyio.OpenOptions) func() bool {
		f, err := e.plat.IO.OpenStream(card, simnet.HostNode, "/faultkeys", snapifyio.Write, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(f.Abort)
		return failed(func() error {
			_, err := f.WriteBlob(blob.Synthetic(7, piece))
			return err
		})
	}

	cases := []struct {
		name  string
		fault faultinject.Fault
		// consult returns an operation that consults the site once under
		// the fault's key and reports whether the fault hit it.
		consult func(t *testing.T, e *env) func() bool
	}{
		{"send host->mic0", faultinject.Fault{Site: faultinject.SiteSend, Key: "host->mic0", Kind: faultinject.Slow, Factor: factor},
			func(t *testing.T, e *env) func() bool {
				host, dev := link(t, e)
				return slowed(t, send(host, dev))
			}},
		{"send mic0->host", faultinject.Fault{Site: faultinject.SiteSend, Key: "mic0->host", Kind: faultinject.Slow, Factor: factor},
			func(t *testing.T, e *env) func() bool {
				host, dev := link(t, e)
				return slowed(t, send(dev, host))
			}},
		{"rdma host->mic0", faultinject.Fault{Site: faultinject.SiteRDMA, Key: "host->mic0", Kind: faultinject.Slow, Factor: factor},
			func(t *testing.T, e *env) func() bool { return slowed(t, rdma(t, e, true)) }},
		{"rdma mic0->host", faultinject.Fault{Site: faultinject.SiteRDMA, Key: "mic0->host", Kind: faultinject.Slow, Factor: factor},
			func(t *testing.T, e *env) func() bool { return slowed(t, rdma(t, e, false)) }},
		{"chunk write at stripe " + key, faultinject.Fault{Site: faultinject.SiteChunk, Key: key, Kind: faultinject.Drop},
			func(t *testing.T, e *env) func() bool {
				return writer(t, e, snapifyio.OpenOptions{Slots: 1,
					Stripe: snapifyio.Stripe{Offset: stripeOff, Length: nth * piece, Total: stripeOff + nth*piece}})
			}},
		{"chunk read at stripe " + key, faultinject.Fault{Site: faultinject.SiteChunk, Key: key, Kind: faultinject.Drop},
			func(t *testing.T, e *env) func() bool {
				size := stripeOff + nth*snapifyio.DefaultBufSize
				if _, err := e.plat.Server.Host.FS.WriteFile("/faultkeys", blob.Synthetic(9, size)); err != nil {
					t.Fatal(err)
				}
				// One slot prefetches one pull ahead, so pull i > 1 is
				// consulted during read i-1 and its reply read by read i.
				f, err := e.plat.IO.OpenStream(card, simnet.HostNode, "/faultkeys", snapifyio.Read, snapifyio.OpenOptions{Slots: 1,
					Stripe: snapifyio.Stripe{Offset: stripeOff, Length: nth * snapifyio.DefaultBufSize}})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(f.Abort)
				return failed(func() error {
					_, _, err := f.Next(snapifyio.DefaultBufSize)
					return err
				})
			}},
		{"daemon host", faultinject.Fault{Site: faultinject.SiteDaemon, Key: "host", Kind: faultinject.Crash},
			func(t *testing.T, e *env) func() bool { return writer(t, e, snapifyio.OpenOptions{Slots: 1}) }},
		{"request mic0", faultinject.Fault{Site: faultinject.SiteRequest, Key: "mic0", Kind: faultinject.Drop},
			func(t *testing.T, e *env) func() bool {
				cp := e.create(t, "app_faultkeys", card)
				return failed(func() error { return cp.DaemonRequest(opAwaitReady, &IDReq{cp.ID()}, &Empty{}) })
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := newEnv(t, 1)
			consult := c.consult(t, e)
			f := c.fault
			f.Nth = nth
			inj := faultinject.New(faultinject.Plan{f}, nil)
			e.plat.Server.Fabric.SetInjector(inj)
			defer e.plat.Server.Fabric.SetInjector(nil)
			for i := 1; i <= nth; i++ {
				if hit := consult(); hit != (i == nth) {
					t.Fatalf("consult %d: hit = %v, want %v", i, hit, i == nth)
				}
			}
			if got := inj.FiredTotal(); got != 1 {
				t.Fatalf("fired %d faults, want 1", got)
			}
		})
	}
}
