package core

// The chaos tier (DESIGN.md §10): every single-fault point in the data
// path — each link direction, each daemon, the per-chunk service point,
// the COI request dispatch — is swept against capture, restore, and
// delta-capture. The contract under fault is atomic-or-retryable:
//
//   - the operation either succeeds (and the restored computation is
//     byte-identical to the fault-free run), or
//   - it fails cleanly, leaving no torn snapshot file and no orphan
//     ".partial" assembly anywhere on any file system.
//
// Fault plans are explicit and deterministic (no real randomness), so a
// failing case replays exactly; scripts/verify.sh runs the sweep twice
// under -race.

import (
	"strings"
	"sync"
	"testing"

	"snapify/internal/coi"
	"snapify/internal/faultinject"
	"snapify/internal/platform"
	"snapify/internal/simnet"
)

// chaosOpts is the capture/restore configuration every chaos case uses:
// a striped data path with small chunks (so trigger ordinals land
// mid-stream) and a bounded retry budget.
func chaosOpts() CaptureOptions {
	return CaptureOptions{
		Terminate:  true,
		Streams:    2,
		ChunkBytes: 128 * 1024,
		Retry:      RetryPolicy{MaxAttempts: 4},
	}
}

type chaosCase struct {
	name  string
	fault faultinject.Fault
	// mustSucceed pins cases that may never fail the operation: a Slow
	// fault only stretches virtual time, it breaks nothing.
	mustSucceed bool
}

// chaosFaults enumerates the single-fault sweep over the injection
// sites: both directions of the host link at the message and RDMA
// layers, the chunk service point (by ordinal, so different stream
// indices get hit), both Snapify-IO daemons, and the COI daemon's
// request dispatch.
func chaosFaults(host, dev string) []chaosCase {
	up := faultinject.LinkKey(dev, host)   // bulk capture direction
	down := faultinject.LinkKey(host, dev) // acks, requests, restore data
	return []chaosCase{
		{"send_up_drop_first", faultinject.Fault{Site: faultinject.SiteSend, Key: up, Kind: faultinject.Drop, Nth: 1}, false},
		{"send_up_drop_mid", faultinject.Fault{Site: faultinject.SiteSend, Key: up, Kind: faultinject.Drop, Nth: 4}, false},
		{"send_up_corrupt", faultinject.Fault{Site: faultinject.SiteSend, Key: up, Kind: faultinject.Corrupt, Nth: 3}, false},
		{"send_up_truncate", faultinject.Fault{Site: faultinject.SiteSend, Key: up, Kind: faultinject.Truncate, Nth: 2}, false},
		{"send_up_slow", faultinject.Fault{Site: faultinject.SiteSend, Key: up, Kind: faultinject.Slow, Nth: 2, Factor: 8}, true},
		{"send_down_drop", faultinject.Fault{Site: faultinject.SiteSend, Key: down, Kind: faultinject.Drop, Nth: 2}, false},
		{"send_down_corrupt", faultinject.Fault{Site: faultinject.SiteSend, Key: down, Kind: faultinject.Corrupt, Nth: 2}, false},
		{"send_down_truncate", faultinject.Fault{Site: faultinject.SiteSend, Key: down, Kind: faultinject.Truncate, Nth: 3}, false},
		{"rdma_up_drop", faultinject.Fault{Site: faultinject.SiteRDMA, Key: up, Kind: faultinject.Drop, Nth: 2}, false},
		{"rdma_up_slow", faultinject.Fault{Site: faultinject.SiteRDMA, Key: up, Kind: faultinject.Slow, Nth: 1, Factor: 4}, true},
		{"rdma_down_drop", faultinject.Fault{Site: faultinject.SiteRDMA, Key: down, Kind: faultinject.Drop, Nth: 1}, false},
		{"chunk_drop_first", faultinject.Fault{Site: faultinject.SiteChunk, Kind: faultinject.Drop, Nth: 1}, false},
		{"chunk_drop_later", faultinject.Fault{Site: faultinject.SiteChunk, Kind: faultinject.Drop, Nth: 5}, false},
		{"chunk_partial_write", faultinject.Fault{Site: faultinject.SiteChunk, Kind: faultinject.PartialWrite, Nth: 2}, false},
		{"daemon_crash_host", faultinject.Fault{Site: faultinject.SiteDaemon, Key: host, Kind: faultinject.Crash, Nth: 2}, false},
		{"daemon_crash_dev", faultinject.Fault{Site: faultinject.SiteDaemon, Key: dev, Kind: faultinject.Crash, Nth: 1}, false},
		{"coi_request_drop", faultinject.Fault{Site: faultinject.SiteRequest, Key: dev, Kind: faultinject.Drop, Nth: 1}, false},
	}
}

// arm installs a one-fault plan on the rig's fabric; disarm clears it.
func arm(r *rig, f faultinject.Fault) {
	r.plat.Server.Fabric.SetInjector(faultinject.New(faultinject.Plan{f}, nil))
}

func disarm(r *rig) { r.plat.Server.Fabric.SetInjector(nil) }

// assertNoPartials scans every file system on the platform for orphan
// ".partial" assembly markers — a failed or retried operation must not
// leave one behind (the daemon-abort regression). Only the host file
// system assembles striped files, so only it can hold one.
func assertNoPartials(t *testing.T, plat *platform.Platform) {
	t.Helper()
	check := func(where string, files []string) {
		for _, f := range files {
			if strings.HasSuffix(f, ".partial") {
				t.Errorf("orphan partial file on %s: %s", where, f)
			}
		}
	}
	check("host", plat.Host().FS.List(""))
}

// assertAtomicFile asserts the never-torn contract for path: after a
// failed capture the file is either absent (the capture rolled back) or
// complete (the capture committed and only the response was lost).
func assertAtomicFile(t *testing.T, plat *platform.Platform, path string, want int64) {
	t.Helper()
	if !plat.Host().FS.Exists(path) {
		return
	}
	b, _, err := plat.Host().FS.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s after failed capture: %v", path, err)
	}
	if b.Len() != want {
		t.Errorf("torn snapshot file %s: %d bytes, complete is %d", path, b.Len(), want)
	}
}

// Reference sizes of the chaos scenarios' context files, measured once
// on a fault-free run (the scenarios are deterministic, so every rig
// produces the same sizes).
var chaosRef struct {
	once  sync.Once
	full  int64
	delta int64
}

func chaosRefSizes(t *testing.T) (full, delta int64) {
	t.Helper()
	chaosRef.once.Do(func() {
		r := newRig(t, "core_chaos", 1)
		r.count(t, 10)
		base := NewSnapshot("/snap/chaosref/base", r.cp)
		if err := Pause(base); err != nil {
			t.Fatal(err)
		}
		opts := chaosOpts()
		opts.Terminate = false
		if err := base.CaptureBase(opts); err != nil {
			t.Fatal(err)
		}
		if err := Wait(base); err != nil {
			t.Fatal(err)
		}
		chaosRef.full = base.Report.SnapshotBytes
		if err := Resume(base); err != nil {
			t.Fatal(err)
		}
		r.count(t, 30)
		d := NewSnapshot("/snap/chaosref/delta", r.cp)
		if err := Pause(d); err != nil {
			t.Fatal(err)
		}
		if err := d.CaptureDelta(chaosOpts()); err != nil {
			t.Fatal(err)
		}
		if err := Wait(d); err != nil {
			t.Fatal(err)
		}
		chaosRef.delta = d.Report.SnapshotBytes
	})
	if chaosRef.full <= 0 || chaosRef.delta <= 0 {
		t.Fatalf("chaos reference sizes not established: full=%d delta=%d", chaosRef.full, chaosRef.delta)
	}
	return chaosRef.full, chaosRef.delta
}

// chaosSweep runs one case per injection point on the striped data path
// chaosOpts selects, and again, under "streams1", on the paper's
// one-stream data path with the same retry policy.
func chaosSweep(t *testing.T, run func(t *testing.T, cc chaosCase, streams int)) {
	faults := chaosFaults(simnet.HostNode.String(), simnet.NodeID(1).String())
	for _, cc := range faults {
		t.Run(cc.name, func(t *testing.T) { run(t, cc, chaosOpts().Streams) })
	}
	t.Run("streams1", func(t *testing.T) {
		for _, cc := range faults {
			t.Run(cc.name, func(t *testing.T) { run(t, cc, 1) })
		}
	})
}

// TestChaosCaptureSweep runs one faulted capture per injection point. A
// striped stream resumes from its watermark; the one-stream descriptor has
// no stripe to resume, so its capture is redone whole.
func TestChaosCaptureSweep(t *testing.T) {
	refFull, _ := chaosRefSizes(t)
	chaosSweep(t, func(t *testing.T, cc chaosCase, streams int) {
		r := newRig(t, "core_chaos", 1)
		r.count(t, 20)
		s := NewSnapshot("/snap/chaos", r.cp)
		if err := Pause(s); err != nil {
			t.Fatal(err)
		}
		opts := chaosOpts()
		opts.Streams = streams
		arm(r, cc.fault)
		err := s.Capture(opts)
		if err == nil {
			err = Wait(s)
		}
		disarm(r)
		assertNoPartials(t, r.plat)
		if err != nil {
			if cc.mustSucceed {
				t.Fatalf("fault %s may not fail the capture: %v", cc.name, err)
			}
			// Clean failure: nothing torn, nothing orphaned. (A
			// fault on the request channel itself is not
			// retryable — the daemon never saw the capture.)
			t.Logf("capture failed cleanly: %v", err)
			assertAtomicFile(t, r.plat, "/snap/chaos/"+coi.ContextFileName, refFull)
			return
		}
		// Success: the snapshot must restore to the exact state.
		if _, err := Swapin(s, 1, RestoreOptions{}); err != nil {
			t.Fatalf("swap-in after faulted capture: %v", err)
		}
		if got := r.count(t, 40); got != refSum(40) {
			t.Errorf("restored computation = %d, want %d", got, refSum(40))
		}
	})
}

// TestChaosRestoreSweep runs one faulted restore per injection point,
// from a snapshot taken fault-free. Striped or whole, a faulted read
// reopens at its offset.
func TestChaosRestoreSweep(t *testing.T) {
	chaosSweep(t, func(t *testing.T, cc chaosCase, streams int) {
		r := newRig(t, "core_chaos", 1)
		r.count(t, 20)
		s := NewSnapshot("/snap/chaosr", r.cp)
		if err := Pause(s); err != nil {
			t.Fatal(err)
		}
		if err := s.Capture(chaosOpts()); err != nil {
			t.Fatal(err)
		}
		if err := Wait(s); err != nil {
			t.Fatal(err)
		}
		arm(r, cc.fault)
		_, err := s.Restore(1, RestoreOptions{
			Streams: streams,
			Retry:   RetryPolicy{MaxAttempts: 4},
		})
		disarm(r)
		assertNoPartials(t, r.plat)
		if err != nil {
			if cc.mustSucceed {
				t.Fatalf("fault %s may not fail the restore: %v", cc.name, err)
			}
			// A failed restore must not damage the snapshot it
			// read from.
			t.Logf("restore failed cleanly: %v", err)
			if !r.plat.Host().FS.Exists("/snap/chaosr/" + coi.ContextFileName) {
				t.Error("failed restore destroyed the snapshot")
			}
			return
		}
		if err := s.Resume(); err != nil {
			t.Fatal(err)
		}
		if got := r.count(t, 40); got != refSum(40) {
			t.Errorf("restored computation = %d, want %d", got, refSum(40))
		}
	})
}

// TestChaosDeltaCaptureSweep runs one faulted delta capture per
// injection point over a fault-free base, then restores the chain.
func TestChaosDeltaCaptureSweep(t *testing.T) {
	_, refDelta := chaosRefSizes(t)
	for _, cc := range chaosFaults(simnet.HostNode.String(), simnet.NodeID(1).String()) {
		t.Run(cc.name, func(t *testing.T) {
			r := newRig(t, "core_chaos", 1)
			r.count(t, 10)
			base := NewSnapshot("/snap/chbase", r.cp)
			if err := Pause(base); err != nil {
				t.Fatal(err)
			}
			opts := chaosOpts()
			opts.Terminate = false
			if err := base.CaptureBase(opts); err != nil {
				t.Fatal(err)
			}
			if err := Wait(base); err != nil {
				t.Fatal(err)
			}
			if err := Resume(base); err != nil {
				t.Fatal(err)
			}
			r.count(t, 30)
			d := NewSnapshot("/snap/chdelta", r.cp)
			if err := Pause(d); err != nil {
				t.Fatal(err)
			}
			arm(r, cc.fault)
			err := d.CaptureDelta(chaosOpts())
			if err == nil {
				err = Wait(d)
			}
			disarm(r)
			assertNoPartials(t, r.plat)
			if err != nil {
				if cc.mustSucceed {
					t.Fatalf("fault %s may not fail the delta capture: %v", cc.name, err)
				}
				t.Logf("delta capture failed cleanly: %v", err)
				assertAtomicFile(t, r.plat, "/snap/chdelta/"+coi.DeltaFileName, refDelta)
				return
			}
			if _, err := d.RestoreChain("/snap/chbase", []string{"/snap/chdelta"}, 1, RestoreOptions{}); err != nil {
				t.Fatalf("restore chain after faulted delta capture: %v", err)
			}
			if err := d.Resume(); err != nil {
				t.Fatal(err)
			}
			if got := r.count(t, 50); got != refSum(50) {
				t.Errorf("restored computation = %d, want %d", got, refSum(50))
			}
		})
	}
}
