package core

// Chaos cases for live migration: the host Snapify-IO daemon crashes in
// the middle of a pre-copy round and in the middle of the final delta
// capture, and the destination card's crashes while the switch-over's
// pause streams the local store to it. The contract extends the store tier's atomic-or-retryable rule
// with live migration's own invariants: the source process is never
// harmed (it was running during rounds and gets resumed after a failed
// switch-over), Abort leaves no orphan staged chunks on the destination
// and no pinned upload in the store, and a retried migration restores
// byte-identically. scripts/verify.sh runs these twice under -race via
// the TestChaos filter.

import (
	"testing"

	"snapify/internal/coi"
	"snapify/internal/faultinject"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
)

// chaosMigrateOpts routes a live migration through the chaos-store data
// path: small chunks, striped streams, and a retry budget on the final
// capture.
func chaosMigrateOpts(path string) MigrateOptions {
	o := MigrateOptions{DeviceTo: 2, Path: path}
	o.Capture = chaosStoreOpts()
	o.Restore = RestoreOptions{Streams: 2, Retry: RetryPolicy{MaxAttempts: 4}}
	o.Restore.Store.Enabled = true
	o.Precopy = PrecopyOptions{MaxRounds: 3}
	return o
}

// chaosBufBytes is the COI buffer the chaos migrations carry, so their
// switch-overs save a local store to the destination card.
const chaosBufBytes = 1 * simclock.MiB

// assertNoStaging checks the destination card holds nothing a migration
// into the snapshot directory dir parked there: no staged chunks on its
// daemon, no local-store file on its RAM fs.
func assertNoStaging(t *testing.T, r *rig, dev simnet.NodeID, dir string) {
	t.Helper()
	if dst := coi.DaemonAt(r.plat, dev); len(dst.Staging().Paths()) != 0 {
		t.Errorf("orphan staged chunks on %v: %v", dev, dst.Staging().Paths())
	}
	assertNoLocalStore(t, r, dev, dir)
}

// TestChaosMigratePrecopyRoundCrash kills the host Snapify-IO daemon in
// the middle of the first pre-copy round. Whatever the round's outcome,
// the source process — which was never paused — keeps computing, and an
// Abort leaves the destination staging empty and the store consistent.
// A retried live migration then succeeds with byte-identical state.
func TestChaosMigratePrecopyRoundCrash(t *testing.T) {
	r := newRig(t, "core_chaos_mig", 2)
	buf, content := addPatternBuffer(t, r, chaosBufBytes, 1)
	r.count(t, 20)
	opts := chaosMigrateOpts("/snap/chmig")
	m, err := NewMigration(r.cp, opts)
	if err != nil {
		t.Fatal(err)
	}

	arm(r, faultinject.Fault{Site: faultinject.SiteDaemon, Key: simnet.HostNode.String(), Kind: faultinject.Crash, Nth: 2})
	rec, _, rerr := m.Round()
	disarm(r)
	if rerr != nil {
		t.Logf("pre-copy round failed cleanly: %v", rerr)
	} else {
		t.Logf("pre-copy round survived the crash: shipped %d of %d bytes", rec.ShippedBytes, rec.ImageBytes)
	}
	m.Abort()

	// The source was running the whole time: still active, still correct.
	if st := r.cp.State(); st != coi.StateActive {
		t.Fatalf("source process state %v after aborted round, want active", st)
	}
	if got := r.count(t, 40); got != refSum(40) {
		t.Errorf("source computation after aborted round = %d, want %d", got, refSum(40))
	}
	assertNoStaging(t, r, 2, opts.Path)
	assertNoPartials(t, r.plat)
	// The aborted upload is unpinned: a GC reclaims anything the crashed
	// round left behind and Verify stays clean.
	assertStoreConsistent(t, r)

	// Retry from scratch: the full live migration lands the process on
	// the other card with identical bytes.
	cp2, snap, err := Migrate(r.cp, opts)
	if err != nil {
		t.Fatalf("retried live migration: %v", err)
	}
	if cp2.DeviceNode() != 2 {
		t.Errorf("process on %v after retried migration, want mic1", cp2.DeviceNode())
	}
	if snap.Report.Downtime <= 0 || len(snap.Report.Precopy) == 0 {
		t.Errorf("retried migration report incomplete: downtime %v, %d rounds", snap.Report.Downtime, len(snap.Report.Precopy))
	}
	assertNoStaging(t, r, 2, opts.Path)
	assertBuffer(t, buf, content)
	if got := r.count(t, 60); got != refSum(60) {
		t.Errorf("computation after retried migration = %d, want %d", got, refSum(60))
	}
}

// TestChaosMigrateFinalDeltaCrash lets the pre-copy rounds complete
// cleanly, then kills the host Snapify-IO daemon during the final paused
// delta capture with no retry budget. The switch-over must fail cleanly:
// the source process is resumed on its original card and computes on,
// Abort clears the staged rounds, and a retried migration (with a retry
// budget back in place) restores byte-identically.
func TestChaosMigrateFinalDeltaCrash(t *testing.T) {
	r := newRig(t, "core_chaos_mig", 2)
	buf, content := addPatternBuffer(t, r, chaosBufBytes, 2)
	r.count(t, 20)
	opts := chaosMigrateOpts("/snap/chfinal")
	opts.Capture.Retry = RetryPolicy{MaxAttempts: 1} // the crash must surface
	m, err := NewMigration(r.cp, opts)
	if err != nil {
		t.Fatal(err)
	}
	iters := uint64(20)
	for {
		_, done, err := m.Round()
		if err != nil {
			t.Fatalf("clean pre-copy round: %v", err)
		}
		if done {
			break
		}
		iters += 10
		r.count(t, iters)
	}

	// Dirty the image after the last round so the switch-over has a real
	// final delta to ship — that shipment is what the crash interrupts.
	iters += 10
	r.count(t, iters)
	arm(r, faultinject.Fault{Site: faultinject.SiteDaemon, Key: simnet.HostNode.String(), Kind: faultinject.Crash, Nth: 1})
	_, ferr := m.Finish()
	disarm(r)
	if ferr == nil {
		t.Fatal("Finish must fail when the IO daemon crashes with no retry budget")
	}
	t.Logf("switch-over failed cleanly: %v", ferr)

	// A failed migration leaves the source unharmed: resumed, on its
	// original card, computation intact.
	if r.cp.DeviceNode() != 1 {
		t.Fatalf("source on %v after failed switch-over, want mic0", r.cp.DeviceNode())
	}
	if st := r.cp.State(); st != coi.StateActive {
		t.Fatalf("source process state %v after failed switch-over, want active", st)
	}
	iters += 10
	if got := r.count(t, iters); got != refSum(iters) {
		t.Errorf("source computation after failed switch-over = %d, want %d", got, refSum(iters))
	}

	m.Abort()
	assertNoStaging(t, r, 2, opts.Path)
	assertNoPartials(t, r.plat)
	assertStoreConsistent(t, r)

	// Retry with the retry budget restored: byte-identical on the new card.
	opts.Capture.Retry = RetryPolicy{MaxAttempts: 4}
	cp2, snap, err := Migrate(r.cp, opts)
	if err != nil {
		t.Fatalf("retried migration: %v", err)
	}
	if cp2.DeviceNode() != 2 {
		t.Errorf("process on %v after retried migration, want mic1", cp2.DeviceNode())
	}
	if snap.Report.Downtime <= 0 {
		t.Error("retried migration recorded no downtime")
	}
	assertNoStaging(t, r, 2, opts.Path)
	assertBuffer(t, buf, content)
	iters += 10
	if got := r.count(t, iters); got != refSum(iters) {
		t.Errorf("computation after retried migration = %d, want %d", got, refSum(iters))
	}
}

// TestChaosMigrateLocalStoreStreamCrash crashes the destination card's
// Snapify-IO daemon on the first chunk it serves while the local store
// streams to it: in Finish, the switch-over's pause re-saving a buffer
// the application wrote after the pre-save ("switch-over"), and in the
// final Round, the pre-save itself ("pre-save"). Either must fail
// cleanly: the source process runs on on its original card with its
// computation and its buffer intact, Abort leaves nothing parked on the
// destination, and a retried migration restores byte-identically.
func TestChaosMigrateLocalStoreStreamCrash(t *testing.T) {
	for _, presave := range []bool{false, true} {
		name := "switch-over"
		if presave {
			name = "pre-save"
		}
		t.Run(name, func(t *testing.T) {
			r := newRig(t, "core_chaos_mig", 2)
			buf, content := addPatternBuffer(t, r, chaosBufBytes, 3)
			r.count(t, 20)
			opts := chaosMigrateOpts("/snap/chls")
			m, err := NewMigration(r.cp, opts)
			if err != nil {
				t.Fatal(err)
			}
			inj := faultinject.New(faultinject.Plan{{Site: faultinject.SiteDaemon, Key: "mic1", Kind: faultinject.Crash, Nth: 1}}, nil)
			if presave {
				// Only the pre-save has mic1's daemon serve a chunk during
				// the rounds: the destination pulls its staged chunks from
				// the host's.
				r.plat.Server.Fabric.SetInjector(inj)
			}
			iters := uint64(20)
			var rerr error
			for done := false; !done && rerr == nil; {
				_, done, rerr = m.Round()
				iters += 10
				r.count(t, iters)
			}
			if presave {
				disarm(r)
				if rerr == nil {
					t.Fatal("the rounds must fail when the destination's IO daemon crashes under the pre-save")
				}
				t.Logf("final round failed cleanly: %v", rerr)
			} else {
				if rerr != nil {
					t.Fatalf("clean pre-copy round: %v", rerr)
				}
				// Write the buffer after the pre-save, so the pause re-saves
				// it: that save is what the crash interrupts.
				patch := make([]byte, 4096)
				if err := buf.Write(patch, 0); err != nil {
					t.Fatal(err)
				}
				copy(content, patch)
				r.plat.Server.Fabric.SetInjector(inj)
				_, ferr := m.Finish()
				disarm(r)
				if ferr == nil {
					t.Fatal("Finish must fail when the destination's IO daemon crashes under the local-store save")
				}
				t.Logf("switch-over failed cleanly: %v", ferr)
			}
			if inj.FiredTotal() != 1 {
				t.Fatalf("%d faults fired, want the crash under the local-store save", inj.FiredTotal())
			}

			if r.cp.DeviceNode() != 1 {
				t.Fatalf("source on %v after the failure, want mic0", r.cp.DeviceNode())
			}
			if st := r.cp.State(); st != coi.StateActive {
				t.Fatalf("source process state %v after the failure, want active", st)
			}
			iters += 10
			if got := r.count(t, iters); got != refSum(iters) {
				t.Errorf("source computation after the failure = %d, want %d", got, refSum(iters))
			}
			assertBuffer(t, buf, content)

			m.Abort()
			assertNoStaging(t, r, 2, opts.Path)
			assertNoPartials(t, r.plat)
			assertStoreConsistent(t, r)

			cp2, snap, err := Migrate(r.cp, opts)
			if err != nil {
				t.Fatalf("retried migration: %v", err)
			}
			if cp2.DeviceNode() != 2 {
				t.Errorf("process on %v after retried migration, want mic1", cp2.DeviceNode())
			}
			if snap.Report.Downtime <= 0 || len(snap.Report.Precopy) == 0 {
				t.Errorf("retried migration report incomplete: downtime %v, %d rounds", snap.Report.Downtime, len(snap.Report.Precopy))
			}
			assertNoStaging(t, r, 2, opts.Path)
			assertBuffer(t, buf, content)
			iters += 10
			if got := r.count(t, iters); got != refSum(iters) {
				t.Errorf("computation after retried migration = %d, want %d", got, refSum(iters))
			}
		})
	}
}
