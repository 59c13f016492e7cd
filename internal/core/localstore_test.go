package core

// The local store (the offload process's COI buffers) on its two paths.
// Every pause, restore and stop-the-world migration keeps the paper's:
// one 4 MiB ping-pong chunk at a time to wherever the restore will run,
// and a Snapify-IO read back (Section 4.1). Only a live switch-over,
// whose restore adopts its staged image in place, streams the store
// double-buffered to the destination card and adopts the saved file
// there (DESIGN.md §13).

import (
	"bytes"
	"testing"

	"snapify/internal/coi"
	"snapify/internal/faultinject"
	"snapify/internal/obs"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
)

// lsBufBytes is the local store of these tests: one 4 MiB COI buffer.
const lsBufBytes = 4 * simclock.MiB

// bufferRig is newRig with one lsBufBytes COI buffer filled with a
// pattern; it returns the buffer and the bytes written.
func bufferRig(t *testing.T, binName string, devices int) (*rig, *coi.Buffer, []byte) {
	t.Helper()
	r := newRig(t, binName, devices)
	buf, content := addPatternBuffer(t, r, lsBufBytes, 7)
	return r, buf, content
}

// addPatternBuffer creates a COI buffer of n bytes and fills it with a
// pattern that differs per seed.
func addPatternBuffer(t *testing.T, r *rig, n int64, seed byte) (*coi.Buffer, []byte) {
	t.Helper()
	buf, err := r.cp.CreateBuffer(n)
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, n)
	for i := range content {
		content[i] = byte(i*31) ^ byte(i>>12) ^ seed
	}
	if err := buf.Write(content, 0); err != nil {
		t.Fatal(err)
	}
	return buf, content
}

// assertBuffer checks buf still holds want.
func assertBuffer(t *testing.T, buf *coi.Buffer, want []byte) {
	t.Helper()
	got := make([]byte, len(want))
	if err := buf.Read(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("restored local store differs from the one saved at pause")
	}
}

// TestPaperLocalStorePathUnchanged pins the local store's save
// (Report.DeviceDrain: quiesce plus save) and reload
// (Report.RestoreLocal) for a process with one 4 MiB buffer on the three
// operations that keep the paper's path: a stop-the-world migration, a
// store swap and a plain checkpoint (which has no restore). The figures
// are the tree's before the live switch-over got a path of its own.
func TestPaperLocalStorePathUnchanged(t *testing.T) {
	const (
		stwDrain   = simclock.Duration(30_261_018)
		stwReload  = simclock.Duration(23_250_186)
		swapDrain  = simclock.Duration(29_594_977)
		swapReload = simclock.Duration(18_916_227)
		ckptDrain  = simclock.Duration(29_594_977)
	)

	r, buf, content := bufferRig(t, "core_ls_paper_mig", 2)
	r.count(t, 10)
	_, snap, err := Migrate(r.cp, MigrateOptions{DeviceTo: 2, Path: "/snap/ls_stw"})
	if err != nil {
		t.Fatal(err)
	}
	assertBuffer(t, buf, content)
	stw := snap.Report

	r, buf, content = bufferRig(t, "core_ls_paper_swap", 1)
	r.count(t, 10)
	var copts CaptureOptions
	var ropts RestoreOptions
	copts.Store.Enabled = true
	ropts.Store.Enabled = true
	snap, err = Swapout("/snap/ls_swap", r.cp, copts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Swapin(snap, 1, ropts); err != nil {
		t.Fatal(err)
	}
	assertBuffer(t, buf, content)
	swap := snap.Report

	r, _, _ = bufferRig(t, "core_ls_paper_ckpt", 1)
	r.count(t, 10)
	snap = NewSnapshot("/snap/ls_ckpt", r.cp)
	if err := snap.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := snap.Capture(CaptureOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := snap.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := snap.Resume(); err != nil {
		t.Fatal(err)
	}
	ckpt := snap.Report

	t.Logf("virtual ns: stop-the-world migrate drain %d reload %d; store swap drain %d reload %d; checkpoint drain %d",
		stw.DeviceDrain, stw.RestoreLocal, swap.DeviceDrain, swap.RestoreLocal, ckpt.DeviceDrain)
	for _, c := range []struct {
		what      string
		got, want simclock.Duration
	}{
		{"stop-the-world migrate DeviceDrain", stw.DeviceDrain, stwDrain},
		{"stop-the-world migrate RestoreLocal", stw.RestoreLocal, stwReload},
		{"store swap DeviceDrain", swap.DeviceDrain, swapDrain},
		{"store swap RestoreLocal", swap.RestoreLocal, swapReload},
		{"checkpoint DeviceDrain", ckpt.DeviceDrain, ckptDrain},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d virtual ns, want the paper path's %d", c.what, c.got, c.want)
		}
	}
}

// lastSpan returns the latest-starting span named name on r's tracer.
func lastSpan(t *testing.T, r *rig, name string) obs.Span {
	t.Helper()
	var last obs.Span
	found := false
	for _, sp := range r.plat.Obs.TracerOf().Spans() {
		if sp.Name == name && (!found || sp.Start >= last.Start) {
			last, found = sp, true
		}
	}
	if !found {
		t.Fatalf("no %s span", name)
	}
	return last
}

// TestLiveSwitchOverAdoptsLocalStore migrates a process with one 4 MiB
// buffer live. The pause streams the buffer to the destination card in
// 1 MiB pieces over a two-slot stream, so the save costs the page walk of
// every piece plus one piece's fill: the stream's open (two staging slots
// registered), the first piece's socket copy and the last piece's
// card-to-card RDMA or RAM-fs write, whichever is longer. The adopted
// restore takes the saved file in place — one RAM-fs op plus the page
// tables over its frames — and removes it, and the restored buffer holds
// the bytes it held at pause.
func TestLiveSwitchOverAdoptsLocalStore(t *testing.T) {
	r, buf, content := bufferRig(t, "core_ls_live", 2)
	r.count(t, 10)
	opts := MigrateOptions{DeviceTo: 2, Path: "/snap/ls_live", Precopy: PrecopyOptions{MaxRounds: 2}}
	cp2, snap, err := Migrate(r.cp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.DeviceNode() != 2 {
		t.Fatalf("process on %v after the migration, want mic1", cp2.DeviceNode())
	}
	assertBuffer(t, buf, content)
	if got := r.count(t, 20); got != refSum(20) {
		t.Errorf("computation after the migration = %d, want %d", got, refSum(20))
	}

	m := r.plat.Model()
	const piece = 1 * simclock.MiB
	open := m.UnixSocketLatency + 2*m.SCIFMsgLatency + 2*m.RegisterCost(4*simclock.MiB)
	fill := open + m.UnixSocketLatency + m.PhiMemcpy(piece) +
		max(2*m.RDMA(piece)+m.SCIFMsgLatency, simclock.Rate(m.RamFSBandwidth)(piece))
	save := lastSpan(t, r, "save_local_store")
	if want := simclock.Duration(lsBufBytes/piece)*m.PhiPageWalk(piece) + fill; save.Dur != want {
		t.Errorf("save_local_store = %d virtual ns, want the walk plus one piece's fill, %d", save.Dur, want)
	}

	reload := lastSpan(t, r, "reload_local_store")
	want := m.RamFSOpLatency + m.PhiMemcpy(lsBufBytes/512)
	if reload.Args["adopted"] != 1 || reload.Args["bytes"] != lsBufBytes {
		t.Errorf("reload_local_store args %v, want adopted 1 and %d bytes", reload.Args, lsBufBytes)
	}
	if reload.Dur != want {
		t.Errorf("reload_local_store = %d virtual ns, want one RAM-fs op plus the page tables, %d", reload.Dur, want)
	}
	// Report.RestoreLocal adds the runtime libraries' copy back.
	libs, _, err := r.plat.Host().FS.ReadFile(opts.Path + "/runtime_libs")
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Report.RestoreLocal; got != want+m.RDMA(libs.Len()) {
		t.Errorf("Report.RestoreLocal = %d virtual ns, want the adoption %d plus the runtime libraries' %d", got, want, m.RDMA(libs.Len()))
	}
	assertNoLocalStore(t, r, 2, opts.Path)
	t.Logf("virtual ns: save_local_store %d, reload_local_store %d, downtime %d", save.Dur, reload.Dur, snap.Report.Downtime)
}

// assertNoLocalStore checks dev's RAM fs holds no local-store file of the
// snapshot directory dir. The check is a RemoveAll: it removes nothing
// unless it fails.
func assertNoLocalStore(t *testing.T, r *rig, dev simnet.NodeID, dir string) {
	t.Helper()
	if n := r.plat.Device(dev).FS.RemoveAll(dir + "/" + coi.LocalStorePrefix); n != 0 {
		t.Errorf("%d local-store files of %s left on %v", n, dir, dev)
	}
}

// TestFailedStopTheWorldFinishLeavesNoLocalStore: a stop-the-world
// switch-over whose capture fails after the pause saved the local store
// to the destination card resumes the source with its buffer intact and
// removes the saved file from the card — also when the snapshot
// directory was given with a trailing slash, which the saved file's name
// keeps.
func TestFailedStopTheWorldFinishLeavesNoLocalStore(t *testing.T) {
	for _, c := range []struct{ name, dir string }{
		{"plain", "/snap/ls_stw_fault"},
		{"trailing-slash", "/snap/ls_stw_fault_slash/"},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, buf, content := bufferRig(t, "core_ls_stw_fault", 2)
			r.count(t, 20)
			opts := MigrateOptions{DeviceTo: 2, Path: c.dir}
			arm(r, faultinject.Fault{Site: faultinject.SiteDaemon, Key: simnet.HostNode.String(), Kind: faultinject.Crash})
			_, _, err := Migrate(r.cp, opts)
			disarm(r)
			if err == nil {
				t.Fatal("Migrate survived a daemon crash in its capture with no retry budget")
			}
			if st := r.cp.State(); st != coi.StateActive || r.cp.DeviceNode() != 1 {
				t.Fatalf("source %v on %v after the failed switch-over, want active on mic0", st, r.cp.DeviceNode())
			}
			assertNoLocalStore(t, r, 2, opts.Path)
			assertBuffer(t, buf, content)
			if got := r.count(t, 40); got != refSum(40) {
				t.Errorf("source computation after the failed switch-over = %d, want %d", got, refSum(40))
			}
		})
	}
}

// TestFailedRestoreKeepsLocalStore: a switch-over whose restore fails
// after the terminating capture has no source process left, so the local
// store its pause saved on the destination card is the only copy of the
// process's buffer. The failed Finish must keep it: once the card has
// room again, the snapshot's own Restore brings the buffer back byte for
// byte and consumes the file. Both the stop-the-world and the live
// switch-over are checked.
func TestFailedRestoreKeepsLocalStore(t *testing.T) {
	for _, c := range []struct {
		name string
		opts MigrateOptions
	}{
		{"stop-the-world", MigrateOptions{DeviceTo: 2, Path: "/snap/ls_rst_stw"}},
		{"live", MigrateOptions{DeviceTo: 2, Path: "/snap/ls_rst_live", Precopy: PrecopyOptions{MaxRounds: 2}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, buf, content := bufferRig(t, "core_ls_rst_fault", 2)
			r.count(t, 10)
			m, err := NewMigration(r.cp, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			for done := !c.opts.Precopy.Enabled(); !done; {
				if _, done, err = m.Round(); err != nil {
					t.Fatal(err)
				}
			}

			// Fill the destination card so the restore cannot fit. The
			// RAM fs the pause saves the local store to is not card
			// memory, so the save still succeeds.
			dst := r.plat.Device(2)
			hog := r.plat.Procs.Spawn("hog", 2, dst.Mem)
			if _, err := hog.AddRegion("hog", 1, dst.Mem.Free()-8*simclock.MiB, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Finish(); err == nil {
				t.Fatal("Finish restored onto a full card")
			}
			if st := r.cp.State(); st != coi.StateSwapped {
				t.Fatalf("handle %v after the failed restore, want swapped", st)
			}
			hog.Terminate()

			cp2, err := m.Snapshot().Restore(c.opts.DeviceTo, c.opts.Restore)
			if err != nil {
				t.Fatalf("restoring the snapshot after the failed Finish: %v", err)
			}
			if cp2.DeviceNode() != 2 {
				t.Fatalf("process on %v after the restore, want mic1", cp2.DeviceNode())
			}
			if err := m.Snapshot().Resume(); err != nil {
				t.Fatal(err)
			}
			assertBuffer(t, buf, content)
			if got := r.count(t, 20); got != refSum(20) {
				t.Errorf("computation after the restore = %d, want %d", got, refSum(20))
			}
			assertNoStaging(t, r, 2, c.opts.Path)
		})
	}
}
