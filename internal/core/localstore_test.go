package core

// The local store (the offload process's COI buffers) on its two paths.
// Every pause, restore and stop-the-world migration keeps the paper's:
// one 4 MiB ping-pong chunk at a time to wherever the restore will run,
// and a Snapify-IO read back (Section 4.1). Only a live migration, whose
// restore adopts its staged image in place, streams the store
// double-buffered to the destination card — pre-saved by the round that
// ends the rounds, re-sent by the switch-over only where written since —
// and adopts the saved file there (DESIGN.md §13).

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"snapify/internal/blcr"
	"snapify/internal/blob"
	"snapify/internal/coi"
	"snapify/internal/faultinject"
	"snapify/internal/obs"
	"snapify/internal/platform"
	"snapify/internal/proc"
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
// (Report.RestoreLocal, which includes the runtime libraries' copy back)
// for a process with one 4 MiB buffer on the three operations that keep
// the paper's path: a stop-the-world migration, a store swap and a plain
// checkpoint (which has no restore). It pins their pause handshakes too,
// which copy the runtime libraries into the snapshot directory. The
// figures are the tree's before the live switch-over got a path of its
// own, and before the runtime libraries rode a live migration's
// pre-save.
func TestPaperLocalStorePathUnchanged(t *testing.T) {
	const (
		stwDrain      = simclock.Duration(30_261_018)
		stwReload     = simclock.Duration(23_250_186)
		stwHandshake  = simclock.Duration(4_090_350)
		swapDrain     = simclock.Duration(29_594_977)
		swapReload    = simclock.Duration(18_916_227)
		swapHandshake = simclock.Duration(4_090_350)
		ckptDrain     = simclock.Duration(29_594_977)
		ckptHandshake = simclock.Duration(4_090_350)
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

	t.Logf("virtual ns: stop-the-world migrate handshake %d drain %d reload %d; store swap handshake %d drain %d reload %d; checkpoint handshake %d drain %d",
		stw.PauseHandshake, stw.DeviceDrain, stw.RestoreLocal, swap.PauseHandshake, swap.DeviceDrain, swap.RestoreLocal,
		ckpt.PauseHandshake, ckpt.DeviceDrain)
	for _, c := range []struct {
		what      string
		got, want simclock.Duration
	}{
		{"stop-the-world migrate PauseHandshake", stw.PauseHandshake, stwHandshake},
		{"stop-the-world migrate DeviceDrain", stw.DeviceDrain, stwDrain},
		{"stop-the-world migrate RestoreLocal", stw.RestoreLocal, stwReload},
		{"store swap PauseHandshake", swap.PauseHandshake, swapHandshake},
		{"store swap DeviceDrain", swap.DeviceDrain, swapDrain},
		{"store swap RestoreLocal", swap.RestoreLocal, swapReload},
		{"checkpoint PauseHandshake", ckpt.PauseHandshake, ckptHandshake},
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
	return findSpan(t, r, name, func(obs.Span) bool { return true })
}

// findSpan returns the latest-starting span named name on r's tracer
// that match accepts.
func findSpan(t *testing.T, r *rig, name string, match func(obs.Span) bool) obs.Span {
	t.Helper()
	var last obs.Span
	found := false
	for _, sp := range r.plat.Obs.TracerOf().Spans() {
		if sp.Name == name && match(sp) && (!found || sp.Start >= last.Start) {
			last, found = sp, true
		}
	}
	if !found {
		t.Fatalf("no matching %s span", name)
	}
	return last
}

// presaveSpan is the last pre-save's save_local_store span.
func presaveSpan(t *testing.T, r *rig) obs.Span {
	t.Helper()
	return findSpan(t, r, "save_local_store", func(sp obs.Span) bool { return sp.Args["presave"] == 1 })
}

// liveSave is the price of saving one n-byte buffer over the live path:
// the page walk of every 1 MiB piece plus one piece's fill — the two-slot
// stream's open (two staging slots registered), the first piece's socket
// copy and the last piece's card-to-card RDMA or RAM-fs write, whichever
// is longer.
func liveSave(m *simclock.Model, n int64) simclock.Duration {
	const piece = 1 * simclock.MiB
	open := m.UnixSocketLatency + 2*m.SCIFMsgLatency + 2*m.RegisterCost(4*simclock.MiB)
	fill := open + m.UnixSocketLatency + m.PhiMemcpy(piece) +
		max(2*m.RDMA(piece)+m.SCIFMsgLatency, simclock.Rate(m.RamFSBandwidth)(piece))
	return simclock.Duration(n/piece)*m.PhiPageWalk(piece) + fill
}

// presaveRounds opens a live migration of r's process and runs its
// pre-copy rounds to the end, the last one's pre-save included.
func presaveRounds(t *testing.T, r *rig, opts MigrateOptions) *Migration {
	t.Helper()
	m, err := NewMigration(r.cp, opts)
	if err != nil {
		t.Fatal(err)
	}
	for done := false; !done; {
		if _, done, err = m.Round(); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// finish runs m's switch-over and checks the process landed on card 2.
func finish(t *testing.T, m *Migration) {
	t.Helper()
	cp2, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if cp2.DeviceNode() != 2 {
		t.Fatalf("process on %v after the migration, want mic1", cp2.DeviceNode())
	}
}

// TestLiveSwitchOverAdoptsLocalStore migrates a process with one 4 MiB
// buffer live. The last round pre-saves the buffer to the destination
// card in 1 MiB pieces over a two-slot stream, so the pre-save costs the
// page walk of every piece plus one piece's fill, and the last
// precopy_round span covers it. The same round saves the runtime
// libraries into the snapshot directory and copies them to the
// destination card. Nothing writes the buffer after that, so the pause's
// save is the page-table sweep that finds it clean and sends nothing, and
// its handshake is its messages alone. The adopted restore takes the
// pre-saved file in place — one RAM-fs op plus the page tables over its
// frames — and removes it, and the restored buffer holds the bytes it
// held at pause.
func TestLiveSwitchOverAdoptsLocalStore(t *testing.T) {
	r, buf, content := bufferRig(t, "core_ls_live", 2)
	r.count(t, 10)
	opts := MigrateOptions{DeviceTo: 2, Path: "/snap/ls_live", Precopy: PrecopyOptions{MaxRounds: 2}}
	m := presaveRounds(t, r, opts)
	libs := runtimeLibs(t, r)
	saved, _, err := r.plat.Host().FS.ReadFile(opts.Path + "/runtime_libs")
	if err != nil || !blob.Equal(saved, libs) {
		t.Fatalf("snapshot directory's runtime libraries after the rounds: %d bytes, err %v; want the MPSS copy's %d bytes", saved.Len(), err, libs.Len())
	}
	finish(t, m)
	snap := m.Snapshot()
	assertBuffer(t, buf, content)
	if got := r.count(t, 20); got != refSum(20) {
		t.Errorf("computation after the migration = %d, want %d", got, refSum(20))
	}

	model := r.plat.Model()
	pre := presaveSpan(t, r)
	if want := liveSave(model, lsBufBytes); pre.Dur != want || pre.Args["bytes"] != lsBufBytes {
		t.Errorf("pre-save save_local_store = %d virtual ns, %d bytes; want the walk plus one piece's fill, %d, and %d bytes",
			pre.Dur, pre.Args["bytes"], want, lsBufBytes)
	}
	round := lastSpan(t, r, "precopy_round")
	if pre.Start < round.Start || pre.End() > round.End() {
		t.Errorf("pre-save [%d, %d] outside the last precopy_round [%d, %d]", pre.Start, pre.End(), round.Start, round.End())
	}
	if round.Args["runtime_libs_bytes"] != libs.Len() {
		t.Errorf("last precopy_round runtime_libs_bytes = %d, want %d", round.Args["runtime_libs_bytes"], libs.Len())
	}
	last := snap.Report.Precopy[len(snap.Report.Precopy)-1]
	msgs := 2*model.SCIFMsg(16) + model.SignalLatency + 2*model.PipeLatency
	if want := pre.Dur + msgs + model.HostMemcpy(libs.Len()) + model.RDMA(libs.Len()); last.LocalStoreDuration != want {
		t.Errorf("last round's LocalStoreDuration = %d, want the pre-save %d plus its messages %d and the runtime libraries' two copies, %d",
			last.LocalStoreDuration, pre.Dur, msgs, want)
	}

	hs := lastSpan(t, r, "pause_handshake")
	if want := 2*model.SCIFMsg(16) + model.SignalLatency + 4*model.PipeLatency; snap.Report.PauseHandshake != want || hs.Args["runtime_libs_bytes"] != 0 {
		t.Errorf("Report.PauseHandshake = %d virtual ns, runtime_libs_bytes %d; want its messages alone, %d, and 0",
			snap.Report.PauseHandshake, hs.Args["runtime_libs_bytes"], want)
	}
	save := lastSpan(t, r, "save_local_store")
	if want := blcr.PageTableCost(model, lsBufBytes); save.Args["presave"] != 0 || save.Dur != want || save.Args["bytes"] != 0 {
		t.Errorf("pause save_local_store = %d virtual ns, args %v; want the sweep alone, %d, and 0 bytes", save.Dur, save.Args, want)
	}
	if snap.Report.LocalStoreBytes != lsBufBytes {
		t.Errorf("Report.LocalStoreBytes = %d, want the local store's size %d", snap.Report.LocalStoreBytes, lsBufBytes)
	}

	reload := lastSpan(t, r, "reload_local_store")
	want := model.RamFSOpLatency + model.PhiMemcpy(lsBufBytes/512)
	if reload.Args["adopted"] != 1 || reload.Args["bytes"] != lsBufBytes {
		t.Errorf("reload_local_store args %v, want adopted 1 and %d bytes", reload.Args, lsBufBytes)
	}
	if reload.Dur != want {
		t.Errorf("reload_local_store = %d virtual ns, want one RAM-fs op plus the page tables, %d", reload.Dur, want)
	}
	rl := lastSpan(t, r, "restore_local")
	if got := snap.Report.RestoreLocal; got != want || rl.Args["runtime_libs_bytes"] != 0 {
		t.Errorf("Report.RestoreLocal = %d virtual ns, runtime_libs_bytes %d; want the adoption alone, %d, and 0", got, rl.Args["runtime_libs_bytes"], want)
	}
	assertNoLocalStore(t, r, 2, opts.Path)
	t.Logf("virtual ns: pre-save %d, pause save_local_store %d, reload_local_store %d, downtime %d", pre.Dur, save.Dur, reload.Dur, snap.Report.Downtime)
}

// runtimeLibs returns the MPSS copy of the runtime libraries on r's host.
func runtimeLibs(t *testing.T, r *rig) blob.Blob {
	t.Helper()
	libs, _, err := r.plat.Host().FS.ReadFile(platform.RuntimeLibsPath)
	if err != nil {
		t.Fatal(err)
	}
	return libs
}

// TestRuntimeLibsFollowThePresave: only a switch-over whose session
// pre-saved the runtime libraries, restoring onto the card the pre-save
// fed, leaves them out of its pause and restore. Every other switch-over
// pays for them exactly as without a pre-save: its pause copies them into
// the snapshot directory (HostMemcpy), unless the session's pre-save
// already did, and its restore copies them to the card (RDMA), each span
// naming the bytes in runtime_libs_bytes. The cases: a live Finish with
// no round run; Snapshot().Restore after a Finish that failed after its
// terminating capture (the failure cleared the presaved mark); a restore
// onto a card other than the pre-save's; and a new session, with a round
// that does not end the rounds, after an aborted one that pre-saved.
func TestRuntimeLibsFollowThePresave(t *testing.T) {
	for _, c := range []struct {
		name      string
		devices   int
		pausePays bool // false: the session's pre-save copied the libraries into the snapshot directory
		// run migrates r's process and returns the snapshot, resumed.
		run func(t *testing.T, r *rig, opts MigrateOptions) *Snapshot
	}{
		{"no-round", 2, true, func(t *testing.T, r *rig, opts MigrateOptions) *Snapshot {
			m, err := NewMigration(r.cp, opts)
			if err != nil {
				t.Fatal(err)
			}
			finish(t, m)
			return m.Snapshot()
		}},
		{"restore-after-failed-finish", 2, false, func(t *testing.T, r *rig, opts MigrateOptions) *Snapshot {
			m := presaveRounds(t, r, opts)
			dst := r.plat.Device(2)
			hog := r.plat.Procs.Spawn("hog", 2, dst.Mem)
			if _, err := hog.AddRegion("hog", 1, dst.Mem.Free()-8*simclock.MiB, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Finish(); err == nil {
				t.Fatal("Finish restored onto a full card")
			}
			hog.Terminate()
			if _, err := m.Snapshot().Restore(opts.DeviceTo, opts.Restore); err != nil {
				t.Fatal(err)
			}
			if err := m.Snapshot().Resume(); err != nil {
				t.Fatal(err)
			}
			return m.Snapshot()
		}},
		{"other-card", 3, false, func(t *testing.T, r *rig, opts MigrateOptions) *Snapshot {
			s := presaveRounds(t, r, opts).Snapshot()
			if err := s.Pause(); err != nil {
				t.Fatal(err)
			}
			if err := s.Capture(CaptureOptions{Terminate: true}); err != nil {
				t.Fatal(err)
			}
			if err := s.Wait(); err != nil {
				t.Fatal(err)
			}
			cp, err := s.Restore(3, RestoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if cp.DeviceNode() != 3 {
				t.Fatalf("process on %v after the restore, want mic2", cp.DeviceNode())
			}
			if err := s.Resume(); err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"new-session-after-abort", 2, true, func(t *testing.T, r *rig, opts MigrateOptions) *Snapshot {
			presaveRounds(t, r, opts).Abort()
			m, err := NewMigration(r.cp, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, done, err := m.Round(); err != nil || done {
				t.Fatalf("first round: done %v, err %v; want the rounds to go on", done, err)
			}
			finish(t, m)
			return m.Snapshot()
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, buf, content := bufferRig(t, "core_ls_libs", c.devices)
			r.count(t, 10)
			opts := MigrateOptions{DeviceTo: 2, Path: "/snap/ls_libs", Precopy: PrecopyOptions{MaxRounds: 2}}
			snap := c.run(t, r, opts)
			assertBuffer(t, buf, content)
			if got := r.count(t, 20); got != refSum(20) {
				t.Errorf("computation after the migration = %d, want %d", got, refSum(20))
			}

			model := r.plat.Model()
			n := runtimeLibs(t, r).Len()
			msgs := 2*model.SCIFMsg(16) + model.SignalLatency + 4*model.PipeLatency
			wantHS, wantHSBytes := msgs, int64(0)
			if c.pausePays {
				wantHS, wantHSBytes = msgs+model.HostMemcpy(n), n
			}
			hs := lastSpan(t, r, "pause_handshake")
			if snap.Report.PauseHandshake != wantHS || hs.Args["runtime_libs_bytes"] != wantHSBytes {
				t.Errorf("Report.PauseHandshake = %d virtual ns, runtime_libs_bytes %d; want %d and %d",
					snap.Report.PauseHandshake, hs.Args["runtime_libs_bytes"], wantHS, wantHSBytes)
			}
			reload := lastSpan(t, r, "reload_local_store")
			rl := lastSpan(t, r, "restore_local")
			if want := reload.Dur + model.RDMA(n); snap.Report.RestoreLocal != want || rl.Args["runtime_libs_bytes"] != n {
				t.Errorf("Report.RestoreLocal = %d virtual ns, runtime_libs_bytes %d; want the reload %d plus the runtime libraries' %d, and %d",
					snap.Report.RestoreLocal, rl.Args["runtime_libs_bytes"], reload.Dur, model.RDMA(n), n)
			}
		})
	}
}

// TestPresaveBufferWrittenAfterLastRound: the application writes the
// buffer after the pre-save, so the switch-over's sweep finds it dirty and
// the pause re-saves the whole buffer exactly as without a pre-save, plus
// the sweep. The restored buffer holds what it held at pause.
func TestPresaveBufferWrittenAfterLastRound(t *testing.T) {
	r, buf, content := bufferRig(t, "core_ls_presave_written", 2)
	r.count(t, 10)
	m := presaveRounds(t, r, MigrateOptions{DeviceTo: 2, Path: "/snap/ls_written", Precopy: PrecopyOptions{MaxRounds: 2}})
	patch := bytes.Repeat([]byte{0xa5}, 64*1024)
	if err := buf.Write(patch, simclock.MiB+100); err != nil {
		t.Fatal(err)
	}
	copy(content[simclock.MiB+100:], patch)
	finish(t, m)
	assertBuffer(t, buf, content)

	model := r.plat.Model()
	save := lastSpan(t, r, "save_local_store")
	if want := liveSave(model, lsBufBytes) + blcr.PageTableCost(model, lsBufBytes); save.Args["presave"] != 0 || save.Dur != want || save.Args["bytes"] != lsBufBytes {
		t.Errorf("pause save_local_store = %d virtual ns, args %v; want the whole save plus the sweep, %d, and %d bytes", save.Dur, save.Args, want, lsBufBytes)
	}
	assertNoStaging(t, r, 2, m.opts.Path)
}

// TestPresaveBufferCreatedAfter: a buffer created after the pre-save has
// no pre-saved file and an unarmed epoch tracker, whose first cut reports
// the whole buffer: the pause saves it whole, and only it. Both buffers
// come back as they were at pause.
func TestPresaveBufferCreatedAfter(t *testing.T) {
	r, buf, content := bufferRig(t, "core_ls_presave_created", 2)
	r.count(t, 10)
	m := presaveRounds(t, r, MigrateOptions{DeviceTo: 2, Path: "/snap/ls_created", Precopy: PrecopyOptions{MaxRounds: 2}})
	const late = 1 * simclock.MiB
	buf2, content2 := addPatternBuffer(t, r, late, 9)
	finish(t, m)
	assertBuffer(t, buf, content)
	assertBuffer(t, buf2, content2)

	model := r.plat.Model()
	save := lastSpan(t, r, "save_local_store")
	if want := liveSave(model, late) + blcr.PageTableCost(model, lsBufBytes) + blcr.PageTableCost(model, late); save.Dur != want || save.Args["bytes"] != late {
		t.Errorf("pause save_local_store = %d virtual ns, args %v; want the new buffer's save plus both sweeps, %d, and %d bytes", save.Dur, save.Args, want, late)
	}
	if got := m.Snapshot().Report.LocalStoreBytes; got != lsBufBytes+late {
		t.Errorf("Report.LocalStoreBytes = %d, want both buffers' %d", got, lsBufBytes+late)
	}
	assertNoStaging(t, r, 2, m.opts.Path)
}

// TestPresaveRacingWriter races a writer against the pre-save. The writer
// rewrites pages of the buffer while the rounds run, and stops after one
// more write once the destination card's Snapify-IO daemon has served the
// pre-save's first piece: that last write lands while the pre-save
// streams the bytes it read. The pre-save cuts the buffer's epoch before it reads, so those
// writes are in the next epoch and the pause re-saves the buffer; a
// pre-save that cut after reading would consume them with its cut, and
// the destination would keep the bytes read before them. The restored
// buffer must equal the buffer at pause.
func TestPresaveRacingWriter(t *testing.T) {
	r, buf, _ := bufferRig(t, "core_ls_presave_race", 2)
	r.count(t, 10)
	var region *proc.Region
	for _, rg := range r.offload(t).Proc().Regions() {
		if rg.Kind() == proc.RegionLocalStore {
			region = rg
		}
	}
	// Fires, doing nothing (the daemon site only acts on a crash), when
	// mic1's daemon serves its first chunk: the pre-save's first piece.
	inj := faultinject.New(faultinject.Plan{{Site: faultinject.SiteDaemon, Key: "mic1", Kind: faultinject.Slow, Nth: 1}}, nil)
	r.plat.Server.Fabric.SetInjector(inj)
	defer disarm(r)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(5))
		page := make([]byte, proc.EpochPage)
		for {
			served := inj.FiredTotal() > 0
			rng.Read(page)
			region.WriteAt(page, rng.Int63n(lsBufBytes/proc.EpochPage)*proc.EpochPage)
			if served {
				return
			}
			runtime.Gosched()
		}
	}()
	m := presaveRounds(t, r, MigrateOptions{DeviceTo: 2, Path: "/snap/ls_race", Precopy: PrecopyOptions{MaxRounds: 3}})
	wg.Wait()
	if inj.FiredTotal() != 1 {
		t.Fatalf("mic1's daemon served %d pre-save pieces under the probe, want 1", inj.FiredTotal())
	}
	want := make([]byte, lsBufBytes)
	region.ReadAt(want, 0)
	finish(t, m)
	assertBuffer(t, buf, want)
	assertNoStaging(t, r, 2, m.opts.Path)
}

// TestAbortAfterPresaveLeavesNoLocalStore: a session aborted after its
// rounds ended leaves the pre-saved file nowhere — the destination's RAM
// fs shares its budget with the processes there — and the source runs on
// with its buffer intact.
func TestAbortAfterPresaveLeavesNoLocalStore(t *testing.T) {
	r, buf, content := bufferRig(t, "core_ls_presave_abort", 2)
	r.count(t, 10)
	m := presaveRounds(t, r, MigrateOptions{DeviceTo: 2, Path: "/snap/ls_abort", Precopy: PrecopyOptions{MaxRounds: 2}})
	presaveSpan(t, r)
	m.Abort()
	assertNoStaging(t, r, 2, m.opts.Path)
	if st := r.cp.State(); st != coi.StateActive || r.cp.DeviceNode() != 1 {
		t.Fatalf("source %v on %v after the abort, want active on mic0", st, r.cp.DeviceNode())
	}
	assertBuffer(t, buf, content)
	if got := r.count(t, 20); got != refSum(20) {
		t.Errorf("source computation after the abort = %d, want %d", got, refSum(20))
	}
}

// TestPresavedBufferDestroyedLeavesNoLocalStore: a buffer destroyed after
// the pre-save has a file on the destination and no region to reload it
// into; a successful switch-over must not leave that file behind.
func TestPresavedBufferDestroyedLeavesNoLocalStore(t *testing.T) {
	r, buf, content := bufferRig(t, "core_ls_presave_destroyed", 2)
	gone, _ := addPatternBuffer(t, r, 1*simclock.MiB, 4)
	r.count(t, 10)
	m := presaveRounds(t, r, MigrateOptions{DeviceTo: 2, Path: "/snap/ls_destroyed", Precopy: PrecopyOptions{MaxRounds: 2}})
	if err := gone.Destroy(); err != nil {
		t.Fatal(err)
	}
	finish(t, m)
	assertBuffer(t, buf, content)
	assertNoStaging(t, r, 2, m.opts.Path)
}

// TestAbortedPresaveNeverTrusted: a session aborted after its pre-save
// leaves the buffer's epoch tracker armed and, once the abort removed
// its file, nothing on the destination. A new session must not trust
// that tracker: its own pre-save saves every buffer whole whatever the
// cut says, and a switch-over with no pre-save of its own saves every
// buffer, so the restored buffer equals the buffer at pause — after the
// application wrote it, after it did not, and when the new session
// switches over before its rounds end.
func TestAbortedPresaveNeverTrusted(t *testing.T) {
	for _, c := range []struct {
		name   string
		write  bool
		rounds bool // run the new session's rounds to the end (and its pre-save)
	}{
		{"written", true, true},
		{"unwritten", false, true},
		{"unwritten-early-switch-over", false, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, buf, content := bufferRig(t, "core_ls_presave_stale", 2)
			r.count(t, 10)
			opts := MigrateOptions{DeviceTo: 2, Path: "/snap/ls_stale", Precopy: PrecopyOptions{MaxRounds: 2}}
			presaveRounds(t, r, opts).Abort()

			if c.write {
				patch := bytes.Repeat([]byte{0x3c}, 8*1024)
				if err := buf.Write(patch, 3*simclock.MiB); err != nil {
					t.Fatal(err)
				}
				copy(content[3*simclock.MiB:], patch)
			}
			r.count(t, 20)
			var m *Migration
			if c.rounds {
				m = presaveRounds(t, r, opts)
			} else {
				var err error
				if m, err = NewMigration(r.cp, opts); err != nil {
					t.Fatal(err)
				}
				if _, done, err := m.Round(); err != nil || done {
					t.Fatalf("first round: done %v, err %v; want the rounds to go on", done, err)
				}
			}
			finish(t, m)
			assertBuffer(t, buf, content)
			if got := r.count(t, 30); got != refSum(30) {
				t.Errorf("computation after the migration = %d, want %d", got, refSum(30))
			}
			assertNoStaging(t, r, 2, opts.Path)
		})
	}
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
