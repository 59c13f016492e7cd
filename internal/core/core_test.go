package core

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
	"time"

	"snapify/internal/coi"
	"snapify/internal/phi"
	"snapify/internal/platform"
	"snapify/internal/platform/platformtest"
	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
)

// testBinary is a resumable kernel: it adds [0, n) into a sum in the
// "state" region and mixes in the bytes of COI buffer 0 if present.
func testBinary(name string) *coi.Binary {
	bin := coi.NewBinary(name)
	bin.AddRegion("state", proc.RegionHeap, 1<<16, 0)
	bin.Register("count", func(ctx *coi.RunContext, args []byte) ([]byte, error) {
		n := binary.BigEndian.Uint64(args)
		st := ctx.Region("state")
		buf := make([]byte, 16)
		st.ReadAt(buf, 0)
		for {
			i := binary.BigEndian.Uint64(buf[:8])
			if i >= n {
				break
			}
			if err := ctx.Step(func() {
				sum := binary.BigEndian.Uint64(buf[8:])
				binary.BigEndian.PutUint64(buf[:8], i+1)
				binary.BigEndian.PutUint64(buf[8:], sum+i*3+1)
				st.WriteAt(buf, 0)
				ctx.Compute(200 * time.Microsecond)
			}); err != nil {
				return nil, err
			}
		}
		out := make([]byte, 8)
		st.ReadAt(buf, 0)
		copy(out, buf[8:])
		return out, nil
	})
	return bin
}

type rig struct {
	plat *platform.Platform
	host *proc.Process
	tl   *simclock.Timeline
	cp   *coi.Process
	pl   *coi.Pipeline
}

func newRig(t *testing.T, binName string, devices int) *rig {
	t.Helper()
	return newRigBinary(t, testBinary(binName), devices)
}

// newRigBinary is newRig for a caller-built binary.
func newRigBinary(t *testing.T, bin *coi.Binary, devices int) *rig {
	t.Helper()
	binName := bin.Name
	coi.RegisterBinary(bin)
	plat := platformtest.Start(t, platformtest.Options{Devices: devices})
	host := plat.Procs.Spawn("host_proc", simnet.HostNode, plat.Host().Mem)
	tl := simclock.NewTimeline()
	cp, err := coi.CreateProcess(plat, host, tl, 1, binName)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := cp.CreatePipeline()
	if err != nil {
		t.Fatal(err)
	}
	return &rig{plat: plat, host: host, tl: tl, cp: cp, pl: pl}
}

func (r *rig) count(t *testing.T, n uint64) uint64 {
	t.Helper()
	args := make([]byte, 8)
	binary.BigEndian.PutUint64(args, n)
	out, err := r.pl.RunFunction("count", args)
	if err != nil {
		t.Fatal(err)
	}
	return binary.BigEndian.Uint64(out)
}

// refSum computes the expected sum for counting to n with the kernel's
// formula (sum of 3i+1 for i in [0,n)).
func refSum(n uint64) uint64 { return 3*n*(n-1)/2 + n }

func TestPauseCaptureResumeLifecycle(t *testing.T) {
	r := newRig(t, "core_basic", 1)
	r.count(t, 20)

	s := NewSnapshot("/snap/basic", r.cp)
	if err := Pause(s); err != nil {
		t.Fatal(err)
	}
	if s.Report.PauseTotal() <= 0 {
		t.Error("pause must take virtual time")
	}
	if err := s.Capture(CaptureOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := Wait(s); err != nil {
		t.Fatal(err)
	}
	if s.Report.SnapshotBytes <= 0 || s.Report.Capture <= 0 {
		t.Errorf("capture report: %+v", s.Report)
	}
	// The snapshot landed on the host file system via Snapify-IO.
	if !r.plat.Host().FS.Exists("/snap/basic/" + coi.ContextFileName) {
		t.Error("context file missing")
	}
	if !r.plat.Host().FS.Exists("/snap/basic/runtime_libs") {
		t.Error("runtime libraries not saved with the snapshot")
	}
	if err := Resume(s); err != nil {
		t.Fatal(err)
	}
	// Work continues unharmed.
	if got := r.count(t, 40); got != refSum(40) {
		t.Errorf("post-resume count = %d, want %d", got, refSum(40))
	}
}

func TestCaptureRequiresPause(t *testing.T) {
	r := newRig(t, "core_nopause", 1)
	s := NewSnapshot("/snap/np", r.cp)
	if err := s.Capture(CaptureOptions{}); err == nil {
		t.Fatal("capture without pause must fail")
	}
}

func TestConsistencyInvariantAtCapture(t *testing.T) {
	r := newRig(t, "core_invariant", 1)
	buf, err := r.cp.CreateBuffer(128 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(make([]byte, 128*1024), 0) //nolint:errcheck
	r.count(t, 15)

	s := NewSnapshot("/snap/inv", r.cp)
	if err := Pause(s); err != nil {
		t.Fatal(err)
	}
	// Every channel between host proc, daemon, and offload proc is empty.
	if n := r.cp.QueuedBytesAll(); n != 0 {
		t.Errorf("host-side queued bytes at capture time: %d", n)
	}
	op, err := coi.DaemonAt(r.plat, 1).Lookup(r.cp.ID())
	if err != nil {
		t.Fatal(err)
	}
	for i, ep := range op.Endpoints() {
		if n := ep.QueuedBytes(); n != 0 {
			t.Errorf("device endpoint %d queued bytes: %d", i, n)
		}
	}
	// No thread is mid-step.
	if op.Proc().StepActive() != 0 {
		t.Error("a computation step is active during pause")
	}
	s.Capture(CaptureOptions{}) //nolint:errcheck
	Wait(s)                     //nolint:errcheck
	Resume(s)                   //nolint:errcheck
}

func TestSwapoutSwapinRoundTrip(t *testing.T) {
	r := newRig(t, "core_swap", 1)
	buf, _ := r.cp.CreateBuffer(512 * 1024)
	pattern := make([]byte, 512*1024)
	for i := range pattern {
		pattern[i] = byte(i * 7)
	}
	buf.Write(pattern, 0) //nolint:errcheck
	r.count(t, 33)

	memBefore := r.plat.Device(1).Mem.Used()
	snap, err := Swapout("/snap/swap", r.cp, CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The card's memory is freed while swapped out.
	if used := r.plat.Device(1).Mem.Used(); used >= memBefore {
		t.Errorf("card memory not freed by swap-out: %d -> %d", memBefore, used)
	}
	if r.cp.State() != coi.StateSwapped {
		t.Error("handle not swapped")
	}

	cp2, err := Swapin(snap, 1, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cp2.State() != coi.StateActive {
		t.Error("handle not active after swap-in")
	}
	back := make([]byte, len(pattern))
	if err := buf.Read(back, 0); err != nil {
		t.Fatal(err)
	}
	for i := range back {
		if back[i] != pattern[i] {
			t.Fatalf("buffer corrupted at %d after swap", i)
		}
	}
	if got := r.count(t, 66); got != refSum(66) {
		t.Errorf("post-swap count = %d, want %d", got, refSum(66))
	}
}

func TestMigrateMovesProcessAndLocalStoreDirect(t *testing.T) {
	r := newRig(t, "core_migrate", 2)
	buf, _ := r.cp.CreateBuffer(1 * int64(simclock.MiB))
	data := make([]byte, simclock.MiB)
	for i := range data {
		data[i] = byte(i % 253)
	}
	buf.Write(data, 0) //nolint:errcheck
	r.count(t, 10)

	hostTrafficBefore := r.plat.Server.Fabric.Traffic(1, 0)
	devTrafficBefore := r.plat.Server.Fabric.Traffic(1, 2)

	cp2, snap, err := Migrate(r.cp, MigrateOptions{DeviceTo: 2, Path: "/snap/mig"})
	if err != nil {
		t.Fatal(err)
	}
	if cp2.DeviceNode() != 2 {
		t.Fatalf("process on %v after migration", cp2.DeviceNode())
	}
	// The local store moved device-to-device, not through the host.
	devMoved := r.plat.Server.Fabric.Traffic(1, 2) - devTrafficBefore
	if devMoved < int64(simclock.MiB) {
		t.Errorf("device-to-device traffic %d, want >= 1 MiB local store", devMoved)
	}
	// The context still goes through the host (BLCR writes there), but the
	// local store must not be doubled onto the host link.
	hostMoved := r.plat.Server.Fabric.Traffic(1, 0) - hostTrafficBefore
	if hostMoved > snap.Report.SnapshotBytes+2*int64(simclock.MiB) {
		t.Errorf("host link moved %d bytes; local store should have bypassed it", hostMoved)
	}
	// The migrated card no longer holds the staged local store files.
	if n := r.plat.Device(2).FS.RemoveAll("/snap/mig/"); n != 0 {
		t.Errorf("staged local store not cleaned up: %d files left", n)
	}

	back := make([]byte, len(data))
	if err := buf.Read(back, 0); err != nil {
		t.Fatal(err)
	}
	for i := range back {
		if back[i] != data[i] {
			t.Fatalf("buffer corrupted at %d after migration", i)
		}
	}
	if got := r.count(t, 30); got != refSum(30) {
		t.Errorf("post-migration count = %d, want %d", got, refSum(30))
	}
}

func TestMigrateToSameDeviceRejected(t *testing.T) {
	r := newRig(t, "core_selfmig", 1)
	if _, _, err := Migrate(r.cp, MigrateOptions{DeviceTo: 1, Path: "/snap/self"}); err == nil {
		t.Fatal("migration to the same device must fail")
	}
}

func TestFullApplicationCheckpointRestart(t *testing.T) {
	r := newRig(t, "core_appcr", 1)
	buf, _ := r.cp.CreateBuffer(256 * 1024)
	data := make([]byte, 256*1024)
	for i := range data {
		data[i] = byte(i % 41)
	}
	buf.Write(data, 0) //nolint:errcheck
	r.count(t, 40)     // counter now at 40

	app := NewApp(r.plat, r.cp)
	report, err := app.Checkpoint("/snap/appcr")
	if err != nil {
		t.Fatal(err)
	}
	if report.HostCapture <= 0 || report.Offload.Capture <= 0 || report.Total() <= 0 {
		t.Errorf("checkpoint report: %+v", report)
	}
	if report.HostSnapshotBytes <= 0 {
		t.Error("host snapshot empty")
	}

	// The original run continues to 100 — this is the reference result.
	want := r.count(t, 100)
	if want != refSum(100) {
		t.Fatalf("reference run wrong: %d", want)
	}

	// Failure: the whole application dies.
	r.host.Terminate()
	waitFor(t, func() bool {
		_, err := coi.DaemonAt(r.plat, 1).Lookup(r.cp.ID())
		return err != nil
	})

	// Restart from the snapshot: the counter must be back at 40.
	app2, host2, rreport, err := RestartApp(r.plat, "/snap/appcr")
	if err != nil {
		t.Fatal(err)
	}
	defer host2.Terminate()
	if rreport.HostRestore <= 0 || rreport.Offload.RestoreTotal() <= 0 {
		t.Errorf("restart report: %+v", rreport)
	}
	cp2 := app2.Proc()
	if cp2.State() != coi.StateActive {
		t.Fatalf("restored handle state %v", cp2.State())
	}
	// Buffer content restored.
	pls := cp2.Pipelines()
	if len(pls) != 1 {
		t.Fatalf("restored app has %d pipelines", len(pls))
	}
	bufs := cp2.Buffers()
	if len(bufs) != 1 {
		t.Fatalf("restored app has %d buffers", len(bufs))
	}
	back := make([]byte, len(data))
	if err := bufs[0].Read(back, 0); err != nil {
		t.Fatal(err)
	}
	for i := range back {
		if back[i] != data[i] {
			t.Fatalf("restored buffer differs at %d", i)
		}
	}
	// Resume the computation from the checkpointed state to 100.
	args := make([]byte, 8)
	binary.BigEndian.PutUint64(args, 100)
	out, err := pls[0].RunFunction("count", args)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint64(out); got != want {
		t.Errorf("restarted run = %d, want %d (checkpoint/restart is not transparent)", got, want)
	}
}

func TestDoubleCheckpointThenRestartFromEach(t *testing.T) {
	r := newRig(t, "core_twocp", 1)
	app := NewApp(r.plat, r.cp)
	r.count(t, 10)
	if _, err := app.Checkpoint("/snap/cp1"); err != nil {
		t.Fatal(err)
	}
	r.count(t, 20)
	if _, err := app.Checkpoint("/snap/cp2"); err != nil {
		t.Fatal(err)
	}
	want := r.count(t, 50)
	r.host.Terminate()
	time.Sleep(5 * time.Millisecond)

	for _, dir := range []string{"/snap/cp2", "/snap/cp1"} {
		app2, host2, _, err := RestartApp(r.plat, dir)
		if err != nil {
			t.Fatalf("restart from %s: %v", dir, err)
		}
		args := make([]byte, 8)
		binary.BigEndian.PutUint64(args, 50)
		out, err := app2.Proc().Pipelines()[0].RunFunction("count", args)
		if err != nil {
			t.Fatalf("restart from %s: %v", dir, err)
		}
		if got := binary.BigEndian.Uint64(out); got != want {
			t.Errorf("restart from %s = %d, want %d", dir, got, want)
		}
		host2.Terminate()
		time.Sleep(5 * time.Millisecond)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// TestOneHostTwoCards checkpoints an application that offloads to two
// coprocessors at once: one Snapshot per offload process, both captured
// around the same host snapshot (the paper's multi-coprocessor case in
// Section 4.1).
func TestOneHostTwoCards(t *testing.T) {
	coi.RegisterBinary(testBinary("core_twocards"))
	plat := platformtest.Start(t, platformtest.Options{Devices: 2})
	host := plat.Procs.Spawn("host_two", simnet.HostNode, plat.Host().Mem)
	tl := simclock.NewTimeline()

	var cps []*coi.Process
	var pls []*coi.Pipeline
	for dev := simnet.NodeID(1); dev <= 2; dev++ {
		cp, err := coi.CreateProcess(plat, host, tl, dev, "core_twocards")
		if err != nil {
			t.Fatal(err)
		}
		pl, err := cp.CreatePipeline()
		if err != nil {
			t.Fatal(err)
		}
		cps = append(cps, cp)
		pls = append(pls, pl)
	}
	for _, pl := range pls {
		if _, err := pl.RunFunction("count", makeCountArgs(12)); err != nil {
			t.Fatal(err)
		}
	}

	// Pause both, capture both (concurrently, as Fig 5's callback would
	// for each offload process), resume both.
	var snaps []*Snapshot
	for i, cp := range cps {
		s := NewSnapshot(fmt.Sprintf("/snap/two/%d", i), cp)
		if err := Pause(s); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, s)
	}
	for _, s := range snaps {
		if err := s.Capture(CaptureOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range snaps {
		if err := Wait(s); err != nil {
			t.Fatal(err)
		}
		if err := Resume(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, pl := range pls {
		out, err := pl.RunFunction("count", makeCountArgs(24))
		if err != nil {
			t.Fatal(err)
		}
		if got := decodeU64(out); got != refSum(24) {
			t.Errorf("two-card result %d, want %d", got, refSum(24))
		}
	}
}

// TestLoadHandleStateBoundsItsLength: the handle state is read back out of
// a restored host image, bytes this process did not write. A length
// header past the region (here 0xFFFFFFFF) is an error, and nothing is
// allocated for it.
func TestLoadHandleStateBoundsItsLength(t *testing.T) {
	host := proc.New("host_bad_state", 1, simnet.HostNode, phi.NewMemBudget(1<<30))
	r, err := host.AddRegion(HandleStateRegion, proc.RegionData, handleStateSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.WriteAt([]byte{0xFF, 0xFF, 0xFF, 0xFF}, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = LoadHandleState(host)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a handle state claiming 4 GiB in a 64 KiB region loaded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing the header allocated %d bytes", grew)
	}
}
