package coi

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snapify/internal/phi"
	"snapify/internal/platform"
	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
)

// counterBinary builds a test binary with a resumable counting kernel: it
// adds the integers [0, n) into a sum stored in the "state" region, one
// per step, with all progress in the region.
func counterBinary(name string) *Binary {
	bin := NewBinary(name)
	bin.AddRegion("state", proc.RegionHeap, 1<<16, 0)
	bin.Register("count", func(ctx *RunContext, args []byte) ([]byte, error) {
		n := binary.BigEndian.Uint64(args)
		st := ctx.Region("state")
		buf := make([]byte, 16) // [i, sum]
		st.ReadAt(buf, 0)
		for {
			i := binary.BigEndian.Uint64(buf[:8])
			if i >= n {
				break
			}
			if err := ctx.Step(func() {
				sum := binary.BigEndian.Uint64(buf[8:])
				binary.BigEndian.PutUint64(buf[:8], i+1)
				binary.BigEndian.PutUint64(buf[8:], sum+i)
				st.WriteAt(buf, 0)
				ctx.Compute(time.Millisecond)
			}); err != nil {
				return nil, err
			}
		}
		out := make([]byte, 8)
		st.ReadAt(buf, 0)
		copy(out, buf[8:])
		return out, nil
	})
	bin.Register("sum_buffer", func(ctx *RunContext, args []byte) ([]byte, error) {
		id := int(binary.BigEndian.Uint32(args))
		b := ctx.Buffer(id)
		p := make([]byte, b.Size())
		b.ReadAt(p, 0)
		var sum uint64
		for _, v := range p {
			sum += uint64(v)
		}
		out := make([]byte, 8)
		binary.BigEndian.PutUint64(out, sum)
		return out, nil
	})
	return bin
}

type env struct {
	plat *platform.Platform
	host *proc.Process
	tl   *simclock.Timeline
}

func newEnv(t *testing.T, devices int) *env {
	t.Helper()
	plat, err := platform.New(platform.Config{Server: phi.ServerConfig{Devices: devices}})
	if err != nil {
		t.Fatal(err)
	}
	if err := StartDaemons(plat); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { StopDaemons(plat) })
	return &env{
		plat: plat,
		host: plat.Procs.Spawn("host_proc", simnet.HostNode, plat.Host().Mem),
		tl:   simclock.NewTimeline(),
	}
}

func (e *env) create(t *testing.T, binName string, dev simnet.NodeID) *Process {
	t.Helper()
	cp, err := CreateProcess(e.plat, e.host, e.tl, dev, binName)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func sumTo(n uint64) uint64 { return n * (n - 1) / 2 }

func runCount(t *testing.T, pl *Pipeline, n uint64) uint64 {
	t.Helper()
	args := make([]byte, 8)
	binary.BigEndian.PutUint64(args, n)
	out, err := pl.RunFunction("count", args)
	if err != nil {
		t.Fatal(err)
	}
	return binary.BigEndian.Uint64(out)
}

func TestCreateRunDestroy(t *testing.T) {
	RegisterBinary(counterBinary("app_basic"))
	e := newEnv(t, 1)
	cp := e.create(t, "app_basic", 1)
	if cp.State() != StateActive || cp.ID() == 0 {
		t.Fatalf("handle: state=%v id=%d", cp.State(), cp.ID())
	}
	pl, err := cp.CreatePipeline()
	if err != nil {
		t.Fatal(err)
	}
	if got := runCount(t, pl, 100); got != sumTo(100) {
		t.Errorf("count(100) = %d, want %d", got, sumTo(100))
	}
	// The offload compute time landed on the timeline.
	if e.tl.Now() < 100*time.Millisecond {
		t.Errorf("timeline %v missing offload compute", e.tl.Now())
	}
	if err := cp.Destroy(); err != nil {
		t.Fatal(err)
	}
	if cp.State() != StateDestroyed {
		t.Error("not destroyed")
	}
	if _, err := pl.RunFunctionAsync("count", make([]byte, 8)); err == nil {
		t.Error("run on destroyed process must fail")
	}
	// The daemon must not have marked the requested destroy as a crash.
	if crashed(DaemonAt(e.plat, 1), cp.ID()) {
		t.Error("requested destroy recorded as crash")
	}
}

func TestUnknownBinaryAndFunction(t *testing.T) {
	RegisterBinary(counterBinary("app_known"))
	e := newEnv(t, 1)
	if _, err := CreateProcess(e.plat, e.host, e.tl, 1, "no_such_binary"); err == nil {
		t.Fatal("unknown binary must fail")
	}
	cp := e.create(t, "app_known", 1)
	pl, _ := cp.CreatePipeline()
	if _, err := pl.RunFunction("no_such_fn", nil); err == nil {
		t.Error("unknown function must fail")
	}
	cp.Destroy()
}

func TestBufferWriteReadThroughRDMA(t *testing.T) {
	RegisterBinary(counterBinary("app_buf"))
	e := newEnv(t, 1)
	cp := e.create(t, "app_buf", 1)
	defer cp.Destroy()

	buf, err := cp.CreateBuffer(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1<<16)
	var want uint64
	for i := range data {
		data[i] = byte(i % 251)
		want += uint64(data[i])
	}
	if err := buf.Write(data, 0); err != nil {
		t.Fatal(err)
	}

	pl, _ := cp.CreatePipeline()
	args := make([]byte, 4)
	binary.BigEndian.PutUint32(args, uint32(buf.ID()))
	out, err := pl.RunFunction("sum_buffer", args)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint64(out); got != want {
		t.Errorf("device-side checksum %d, want %d", got, want)
	}

	// Read back through RDMA.
	back := make([]byte, 1<<16)
	if err := buf.Read(back, 0); err != nil {
		t.Fatal(err)
	}
	for i := range back {
		if back[i] != data[i] {
			t.Fatalf("readback differs at %d", i)
		}
	}
	if err := buf.Destroy(); err != nil {
		t.Fatal(err)
	}
	if err := buf.Write(data, 0); err == nil {
		t.Error("write to destroyed buffer must fail")
	}
}

func TestBufferCreateFailsOnFullCard(t *testing.T) {
	RegisterBinary(counterBinary("app_full"))
	e := newEnv(t, 1)
	cp := e.create(t, "app_full", 1)
	defer cp.Destroy()
	free := e.plat.Device(1).Mem.Free()
	if _, err := cp.CreateBuffer(free + 1); err == nil {
		t.Fatal("buffer exceeding card memory must fail")
	}
	// The card must not leak the failed allocation.
	if _, err := cp.CreateBuffer(64 * simclock.MiB); err != nil {
		t.Fatalf("card unusable after failed create: %v", err)
	}
}

func TestHostProcessDeathCleansUpOffloadProcess(t *testing.T) {
	RegisterBinary(counterBinary("app_orphan"))
	e := newEnv(t, 1)
	cp := e.create(t, "app_orphan", 1)
	op, err := DaemonAt(e.plat, 1).Lookup(cp.ID())
	if err != nil {
		t.Fatal(err)
	}
	e.host.Terminate()
	waitFor(t, func() bool { return op.Proc().State() == proc.Terminated })
	// Daemon-driven cleanup is not a crash.
	if crashed(DaemonAt(e.plat, 1), cp.ID()) {
		t.Error("host-death cleanup recorded as crash")
	}
}

func TestCrashDetection(t *testing.T) {
	RegisterBinary(counterBinary("app_crash"))
	e := newEnv(t, 1)
	cp := e.create(t, "app_crash", 1)
	op, _ := DaemonAt(e.plat, 1).Lookup(cp.ID())
	op.Proc().Terminate() // unannounced: a crash
	waitFor(t, func() bool { return crashed(DaemonAt(e.plat, 1), cp.ID()) })
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

// --- low-level snapify protocol drive (what internal/core orchestrates) ---

// snapPause runs the pause protocol: handshake, host-side drain, device
// drain with local-store save to dir.
func snapPause(t *testing.T, cp *Process, dir string) {
	t.Helper()
	if err := cp.DaemonRequest(opSnapifyPause, &IDReq{cp.ID()}, &Empty{}); err != nil {
		t.Fatalf("pause handshake: %v", err)
	}
	if _, err := cp.PauseChannels(); err != nil {
		t.Fatalf("host drain: %v", err)
	}
	// Align stays zero: tests drive the raw protocol at t=0.
	req := &DrainReq{ProcID: cp.ID(), DrainArgs: DrainArgs{LocalStoreNode: simnet.HostNode, Dir: dir}}
	if err := cp.DaemonRequest(opSnapifyDrain, req, &DrainResp{}); err != nil {
		t.Fatalf("device drain: %v", err)
	}
}

func snapCapture(t *testing.T, cp *Process, dir string, terminate bool) {
	t.Helper()
	// Serial stream, default chunk, retry disabled, no store.
	req := &CaptureReq{ProcID: cp.ID(), CaptureArgs: CaptureArgs{Terminate: terminate, Mode: CaptureFull, Dir: dir}}
	if err := cp.DaemonRequest(opSnapifyCapture, req, &CaptureResp{}); err != nil {
		t.Fatalf("capture: %v", err)
	}
	if terminate {
		cp.MarkSwapped()
	}
}

func snapResume(t *testing.T, cp *Process) {
	t.Helper()
	if err := cp.DaemonRequest(opSnapifyResume, &IDReq{cp.ID()}, &Empty{}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	cp.ResumeChannels()
}

func snapRestore(t *testing.T, cp *Process, dev simnet.NodeID, dir string) []RemapEntry {
	t.Helper()
	// The restore request goes to the target card's daemon on a fresh
	// connection (the old card may not even host the process anymore).
	resp, err := DaemonRestoreRequest(cp.plat, dev, &RestoreReq{
		Binary: cp.BinaryName(), ContextDir: dir, LocalStoreNode: simnet.HostNode, LocalStoreDir: dir,
	})
	if err != nil {
		t.Fatalf("restore failed: %v", err)
	}
	remap, err := cp.Rebind(dev, resp.ProcID, resp.Ports)
	if err != nil {
		t.Fatalf("rebind: %v", err)
	}
	return remap
}

func TestPauseDrainsAllChannels(t *testing.T) {
	RegisterBinary(counterBinary("app_drain"))
	e := newEnv(t, 1)
	cp := e.create(t, "app_drain", 1)
	pl, _ := cp.CreatePipeline()
	runCount(t, pl, 50)

	snapPause(t, cp, "/snap/drain")
	// The consistency invariant: zero queued bytes on every host endpoint
	// and every device endpoint.
	if n := cp.QueuedBytesAll(); n != 0 {
		t.Errorf("host endpoints hold %d queued bytes at pause", n)
	}
	op, _ := DaemonAt(e.plat, 1).Lookup(cp.ID())
	for i, ep := range op.Endpoints() {
		if n := ep.QueuedBytes(); n != 0 {
			t.Errorf("device endpoint %d holds %d queued bytes at pause", i, n)
		}
	}
	// Local store was saved to the host.
	if !e.plat.Host().FS.Exists("/snap/drain/" + LocalStorePrefix + "coibuf_0") {
		// No buffers created: no local store files is fine. Create one
		// next time; here just resume.
		_ = op
	}
	snapResume(t, cp)
	// The app continues normally after resume.
	if got := runCount(t, pl, 50); got != sumTo(50) {
		t.Errorf("post-resume count = %d, want %d", got, sumTo(50))
	}
	cp.Destroy()
}

func TestPauseBlocksNewOffloadCalls(t *testing.T) {
	RegisterBinary(counterBinary("app_block"))
	e := newEnv(t, 1)
	cp := e.create(t, "app_block", 1)
	pl, _ := cp.CreatePipeline()
	snapPause(t, cp, "/snap/block")

	started := make(chan struct{})
	done := make(chan uint64, 1)
	go func() {
		close(started)
		done <- runCount(t, pl, 10)
	}()
	<-started
	select {
	case <-done:
		t.Fatal("offload call completed during pause")
	case <-time.After(30 * time.Millisecond):
	}
	snapResume(t, cp)
	select {
	case got := <-done:
		if got != sumTo(10) {
			t.Errorf("blocked call result %d, want %d", got, sumTo(10))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked call never completed after resume")
	}
	cp.Destroy()
}

func TestSwapOutSwapInWithBuffers(t *testing.T) {
	RegisterBinary(counterBinary("app_swap"))
	e := newEnv(t, 1)
	cp := e.create(t, "app_swap", 1)
	pl, _ := cp.CreatePipeline()
	buf, err := cp.CreateBuffer(256 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256*1024)
	for i := range data {
		data[i] = byte(i)
	}
	if err := buf.Write(data, 0); err != nil {
		t.Fatal(err)
	}
	runCount(t, pl, 30)
	oldAddr := buf.rdmaOff
	oldID := cp.ID()

	dir := "/snap/swap"
	snapPause(t, cp, dir)
	snapCapture(t, cp, dir, true) // swap out: capture + terminate

	// The offload process is gone and card memory is freed; the daemon did
	// not mark a crash.
	waitFor(t, func() bool {
		_, err := DaemonAt(e.plat, 1).Lookup(oldID)
		return err != nil
	})
	if crashed(DaemonAt(e.plat, 1), oldID) {
		t.Fatal("announced swap-out termination recorded as crash")
	}
	if cp.State() != StateSwapped {
		t.Fatal("handle not swapped")
	}
	// Snapshot artifacts exist on the host.
	hostFS := e.plat.Host().FS
	if !hostFS.Exists(dir+"/"+ContextFileName) || !hostFS.Exists(dir+"/"+LocalStorePrefix+"coibuf_0") {
		t.Fatalf("snapshot files missing: %v", hostFS.List(dir))
	}

	// Swap in.
	remap := snapRestore(t, cp, 1, dir)
	snapResume(t, cp)
	if cp.State() != StateActive {
		t.Fatal("handle not active after swap-in")
	}
	// The RDMA address changed and the remap table recorded it.
	if len(remap) != 1 || remap[0].Old != oldAddr || remap[0].New == oldAddr {
		t.Errorf("remap = %+v (old addr %#x)", remap, oldAddr)
	}
	if buf.rdmaOff == oldAddr {
		t.Error("buffer handle still holds the stale RDMA address")
	}

	// Buffer content survived the swap (via the local store).
	back := make([]byte, len(data))
	if err := buf.Read(back, 0); err != nil {
		t.Fatal(err)
	}
	for i := range back {
		if back[i] != data[i] {
			t.Fatalf("buffer content differs at %d after swap-in", i)
		}
	}
	// The counter state survived too: continuing to 60 picks up at 30.
	if got := runCount(t, pl, 60); got != sumTo(60) {
		t.Errorf("post-swap count = %d, want %d", got, sumTo(60))
	}
	cp.Destroy()
}

// TestRebindRemapOrderDeterministic pins the fix for a real defect the
// maporder analyzer caught: Rebind used to iterate the buffer map
// directly, so with several buffers the cmdBufferReregister wire
// requests — and the remap table, part of the restore transcript — came
// out in Go's randomized map order and differed run to run. The remap
// table must list buffers in ascending ID order, every buffer, exactly
// once.
func TestRebindRemapOrderDeterministic(t *testing.T) {
	RegisterBinary(counterBinary("app_remap_order"))
	e := newEnv(t, 1)
	cp := e.create(t, "app_remap_order", 1)
	const nbufs = 6
	bufs := make([]*Buffer, nbufs)
	for i := range bufs {
		b, err := cp.CreateBuffer(64 * 1024)
		if err != nil {
			t.Fatal(err)
		}
		bufs[i] = b
	}

	dir := "/snap/remap_order"
	snapPause(t, cp, dir)
	snapCapture(t, cp, dir, true)
	remap := snapRestore(t, cp, 1, dir)
	snapResume(t, cp)

	if len(remap) != nbufs {
		t.Fatalf("remap table has %d entries, want %d: %+v", len(remap), nbufs, remap)
	}
	for i := 1; i < len(remap); i++ {
		if remap[i-1].BufferID >= remap[i].BufferID {
			t.Fatalf("remap table not in ascending buffer-ID order: %+v", remap)
		}
	}
	// Each entry's new address is what the corresponding handle now holds.
	byID := map[int]RemapEntry{}
	for _, re := range remap {
		byID[re.BufferID] = re
	}
	for _, b := range bufs {
		re, ok := byID[b.ID()]
		if !ok {
			t.Fatalf("buffer %d missing from remap table %+v", b.ID(), remap)
		}
		if re.New != b.rdmaOff {
			t.Errorf("buffer %d: remap New %#x, handle holds %#x", b.ID(), re.New, b.rdmaOff)
		}
	}
	cp.Destroy()
}

func TestMigrationAcrossDevices(t *testing.T) {
	RegisterBinary(counterBinary("app_migrate"))
	e := newEnv(t, 2)
	cp := e.create(t, "app_migrate", 1)
	pl, _ := cp.CreatePipeline()
	runCount(t, pl, 25)

	dir := "/snap/migrate"
	snapPause(t, cp, dir)
	snapCapture(t, cp, dir, true)
	remap := snapRestore(t, cp, 2, dir) // restore on the OTHER card
	_ = remap
	snapResume(t, cp)

	if cp.DeviceNode() != 2 {
		t.Fatalf("process on %v, want mic1", cp.DeviceNode())
	}
	if got := runCount(t, pl, 50); got != sumTo(50) {
		t.Errorf("post-migration count = %d, want %d", got, sumTo(50))
	}
	// The new card hosts the process; the old one is free of it.
	if _, err := DaemonAt(e.plat, 2).Lookup(cp.ID()); err != nil {
		t.Errorf("process not registered on target daemon: %v", err)
	}
	cp.Destroy()
}

func TestSnapshotMidOffloadFunction(t *testing.T) {
	// The hard case (Section 4.1, case 4): the snapshot lands while an
	// offload function is executing. The function's progress is in the
	// control and data regions; after restore it re-enters, finishes the
	// remaining steps, and the host's blocked RunFunction gets the right
	// answer.
	var firstRun atomic.Bool
	firstRun.Store(true)
	reached := make(chan struct{})
	release := make(chan struct{})

	bin := NewBinary("app_midfn")
	bin.AddRegion("state", proc.RegionHeap, 1<<16, 0)
	bin.Register("count", func(ctx *RunContext, args []byte) ([]byte, error) {
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
				binary.BigEndian.PutUint64(buf[8:], sum+i)
				st.WriteAt(buf, 0)
			}); err != nil {
				return nil, err
			}
			if i+1 == n/2 && firstRun.CompareAndSwap(true, false) {
				close(reached)
				<-release
			}
		}
		out := make([]byte, 8)
		st.ReadAt(buf, 0)
		copy(out, buf[8:])
		return out, nil
	})
	RegisterBinary(bin)

	e := newEnv(t, 1)
	cp := e.create(t, "app_midfn", 1)
	pl, _ := cp.CreatePipeline()

	const n = 1000
	args := make([]byte, 8)
	binary.BigEndian.PutUint64(args, n)
	h, err := pl.RunFunctionAsync("count", args)
	if err != nil {
		t.Fatal(err)
	}
	<-reached // the function is mid-flight at iteration n/2

	dir := "/snap/midfn"
	go func() { close(release) }() // let it keep stepping; pause races it
	snapPause(t, cp, dir)
	snapCapture(t, cp, dir, true)

	// At this point the host-side waiter is still pending.
	snapRestore(t, cp, 1, dir)
	snapResume(t, cp)

	out, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint64(out); got != sumTo(n) {
		t.Errorf("mid-function snapshot result = %d, want %d", got, sumTo(n))
	}
	cp.Destroy()
}

func TestControlRegionClearWhenResultArrives(t *testing.T) {
	// The server thread clears the control record before it sends the
	// result, so the host never holds a result while the card still reads
	// the function as active (a pre-copy round cuts the dirty set right
	// after a call returns, and must see the clear in this round).
	RegisterBinary(counterBinary("app_ctrl_clear"))
	e := newEnv(t, 1)
	cp := e.create(t, "app_ctrl_clear", 1)
	pl, err := cp.CreatePipeline()
	if err != nil {
		t.Fatal(err)
	}
	op, err := DaemonAt(e.plat, 1).Lookup(cp.ID())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		runCount(t, pl, 2)
		if st := op.readCtrl(); st.Active {
			t.Fatalf("call %d: control region reads active (seq %d) after RunFunction returned", i, st.Seq)
		}
	}
}

func TestHookCostsOnlyWhenEnabled(t *testing.T) {
	RegisterBinary(counterBinary("app_hooks"))
	run := func(noSnapify bool) simclock.Duration {
		plat, err := platform.New(platform.Config{Server: phi.ServerConfig{Devices: 1}, NoSnapify: noSnapify})
		if err != nil {
			t.Fatal(err)
		}
		if err := StartDaemons(plat); err != nil {
			t.Fatal(err)
		}
		defer StopDaemons(plat)
		host := plat.Procs.Spawn("host_proc", simnet.HostNode, plat.Host().Mem)
		tl := simclock.NewTimeline()
		cp, err := CreateProcess(plat, host, tl, 1, "app_hooks")
		if err != nil {
			t.Fatal(err)
		}
		pl, _ := cp.CreatePipeline()
		for i := 0; i < 20; i++ {
			args := make([]byte, 8)
			binary.BigEndian.PutUint64(args, 10)
			// Reset progress by running forward; counter keeps going, so
			// just issue calls — cost is what we measure.
			pl.RunFunction("count", args) //nolint:errcheck
		}
		cp.Destroy()
		return tl.Now()
	}
	with := run(false)
	without := run(true)
	if with <= without {
		t.Errorf("snapify hooks must add runtime: with=%v without=%v", with, without)
	}
	overhead := float64(with-without) / float64(without)
	if overhead > 0.05 {
		t.Errorf("hook overhead %.2f%% exceeds the paper's 5%% bound", overhead*100)
	}
}

func TestDuplicateDaemonStartRejected(t *testing.T) {
	e := newEnv(t, 1)
	if err := StartDaemons(e.plat); err == nil {
		t.Fatal("duplicate StartDaemons must fail")
	}
	_ = fmt.Sprint() // keep fmt imported
}

func TestCommandChannelsServeTraffic(t *testing.T) {
	RegisterBinary(counterBinary("app_channels"))
	e := newEnv(t, 1)
	cp := e.create(t, "app_channels", 1)
	defer cp.Destroy()

	// All three client-server channels answer pings concurrently.
	var wg sync.WaitGroup
	for _, name := range CommandChannelNames {
		c := cp.Command(name)
		if c == nil {
			t.Fatalf("missing channel %q", name)
		}
		for i := 0; i < 10; i++ {
			wg.Add(1)
			go func(c *ClientChan) {
				defer wg.Done()
				if reply, err := c.Request([]byte{cmdPing}); err != nil || len(reply) == 0 || reply[0] != 0 {
					t.Errorf("ping on %s: reply %v, err %v", c.name, reply, err)
				}
			}(c)
		}
	}
	wg.Wait()

	// After traffic, a pause still drains everything.
	snapPause(t, cp, "/snap/channels")
	if n := cp.QueuedBytesAll(); n != 0 {
		t.Errorf("queued bytes after ping traffic: %d", n)
	}
	snapResume(t, cp)
	if reply, err := cp.Command("log").Request([]byte{cmdPing}); err != nil || len(reply) == 0 || reply[0] != 0 {
		t.Errorf("ping after resume: reply %v, err %v", reply, err)
	}
}

// crashed reports whether the daemon marked offload process id as crashed.
func crashed(d *Daemon, id int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed[id]
}
