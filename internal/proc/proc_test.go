package proc

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snapify/internal/blob"
	"snapify/internal/phi"
	"snapify/internal/simclock"
)

func TestRegionAllocationAgainstBudget(t *testing.T) {
	bud := phi.NewMemBudget(1000)
	p := New("offload_proc", 1, 1, bud)
	r, err := p.AddRegion("heap", RegionHeap, 600, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 600 || r.Kind() != RegionHeap || r.Name() != "heap" {
		t.Errorf("region shape wrong: %d %v %q", r.Size(), r.Kind(), r.Name())
	}
	if _, err := p.AddRegion("heap2", RegionHeap, 600, 2); err == nil {
		t.Fatal("over-budget allocation must fail")
	}
	if _, err := p.AddRegion("heap", RegionHeap, 1, 3); err == nil {
		t.Fatal("duplicate region name must fail")
	}
	if err := p.RemoveRegion("heap"); err != nil {
		t.Fatal(err)
	}
	if bud.Used() != 0 {
		t.Errorf("budget used = %d after region removal", bud.Used())
	}
	if err := p.RemoveRegion("heap"); err == nil {
		t.Error("removing missing region must not succeed")
	}
}

func TestTerminateReleasesMemory(t *testing.T) {
	bud := phi.NewMemBudget(1000)
	p := New("offload_proc", 1, 1, bud)
	p.AddRegion("a", RegionHeap, 300, 0)
	p.AddRegion("b", RegionData, 200, 0)
	if used := bud.Used(); used != 500 {
		t.Errorf("budget holds %d bytes, want 500", used)
	}
	p.Terminate()
	if bud.Used() != 0 {
		t.Errorf("budget used = %d after terminate", bud.Used())
	}
	if p.State() != Terminated {
		t.Error("state not terminated")
	}
	if _, err := p.AddRegion("c", RegionHeap, 10, 0); !errors.Is(err, ErrTerminated) {
		t.Errorf("AddRegion after terminate: %v", err)
	}
	p.Terminate() // idempotent
}

func TestRegionsOrderedAndLookup(t *testing.T) {
	p := New("p", 1, 0, phi.NewMemBudget(1<<40))
	p.AddRegion("data", RegionData, 10, 0)
	p.AddRegion("heap", RegionHeap, 10, 0)
	p.AddRegion("stack0", RegionStack, 10, 0)
	rs := p.Regions()
	if len(rs) != 3 || rs[0].Name() != "data" || rs[2].Name() != "stack0" {
		t.Errorf("region order wrong: %v", rs)
	}
	if p.Region("heap") == nil || p.Region("nope") != nil {
		t.Error("Region lookup wrong")
	}
}

func TestExitWatchersAndExpectedExit(t *testing.T) {
	p := New("p", 1, 1, phi.NewMemBudget(1<<40))
	var crashSeen, expectedSeen atomic.Bool
	p.OnExit(func(_ *Process, expected bool) {
		if expected {
			expectedSeen.Store(true)
		} else {
			crashSeen.Store(true)
		}
	})
	p.AnnounceExit()
	p.Terminate()
	<-p.exitCh
	if crashSeen.Load() {
		t.Error("announced exit reported as crash")
	}
	if !expectedSeen.Load() {
		t.Error("watcher not called")
	}

	// Watcher registered after exit still fires.
	done := make(chan bool, 1)
	p.OnExit(func(_ *Process, expected bool) { done <- expected })
	select {
	case exp := <-done:
		if !exp {
			t.Error("late watcher saw unexpected exit")
		}
	case <-time.After(time.Second):
		t.Fatal("late watcher never fired")
	}
}

func TestUnexpectedExitIsCrash(t *testing.T) {
	p := New("p", 1, 1, phi.NewMemBudget(1<<40))
	got := make(chan bool, 1)
	p.OnExit(func(_ *Process, expected bool) { got <- expected })
	p.Terminate()
	if exp := <-got; exp {
		t.Error("unannounced exit reported as expected")
	}
}

func TestSignals(t *testing.T) {
	p := New("p", 1, 0, phi.NewMemBudget(1<<40))
	fired := make(chan struct{}, 1)
	p.HandleSignal(SigSnapify, func() { fired <- struct{}{} })
	if err := p.Deliver(SigSnapify); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("handler never ran")
	}
	if err := p.Deliver(SigCheckpoint); err == nil {
		t.Error("unhandled signal must error")
	}
	p.HandleSignal(SigSnapify, nil)
	if err := p.Deliver(SigSnapify); err == nil {
		t.Error("removed handler must error")
	}
	p.Terminate()
	if err := p.Deliver(SigSnapify); !errors.Is(err, ErrTerminated) {
		t.Errorf("signal to dead process: %v", err)
	}
}

func TestThreadTracking(t *testing.T) {
	p := New("p", 1, 0, phi.NewMemBudget(1<<40))
	release := make(chan struct{})
	for i := 0; i < 3; i++ {
		if err := p.SpawnThread("worker", func() { <-release }); err != nil {
			t.Fatal(err)
		}
	}
	if p.ThreadCount() != 3 {
		t.Errorf("ThreadCount = %d", p.ThreadCount())
	}
	if names := p.ThreadNames(); len(names) != 3 || names[0] != "worker" {
		t.Errorf("ThreadNames = %v", names)
	}
	close(release)
	waitFor(t, func() bool { return p.ThreadCount() == 0 })
	p.Terminate()
	if err := p.SpawnThread("late", func() {}); !errors.Is(err, ErrTerminated) {
		t.Errorf("spawn after terminate: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

func TestStepGateDrainsInFlightSteps(t *testing.T) {
	p := New("p", 1, 1, phi.NewMemBudget(1<<40))
	inStep := make(chan struct{})
	finish := make(chan struct{})
	go func() {
		p.BeginStep()
		inStep <- struct{}{}
		<-finish
		p.EndStep()
	}()
	<-inStep

	paused := make(chan struct{})
	go func() {
		p.PauseSteps()
		close(paused)
	}()
	select {
	case <-paused:
		t.Fatal("PauseSteps returned while a step was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(finish)
	select {
	case <-paused:
	case <-time.After(time.Second):
		t.Fatal("PauseSteps never completed")
	}
	if p.StepActive() != 0 || !p.StepsPaused() {
		t.Errorf("gate state: active=%d paused=%v", p.StepActive(), p.StepsPaused())
	}

	// New steps block until resume.
	entered := make(chan struct{})
	go func() {
		p.BeginStep()
		close(entered)
		p.EndStep()
	}()
	select {
	case <-entered:
		t.Fatal("step entered while paused")
	case <-time.After(20 * time.Millisecond):
	}
	p.ResumeSteps()
	select {
	case <-entered:
	case <-time.After(time.Second):
		t.Fatal("step never resumed")
	}
}

func TestStepGateShutdownUnblocks(t *testing.T) {
	p := New("p", 1, 1, phi.NewMemBudget(1<<40))
	p.PauseSteps()
	errc := make(chan error, 1)
	go func() { errc <- p.BeginStep() }()
	p.Terminate()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrGateShutdown) {
			t.Errorf("BeginStep after shutdown: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("BeginStep never unblocked")
	}
}

func TestPipeSendRecv(t *testing.T) {
	a, b := NewPipe(simclock.Default())
	go func() {
		a.Send([]byte("pause"))
		a.Send([]byte("capture"))
	}()
	m1, d, err := b.Recv()
	if err != nil || string(m1) != "pause" || d <= 0 {
		t.Fatalf("recv 1: %q %v %v", m1, d, err)
	}
	m2, _, _ := b.Recv()
	if string(m2) != "capture" {
		t.Fatalf("recv 2: %q", m2)
	}
	// Bidirectional.
	b.Send([]byte("ack"))
	m3, _, _ := a.Recv()
	if string(m3) != "ack" {
		t.Fatalf("reverse recv: %q", m3)
	}
}

func TestPipeTryRecvAndClose(t *testing.T) {
	a, b := NewPipe(simclock.Default())
	a.Send([]byte("x"))
	if m, _, err := b.Recv(); err != nil || string(m) != "x" {
		t.Fatalf("recv: %q %v", m, err)
	}
	a.Send([]byte("queued"))
	a.Close()
	// Queued message drains, then closed.
	if m, _, err := b.Recv(); err != nil || string(m) != "queued" {
		t.Fatalf("drain after close: %q %v", m, err)
	}
	if _, _, err := b.Recv(); !errors.Is(err, ErrPipeClosed) {
		t.Errorf("recv on closed: %v", err)
	}
	if _, err := b.Send([]byte("y")); !errors.Is(err, ErrPipeClosed) {
		t.Errorf("send on closed: %v", err)
	}
}

func TestPipeCloseUnblocksReceiver(t *testing.T) {
	a, b := NewPipe(simclock.Default())
	errc := make(chan error, 1)
	go func() {
		_, _, err := b.Recv()
		errc <- err
	}()
	a.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrPipeClosed) {
			t.Errorf("blocked recv: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("recv never unblocked")
	}
}

func TestTableSpawnLookup(t *testing.T) {
	tab := NewTable()
	p1 := tab.Spawn("host_proc", 0, phi.NewMemBudget(1<<40))
	p2 := tab.Spawn("offload_proc", 1, phi.NewMemBudget(1<<40))
	if p1.PID() == p2.PID() {
		t.Fatal("duplicate PIDs")
	}
	got, err := tab.Lookup(p1.PID())
	if err != nil || got != p1 {
		t.Fatalf("Lookup: %v %v", got, err)
	}
	if tab.Count() != 2 {
		t.Errorf("Count = %d", tab.Count())
	}
	p1.Terminate()
	waitFor(t, func() bool { return tab.Count() == 1 })
	if _, err := tab.Lookup(p1.PID()); err == nil {
		t.Error("dead process still resolvable")
	}
}

func TestRegionSnapshotRestoreThroughProcess(t *testing.T) {
	p := New("p", 1, 1, phi.NewMemBudget(1<<40))
	r, _ := p.AddRegion("heap", RegionHeap, 1<<16, 42)
	r.WriteAt([]byte("application state"), 1000)
	snap := r.Snapshot()

	q := New("q", 2, 2, phi.NewMemBudget(1<<40))
	r2, _ := q.AddRegion("heap", RegionHeap, 1<<16, 42)
	r2.WriteBlob(0, snap)
	if !blob.Equal(r2.Snapshot(), snap) {
		t.Error("restored region content differs")
	}
}

func TestRegionConcurrentAccess(t *testing.T) {
	p := New("p", 1, 1, phi.NewMemBudget(1<<40))
	r, _ := p.AddRegion("heap", RegionHeap, 4096, 0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, 16)
			for j := 0; j < 100; j++ {
				r.WriteAt(buf, int64(i*256))
				r.ReadAt(buf, int64(i*256))
				r.SnapshotRange(0, 4096)
			}
		}(i)
	}
	wg.Wait()
}

func TestPinTracking(t *testing.T) {
	p := New("p", 1, 1, phi.NewMemBudget(1<<40))
	r, _ := p.AddRegion("buf", RegionLocalStore, 100, 0)
	if r.Pinned() {
		t.Error("fresh region pinned")
	}
	r.Pin()
	if !r.Pinned() {
		t.Error("Pin did not stick")
	}
}
