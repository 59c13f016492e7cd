package blcr

import (
	"testing"

	"snapify/internal/blob"
	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/stream"
	"snapify/internal/vfs"
)

// stripedSink returns a ShardSinkFactory assembling shards into one file
// on the test host FS.
func (e *testEnv) stripedSink(t *testing.T, path string) ShardSinkFactory {
	t.Helper()
	var set *StripeSet
	return func(off, n, total int64) (stream.Sink, error) {
		if set == nil {
			s, err := NewStripeSet(vfs.Host(e.fs).(vfs.SparseFS), path, total)
			if err != nil {
				return nil, err
			}
			set = s
		}
		return set.Sink(off, n)
	}
}

func (e *testEnv) rangeSource(path string) RangeSourceFactory {
	return func(off, n int64) (stream.Source, error) {
		return NewRangeSource(vfs.Host(e.fs).(vfs.RangeFS), path, off, n)
	}
}

// makeBigProc builds a process whose regions are large enough to stripe.
func makeBigProc(t *testing.T) *proc.Process {
	t.Helper()
	p := proc.New("offload_big", 4242, 1, nil)
	data, err := p.AddRegion("data", proc.RegionData, 8192, 11)
	if err != nil {
		t.Fatal(err)
	}
	data.WriteAt([]byte("globals"), 0)
	heap, _ := p.AddRegion("heap", proc.RegionHeap, 64*simclock.MiB, 13)
	heap.WriteAt([]byte("hot pages"), 12345)
	heap.WriteAt([]byte("cold pages"), 48*simclock.MiB)
	stack, _ := p.AddRegion("stack", proc.RegionStack, 9*simclock.MiB, 19)
	stack.WriteAt([]byte("frames"), 100)
	ls, _ := p.AddRegion("coibuf0", proc.RegionLocalStore, 16*simclock.MiB, 17)
	ls.Pin()
	return p
}

func TestParallelCheckpointByteIdenticalToSerial(t *testing.T) {
	e := newEnv()
	p := makeBigProc(t)
	p.PauseSteps()
	defer p.ResumeSteps()

	sst, err := e.cr.CheckpointFrozen(p, e.sink(t, "serial"))
	if err != nil {
		t.Fatal(err)
	}
	pst, err := e.cr.CheckpointFrozenParallel(p, 4, 0, e.stripedSink(t, "parallel"))
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := e.fs.ReadFile("serial")
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := e.fs.ReadFile("parallel")
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("parallel context is %d bytes, serial %d", b.Len(), a.Len())
	}
	if !blob.Equal(a, b) {
		t.Error("parallel context differs from serial context byte-for-byte")
	}
	if pst.Bytes != sst.Bytes || pst.MetaWrites != sst.MetaWrites || pst.Regions != sst.Regions {
		t.Errorf("parallel stats %+v != serial stats %+v", pst, sst)
	}
	// Synthetic background must survive striping without materializing.
	if b.LiteralBytes() > simclock.MiB {
		t.Errorf("striped context holds %d literal bytes", b.LiteralBytes())
	}
}

func TestParallelCheckpointSingleWorkerDegenerate(t *testing.T) {
	e := newEnv()
	p := makeBigProc(t)
	p.PauseSteps()
	defer p.ResumeSteps()
	if _, err := e.cr.CheckpointFrozen(p, e.sink(t, "serial")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.cr.CheckpointFrozenParallel(p, 1, 0, e.stripedSink(t, "one")); err != nil {
		t.Fatal(err)
	}
	a, _, _ := e.fs.ReadFile("serial")
	b, _, err := e.fs.ReadFile("one")
	if err != nil {
		t.Fatal(err)
	}
	if !blob.Equal(a, b) {
		t.Error("single-worker parallel context differs from serial")
	}
}

func TestParallelRestartRestoresIdenticalState(t *testing.T) {
	e := newEnv()
	p := makeBigProc(t)
	want := snapshotAll(p)
	p.PauseSteps()
	if _, err := e.cr.CheckpointFrozenParallel(p, 4, 0, e.stripedSink(t, "ctx")); err != nil {
		t.Fatal(err)
	}
	p.ResumeSteps()

	ctx, _, err := e.fs.ReadFile("ctx")
	if err != nil {
		t.Fatal(err)
	}
	restored, st, err := e.cr.RestartParallel(ctx.Len(), 4, 0, e.rangeSource("ctx"), func(img *Image) (*proc.Process, error) {
		if img.Name != "offload_big" {
			t.Errorf("image name = %q", img.Name)
		}
		return proc.New(img.Name, 777, 2, nil), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Regions != 4 || st.Duration <= 0 {
		t.Errorf("restart stats: %+v", st)
	}
	got := snapshotAll(restored)
	for name, b := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("region %q missing after parallel restart", name)
		}
		if name == "coibuf0" {
			if g.Len() != b.Len() {
				t.Errorf("local-store region size %d, want %d", g.Len(), b.Len())
			}
			continue
		}
		if !blob.Equal(g, b) {
			t.Errorf("region %q content differs after parallel restart", name)
		}
	}
	if !restored.Region("coibuf0").Pinned() {
		t.Error("pinned flag lost through parallel restart")
	}
	if !restored.StepsPaused() {
		t.Error("parallel-restored process not frozen")
	}
}

func TestParallelDeltaByteIdenticalToSerial(t *testing.T) {
	e := newEnv()
	p := makeBigProc(t)
	p.PauseSteps()
	defer p.ResumeSteps()
	if _, err := e.cr.CheckpointFrozen(p, e.sink(t, "base")); err != nil {
		t.Fatal(err)
	}
	markClean(p)
	p.Region("heap").WriteAt([]byte("delta pages"), 10*simclock.MiB)
	p.Region("stack").WriteAt([]byte("new frame"), 2048)

	// The frozen writers leave the dirty set alone (the caller marks clean
	// once the capture is verified), so both lay out the same delta.
	if _, err := e.cr.CheckpointDeltaFrozen(p, e.sink(t, "d_serial")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.cr.CheckpointDeltaFrozenParallel(p, 4, 0, e.stripedSink(t, "d_parallel")); err != nil {
		t.Fatal(err)
	}
	if p.Region("heap").DirtySinceClean() == 0 {
		t.Error("a frozen delta writer marked the regions clean")
	}
	a, _, err := e.fs.ReadFile("d_serial")
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := e.fs.ReadFile("d_parallel")
	if err != nil {
		t.Fatal(err)
	}
	if !blob.Equal(a, b) {
		t.Error("parallel delta context differs from serial delta")
	}
}

func TestRestartChainParallel(t *testing.T) {
	e := newEnv()
	p := makeBigProc(t)
	p.PauseSteps()
	if _, err := e.cr.CheckpointFrozenParallel(p, 3, 0, e.stripedSink(t, "base")); err != nil {
		t.Fatal(err)
	}
	markClean(p)
	p.Region("heap").WriteAt([]byte("post-base state"), 30*simclock.MiB)
	if _, err := e.cr.CheckpointDeltaFrozenParallel(p, 3, 0, e.stripedSink(t, "delta0")); err != nil {
		t.Fatal(err)
	}
	p.ResumeSteps()
	want := snapshotAll(p)

	base, _, err := e.fs.ReadFile("base")
	if err != nil {
		t.Fatal(err)
	}
	restored, st, err := e.cr.RestartChainParallel(base.Len(), 3, 0, e.rangeSource("base"),
		[]stream.Source{e.source(t, "delta0")},
		func(img *Image) (*proc.Process, error) {
			return proc.New(img.Name, 778, 2, nil), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if st.Duration <= 0 {
		t.Errorf("chain stats: %+v", st)
	}
	got := snapshotAll(restored)
	for _, name := range []string{"data", "heap", "stack"} {
		if !blob.Equal(got[name], want[name]) {
			t.Errorf("region %q differs after parallel chain restore", name)
		}
	}
}
