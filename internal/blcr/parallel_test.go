package blcr

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"

	"snapify/internal/blob"
	"snapify/internal/obs"
	"snapify/internal/phi"
	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/stream"
)

// stripedSink returns a ShardSinkFactory assembling shards into one file
// on the test host FS.
func (e *testEnv) stripedSink(t *testing.T, path string) ShardSinkFactory {
	t.Helper()
	var set *StripeSet
	return func(off, n, total int64) (stream.Sink, error) {
		if set == nil {
			s, err := NewStripeSet(e.fs, path, total)
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
		return NewRangeSource(e.fs, path, off, n)
	}
}

// makeBigProc builds a process whose regions are large enough to stripe.
func makeBigProc(t *testing.T) *proc.Process {
	t.Helper()
	p := proc.New("offload_big", 4242, 1, phi.NewMemBudget(1<<40))
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
		return proc.New(img.Name, 777, 2, phi.NewMemBudget(1<<40)), nil
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

// shardedRestart keeps, per worker count, the Duration of the first
// striped restore this test process ran; it outlives one run of the test,
// so -count=N compares N runs.
var shardedRestart = map[int]simclock.Duration{}

// TestParallelRestartOneShardPerStream: a striped restore cuts the page
// runs into at most one shard per worker, each shard one pipeline whose
// span carries its bytes, and prices the restore as the scan plus the
// slowest shard — so at one worker every page run is priced, the 9 MiB
// stack's included, in one sequential pipeline. The price is a function
// of the file and the worker count, never of the order the workers ran
// in (scripts/verify.sh: -count=50 at GOMAXPROCS 1 and 8).
func TestParallelRestartOneShardPerStream(t *testing.T) {
	e := newEnv()
	p := makeBigProc(t)
	var pageBytes int64
	for _, r := range p.Regions() {
		if r.Kind() != proc.RegionLocalStore {
			pageBytes += r.Size()
		}
	}
	p.PauseSteps()
	if _, err := e.cr.CheckpointFrozen(p, e.sink(t, "ctx")); err != nil {
		t.Fatal(err)
	}
	p.ResumeSteps()
	ctx, _, err := e.fs.ReadFile("ctx")
	if err != nil {
		t.Fatal(err)
	}
	var prev simclock.Duration
	for _, workers := range []int{1, 2, 3} {
		tr := obs.NewTracer()
		scope := tr.NewScope()
		restored, st, err := e.cr.WithSpans(tr, scope, 0).RestartParallel(ctx.Len(), workers, 0, e.rangeSource("ctx"), freshSpawn)
		if err != nil {
			t.Fatal(err)
		}
		spans := tr.ScopeSpans(scope)
		if len(spans) == 0 || len(spans) > workers {
			t.Fatalf("workers %d: %d restore_stream spans, want 1..%d", workers, len(spans), workers)
		}
		var carried int64
		var longest simclock.Duration
		for _, sp := range spans {
			if sp.Name != "restore_stream" {
				t.Fatalf("workers %d: span %q, want restore_stream", workers, sp.Name)
			}
			if sp.Start != spans[0].Start {
				t.Errorf("workers %d: streams start at %v and %v, want all after the one scan", workers, spans[0].Start, sp.Start)
			}
			if floor := e.cr.copyStage(restored.Node().IsHost(), sp.Args["bytes"]); sp.Dur < floor {
				t.Errorf("workers %d: stream %d carries %d bytes in %v, less than copying them takes (%v)",
					workers, sp.Args["stream"], sp.Args["bytes"], sp.Dur, floor)
			}
			carried += sp.Args["bytes"]
			longest = max(longest, sp.Dur)
		}
		if carried != pageBytes {
			t.Errorf("workers %d: streams carry %d bytes, the page runs hold %d", workers, carried, pageBytes)
		}
		if want := spans[0].Start + longest; st.Duration != want {
			t.Errorf("workers %d: Duration %v, want the scan %v plus the slowest stream %v = %v",
				workers, st.Duration, spans[0].Start, longest, want)
		}
		t.Logf("workers %d: %d streams, Duration %v (scan %v)", workers, len(spans), st.Duration, spans[0].Start)
		if first, ok := shardedRestart[workers]; !ok {
			shardedRestart[workers] = st.Duration
		} else if st.Duration != first {
			t.Errorf("workers %d: Duration %v, an earlier identical restore %v", workers, st.Duration, first)
		}
		if workers > 1 && st.Duration >= prev {
			t.Errorf("workers %d: Duration %v, not below %d workers' %v", workers, st.Duration, workers-1, prev)
		}
		prev = st.Duration
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
	if len(p.Region("heap").DirtyRanges()) == 0 {
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
			return proc.New(img.Name, 778, 2, phi.NewMemBudget(1<<40)), nil
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

var errFlaky = errors.New("injected range fault")

// flakyRanges opens ranges of a file on the test host FS and fails the
// opens and Nexts whose ordinal — counted together, from 1 — is in fail.
// It records where every open started.
type flakyRanges struct {
	e     *testEnv
	path  string
	fail  map[int]bool
	calls int
	opens []int64
}

func (f *flakyRanges) faults() bool {
	f.calls++
	return f.fail[f.calls]
}

func (f *flakyRanges) open(off, n int64) (stream.Source, error) {
	f.opens = append(f.opens, off)
	if f.faults() {
		return nil, errFlaky
	}
	src, err := f.e.rangeSource(f.path)(off, n)
	return flakySource{src, f}, err
}

type flakySource struct {
	stream.Source
	f *flakyRanges
}

func (s flakySource) Next(max int64) (blob.Blob, stream.Cost, error) {
	if s.f.faults() {
		return blob.Blob{}, stream.Cost{}, errFlaky
	}
	return s.Source.Next(max)
}

// TestResumableReader: the one read-side retry reads exactly its range
// whatever fails, reopens at the offset it failed at, charges one backoff
// per reopen, returns the original error once its budget is spent, and a
// metadata scan's windows all draw on one budget.
func TestResumableReader(t *testing.T) {
	e := newEnv()
	content := make([]byte, 40_000)
	for i := range content {
		content[i] = byte(i * 7)
	}
	if _, err := e.fs.WriteFile("ranged", blob.FromBytes(content)); err != nil {
		t.Fatal(err)
	}
	read := func(next func() (blob.Blob, stream.Cost, error)) ([]byte, error) {
		var got []byte
		for {
			b, _, err := next()
			got = append(got, b.Bytes()...)
			if err == io.EOF {
				return got, nil
			}
			if err != nil {
				return got, err
			}
		}
	}

	// Open 1 fails, open 2 serves one piece, Next 4 fails: three opens, at
	// the front, again at the front, and at the end of the first piece.
	const from, to = 1000, 30_000
	f := &flakyRanges{e: e, path: "ranged", fail: map[int]bool{1: true, 4: true}}
	acc := simclock.NewPipelineAccum()
	cr := e.cr.WithRetry(RetryPolicy{MaxAttempts: 3})
	src := &resumable{open: f.open, off: from, end: to, retry: cr.retries(acc)}
	got, err := read(func() (blob.Blob, stream.Cost, error) { return src.Next(4096) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content[from:to]) {
		t.Errorf("resumed range delivered %d bytes differing from the range's %d", len(got), to-from)
	}
	if want := []int64{from, from, from + 4096}; !slices.Equal(f.opens, want) {
		t.Errorf("opens at %v, want %v: a reopen starts where the read failed", f.opens, want)
	}
	if want := Backoff(1) + Backoff(2); acc.Total() != want {
		t.Errorf("charged %v for two reopens, want %v", acc.Total(), want)
	}

	// A third fault with two retries left is the last straw.
	f = &flakyRanges{e: e, path: "ranged", fail: map[int]bool{2: true, 4: true, 6: true}}
	acc = simclock.NewPipelineAccum()
	src = &resumable{open: f.open, off: from, end: to, retry: cr.retries(acc)}
	if _, err := read(func() (blob.Blob, stream.Cost, error) { return src.Next(4096) }); err != errFlaky {
		t.Errorf("out of budget: err = %v, want the original %v", err, errFlaky)
	}
	if want := Backoff(1) + Backoff(2); acc.Total() != want {
		t.Errorf("charged %v before giving up, want %v", acc.Total(), want)
	}

	// A scan opens a window per scanWindow bytes. One fault in its first
	// window and one in its second spend one budget: two retries see the
	// file through, one does not.
	for _, attempts := range []int{3, 2} {
		f = &flakyRanges{e: e, path: "ranged", fail: map[int]bool{2: true, 5: true}}
		acc = simclock.NewPipelineAccum()
		budget := e.cr.WithRetry(RetryPolicy{MaxAttempts: attempts}).retries(acc)
		w := &rangeWindows{size: int64(len(content)), win: resumable{open: f.open, retry: budget}}
		got, err := read(w.next)
		switch {
		case attempts == 3 && (err != nil || !bytes.Equal(got, content)):
			t.Errorf("scan with two retries: %d bytes, err %v; want the whole file", len(got), err)
		case attempts == 2 && err != errFlaky:
			t.Errorf("scan with one retry for two faults in two windows: err = %v, want %v", err, errFlaky)
		}
		if f.opens[len(f.opens)-1] < scanWindow {
			t.Errorf("attempts %d: opens at %v, want the second fault past the first window", attempts, f.opens)
		}
	}
}
