package blcr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"snapify/internal/blob"
	"snapify/internal/phi"
	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/stream"
	"snapify/internal/vfs"
)

// testEnv bundles a checkpointer with a host FS for sink/source plumbing.
type testEnv struct {
	cr *Checkpointer
	fs *vfs.FS
}

func newEnv() *testEnv {
	m := simclock.Default()
	return &testEnv{cr: New(m), fs: vfs.NewHost(m)}
}

func (e *testEnv) sink(t *testing.T, path string) stream.Sink {
	t.Helper()
	s, err := stream.NewHostFSSink(e.fs, path)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func (e *testEnv) source(t *testing.T, path string) stream.Source {
	t.Helper()
	s, err := stream.NewHostFSSource(e.fs, path)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func (e *testEnv) size(t *testing.T, path string) int64 {
	t.Helper()
	n, err := e.fs.Size(path)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestCheckpointRestartRoundTrip(t *testing.T) {
	e := newEnv()
	p := makeProcReal(t, "offload_proc", 1)
	want := snapshotAll(p)

	st, err := e.cr.Checkpoint(p, e.sink(t, "ctx"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Regions != 3 || st.Bytes <= 0 || st.Duration <= 0 {
		t.Errorf("stats: %+v", st)
	}
	if st.MetaWrites < 5 {
		t.Errorf("MetaWrites = %d; BLCR must emit a small-write preamble", st.MetaWrites)
	}

	restored, rst, err := e.cr.Restart(e.source(t, "ctx"), func(img *Image) (*proc.Process, error) {
		if img.Name != "offload_proc" {
			t.Errorf("image name = %q", img.Name)
		}
		return proc.New(img.Name, 777, 2, phi.NewMemBudget(1<<40)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rst.Regions != 3 || rst.Duration <= 0 {
		t.Errorf("restart stats: %+v", rst)
	}
	got := snapshotAll(restored)
	for name, b := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("region %q missing after restart", name)
		}
		if name == "coibuf0" {
			// Local-store content is external (saved by Snapify's pause,
			// not by BLCR): the restored region exists at the right size
			// with untouched background, awaiting the local-store reload.
			if g.Len() != b.Len() {
				t.Errorf("local-store region size %d, want %d", g.Len(), b.Len())
			}
			if restored.Region(name).DirtyBytes() != 0 {
				t.Error("local-store content should not come from the context file")
			}
			continue
		}
		if !blob.Equal(g, b) {
			t.Errorf("region %q content differs after restart", name)
		}
	}
	// Pinned flag survives.
	if !restored.Region("coibuf0").Pinned() {
		t.Error("pinned flag lost")
	}
	// The restored process is frozen until the caller resumes it.
	if !restored.StepsPaused() {
		t.Error("restored process not frozen")
	}
	restored.ResumeSteps()
	if restored.StepsPaused() {
		t.Error("resume did not unfreeze")
	}
}

// makeProcReal builds the proc on a real simnet node id.
func makeProcReal(t *testing.T, name string, node int) *proc.Process {
	t.Helper()
	p := proc.New(name, 4242, simnet.NodeID(node), phi.NewMemBudget(1<<40))
	data, err := p.AddRegion("data", proc.RegionData, 8192, 11)
	if err != nil {
		t.Fatal(err)
	}
	data.WriteAt([]byte("initialized globals"), 0)
	heap, _ := p.AddRegion("heap", proc.RegionHeap, 1<<20, 13)
	heap.WriteAt([]byte("malloc'd state"), 4096)
	ls, _ := p.AddRegion("coibuf0", proc.RegionLocalStore, 1<<16, 17)
	ls.Pin()
	ls.WriteAt([]byte("buffer contents"), 100)
	return p
}

func snapshotAll(p *proc.Process) map[string]blob.Blob {
	out := make(map[string]blob.Blob)
	for _, r := range p.Regions() {
		out[r.Name()] = r.Snapshot()
	}
	return out
}

func TestCheckpointQuiescesSteps(t *testing.T) {
	e := newEnv()
	p := makeProcReal(t, "p", 1)
	if _, err := e.cr.Checkpoint(p, e.sink(t, "ctx")); err != nil {
		t.Fatal(err)
	}
	// The gate must be fully released afterwards.
	if p.StepsPaused() {
		t.Error("process left paused after checkpoint")
	}
	if err := p.BeginStep(); err != nil {
		t.Fatal(err)
	}
	p.EndStep()
}

func TestCheckpointFrozenLeavesGateAlone(t *testing.T) {
	e := newEnv()
	p := makeProcReal(t, "p", 1)
	p.PauseSteps()
	if _, err := e.cr.CheckpointFrozen(p, e.sink(t, "ctx")); err != nil {
		t.Fatal(err)
	}
	if !p.StepsPaused() {
		t.Error("CheckpointFrozen disturbed the pause")
	}
	p.ResumeSteps()
}

func TestRestartEnforcesMemoryBudget(t *testing.T) {
	e := newEnv()
	p := makeProcReal(t, "big", 1)
	if _, err := e.cr.Checkpoint(p, e.sink(t, "ctx")); err != nil {
		t.Fatal(err)
	}
	// Restore target card has too little memory for the 1 MiB heap.
	bud := phi.NewMemBudget(64 * 1024)
	_, _, err := e.cr.Restart(e.source(t, "ctx"), func(img *Image) (*proc.Process, error) {
		return proc.New(img.Name, 1, 2, bud), nil
	})
	if err == nil {
		t.Fatal("restart into a full card must fail")
	}
	if !strings.Contains(err.Error(), "restoring region") {
		t.Errorf("unexpected error: %v", err)
	}
	if bud.Used() != 0 {
		t.Errorf("failed restart leaked %d bytes", bud.Used())
	}
}

// corruptInput is a defect a decoder must reject with *ErrBadContext
// rather than a panic, rendered in the full and in the delta format. The
// cases are also committed as fuzz seeds under testdata/fuzz/.
type corruptInput struct {
	name        string
	full, delta []byte
}

func corruptInputs() []corruptInput {
	rec := func(tag uint16, fill func(*recEncoder)) []byte {
		return (&recEncoder{}).record(tag, fill).Bytes()
	}
	// cut re-frames a record to its first n body bytes.
	cut := func(r []byte, n int) []byte {
		return append(binary.BigEndian.AppendUint64(nil, uint64(n)), r[8:8+n]...)
	}
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	header := rec(tagHeader, func(e *recEncoder) { e.str(magic); e.u64(formatVersion) })
	procMeta := rec(tagProcMeta, func(e *recEncoder) {
		e.str("p")
		e.u64(1)
		e.u64(1)
		e.u64(0) // threads
		e.u64(1) // regions
	})
	region := func(size uint64) []byte {
		return rec(tagRegionMeta, func(e *recEncoder) {
			e.str("heap")
			e.u64(uint64(proc.RegionHeap))
			e.u64(7)
			e.u64(size)
			e.u64(0)
			e.u64(0)
		})
	}
	count := func(tag uint16, n uint64) []byte { return rec(tag, func(e *recEncoder) { e.u64(n) }) }
	deltaHeader := rec(tagDeltaHeader, func(e *recEncoder) { e.str(magic); e.u64(formatVersion); e.u64(1) })
	deltaRegion := rec(tagDeltaRegion, func(e *recEncoder) { e.str("heap"); e.u64(1) })
	deltaRange := func(off, n uint64) []byte {
		return rec(tagDeltaRange, func(e *recEncoder) { e.u64(off); e.u64(n) })
	}
	garbage := []byte("this is not a context file at all, sorry")
	oneByte := []byte{0, 0, 0, 0, 0, 0, 0, 1, 0xB1}
	return []corruptInput{
		{"garbage", garbage, garbage},
		// Frame length 1 passes the frame check; the tag needs 2 bytes.
		{"one-byte record", oneByte, oneByte},
		{"string length past the record",
			rec(tagHeader, func(e *recEncoder) { e.u64(1 << 40) }),
			rec(tagDeltaHeader, func(e *recEncoder) { e.u64(1 << 40) })},
		// tag + name, then the frame ends 4 bytes into the next field.
		{"record cut mid-field",
			join(header, procMeta, cut(region(16), 2+8+4+4)),
			join(deltaHeader, cut(deltaRegion, 2+8+4+4))},
		{"trailer region count mismatch",
			join(header, procMeta, region(16), make([]byte, 16), count(tagTrailer, 2)),
			join(deltaHeader, deltaRegion, deltaRange(0, 4), make([]byte, 4), count(tagDeltaTrailer, 2))},
		{"size beyond int64",
			join(header, procMeta, region(1<<63), count(tagTrailer, 1)),
			join(deltaHeader, deltaRegion, deltaRange(1<<63, 4), make([]byte, 4), count(tagDeltaTrailer, 1))},
		{"range sum wraps past the region",
			join(header, procMeta, region(1<<63-1), count(tagTrailer, 1)),
			join(deltaHeader, deltaRegion, deltaRange(8, 1<<63-1), count(tagDeltaTrailer, 1))},
	}
}

func TestRestartRejectsCorruptContext(t *testing.T) {
	for _, tc := range corruptInputs() {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv()
			e.fs.WriteFile("full", blob.FromBytes(tc.full))
			e.fs.WriteFile("delta", blob.FromBytes(tc.delta))
			target := proc.New("t", 1, 1, phi.NewMemBudget(1<<40))
			target.AddRegion("heap", proc.RegionHeap, 16, 7) //nolint:errcheck
			_, _, seqErr := e.cr.Restart(e.source(t, "full"), freshSpawn)
			_, _, rangedErr := e.cr.RestartParallel(int64(len(tc.full)), 2, 0, e.rangeSource("full"), freshSpawn)
			_, deltaErr := e.cr.ApplyDelta(target, e.source(t, "delta"))
			for feeder, err := range map[string]error{"sequential": seqErr, "ranged": rangedErr, "ApplyDelta": deltaErr} {
				var bad *ErrBadContext
				if !errors.As(err, &bad) {
					t.Errorf("%s: want ErrBadContext, got %v", feeder, err)
				}
			}
		})
	}
}

func TestRestartRejectsTruncatedContext(t *testing.T) {
	e := newEnv()
	p := makeProcReal(t, "p", 1)
	if _, err := e.cr.Checkpoint(p, e.sink(t, "ctx")); err != nil {
		t.Fatal(err)
	}
	full, _, _ := e.fs.ReadFile("ctx")
	e.fs.WriteFile("trunc", full.Slice(0, full.Len()/2))
	_, _, err := e.cr.Restart(e.source(t, "trunc"), func(img *Image) (*proc.Process, error) {
		return proc.New(img.Name, 1, 1, phi.NewMemBudget(1<<40)), nil
	})
	var bad *ErrBadContext
	if !errors.As(err, &bad) {
		t.Fatalf("want ErrBadContext, got %v", err)
	}
}

func TestCheckpointTerminatedProcessFails(t *testing.T) {
	e := newEnv()
	p := makeProcReal(t, "p", 1)
	p.Terminate()
	if _, err := e.cr.Checkpoint(p, e.sink(t, "ctx")); err == nil {
		t.Fatal("checkpoint of terminated process must fail")
	}
}

func TestLargeSyntheticRegionStaysCheap(t *testing.T) {
	// A 1 GiB mostly-untouched region must checkpoint without
	// materializing: the context file stores its background descriptor.
	e := newEnv()
	p := proc.New("big", 1, 1, phi.NewMemBudget(1<<40))
	r, _ := p.AddRegion("huge", proc.RegionHeap, simclock.GiB, 21)
	r.WriteAt([]byte("tiny dirty bit"), 12345)
	st, err := e.cr.Checkpoint(p, e.sink(t, "ctx"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes < simclock.GiB {
		t.Errorf("context bytes = %d, want >= 1 GiB", st.Bytes)
	}
	// The stored file must be footprint-light: literal bytes are only the
	// dirty overlay plus metadata.
	content, _, _ := e.fs.ReadFile("ctx")
	if lit := content.LiteralBytes(); lit > 1<<20 {
		t.Errorf("context file holds %d literal bytes; synthetic background leaked", lit)
	}
	// And the virtual duration reflects the full gigabyte.
	min := simclock.Default().PhiPageWalk(simclock.GiB)
	if st.Duration < min {
		t.Errorf("duration %v below page-walk bound %v", st.Duration, min)
	}
}

func TestCallbackCheckpointContinueAndRestart(t *testing.T) {
	e := newEnv()
	p := makeProcReal(t, "host_proc", 0)
	client := NewClient(e.cr, p)

	var branches []string
	client.RegisterCallback(func(req *Request) error {
		// Snapify would pause+capture the offload process here.
		branches = append(branches, "pre")
		rc, err := req.Checkpoint()
		if err != nil {
			return err
		}
		switch rc {
		case RcContinue:
			branches = append(branches, "continue")
		case RcRestart:
			branches = append(branches, "restart")
		}
		return nil
	})

	if _, err := client.RequestCheckpoint(e.sink(t, "host_ctx")); err != nil {
		t.Fatal(err)
	}
	if err := client.ResumeRestarted(); err != nil {
		t.Fatal(err)
	}
	want := []string{"pre", "continue", "pre", "restart"}
	if len(branches) != len(want) {
		t.Fatalf("branches = %v", branches)
	}
	for i := range want {
		if branches[i] != want[i] {
			t.Fatalf("branches = %v, want %v", branches, want)
		}
	}
}

func TestCallbackErrors(t *testing.T) {
	e := newEnv()
	p := makeProcReal(t, "p", 0)
	client := NewClient(e.cr, p)
	if _, err := client.RequestCheckpoint(e.sink(t, "x")); err == nil {
		t.Error("request without callback must fail")
	}
	client.RegisterCallback(func(req *Request) error { return nil }) // never calls Checkpoint
	if _, err := client.RequestCheckpoint(e.sink(t, "x")); err == nil {
		t.Error("callback skipping cr_checkpoint must fail")
	}
	client.RegisterCallback(func(req *Request) error {
		if _, err := req.Checkpoint(); err != nil {
			return err
		}
		_, err := req.Checkpoint()
		return err
	})
	if _, err := client.RequestCheckpoint(e.sink(t, "x")); err == nil {
		t.Error("double cr_checkpoint must fail")
	}
}
