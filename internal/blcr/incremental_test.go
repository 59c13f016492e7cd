package blcr

import (
	"fmt"
	"testing"

	"snapify/internal/blob"
	"snapify/internal/phi"
	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/stream"
)

func TestIncrementalCheckpointChain(t *testing.T) {
	e := newEnv()
	p := proc.New("incr", 1, 1, phi.NewMemBudget(1<<40))
	heap, _ := p.AddRegion("heap", proc.RegionHeap, 64*simclock.MiB, 9)
	data, _ := p.AddRegion("data", proc.RegionData, 1*simclock.MiB, 3)

	heap.WriteAt([]byte("generation 0"), 0)
	full, err := e.cr.CheckpointFull(p, e.sink(t, "base"))
	if err != nil {
		t.Fatal(err)
	}

	// Two generations of small mutations, one delta each.
	heap.WriteAt([]byte("generation 1"), 1000)
	data.WriteAt([]byte("d1"), 0)
	d1, err := e.cr.CheckpointDelta(p, e.sink(t, "delta1"))
	if err != nil {
		t.Fatal(err)
	}
	heap.WriteAt([]byte("generation 2"), 2000)
	heap.WriteAt([]byte("overwrite!"), 1000) // overlaps generation 1
	d2, err := e.cr.CheckpointDelta(p, e.sink(t, "delta2"))
	if err != nil {
		t.Fatal(err)
	}

	// Deltas are far smaller and faster than the full checkpoint.
	if d1.Bytes >= full.Bytes/8 || d2.Bytes >= full.Bytes/8 {
		t.Errorf("delta sizes %d/%d not small vs full %d", d1.Bytes, d2.Bytes, full.Bytes)
	}
	if d1.Duration >= full.Duration {
		t.Errorf("delta time %v not below full %v", d1.Duration, full.Duration)
	}

	want := map[string]blob.Blob{
		"heap": heap.Snapshot(),
		"data": data.Snapshot(),
	}

	// Restore the chain into a fresh process.
	restored, st, err := e.cr.RestartChain(
		e.source(t, "base"),
		[]stream.Source{e.source(t, "delta1"), e.source(t, "delta2")},
		func(img *Image) (*proc.Process, error) {
			return proc.New(img.Name, 2, 2, phi.NewMemBudget(1<<40)), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if st.Duration <= 0 {
		t.Error("chain restore has no duration")
	}
	for name, b := range want {
		if !blob.Equal(restored.Region(name).Snapshot(), b) {
			t.Errorf("region %q differs after chain restore", name)
		}
	}
	restored.ResumeSteps()
}

func TestDeltaWithNoChangesIsTiny(t *testing.T) {
	e := newEnv()
	p := proc.New("quiet", 1, 1, phi.NewMemBudget(1<<40))
	p.AddRegion("heap", proc.RegionHeap, 256*simclock.MiB, 1)
	if _, err := e.cr.CheckpointFull(p, e.sink(t, "base")); err != nil {
		t.Fatal(err)
	}
	st, err := e.cr.CheckpointDelta(p, e.sink(t, "empty_delta"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes > 4096 {
		t.Errorf("no-change delta is %d bytes", st.Bytes)
	}
}

func TestApplyDeltaRejectsUnknownRegion(t *testing.T) {
	e := newEnv()
	p := proc.New("a", 1, 1, phi.NewMemBudget(1<<40))
	p.AddRegion("heap", proc.RegionHeap, 1024, 0)
	p.Region("heap").WriteAt([]byte("x"), 0)
	e.cr.CheckpointFull(p, e.sink(t, "base")) //nolint:errcheck
	p.Region("heap").WriteAt([]byte("y"), 0)
	if _, err := e.cr.CheckpointDelta(p, e.sink(t, "delta")); err != nil {
		t.Fatal(err)
	}

	// A process without that region cannot take the delta.
	q := proc.New("b", 2, 1, phi.NewMemBudget(1<<40))
	q.AddRegion("other", proc.RegionHeap, 1024, 0)
	if _, err := e.cr.ApplyDelta(q, e.source(t, "delta")); err == nil {
		t.Fatal("delta against mismatched process must fail")
	}
}

func TestApplyDeltaRejectsFullContext(t *testing.T) {
	e := newEnv()
	p := makeProcReal(t, "p", 1)
	if _, err := e.cr.Checkpoint(p, e.sink(t, "full_ctx")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.cr.ApplyDelta(p, e.source(t, "full_ctx")); err == nil {
		t.Fatal("a full context is not a delta")
	}
}

func TestDirtyTrackingSurvivesManyPatterns(t *testing.T) {
	// Randomized writes: the delta chain must always reconstruct the
	// current state exactly.
	e := newEnv()
	p := proc.New("fuzzy", 1, 1, phi.NewMemBudget(1<<40))
	heap, _ := p.AddRegion("heap", proc.RegionHeap, 1<<20, 5)
	if _, err := e.cr.CheckpointFull(p, e.sink(t, "f_base")); err != nil {
		t.Fatal(err)
	}
	var deltas []stream.Source
	seed := int64(12345)
	for gen := 0; gen < 5; gen++ {
		for w := 0; w < 20; w++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			off := (seed >> 16) & (1<<20 - 256)
			if off < 0 {
				off = -off
			}
			n := (seed>>40)&255 + 1
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = byte(seed >> (uint(i) % 56))
			}
			heap.WriteAt(buf, off)
		}
		name := fmt.Sprintf("f_delta%d", gen)
		if _, err := e.cr.CheckpointDelta(p, e.sink(t, name)); err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, e.source(t, name))
	}
	want := heap.Snapshot()
	restored, _, err := e.cr.RestartChain(e.source(t, "f_base"), deltas,
		func(img *Image) (*proc.Process, error) { return proc.New(img.Name, 9, 2, phi.NewMemBudget(1<<40)), nil })
	if err != nil {
		t.Fatal(err)
	}
	if !blob.Equal(restored.Region("heap").Snapshot(), want) {
		t.Fatal("chain restore differs from live state")
	}
}
