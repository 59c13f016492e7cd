package blcr

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"snapify/internal/blob"
	"snapify/internal/proc"
)

// testdata/golden_context.bin and golden_delta.bin were written at commit
// 7114a9b by the hand-rolled serial writers this package used to have
// (write() and CheckpointDeltaFrozen's emit loop) from goldenProc and
// goldenDirty below. Those writers are gone; their output stays as the
// reference every transport of the one encoder must reproduce and every
// feeder of the one decoder must restore — the serial-vs-parallel identity
// tests in parallel_test.go now compare two transports of the same plan and
// cannot catch a change that moves both.
//
// The files also pin the tag numbers: 0xB1C4 sits between the region-meta
// and trailer tags, was never written or read, and must stay unused —
// renumbering the trailer changes every context file.

func goldenBytes(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) ^ salt
	}
	return b
}

// goldenProc builds the small deterministic process behind the golden
// files: literal-written regions (nothing depends on the synthetic
// background generator), a pinned local-store region, a zero-size region
// and two threads.
func goldenProc(t testing.TB) *proc.Process {
	t.Helper()
	p := proc.New("golden_offload", 4242, 1, nil)
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	for _, name := range []string{"omp0", "omp1"} {
		if err := p.SpawnThread(name, func() { <-stop }); err != nil {
			t.Fatal(err)
		}
	}
	add := func(name string, kind proc.RegionKind, size int, seed uint64, salt byte) *proc.Region {
		r, err := p.AddRegion(name, kind, int64(size), seed)
		if err != nil {
			t.Fatal(err)
		}
		r.WriteAt(goldenBytes(size, salt), 0)
		return r
	}
	add("data", proc.RegionData, 3072, 11, 0x5a)
	add("heap", proc.RegionHeap, 6000, 13, 0xc3)
	add("empty", proc.RegionStack, 0, 0, 0)
	add("coibuf0", proc.RegionLocalStore, 2048, 17, 0x0f).Pin()
	return p
}

// goldenDirty is the write set between the golden base and its delta.
func goldenDirty(p *proc.Process) {
	p.Region("data").WriteAt([]byte("delta: globals"), 64)
	p.Region("heap").WriteAt([]byte("delta: first heap range"), 100)
	p.Region("heap").WriteAt([]byte("delta: second heap range, further in"), 4000)
	p.Region("coibuf0").WriteAt([]byte("delta: buffer"), 512)
}

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func freshSpawn(img *Image) (*proc.Process, error) { return proc.New(img.Name, 777, 2, nil), nil }

// requireSameRegions fails unless got has exactly want's regions — name,
// kind, size, pin — with identical content. A context file does not carry
// local-store content, so a comparison against a process that wrote its
// local store skips it.
func requireSameRegions(t testing.TB, what string, got, want *proc.Process, skipLocalStore bool) {
	t.Helper()
	wr, gr := want.Regions(), got.Regions()
	if len(gr) != len(wr) {
		t.Fatalf("%s: %d regions, want %d", what, len(gr), len(wr))
	}
	for i, w := range wr {
		g := gr[i]
		if g.Name() != w.Name() || g.Kind() != w.Kind() || g.Size() != w.Size() || g.Pinned() != w.Pinned() {
			t.Errorf("%s: region %d is %s/%v/%d/pinned=%v, want %s/%v/%d/pinned=%v", what, i,
				g.Name(), g.Kind(), g.Size(), g.Pinned(), w.Name(), w.Kind(), w.Size(), w.Pinned())
			continue
		}
		if skipLocalStore && w.Kind() == proc.RegionLocalStore {
			continue
		}
		if !blob.Equal(g.Snapshot(), w.Snapshot()) {
			t.Errorf("%s: region %q content differs", what, w.Name())
		}
	}
}

func TestGoldenContextFiles(t *testing.T) {
	goldenCtx, goldenDelta := readGolden(t, "golden_context.bin"), readGolden(t, "golden_delta.bin")
	e := newEnv()
	p := goldenProc(t)
	p.PauseSteps()
	defer p.ResumeSteps()

	// One encoder, three transports, two formats: every combination must
	// reproduce the deleted writers' bytes. A 1 KiB chunk makes the striped
	// runs split these KiB-scale regions across workers.
	check := func(file string, golden []byte) {
		t.Helper()
		b, _, err := e.fs.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), golden) {
			t.Errorf("%s differs from the golden file (%d bytes, want %d)", file, b.Len(), len(golden))
		}
	}
	encode := func(prefix string, golden []byte,
		single func(string) (*Stats, error), striped func(workers int, file string) (*Stats, error)) {
		t.Helper()
		if _, err := single(prefix + "_single"); err != nil {
			t.Fatal(err)
		}
		check(prefix+"_single", golden)
		for _, workers := range []int{1, 3} {
			file := fmt.Sprintf("%s_striped%d", prefix, workers)
			if _, err := striped(workers, file); err != nil {
				t.Fatal(err)
			}
			check(file, golden)
		}
	}
	encode("ctx", goldenCtx,
		func(f string) (*Stats, error) { return e.cr.CheckpointFrozen(p, e.sink(t, f)) },
		func(w int, f string) (*Stats, error) {
			return e.cr.CheckpointFrozenParallel(p, w, 1024, e.stripedSink(t, f))
		})
	markClean(p)
	goldenDirty(p)
	encode("delta", goldenDelta,
		func(f string) (*Stats, error) { return e.cr.CheckpointDeltaFrozen(p, e.sink(t, f)) },
		func(w int, f string) (*Stats, error) {
			return e.cr.CheckpointDeltaFrozenParallel(p, w, 1024, e.stripedSink(t, f))
		})

	// One decoder, two feeders: both restore the golden base to the
	// pre-delta state, and the golden delta brings either to p's.
	pre := goldenProc(t)
	e.fs.WriteFile("golden_ctx", blob.FromBytes(goldenCtx))
	e.fs.WriteFile("golden_delta", blob.FromBytes(goldenDelta))
	seq, _, err := e.cr.Restart(e.source(t, "golden_ctx"), freshSpawn)
	if err != nil {
		t.Fatal(err)
	}
	ranged, _, err := e.cr.RestartParallel(int64(len(goldenCtx)), 3, 1024, e.rangeSource("golden_ctx"), freshSpawn)
	if err != nil {
		t.Fatal(err)
	}
	for what, restored := range map[string]*proc.Process{"sequential": seq, "ranged": ranged} {
		requireSameRegions(t, what+" restore", restored, pre, true)
		if _, err := e.cr.ApplyDelta(restored, e.source(t, "golden_delta")); err != nil {
			t.Fatal(err)
		}
		requireSameRegions(t, what+" restore + delta", restored, p, true)
		// Of the local store, only the delta's range is in these files.
		if !blob.Equal(restored.Region("coibuf0").SnapshotRange(512, 13), p.Region("coibuf0").SnapshotRange(512, 13)) {
			t.Errorf("%s restore + delta: local-store range differs", what)
		}
	}
}
