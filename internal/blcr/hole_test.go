package blcr

import (
	"io"
	"testing"

	"snapify/internal/blob"
	"snapify/internal/phi"
	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/stream"
)

// holeSource feeds bytes [off, end) of a context file in pieces that never
// cross a grain boundary, at no transport cost, and marks every piece of
// an all-zero grain a hole: what a store read stream does with the pieces
// of a zero chunk.
type holeSource struct {
	file     blob.Blob
	off, end int64
	grain    int64
}

func (s *holeSource) Next(max int64) (blob.Blob, stream.Cost, error) {
	if s.off >= s.end {
		return blob.Blob{}, stream.Cost{}, io.EOF
	}
	start := s.off - s.off%s.grain
	n := min(max, start+s.grain-s.off, s.end-s.off)
	piece := s.file.Slice(s.off, n)
	s.off += n
	g := s.file.Slice(start, min(s.grain, s.file.Len()-start))
	return piece, stream.Cost{Hole: blob.Equal(g, blob.Zeros(g.Len()))}, nil
}

func (s *holeSource) Close() error { return nil }

// makeHoleyProc has a seed-0 region with zeros between its two literal
// ends, a seed-5 region the application zeroed in its middle, and a small
// seeded one: its context file has zero grains over both kinds of
// background.
func makeHoleyProc(t *testing.T) *proc.Process {
	t.Helper()
	p := proc.New("holey", 4242, 2, phi.NewMemBudget(1<<40))
	bare, err := p.AddRegion("bare", proc.RegionHeap, 256<<10, 0)
	if err != nil {
		t.Fatal(err)
	}
	bare.WriteAt([]byte("top"), 0)
	bare.WriteAt([]byte("end"), 256<<10-3)
	painted, _ := p.AddRegion("painted", proc.RegionHeap, 256<<10, 5)
	painted.WriteAt(make([]byte, 192<<10), 32<<10)
	data, _ := p.AddRegion("data", proc.RegionData, 8192, 11)
	data.WriteAt([]byte("globals"), 0)
	return p
}

// TestRestartHoleRule: the one restore parser over a source that marks
// zero grains as holes restores every region byte for byte, sequentially
// and striped, and leaves the pages of a hole it skipped untouched (a
// later digest pass sweeps them zero without reading them). Sequentially,
// its price is exact: each plain piece its copy, and each hole byte its
// copy unless it lands in the page run of a seed-0 region, where the fresh
// region holds its zeros already.
func TestRestartHoleRule(t *testing.T) {
	const grain = 4096
	e := newEnv()
	p := makeHoleyProc(t)
	want := snapshotAll(p)
	lay, err := e.cr.LayoutFull(p)
	if err != nil {
		t.Fatal(err)
	}
	file := lay.Range(0, lay.Size())
	spawn := func(img *Image) (*proc.Process, error) {
		return proc.New(img.Name, 777, 2, phi.NewMemBudget(1<<40)), nil
	}
	// The hole grains that lie wholly in a seed-0 region's page run, as
	// that region's byte ranges: a restore skips them, so they stay
	// untouched.
	type span struct {
		region string
		off, n int64
	}
	var skippedGrains []span
	for g := int64(0); g < file.Len(); g += grain {
		n := min(grain, file.Len()-g)
		pos := int64(0)
		for _, sg := range lay.pl.segs {
			if sg.region != nil && sg.region.Seed() == 0 && g >= pos && g+n <= pos+sg.n && blob.Equal(file.Slice(g, n), blob.Zeros(n)) {
				skippedGrains = append(skippedGrains, span{sg.region.Name(), g - pos, n})
			}
			pos += sg.fileLen()
		}
	}
	if len(skippedGrains) == 0 {
		t.Fatal("no hole grain lies wholly in a seed-0 page run")
	}
	check := func(what string, q *proc.Process) {
		t.Helper()
		got := snapshotAll(q)
		for name, b := range want {
			if !blob.Equal(got[name], b) {
				t.Errorf("%s: region %q differs after the restore", what, name)
			}
		}
		for _, sp := range skippedGrains {
			if !q.Region(sp.region).Untouched(sp.off, sp.n) {
				t.Errorf("%s: region %q bytes [%d,%d) were a skipped hole but are touched after the restore", what, sp.region, sp.off, sp.off+sp.n)
			}
		}
	}

	// The price, grain by grain, from the layout: which bytes of a zero
	// grain fall in a seed-0 region's page run.
	free := func(from, to int64) int64 {
		var n, pos int64
		for _, sg := range lay.pl.segs {
			if sg.region != nil && sg.region.Seed() == 0 {
				n += max(0, min(to, pos+sg.n)-max(from, pos))
			}
			pos += sg.fileLen()
		}
		return n
	}
	var wantDur simclock.Duration
	var holes, skipped int64
	for g := int64(0); g < file.Len(); g += grain {
		n := min(grain, file.Len()-g)
		if !blob.Equal(file.Slice(g, n), blob.Zeros(n)) {
			wantDur += e.cr.copyStage(false, n)
			continue
		}
		holes += n
		f := free(g, g+n)
		skipped += f
		wantDur += e.cr.copyStage(false, n-f)
	}
	if skipped == 0 || skipped == holes {
		t.Fatalf("%d hole bytes, %d of them over seed 0: want some over each kind of background", holes, skipped)
	}

	q, st, err := e.cr.Restart(&holeSource{file: file, end: file.Len(), grain: grain}, spawn)
	if err != nil {
		t.Fatal(err)
	}
	check("sequential", q)
	// Charged hole bytes are priced per stretch, not per grain: allow the
	// rounding of one ns a grain.
	if d, slack := st.Duration-wantDur, simclock.Duration(file.Len()/grain); d < -slack || d > slack {
		t.Errorf("sequential restore with holes took %d virtual ns, want %d: plain pieces and hole bytes off seed 0 charged their copy, the rest nothing", st.Duration, wantDur)
	}

	open := func(off, n int64) (stream.Source, error) {
		return &holeSource{file: file, off: off, end: off + n, grain: grain}, nil
	}
	q, _, err = e.cr.RestartParallel(file.Len(), 2, 0, open, spawn)
	if err != nil {
		t.Fatal(err)
	}
	check("striped", q)
}
