package blcr

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"snapify/internal/blob"
	"snapify/internal/phi"
	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/stream"
)

// testDigest stands in for snapstore.Digest (blcr may not import a hash):
// a content hash is all the pass needs.
func testDigest(b blob.Blob) string { return fmt.Sprintf("%016x/%d", b.Hash(), b.Len()) }

// oracle is the full recompute every pass is checked against.
func oracle(t *testing.T, cr *Checkpointer, p *proc.Process, chunk int64) []string {
	t.Helper()
	lay, err := cr.LayoutFull(p)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := lay.ChunkDigests(chunk, testDigest)
	return want
}

// drain hands out every window of a pass, w re-read chunks at a time, and
// checks that the windows tile the chunk list in order, that a window
// never holds more than w chunks the pass had to read, and that the list
// has no hole once the last is out. It returns the number of windows.
func drain(t *testing.T, pass *DigestPass, w int) int {
	t.Helper()
	windows, at := 0, 0
	for {
		before := pass.ChunksRehashed
		lo, hi, ok := pass.Next(w)
		if !ok {
			break
		}
		if lo != at || hi <= lo {
			t.Fatalf("window %d is chunks [%d,%d), want it to start at %d", windows, lo, hi, at)
		}
		if got := pass.ChunksRehashed - before; got > w {
			t.Fatalf("window %d re-read %d chunks, over the %d asked for", windows, got, w)
		}
		for i := lo; i < hi; i++ {
			if pass.Digests()[i] == "" {
				t.Fatalf("window %d handed out chunk %d without a digest", windows, i)
			}
		}
		at = hi
		windows++
	}
	if at != len(pass.Digests()) {
		t.Fatalf("windows end at chunk %d of %d", at, len(pass.Digests()))
	}
	return windows
}

// digestProc is a small multi-region process whose image spans a few
// dozen 64 KiB chunks, with region boundaries off the chunk grid.
func digestProc(t *testing.T) *proc.Process {
	t.Helper()
	p := proc.New("offload_digest", 4242, 1, phi.NewMemBudget(1<<40))
	for _, r := range []struct {
		name string
		kind proc.RegionKind
		size int64
		seed uint64
	}{
		{"data", proc.RegionData, 8192, 11},
		{"heap", proc.RegionHeap, 1<<20 + 4096, 13},
		{"zero", proc.RegionHeap, 512 * 1024, 0},
		{"stack", proc.RegionStack, 300 * 1024, 19},
	} {
		if _, err := p.AddRegion(r.name, r.kind, r.size, r.seed); err != nil {
			t.Fatal(err)
		}
	}
	ls, _ := p.AddRegion("coibuf0", proc.RegionLocalStore, 1<<16, 17)
	ls.Pin()
	return p
}

// TestDigestPassMatchesOracle drives random write patterns through
// repeated incremental passes at several chunk sizes: after every pass
// the carried-forward list must equal the full recompute, the first pass
// must have swept or re-read every chunk, and a later one must have
// re-read only chunks a write could have touched.
func TestDigestPassMatchesOracle(t *testing.T) {
	for _, chunk := range []int64{16 * 1024, 64 * 1024, 1 << 20} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("chunk%d/seed%d", chunk, seed), func(t *testing.T) {
				cr := New(simclock.Default())
				p := digestProc(t)
				rng := rand.New(rand.NewSource(seed))
				var cache *DigestCache
				writes := 0 // since the previous pass
				for round := 0; round < 8; round++ {
					lay, err := cr.LayoutFull(p)
					if err != nil {
						t.Fatal(err)
					}
					reads := map[string]int{} // digest calls per content
					zeroCalls := 0            // the sweep's, one per zero-chunk length
					pass := lay.DigestPass(cache, chunk, SeedCapture, func(b blob.Blob) string {
						d := testDigest(b)
						if blob.Equal(b, blob.Zeros(b.Len())) {
							zeroCalls++
						} else {
							reads[d]++
						}
						return d
					})
					w := 1 + rng.Intn(5)
					windows := drain(t, pass, w)
					if want := (pass.ChunksRehashed + w - 1) / w; windows != max(want, 1) {
						t.Fatalf("round %d: %d windows of %d for %d re-read chunks", round, windows, w, pass.ChunksRehashed)
					}
					if want := oracle(t, cr, p, chunk); !slices.Equal(pass.Digests(), want) {
						t.Fatalf("round %d: carried-forward digests differ from the full recompute", round)
					}
					total := len(pass.Digests())
					switch {
					case round == 0 && (pass.ChunksRehashed+pass.ChunksSwept != total || (pass.ChunksSwept == 0) != (chunk > 256*1024) || pass.SeededFrom != SeedNone):
						// The 512 KiB seed-0 region holds a whole chunk of
						// any size up to 256 KiB, wherever the grid falls.
						t.Fatalf("first pass rehashed %d and swept %d of %d chunks (seeded_from %d), want all between them, some swept iff a chunk fits the zero region, none", pass.ChunksRehashed, pass.ChunksSwept, total, pass.SeededFrom)
					case round > 0 && pass.SeededFrom != SeedCapture:
						t.Fatalf("round %d did not use the cache", round)
					case round > 0 && pass.ChunksRehashed > 2*writes:
						// Each write is under a page: rounded out to pages it
						// can straddle one chunk boundary at most.
						t.Fatalf("round %d rehashed %d chunks for %d sub-page writes", round, pass.ChunksRehashed, writes)
					}
					for i := 0; i < total; i++ {
						if testDigest(pass.Chunk(i)) != pass.Digests()[i] {
							t.Fatalf("round %d: Chunk(%d) is not the content its digest names", round, i)
						}
					}
					calls := 0
					for _, n := range reads {
						calls += n
					}
					if calls != pass.ChunksRehashed || zeroCalls > 2 || (zeroCalls == 0) != (pass.ChunksSwept == 0) {
						t.Fatalf("round %d: %d digest calls for %d re-read chunks, %d zero digests for %d swept — a chunk was read twice, or the sweep hashed per chunk",
							round, calls, pass.ChunksRehashed, zeroCalls, pass.ChunksSwept)
					}
					cache = pass.Cache

					regions := p.Regions()
					writes = rng.Intn(7)
					for w := writes; w > 0; w-- {
						r := regions[rng.Intn(len(regions))]
						n := 1 + rng.Int63n(2048)
						off := rng.Int63n(r.Size() - n)
						buf := make([]byte, n)
						rng.Read(buf)
						r.WriteAt(buf, off)
					}
				}
			})
		}
	}
}

// TestDigestPassFullOnAnyShapeChange: the cache is keyed to chunk size
// and geometry; a different chunk size, a new region or a new thread
// forces a full pass, while a changed metadata record of the same length
// (a pin bit) re-reads only the chunk that holds the record.
func TestDigestPassFullOnAnyShapeChange(t *testing.T) {
	const chunk = 64 * 1024
	cr := New(simclock.Default())
	p := digestProc(t)
	pass := func(cache *DigestCache, c int64) *DigestPass {
		t.Helper()
		lay, err := cr.LayoutFull(p)
		if err != nil {
			t.Fatal(err)
		}
		ps := lay.DigestPass(cache, c, SeedCapture, testDigest)
		drain(t, ps, 3)
		if !slices.Equal(ps.Digests(), oracle(t, cr, p, c)) {
			t.Fatal("digests differ from the full recompute")
		}
		return ps
	}
	full := func(ps *DigestPass) bool { return ps.ChunksRehashed+ps.ChunksSwept == len(ps.Digests()) }

	// A full pass sweeps the page tables of the chunks it names zero (the
	// walk of every other chunk reads its own); a warm one the whole
	// image's, for the dirty bits.
	first := pass(nil, chunk)
	sweep := func(n int64) simclock.Duration { return cr.copyStage(false, n/pteBytesPerByte) }
	if first.ChunksSwept == 0 || first.Prelude != sweep(first.BytesSwept) {
		t.Fatalf("full pass swept %d chunks for a %v prelude, want some and %v", first.ChunksSwept, first.Prelude, sweep(first.BytesSwept))
	}
	if warm := pass(first.Cache, chunk); warm.ChunksRehashed != 0 || warm.ChunksSwept != 0 || warm.Prelude != sweep(warm.ImageBytes()) {
		t.Fatalf("untouched process: rehashed %d and swept %d chunks after a %v sweep, want none after %v", warm.ChunksRehashed, warm.ChunksSwept, warm.Prelude, sweep(warm.ImageBytes()))
	}
	if ps := pass(first.Cache, 2*chunk); !full(ps) || ps.SeededFrom != SeedNone {
		t.Error("a different chunk size must force a full pass")
	}

	cache := pass(nil, chunk).Cache
	p.Region("heap").Pin() // one region record changes, same length
	ps := pass(cache, chunk)
	if ps.ChunksRehashed != 1 {
		t.Errorf("a changed metadata record rehashed %d chunks, want the 1 that holds it", ps.ChunksRehashed)
	}

	if _, err := p.AddRegion("late", proc.RegionHeap, 4096, 3); err != nil {
		t.Fatal(err)
	}
	if got := pass(ps.Cache, chunk); !full(got) {
		t.Error("an added region must force a full pass")
	}

	cache = pass(nil, chunk).Cache
	stop := make(chan struct{})
	started := make(chan struct{})
	if err := p.SpawnThread("worker", func() { close(started); <-stop }); err != nil {
		t.Fatal(err)
	}
	<-started
	if got := pass(cache, chunk); !full(got) {
		t.Error("a changed thread count must force a full pass")
	}
	close(stop)
}

// TestRestartRecordsGeometry: the geometry a restart parses out of a
// context file is the geometry of the layout that wrote it, on both the
// serial and the parallel restart path — which is what lets the restoring
// daemon seed a cache from the manifest and have the next capture of the
// restored process carry digests forward.
func TestRestartRecordsGeometry(t *testing.T) {
	const chunk = 64 * 1024
	e := newEnv()
	p := digestProc(t)
	p.Region("heap").WriteAt([]byte("written before the capture"), 70000)
	p.PauseSteps()
	lay, err := e.cr.LayoutFull(p)
	if err != nil {
		t.Fatal(err)
	}
	digests, _ := lay.ChunkDigests(chunk, testDigest)
	if _, err := e.cr.CheckpointFrozen(p, e.sink(t, "ctx")); err != nil {
		t.Fatal(err)
	}
	p.ResumeSteps()

	spawn := func(img *Image) (*proc.Process, error) {
		return proc.New(img.Name, 9001, 1, phi.NewMemBudget(1<<40)), nil
	}
	restarts := map[string]func() (*proc.Process, *Stats, error){
		"serial": func() (*proc.Process, *Stats, error) { return e.cr.Restart(e.source(t, "ctx"), spawn) },
		"parallel": func() (*proc.Process, *Stats, error) {
			return e.cr.RestartParallel(lay.Size(), 3, chunk, e.rangeSource("ctx"), spawn)
		},
	}
	for name, restart := range restarts {
		t.Run(name, func(t *testing.T) {
			restored, st, err := restart()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := st.Geometry.metaDiff(lay.Geometry()); !ok || st.Geometry.Size() != lay.Size() {
				t.Fatal("restart recorded a geometry other than the layout's")
			}
			cache := NewDigestCache(st.Geometry, chunk, digests, SeedRestore)
			if cache == nil {
				t.Fatal("manifest digest list does not fit the recorded geometry")
			}
			if NewDigestCache(st.Geometry, chunk, digests[1:], SeedRestore) != nil {
				t.Error("a digest list of the wrong length must not seed a cache")
			}
			cache.Arm(restored)
			restored.Region("stack").WriteAt([]byte("after the restore"), 1000)

			rlay, err := e.cr.LayoutFull(restored)
			if err != nil {
				t.Fatal(err)
			}
			pass := rlay.DigestPass(cache, chunk, SeedCapture, testDigest)
			if windows := drain(t, pass, 8); windows != 1 {
				t.Errorf("a pass with two chunks to re-read took %d windows of 8, want the whole list in one", windows)
			}
			if !slices.Equal(pass.Digests(), oracle(t, e.cr, restored, chunk)) {
				t.Fatal("restore-seeded digests differ from the full recompute")
			}
			// The restored process has a new PID (chunk 0's process record)
			// and one written page; nothing else may be re-read.
			if pass.SeededFrom != SeedRestore || pass.ChunksRehashed != 2 {
				t.Errorf("restore-seeded pass: seeded_from %d, %d chunks rehashed; want restore, 2", pass.SeededFrom, pass.ChunksRehashed)
			}
		})
	}
}

// TestDigestPassAbandonedHalfWaySeedsNothing: a pass's cache shares its
// digest list and is complete only when the last window is out. A pass
// that stops before that leaves a cache the next pass must ignore — it
// digests everything — while Whole both completes it and winds the pass
// back to hand out the whole list as one window with nothing to read.
func TestDigestPassAbandonedHalfWaySeedsNothing(t *testing.T) {
	const chunk = 64 * 1024
	cr := New(simclock.Default())
	p := digestProc(t)
	start := func(prev *DigestCache) *DigestPass {
		t.Helper()
		lay, err := cr.LayoutFull(p)
		if err != nil {
			t.Fatal(err)
		}
		return lay.DigestPass(prev, chunk, SeedCapture, testDigest)
	}
	abandoned := start(nil)
	if _, hi, ok := abandoned.Next(4); !ok || hi != 4 || abandoned.ChunksRehashed != 4 {
		t.Fatalf("first window ends at chunk %d with %d chunks read, want 4 and 4", hi, abandoned.ChunksRehashed)
	}
	if next := start(abandoned.Cache); next.SeededFrom != SeedNone || drain(t, next, 8) < 2 || next.ChunksRehashed+next.ChunksSwept != len(next.Digests()) {
		t.Fatalf("a pass seeded by an abandoned one carried digests forward (seeded_from %d, %d re-read and %d swept of %d)", next.SeededFrom, next.ChunksRehashed, next.ChunksSwept, len(next.Digests()))
	}

	pass := start(nil)
	pass.Next(4)
	pass.Whole()
	all := len(pass.Digests()) - pass.ChunksSwept // every chunk the sweep left to read
	if pass.ChunksRehashed != all || !slices.Equal(pass.Digests(), oracle(t, cr, p, chunk)) {
		t.Fatalf("Whole left the list incomplete: %d of %d chunks read", pass.ChunksRehashed, all)
	}
	if lo, hi, ok := pass.Next(4); !ok || lo != 0 || hi != len(pass.Digests()) || pass.ChunksRehashed != all {
		t.Fatalf("after Whole the next window is [%d,%d) ok=%v with %d chunks read; want the whole list, nothing read again", lo, hi, ok, pass.ChunksRehashed)
	}
	if _, _, ok := pass.Next(4); ok {
		t.Fatal("a pass handed out a window after its whole-list one")
	}
	if warm := start(pass.Cache); warm.SeededFrom != SeedCapture || drain(t, warm, 8) != 1 || warm.ChunksRehashed != 0 {
		t.Fatalf("a completed pass did not seed the next: seeded_from %d, %d chunks re-read", warm.SeededFrom, warm.ChunksRehashed)
	}
}

// TestDigestPassPricesEachReadOnce: Observe is the plain capture's rule
// with one more stage — the first chunk fills the pipeline (walk + copy +
// transport), each later one adds its slowest stage — and a chunk that
// ships again (a retry) adds only its transport: the read is priced once.
// A chunk the sweep named zero was never read and is priced nothing.
func TestDigestPassPricesEachReadOnce(t *testing.T) {
	const chunk = 64 * 1024
	m := simclock.Default()
	cr := New(m)
	lay, err := cr.LayoutFull(digestProc(t))
	if err != nil {
		t.Fatal(err)
	}
	pass := lay.DigestPass(nil, chunk, SeedCapture, testDigest)
	if want := m.PhiMemcpy(pass.BytesSwept / pteBytesPerByte); pass.ChunksSwept == 0 || pass.Prelude != want {
		t.Fatalf("a pass that carries nothing swept %d chunks for a %v prelude, want some, for the page tables of those alone (%v)", pass.ChunksSwept, pass.Prelude, want)
	}
	pass.Whole()
	n := len(pass.Digests())
	walk, copyStage := m.PhiPageWalk(chunk), m.PhiMemcpy(chunk)
	ship := stream.Cost{Stages: []simclock.Duration{copyStage / 2, walk * 2}} // a transport slower than the walk

	acc := simclock.NewPipelineAccum()
	pass.Observe(acc, 0, ship)
	if want := walk + copyStage + copyStage/2 + walk*2; acc.Total() != want {
		t.Fatalf("first chunk cost %v, want the sum of its stages %v", acc.Total(), want)
	}
	pass.Observe(acc, 1, ship)
	pass.Observe(acc, 2, stream.Cost{})
	if want := walk + copyStage + copyStage/2 + walk*2 + walk*2 + walk; acc.Total() != want {
		t.Fatalf("three chunks cost %v, want fill + slowest transport + walk = %v", acc.Total(), want)
	}
	before := acc.Total()
	pass.Observe(acc, 2, stream.Cost{}) // already priced, nothing shipped
	pass.ObserveUnshipped(acc, 0, 3)
	if acc.Total() != before {
		t.Fatalf("re-observing priced reads added %v", acc.Total()-before)
	}
	pass.Observe(acc, 1, ship) // shipped again: transport only
	if got := acc.Total() - before; got != walk*2 {
		t.Fatalf("re-shipping a priced chunk added %v, want its slowest transport stage %v", got, walk*2)
	}
	before = acc.Total()
	pass.ObserveUnshipped(acc, 3, n)
	var want simclock.Duration
	for i := 3; i < n; i++ {
		if pass.Reread(i) {
			want += m.PhiPageWalk(min(chunk, lay.Size()-int64(i)*chunk))
		}
	}
	if acc.Total()-before != want {
		t.Fatalf("the unshipped rest cost %v, want one walk for each chunk read = %v", acc.Total()-before, want)
	}
}

// TestSweepNamesOnlyZeroChunks is the page-table sweep's differential.
// Two copies of one process take the same random writes — random bytes,
// runs of zeros, and a region's own background written back over what was
// there — and after each batch one copy takes a full pass and the other a
// pass warm from its previous one. Every chunk the full pass did not read
// (the sweep named it zero) must be the zero chunk in the full recompute,
// and both lists must equal it: a zeros write is read like any write, and
// background written back, which the warm pass finds dirty and untouched,
// is swept there too.
func TestSweepNamesOnlyZeroChunks(t *testing.T) {
	const chunk = 16 * 1024
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cr := New(simclock.Default())
			full, warm := digestProc(t), digestProc(t)
			rng := rand.New(rand.NewSource(seed))
			var cache *DigestCache
			warmSwept := 0
			for round := 0; round < 8; round++ {
				for w := rng.Intn(12); w > 0; w-- {
					name := []string{"data", "heap", "zero", "zero", "stack"}[rng.Intn(5)]
					size := full.Region(name).Size()
					n := 1 + rng.Int63n(min(size, 3*proc.EpochPage))
					off := rng.Int63n(size - n + 1)
					op := rng.Intn(3)
					buf := make([]byte, n)
					if op == 0 {
						rng.Read(buf)
					}
					for _, p := range []*proc.Process{full, warm} {
						r := p.Region(name)
						if op == 2 {
							r.WriteBlob(off, blob.Synthetic(r.Seed(), size).Slice(off, n))
						} else {
							r.WriteAt(buf, off)
						}
					}
				}
				want := oracle(t, cr, full, chunk)
				lay, err := cr.LayoutFull(full)
				if err != nil {
					t.Fatal(err)
				}
				cold := lay.DigestPass(nil, chunk, SeedCapture, testDigest)
				drain(t, cold, 4)
				for i := range cold.Digests() {
					n := min(chunk, lay.Size()-int64(i)*chunk)
					if !cold.Reread(i) && want[i] != testDigest(blob.Zeros(n)) {
						t.Fatalf("round %d: the sweep named chunk %d zero, the full recompute has other bytes there", round, i)
					}
				}
				if cold.ChunksSwept == 0 || !slices.Equal(cold.Digests(), want) {
					t.Fatalf("round %d: a full pass swept %d chunks and its list differs from the full recompute: %v", round, cold.ChunksSwept, !slices.Equal(cold.Digests(), want))
				}
				wlay, err := cr.LayoutFull(warm)
				if err != nil {
					t.Fatal(err)
				}
				ps := wlay.DigestPass(cache, chunk, SeedCapture, testDigest)
				drain(t, ps, 4)
				if !slices.Equal(ps.Digests(), want) {
					t.Fatalf("round %d: a warm pass's list differs from the full recompute", round)
				}
				if round > 0 {
					warmSwept += ps.ChunksSwept
				}
				cache = ps.Cache
			}
			if warmSwept == 0 {
				t.Error("no warm pass swept a chunk written back to background")
			}
		})
	}
}
