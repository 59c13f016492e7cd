package blcr

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"snapify/internal/blob"
	"snapify/internal/proc"
	"snapify/internal/simclock"
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

// digestProc is a small multi-region process whose image spans a few
// dozen 64 KiB chunks, with region boundaries off the chunk grid.
func digestProc(t *testing.T) *proc.Process {
	t.Helper()
	p := proc.New("offload_digest", 4242, 1, nil)
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
// the carried-forward list must equal the full recompute, and the pass
// must have re-read only chunks a write could have touched.
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
					pass := lay.DigestPass(cache, chunk, SeedCapture, testDigest)
					if want := oracle(t, cr, p, chunk); !slices.Equal(pass.Digests(), want) {
						t.Fatalf("round %d: carried-forward digests differ from the full recompute", round)
					}
					total := len(pass.Digests())
					switch {
					case round == 0 && (pass.ChunksRehashed != total || pass.SeededFrom != SeedNone):
						t.Fatalf("first pass rehashed %d of %d chunks (seeded_from %d), want all, none", pass.ChunksRehashed, total, pass.SeededFrom)
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
		if !slices.Equal(ps.Digests(), oracle(t, cr, p, c)) {
			t.Fatal("digests differ from the full recompute")
		}
		return ps
	}
	full := func(ps *DigestPass) bool { return ps.ChunksRehashed == len(ps.Digests()) }

	first := pass(nil, chunk)
	if warm := pass(first.Cache, chunk); warm.ChunksRehashed != 0 || warm.Dur >= first.Dur {
		t.Fatalf("untouched process: rehashed %d chunks in %v (full pass %v)", warm.ChunksRehashed, warm.Dur, first.Dur)
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

	spawn := func(img *Image) (*proc.Process, error) { return proc.New(img.Name, 9001, 1, nil), nil }
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
