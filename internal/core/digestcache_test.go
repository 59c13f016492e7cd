package core

// The chunk-digest cache at the core layer: every store capture, store
// restore and pre-copy round goes through one cache per offload process
// that carries digests forward for the chunks dirty tracking says are
// untouched. A wrongly carried digest is invisible to the store — the
// manifest naming an old chunk is self-consistent and Verify passes — so
// these tests check the cache differentially, against the full recompute
// (snapstore.ChunkDigests over Layout.Materialize), after every capture.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"snapify/internal/blob"
	"snapify/internal/coi"
	"snapify/internal/obs"
	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/snapstore"
)

// offload returns the device-side runtime of the rig's offload process.
func (r *rig) offload(t *testing.T) *coi.OffloadProc {
	t.Helper()
	op, err := coi.DaemonAt(r.plat, r.cp.DeviceNode()).Lookup(r.cp.ID())
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// quiesce waits for the device-side server thread to finish the last
// offload call: the host sees the call's result before the thread clears
// the control region, so an oracle taken on an unpaused process right
// after a call could miss that last write. (A pause waits for it through
// the drain locks; the tests that take their oracle under pause need
// nothing.)
func (r *rig) quiesce(t *testing.T) {
	t.Helper()
	ctrl := r.offload(t).Proc().Region("coi_ctrl")
	active := make([]byte, 1)
	for ctrl.ReadAt(active, 0); active[0] != 0; ctrl.ReadAt(active, 0) {
		runtime.Gosched()
	}
}

// oracleDigests is the full recompute: lay the process out, materialize
// every byte, digest every chunk.
func oracleDigests(t *testing.T, r *rig, p *proc.Process, chunk int64) []string {
	t.Helper()
	lay, err := r.plat.CR.LayoutFull(p)
	if err != nil {
		t.Fatal(err)
	}
	img, _ := lay.Materialize()
	return snapstore.ChunkDigests(img, chunk)
}

func firstDiff(a, b []string) int {
	if len(a) != len(b) {
		return -2
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// assertCacheIs checks the process's cache against an oracle list.
func assertCacheIs(t *testing.T, op *coi.OffloadProc, chunk int64, want []string, when string) {
	t.Helper()
	gotChunk, got := op.CachedDigests()
	if gotChunk != chunk {
		t.Fatalf("%s: cache chunk size %d, want %d", when, gotChunk, chunk)
	}
	if i := firstDiff(got, want); i != -1 {
		t.Fatalf("%s: cached digest list differs from the full recompute at chunk %d (%d vs %d chunks)", when, i, len(got), len(want))
	}
}

// assertManifestIs checks the committed manifest for ctx names exactly
// the oracle's chunks; with a clean Verify that makes the stored image
// byte-identical to the frozen process the oracle digested.
func assertManifestIs(t *testing.T, r *rig, ctx string, want []string, when string) {
	t.Helper()
	m, _, err := r.plat.Store.Manifest(ctx)
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if i := firstDiff(m.Chunks, want); i != -1 {
		t.Fatalf("%s: manifest differs from the full recompute at chunk %d", when, i)
	}
	if problems, _ := r.plat.Store.Verify(); len(problems) != 0 {
		t.Fatalf("%s: store inconsistent: %v", when, problems)
	}
}

// digestSpans returns the args of every span of the given name, in order.
func digestSpans(r *rig, name string) []map[string]int64 {
	var out []map[string]int64
	for _, sp := range r.plat.Obs.TracerOf().Spans() {
		if sp.Name == name {
			out = append(out, sp.Args)
		}
	}
	return out
}

func lastDigestSpan(t *testing.T, r *rig, name string) map[string]int64 {
	t.Helper()
	spans := digestSpans(r, name)
	if len(spans) == 0 {
		t.Fatalf("no %s span", name)
	}
	return spans[len(spans)-1]
}

// scribble writes n random small ranges into the process's page-bearing
// regions, the way an application dirties memory between captures.
func scribble(rng *rand.Rand, p *proc.Process, n int) {
	var regions []*proc.Region
	for _, r := range p.Regions() {
		if r.Kind() != proc.RegionLocalStore && r.Size() > 4096 {
			regions = append(regions, r)
		}
	}
	for ; n > 0; n-- {
		r := regions[rng.Intn(len(regions))]
		buf := make([]byte, 1+rng.Intn(3000))
		rng.Read(buf)
		r.WriteAt(buf, rng.Int63n(r.Size()-int64(len(buf))))
	}
}

func readStoreCtx(t *testing.T, r *rig, ctx string) blob.Blob {
	t.Helper()
	m, _, err := r.plat.Store.Manifest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var parts []blob.Blob
	for _, d := range m.Chunks {
		b, _, err := r.plat.Host().FS.ReadFile(snapstore.ChunkPrefix + d)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, b)
	}
	return blob.Concat(parts...)
}

func storeRestoreOpts() RestoreOptions {
	o := RestoreOptions{Streams: 2}
	o.Store.Enabled = true
	return o
}

// TestDigestCacheDifferential is the property test: seeded random write
// patterns, through checkpoints, swap cycles and a live migration's
// pre-copy rounds and final capture, at several chunk sizes. After every
// digest pass the cache equals the full recompute of the same frozen (or
// idle) process; the committed manifest names exactly those chunks; and a
// plain capture of the same frozen process is byte-for-byte the image the
// store holds.
func TestDigestCacheDifferential(t *testing.T) {
	for _, chunk := range []int64{32 * 1024, 256 * 1024, 4 * simclock.MiB} {
		seeds := int64(2)
		if chunk > simclock.MiB {
			seeds = 1 // the oracle re-hashes 40 MiB per step at this size
		}
		for seed := int64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("chunk%d/seed%d", chunk, seed), func(t *testing.T) {
				r := newRig(t, "core_digest_diff", 2)
				rng := rand.New(rand.NewSource(seed))
				copts := CaptureOptions{Streams: 2, ChunkBytes: chunk}
				copts.Store.Enabled = true
				ropts := storeRestoreOpts()
				iters := uint64(10)
				r.count(t, iters)

				// Checkpoints: pause, plain capture and store capture of
				// the same frozen process, resume.
				for c := 0; c < 3; c++ {
					op := r.offload(t)
					scribble(rng, op.Proc(), rng.Intn(6))
					dir := fmt.Sprintf("/snap/diff/ckpt%d", c)
					s := NewSnapshot(dir, r.cp)
					if err := s.Pause(); err != nil {
						t.Fatal(err)
					}
					want := oracleDigests(t, r, op.Proc(), chunk)
					plain := NewSnapshot(dir+"_plain", r.cp)
					plain.paused = true // borrows s's pause for one extra capture
					if err := plain.Capture(CaptureOptions{}); err != nil {
						t.Fatal(err)
					}
					if err := plain.Wait(); err != nil {
						t.Fatal(err)
					}
					if err := s.Capture(copts); err != nil {
						t.Fatal(err)
					}
					if err := s.Wait(); err != nil {
						t.Fatal(err)
					}
					when := fmt.Sprintf("checkpoint %d", c)
					assertCacheIs(t, op, chunk, want, when)
					assertManifestIs(t, r, dir+"/"+coi.ContextFileName, want, when)
					file, _, err := r.plat.Host().FS.ReadFile(dir + "_plain/" + coi.ContextFileName)
					if err != nil {
						t.Fatal(err)
					}
					if !blob.Equal(file, readStoreCtx(t, r, dir+"/"+coi.ContextFileName)) {
						t.Fatalf("%s: store image differs from the plain capture of the same frozen process", when)
					}
					if err := s.Resume(); err != nil {
						t.Fatal(err)
					}
					if c > 0 {
						if sp := lastDigestSpan(t, r, "store_digest"); sp["chunks_rehashed"] >= sp["chunks_total"] || sp["seeded_from"] == 0 {
							t.Errorf("%s was not warm: %v", when, sp)
						}
					}
					iters += 10
					if got := r.count(t, iters); got != refSum(iters) {
						t.Fatalf("%s: computation diverged", when)
					}
				}

				// Swap cycles: the restore seeds the next capture's cache.
				for c := 0; c < 3; c++ {
					op := r.offload(t)
					r.quiesce(t)
					scribble(rng, op.Proc(), rng.Intn(6))
					want := oracleDigests(t, r, op.Proc(), chunk)
					dir := fmt.Sprintf("/snap/diff/swap%d", c)
					s, err := Swapout(dir, r.cp, copts)
					if err != nil {
						t.Fatal(err)
					}
					when := fmt.Sprintf("swap %d", c)
					assertCacheIs(t, op, chunk, want, when)
					assertManifestIs(t, r, dir+"/"+coi.ContextFileName, want, when)
					if _, err := Swapin(s, 1, ropts); err != nil {
						t.Fatal(err)
					}
					assertCacheIs(t, r.offload(t), chunk, want, when+" restore seeding")
					if c > 0 {
						if sp := lastDigestSpan(t, r, "store_digest"); sp["chunks_rehashed"] >= sp["chunks_total"] || sp["seeded_from"] != 2 {
							t.Errorf("%s was not seeded by the restore: %v", when, sp)
						}
					}
					iters += 10
					if got := r.count(t, iters); got != refSum(iters) {
						t.Fatalf("%s: computation diverged", when)
					}
				}

				// Live migration: every round and the final paused capture.
				mopts := MigrateOptions{DeviceTo: 2, Path: "/snap/diff/mig", Capture: copts, Restore: ropts,
					Precopy: PrecopyOptions{MaxRounds: 4}}
				m, err := NewMigration(r.cp, mopts)
				if err != nil {
					t.Fatal(err)
				}
				src := r.offload(t)
				r.quiesce(t)
				for {
					scribble(rng, src.Proc(), 1+rng.Intn(5))
					want := oracleDigests(t, r, src.Proc(), chunk)
					rec, done, err := m.Round()
					if err != nil {
						t.Fatal(err)
					}
					assertCacheIs(t, src, chunk, want, fmt.Sprintf("pre-copy round %d", rec.Round))
					if done {
						break
					}
				}
				scribble(rng, src.Proc(), 2)
				want := oracleDigests(t, r, src.Proc(), chunk)
				if _, err := m.Finish(); err != nil {
					t.Fatal(err)
				}
				assertCacheIs(t, src, chunk, want, "final capture")
				assertManifestIs(t, r, mopts.Path+"/"+coi.ContextFileName, want, "final capture")
				if sp := lastDigestSpan(t, r, "store_digest"); sp["chunks_rehashed"] >= sp["chunks_total"] || sp["seeded_from"] != 3 {
					t.Errorf("final capture was not seeded by the pre-copy rounds: %v", sp)
				}
				assertCacheIs(t, r.offload(t), chunk, want, "migration restore seeding")
				iters += 10
				if got := r.count(t, iters); got != refSum(iters) {
					t.Fatal("computation diverged after the live migration")
				}
			})
		}
	}
}

// TestChaosPrecopyWriterRace hammers two regions from a writer thread
// while pre-copy rounds run. The writer crosses the step gate like any
// kernel, so the final pause freezes it; the digest list after the paused
// final capture must equal the full recompute. A digest pass that read a
// chunk before it cut the region's epoch — or cut and reset in two steps
// — loses a write that lands in the gap and carries the stale digest
// forward forever; this is the test that catches it.
func TestChaosPrecopyWriterRace(t *testing.T) {
	const chunk = 32 * 1024
	r := newRig(t, "core_digest_race", 2)
	r.count(t, 10)
	p := r.offload(t).Proc()
	regions := []*proc.Region{p.Region("runtime_heap"), p.Region("binary")}

	// The writer keeps rewriting one page in each of a set of chunks, and
	// moves to a fresh set for good every time a digest pass ends (the
	// rehashed-bytes counter ticks). A chunk's last write therefore tends
	// to fall inside a pass — exactly the write a pass that reads before
	// it cuts would lose, with nothing later to repair the stale digest.
	passes := r.plat.Obs.MetricsOf().Counter("snapify_store_digest_bytes_total", "", obs.L("kind", "rehashed"))
	const phases = 12
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		buf := make([]byte, 64)
		phase, seen := int64(0), passes.Value()
		for phase < phases {
			if p.BeginStep() != nil {
				return // terminated by the final capture
			}
			if v := passes.Value(); v != seen {
				seen = v
				phase++
			}
			reg := regions[rng.Intn(2)]
			perPhase := reg.Size() / chunk / phases
			rng.Read(buf)
			reg.WriteAt(buf, (phase*perPhase+rng.Int63n(perPhase))*chunk+128)
			p.EndStep()
		}
	}()

	migrateRacingWriter(t, r, chunk, "/snap/race", &wg)
}

// TestChaosPrecopyFirstTouchRace is the page-table sweep's twin of
// TestChaosPrecopyWriterRace. A writer thread first-touches never-written
// pages of a seed-0 region, one fresh chunk per step in random order,
// while pre-copy rounds run, so first touches land while a pass sweeps. A
// pass that swept before it cut its epochs would name such a chunk zero
// and consume, with the cut, the write that made it non-zero: the chunk
// would keep the zero digest for good. After the paused final capture the
// digest list must equal the full recompute, and the destination must hold
// the frozen process's regions byte for byte.
func TestChaosPrecopyFirstTouchRace(t *testing.T) {
	const chunk = 32 * 1024
	const fresh = 128 * simclock.MiB
	bin := testBinary("core_digest_touch_race")
	bin.AddRegion("fresh", proc.RegionHeap, fresh, 0)
	r := newRigBinary(t, bin, 2)
	r.count(t, 10)
	p := r.offload(t).Proc()
	reg := p.Region("fresh")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(11))
		buf := make([]byte, 64)
		for _, c := range rng.Perm(int(fresh / chunk)) {
			if p.BeginStep() != nil {
				return // terminated by the final capture
			}
			rng.Read(buf)
			reg.WriteAt(buf, int64(c)*chunk+rng.Int63n(chunk/proc.EpochPage)*proc.EpochPage)
			p.EndStep()
		}
	}()

	migrateRacingWriter(t, r, chunk, "/snap/touch", &wg)
}

// migrateRacingWriter live-migrates r's process to card 2 in chunk-byte
// store chunks while a writer wg waits for keeps writing, with the
// switch-over done by hand so the oracle can be taken under pause: after
// the paused final capture (which terminates the writer) the digest cache
// and the manifest must equal the full recompute, and the destination
// must hold the frozen process's regions byte for byte and compute on.
func migrateRacingWriter(t *testing.T, r *rig, chunk int64, path string, wg *sync.WaitGroup) {
	t.Helper()
	src := r.offload(t)
	p := src.Proc()
	copts := CaptureOptions{Streams: 2, ChunkBytes: chunk}
	copts.Store.Enabled = true
	mopts := MigrateOptions{DeviceTo: 2, Path: path, Capture: copts, Restore: storeRestoreOpts(),
		Precopy: PrecopyOptions{MaxRounds: 4}}
	m, err := NewMigration(r.cp, mopts)
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, done, err := m.Round()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	s := m.Snapshot()
	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
	want := oracleDigests(t, r, p, chunk)
	frozen := make(map[string]blob.Blob)
	for _, rg := range p.Regions() {
		frozen[rg.Name()] = rg.SnapshotRange(0, rg.Size())
	}
	fin := mopts.Capture
	fin.Terminate = true
	if err := s.Capture(fin); err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	assertCacheIs(t, src, chunk, want, "paused final capture after racing rounds")
	assertManifestIs(t, r, path+"/"+coi.ContextFileName, want, "paused final capture after racing rounds")
	if _, err := s.Restore(2, mopts.Restore); err != nil {
		t.Fatal(err)
	}
	restored := r.offload(t).Proc().Regions()
	if len(restored) != len(frozen) {
		t.Fatalf("destination process has %d regions, the frozen one %d", len(restored), len(frozen))
	}
	for _, rg := range restored {
		if want, ok := frozen[rg.Name()]; !ok || !blob.Equal(rg.SnapshotRange(0, rg.Size()), want) {
			t.Fatalf("region %q on the destination differs from the frozen one", rg.Name())
		}
	}
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	if got := r.count(t, 20); got != refSum(20) {
		t.Errorf("computation after the migration = %d, want %d", got, refSum(20))
	}
}

// TestDigestEpochIndependentOfDeltaCheckpoints: the delta checkpoint's
// clean marks and the digest cache's epochs are separate ledgers. A
// CaptureBase/CaptureDelta between two store captures hides no write from
// the cache, and a store capture between a base and its delta hides none
// from the delta.
func TestDigestEpochIndependentOfDeltaCheckpoints(t *testing.T) {
	const chunk = 32 * 1024
	r := newRig(t, "core_digest_indep", 1)
	r.count(t, 10)
	op := r.offload(t)
	heap := op.Proc().Region("runtime_heap")
	storeCkpt := CaptureOptions{Streams: 2, ChunkBytes: chunk}
	storeCkpt.Store.Enabled = true
	capture := func(dir string, mode func(*Snapshot, CaptureOptions) error, opts CaptureOptions) *Snapshot {
		t.Helper()
		s := NewSnapshot(dir, r.cp)
		if err := s.Pause(); err != nil {
			t.Fatal(err)
		}
		if err := mode(s, opts); err != nil {
			t.Fatal(err)
		}
		if err := s.Wait(); err != nil {
			t.Fatal(err)
		}
		if !opts.Terminate {
			if err := s.Resume(); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	mark := func(off int64, v byte) { heap.WriteAt([]byte{v, v, v, v}, off) }

	capture("/snap/indep/store0", (*Snapshot).Capture, storeCkpt)
	mark(1*simclock.MiB, 0xA1)
	capture("/snap/indep/base", (*Snapshot).CaptureBase, CaptureOptions{}) // marks every region clean
	mark(5*simclock.MiB, 0xB2)
	capture("/snap/indep/store1", (*Snapshot).Capture, storeCkpt) // cuts every epoch
	assertCacheIs(t, op, chunk, oracleDigests(t, r, op.Proc(), chunk), "store capture after a base capture")
	if sp := lastDigestSpan(t, r, "store_digest"); sp["chunks_rehashed"] < 2 || sp["chunks_rehashed"] >= sp["chunks_total"] {
		t.Errorf("store capture across a base capture rehashed %d of %d chunks, want the two written and no full pass", sp["chunks_rehashed"], sp["chunks_total"])
	}
	mark(9*simclock.MiB, 0xC3)
	d := capture("/snap/indep/delta", (*Snapshot).CaptureDelta, CaptureOptions{Terminate: true})

	// The delta must hold B (written before the store capture's cut) and C.
	if _, err := d.RestoreChain("/snap/indep/base", []string{"/snap/indep/delta"}, 1, RestoreOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Resume(); err != nil {
		t.Fatal(err)
	}
	restored := r.offload(t).Proc().Region("runtime_heap")
	for _, m := range []struct {
		off int64
		v   byte
	}{{1 * simclock.MiB, 0xA1}, {5 * simclock.MiB, 0xB2}, {9 * simclock.MiB, 0xC3}} {
		got := make([]byte, 4)
		restored.ReadAt(got, m.off)
		if got[0] != m.v || got[3] != m.v {
			t.Errorf("write %#x at %d lost across base + delta restore: read %x", m.v, m.off, got)
		}
	}
	if got := r.count(t, 20); got != refSum(20) {
		t.Errorf("computation after the chain restore = %d, want %d", got, refSum(20))
	}
}

// TestDigestCacheDropsForceFullPass: a geometry change (a region added, a
// thread added), a different chunk size, and a resume after a migration
// aborted under pause each make the next store capture digest the whole
// image — seen as chunks_rehashed + chunks_swept == chunks_total on its
// store_digest span: every chunk read or named zero by the page-table
// sweep — and every such capture still matches the full recompute.
func TestDigestCacheDropsForceFullPass(t *testing.T) {
	const chunk = 32 * 1024
	r := newRig(t, "core_digest_drops", 2)
	r.count(t, 10)
	opts := CaptureOptions{Streams: 2, ChunkBytes: chunk}
	opts.Store.Enabled = true
	n := 0
	checkpoint := func(o CaptureOptions) map[string]int64 {
		t.Helper()
		n++
		s := NewSnapshot(fmt.Sprintf("/snap/drops/%d", n), r.cp)
		if err := s.Pause(); err != nil {
			t.Fatal(err)
		}
		op := r.offload(t)
		c := o.ChunkBytes
		want := oracleDigests(t, r, op.Proc(), c)
		if err := s.Capture(o); err != nil {
			t.Fatal(err)
		}
		if err := s.Wait(); err != nil {
			t.Fatal(err)
		}
		assertCacheIs(t, op, c, want, fmt.Sprintf("checkpoint %d", n))
		if err := s.Resume(); err != nil {
			t.Fatal(err)
		}
		return lastDigestSpan(t, r, "store_digest")
	}
	full := func(sp map[string]int64) bool { return sp["chunks_rehashed"]+sp["chunks_swept"] == sp["chunks_total"] }
	warm := func(what string) {
		t.Helper()
		if sp := checkpoint(opts); full(sp) || sp["seeded_from"] != 1 {
			t.Fatalf("%s: expected a warm capture seeded by the previous one, got %v", what, sp)
		}
	}

	if sp := checkpoint(opts); !full(sp) || sp["seeded_from"] != 0 {
		t.Fatalf("first store capture must digest everything from nothing: %v", sp)
	}
	warm("second capture")

	if _, err := r.cp.CreateBuffer(64 * 1024); err != nil { // a new region record
		t.Fatal(err)
	}
	if sp := checkpoint(opts); !full(sp) {
		t.Errorf("region added: %v, want a full pass", sp)
	}
	warm("after the region-added pass")

	if _, err := r.cp.CreatePipeline(); err != nil { // a new server thread record
		t.Fatal(err)
	}
	if sp := checkpoint(opts); !full(sp) {
		t.Errorf("thread added: %v, want a full pass", sp)
	}
	warm("after the thread-added pass")

	bigger := opts
	bigger.ChunkBytes = 2 * chunk
	if sp := checkpoint(bigger); !full(sp) {
		t.Errorf("chunk size changed: %v, want a full pass", sp)
	}
	if sp := checkpoint(opts); !full(sp) {
		t.Errorf("chunk size changed back: %v, want a full pass", sp)
	}
	warm("after the chunk-size passes")

	// A live migration whose switch-over is abandoned under pause: rounds
	// seed the cache, the process is paused and resumed with no capture.
	mopts := MigrateOptions{DeviceTo: 2, Path: "/snap/drops/mig", Capture: opts, Restore: storeRestoreOpts(),
		Precopy: PrecopyOptions{MaxRounds: 2}}
	m, err := NewMigration(r.cp, mopts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Round(); err != nil {
		t.Fatal(err)
	}
	if sp := lastDigestSpan(t, r, "precopy_digest"); full(sp) || sp["seeded_from"] != 1 {
		t.Errorf("round 1 after a store capture should carry its digests: %v", sp)
	}
	if err := m.Snapshot().Pause(); err != nil {
		t.Fatal(err)
	}
	if err := m.Snapshot().Resume(); err != nil {
		t.Fatal(err)
	}
	m.Abort()
	if c, _ := r.offload(t).CachedDigests(); c != 0 {
		t.Error("resume after an aborted migration kept the pre-copy cache")
	}
	if sp := checkpoint(opts); !full(sp) || sp["seeded_from"] != 0 {
		t.Errorf("resume after an aborted migration: %v, want a full pass", sp)
	}
	if got := r.count(t, 20); got != refSum(20) {
		t.Errorf("computation = %d, want %d", got, refSum(20))
	}
}

// TestChaosLostDirtyRangeIsInvisibleToVerify loses one dirty-range record
// (a stray cut between the write and the capture stands in for any bug
// that would) and shows why the full recompute stays as the test oracle:
// the capture carries the stale digest forward, the store commits a
// manifest that is perfectly self-consistent — Verify reports clean —
// and only the differential check sees that the image is wrong.
func TestChaosLostDirtyRangeIsInvisibleToVerify(t *testing.T) {
	const chunk = 32 * 1024
	r := newRig(t, "core_digest_lost", 1)
	r.count(t, 10)
	opts := CaptureOptions{Streams: 2, ChunkBytes: chunk}
	opts.Store.Enabled = true
	s, err := Swapout("/snap/lost/a", r.cp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Swapin(s, 1, storeRestoreOpts()); err != nil {
		t.Fatal(err)
	}
	r.count(t, 20) // the restored runtime's threads have settled once a call completes
	r.quiesce(t)

	op := r.offload(t)
	heap := op.Proc().Region("runtime_heap")
	heap.WriteAt([]byte("a write whose dirty record goes missing"), 3*simclock.MiB)
	heap.CutEpoch() // the record is gone; nothing else knows
	op.Proc().Region("binary").WriteAt([]byte("a write that is tracked"), 1*simclock.MiB)

	want := oracleDigests(t, r, op.Proc(), chunk)
	if _, err := Swapout("/snap/lost/b", r.cp, opts); err != nil {
		t.Fatal(err)
	}
	if problems, _ := r.plat.Store.Verify(); len(problems) != 0 {
		t.Fatalf("Verify is expected to pass on a stale-digest manifest, got %v", problems)
	}
	_, got := op.CachedDigests()
	stale := firstDiff(got, want)
	if stale < 0 {
		t.Fatal("the differential oracle did not catch the lost dirty range")
	}
	diffs := 0
	for i := range got {
		if got[i] != want[i] {
			diffs++
		}
	}
	if diffs != 1 {
		t.Errorf("%d chunks differ from the oracle, want exactly the one whose record was lost", diffs)
	}
	m, _, err := r.plat.Store.Manifest("/snap/lost/b/" + coi.ContextFileName)
	if err != nil {
		t.Fatal(err)
	}
	if m.Chunks[stale] == want[stale] {
		t.Error("the committed manifest should name the stale chunk")
	}
}

// TestStoreRestoreKeepsZeroBackgroundSparse: the store dedups every
// all-zero chunk to one chunk file, so a restore hands the zero chunks of
// a zero-background region back as extents cut at unrelated offsets. They
// must land as background, not as literal zeros: after the round trip the
// region's overlay holds the bytes the application wrote and no more.
func TestStoreRestoreKeepsZeroBackgroundSparse(t *testing.T) {
	const zeros = 4 * simclock.MiB
	bin := testBinary("core_store_zero")
	bin.AddRegion("zeros", proc.RegionHeap, zeros, 0)
	r := newRigBinary(t, bin, 1)
	r.count(t, 10)
	written := []byte("the only bytes the application ever wrote here")
	r.offload(t).Proc().Region("zeros").WriteAt(written, 1*simclock.MiB+100)

	s, err := Swapout("/snap/zero", r.cp, storeOpts())
	if err != nil {
		t.Fatal(err)
	}
	ropts := RestoreOptions{}
	ropts.Store.Enabled = true
	if _, err := Swapin(s, 1, ropts); err != nil {
		t.Fatal(err)
	}
	reg := r.offload(t).Proc().Region("zeros")
	if got := reg.DirtyBytes(); got != int64(len(written)) {
		t.Errorf("zero-background region holds %d overlay bytes after a store restore, want the %d the app wrote (region is %d)", got, len(written), zeros)
	}
	back := make([]byte, len(written))
	reg.ReadAt(back, 1*simclock.MiB+100)
	if string(back) != string(written) {
		t.Errorf("written bytes read back as %q", back)
	}
	if got := r.count(t, 20); got != refSum(20) {
		t.Errorf("post-swap count = %d, want %d", got, refSum(20))
	}
}

// TestPrecopyRedoesRoundWhenStoreLacksCarriedChunk: a process swapped in
// from the store starts a live migration with a warm cache, but the store
// has since been emptied. Round 1 carries digests for chunks it never
// read while the store needs them; shipping a later re-read of a running
// process could send bytes the digest does not describe, so the round is
// redone as a full pass.
func TestPrecopyRedoesRoundWhenStoreLacksCarriedChunk(t *testing.T) {
	const chunk = 32 * 1024
	r := newRig(t, "core_digest_redo", 2)
	r.count(t, 10)
	opts := CaptureOptions{Streams: 2, ChunkBytes: chunk}
	opts.Store.Enabled = true
	s, err := Swapout("/snap/redo/swap", r.cp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Swapin(s, 1, storeRestoreOpts()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.plat.Store.Release("/snap/redo/swap/" + coi.ContextFileName); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.plat.Store.GC(0); err != nil {
		t.Fatal(err)
	}
	r.count(t, 20)

	mopts := MigrateOptions{DeviceTo: 2, Path: "/snap/redo/mig", Capture: opts, Restore: storeRestoreOpts(),
		Precopy: PrecopyOptions{MaxRounds: 3}}
	if _, _, err := Migrate(r.cp, mopts); err != nil {
		t.Fatal(err)
	}
	var round1 []map[string]int64
	for _, sp := range digestSpans(r, "precopy_digest") {
		if sp["round"] == 1 {
			round1 = append(round1, sp)
		}
	}
	if len(round1) != 2 || round1[0]["seeded_from"] != 2 || round1[1]["chunks_rehashed"]+round1[1]["chunks_swept"] != round1[1]["chunks_total"] {
		t.Errorf("round 1 digest passes = %v, want a restore-seeded pass then a full redo", round1)
	}
	if problems, _ := r.plat.Store.Verify(); len(problems) != 0 {
		t.Errorf("store inconsistent: %v", problems)
	}
	if got := r.count(t, 30); got != refSum(30) {
		t.Errorf("computation after the migration = %d, want %d", got, refSum(30))
	}
}
