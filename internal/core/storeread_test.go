package core

// The store read stream at the core layer: a store-resident swap-in and a
// live migration's destination staging pull their chunks over one two-slot
// store-mode Snapify-IO stream (coi/download.go); a striped one, over one
// store stream per stripe. These tests hold both to a plain
// file restore of the same frozen image, byte for byte, sweep the store
// stream's fault points, pin its price, and pin the two bugs the per-chunk
// file opens had.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"snapify/internal/blcr"
	"snapify/internal/blob"
	"snapify/internal/coi"
	"snapify/internal/faultinject"
	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/snapstore"
)

// storeStreamRestoreOpts selects the store read stream: store-resident,
// one stream.
func storeStreamRestoreOpts() RestoreOptions {
	var o RestoreOptions
	o.Store.Enabled = true
	return o
}

// TestFailedAdoptionDropsTheStagedImage: the switch-over's straggler pull
// hits one chunk fault, the adoption gives up, and the restore falls back
// to streaming the committed image — which must succeed, and must not
// leave the image the rounds staged parked on the destination card.
func TestFailedAdoptionDropsTheStagedImage(t *testing.T) {
	r := newRig(t, "core_mig_adopt_fault", 2)
	r.count(t, 20)
	m, err := NewMigration(r.cp, MigrateOptions{
		DeviceTo: 2, Path: "/snap/adoptfault",
		Precopy: PrecopyOptions{MaxRounds: 2}, Capture: CaptureOptions{ChunkBytes: 32 * 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	iters := uint64(20)
	for done := false; !done; {
		if _, done, err = m.Round(); err != nil {
			t.Fatal(err)
		}
		iters += 10
		r.count(t, iters) // leaves the final capture a delta, the switch-over a straggler
	}
	// Finish, by hand up to the restore, so the fault can be armed for it
	// alone: the final capture's chunk writes consult the same site.
	s := m.Snapshot()
	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
	copts := m.opts.Capture
	copts.Terminate = true
	if err := s.Capture(copts); err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	dst := coi.DaemonAt(r.plat, 2)
	if !dst.Staging().Has(m.ctxPath()) {
		t.Fatal("nothing staged on the destination before the switch-over")
	}
	inj := faultinject.New(faultinject.Plan{{Site: faultinject.SiteChunk, Key: "0", Kind: faultinject.Drop}}, nil)
	r.plat.Server.Fabric.SetInjector(inj)
	_, err = s.Restore(2, m.opts.Restore)
	disarm(r)
	if err != nil {
		t.Fatalf("restore after a failed adoption: %v", err)
	}
	if inj.FiredTotal() != 1 {
		t.Fatalf("%d faults fired, want the one on the straggler pull", inj.FiredTotal())
	}
	for _, sp := range r.plat.Obs.TracerOf().Spans() {
		if sp.Name == "restore_context" && sp.Args["adopted"] != 0 {
			t.Error("the restore adopted the staged image despite the failed pull")
		}
	}
	assertNoStaging(t, r, 2, m.opts.Path)
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	iters += 10
	if got := r.count(t, iters); got != refSum(iters) {
		t.Errorf("computation after the fallback restore = %d, want %d", got, refSum(iters))
	}
}

// TestFailedFinishDropsTheStagedImage: a switch-over that fails at the
// final capture resumes the source and leaves nothing staged.
func TestFailedFinishDropsTheStagedImage(t *testing.T) {
	r := newRig(t, "core_mig_finish_fault", 2)
	r.count(t, 20)
	m, err := NewMigration(r.cp, MigrateOptions{
		DeviceTo: 2, Path: "/snap/finishfault",
		Precopy: PrecopyOptions{MaxRounds: 1}, Capture: CaptureOptions{ChunkBytes: 32 * 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Round(); err != nil {
		t.Fatal(err)
	}
	r.count(t, 30)
	arm(r, faultinject.Fault{Site: faultinject.SiteDaemon, Key: simnet.HostNode.String(), Kind: faultinject.Crash})
	_, err = m.Finish()
	disarm(r)
	if err == nil {
		t.Fatal("Finish survived a daemon crash in its final capture with no retry budget")
	}
	assertNoStaging(t, r, 2, "/snap/finishfault")
	if got := r.count(t, 40); got != refSum(40) {
		t.Errorf("source computation after the failed switch-over = %d, want %d", got, refSum(40))
	}
}

// framedMeta is the context file's framed metadata record: blcr pads a
// record to 96 bytes behind its 8-byte length. The differential test lays
// its image out from this figure and checks the sum against the layout's
// own size, so a format change fails there, loudly, not here, silently.
const framedMeta = 104

// restoredImage is what a restore left on the card.
type restoredImage struct {
	img     blob.Blob
	geo     *blcr.Geometry
	chunk   int64
	digests []string
}

// TestStoreRestoreDifferential restores one image three ways, on identical
// fresh platforms: out of the store over the one store read stream, out of
// the store over two striped store streams, and — the reference, which
// runs no store code — from a plain file over the paper's descriptor. The
// restored processes must be the same process: byte-identical full
// layouts and equal geometry, and the two store arms equal seeded digest
// caches, which must also be the digests of the frozen image that went
// into the store. The image is built so that, at the chunk size under test,
// a chunk edge falls inside a metadata record, another chunk spans a region
// boundary (the tail of one region's pages, the next region's record, the
// head of its pages), and the last chunk is short; content written across
// those edges is literal, the rest synthetic background.
func TestStoreRestoreDifferential(t *testing.T) {
	for _, chunk := range []int64{32 * 1024, blcr.PageChunk} {
		t.Run(fmt.Sprintf("chunk%d", chunk), func(t *testing.T) {
			var want []string
			restore := func(store bool, ropts RestoreOptions) restoredImage {
				r := newRig(t, "core_store_restore_diff", 1)
				r.count(t, 20)
				r.quiesce(t)
				p := r.offload(t).Proc()
				lay, err := r.plat.CR.LayoutFull(p)
				if err != nil {
					t.Fatal(err)
				}
				// New regions go where the trailer is now. Size "pad" so the
				// record after it straddles the next chunk edge; "small" then
				// starts just past that edge and ends inside the same chunk,
				// so that chunk also holds big's record and the head of big's
				// pages; big's odd size leaves the last chunk short.
				padMeta := lay.Size() - framedMeta
				edge := (padMeta+2*framedMeta)/chunk*chunk + chunk
				sizes := map[string]int64{"pad": edge - framedMeta/2 - (padMeta + framedMeta), "small": 10_000, "big": 3*chunk/2 + 777}
				var ends []int64 // where each new region's pages end in the file
				off := padMeta
				for i, name := range []string{"pad", "small", "big"} {
					reg, err := p.AddRegion(name, proc.RegionHeap, sizes[name], uint64(900+i))
					if err != nil {
						t.Fatal(err)
					}
					off += framedMeta
					reg.WriteAt([]byte("head of "+name), 0)
					reg.WriteAt([]byte("tail of "+name), sizes[name]-16)
					if within := (off/chunk+1)*chunk - off; within >= 8 && within+8 < sizes[name] {
						reg.WriteAt([]byte("across the edge"), within-7)
					}
					off += sizes[name]
					ends = append(ends, off)
				}
				smallMeta := padMeta + framedMeta + sizes["pad"]
				if !(smallMeta < edge && edge < smallMeta+framedMeta) {
					t.Fatalf("chunk edge %d is not inside small's record [%d,%d)", edge, smallMeta, smallMeta+framedMeta)
				}
				if smallEnd, bigRun := ends[1], ends[1]+framedMeta; bigRun/chunk != edge/chunk || ends[2] <= bigRun {
					t.Fatalf("chunk %d does not hold small's tail (%d) and big's head (%d)", edge/chunk, smallEnd, bigRun)
				}

				dir := "/snap/restorediff"
				s := NewSnapshot(dir, r.cp)
				if err := s.Pause(); err != nil {
					t.Fatal(err)
				}
				if lay, err = r.plat.CR.LayoutFull(p); err != nil {
					t.Fatal(err)
				}
				if lay.Size() != off+framedMeta || lay.Size()%chunk == 0 {
					t.Fatalf("frozen image is %d bytes, laid out by hand %d; want them equal and the last chunk short", lay.Size(), off+framedMeta)
				}
				frozen, _ := lay.Materialize()
				digests := snapstore.ChunkDigests(frozen, chunk)
				if want == nil {
					want = digests
				}
				if firstDiff(digests, want) != -1 {
					t.Fatal("the two platforms froze different images")
				}
				copts := CaptureOptions{Terminate: true, ChunkBytes: chunk}
				copts.Store.Enabled = store
				if err := s.Capture(copts); err != nil {
					t.Fatal(err)
				}
				if err := s.Wait(); err != nil {
					t.Fatal(err)
				}
				if store {
					assertManifestIs(t, r, dir+"/"+coi.ContextFileName, want, "after the swap-out")
				}

				// A daemon-level restore: the process as the context rebuilt
				// it, before a rebind starts threads in it.
				resp, err := coi.DaemonRestoreRequest(r.plat, 1, &coi.RestoreReq{
					Binary: r.cp.BinaryName(), ContextDir: dir, LocalStoreNode: simnet.HostNode, LocalStoreDir: dir,
					Streams: ropts.Streams, Retry: ropts.Retry, StoreResident: store,
				})
				if err != nil {
					t.Fatal(err)
				}
				op, err := coi.DaemonAt(r.plat, 1).Lookup(resp.ProcID)
				if err != nil {
					t.Fatal(err)
				}
				if lay, err = r.plat.CR.LayoutFull(op.Proc()); err != nil {
					t.Fatal(err)
				}
				out := restoredImage{geo: lay.Geometry()}
				out.img, _ = lay.Materialize()
				out.chunk, out.digests = op.CachedDigests()
				return out
			}

			plain := restore(false, RestoreOptions{})
			for name, got := range map[string]restoredImage{
				"store read stream":     restore(true, storeStreamRestoreOpts()),
				"striped store streams": restore(true, storeRestoreOpts()),
			} {
				if got.img.Len() != plain.img.Len() || !blob.Equal(got.img, plain.img) {
					t.Errorf("%s: the restored process's full layout differs from the plain file restore's", name)
				}
				if !reflect.DeepEqual(got.geo, plain.geo) {
					t.Errorf("%s: the restored process's geometry differs from the plain file restore's", name)
				}
				if got.chunk != chunk || firstDiff(got.digests, want) != -1 {
					t.Errorf("%s: cache seeded with %d digests of %d-byte chunks, differing from the frozen image's at chunk %d",
						name, len(got.digests), got.chunk, firstDiff(got.digests, want))
				}
			}
		})
	}
}

// storeSwapout swaps the rig's process out into the store in default-size
// chunks and returns the snapshot with its chunk count.
func storeSwapout(t *testing.T, r *rig, dir string) (*Snapshot, int) {
	t.Helper()
	var copts CaptureOptions
	copts.Store.Enabled = true
	s, err := Swapout(dir, r.cp, copts)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := r.plat.Store.Manifest(dir + "/" + coi.ContextFileName)
	if err != nil {
		t.Fatal(err)
	}
	return s, len(m.Chunks)
}

// faultAtPull parses the one-fault plan that hits the k-th chunk the host's
// Snapify-IO daemon serves from now on: the daemon crashing, or the chunk's
// read failing. The sweeps arm their faults from JSON so that a failing
// index can be replayed as a plan file.
func faultAtPull(t *testing.T, crash bool, k int) faultinject.Plan {
	t.Helper()
	text := fmt.Sprintf(`[{"site": "snapifyio.chunk", "key": "0", "kind": "drop", "nth": %d}]`, k)
	if crash {
		text = fmt.Sprintf(`[{"site": "snapifyio.daemon", "key": "host", "kind": "crash", "nth": %d}]`, k)
	}
	plan, err := faultinject.ParsePlan([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestChaosStoreRestoreSweep fails a store-resident restore at every pull
// of its read stream, once by a host daemon crash and once by a chunk
// fault: the restore returns the error, leaves no process behind and the
// card's memory where it was, and the same snapshot restores on the next
// attempt with the computation intact. Under "retry4" the restore has a
// retry policy and rides every one of those faults out: the read reopens
// at its offset.
func TestChaosStoreRestoreSweep(t *testing.T) {
	for _, retry := range []bool{false, true} {
		for _, crash := range []bool{true, false} {
			r := newRig(t, "core_chaos_store_restore", 1)
			iters := uint64(20)
			r.count(t, iters)
			s, chunks := storeSwapout(t, r, "/snap/restoresweep")
			if chunks < 4 {
				t.Fatalf("image is %d chunks; the sweep wants a few", chunks)
			}
			opts := storeStreamRestoreOpts()
			name := fmt.Sprintf("crash=%v", crash)
			if retry {
				opts.Retry = RetryPolicy{MaxAttempts: 4}
				name = "retry4/" + name
			}
			for k := 1; k <= chunks; k++ {
				t.Run(fmt.Sprintf("%s/pull%d", name, k), func(t *testing.T) {
					mem, procs := r.plat.Device(1).Mem.Used(), r.plat.Procs.Count()
					inj := faultinject.New(faultAtPull(t, crash, k), nil)
					r.plat.Server.Fabric.SetInjector(inj)
					_, err := s.Restore(1, opts)
					disarm(r)
					if inj.FiredTotal() != 1 {
						t.Fatalf("%d faults fired, want the one at pull %d", inj.FiredTotal(), k)
					}
					switch {
					case retry && err != nil:
						t.Fatalf("restore with a retry policy failed on one fault: %v", err)
					case retry:
						if err := s.Resume(); err != nil {
							t.Fatal(err)
						}
					case err == nil:
						t.Fatal("restore survived a fault on its read stream with no retry policy")
					default:
						if got := r.plat.Procs.Count(); got != procs {
							t.Errorf("%d processes after the failed restore, %d before", got, procs)
						}
						if got := r.plat.Device(1).Mem.Used(); got != mem {
							t.Errorf("card memory %d after the failed restore, %d before", got, mem)
						}
						if _, err := Swapin(s, 1, storeStreamRestoreOpts()); err != nil {
							t.Fatalf("next attempt: %v", err)
						}
					}
					iters += 5
					if got := r.count(t, iters); got != refSum(iters) {
						t.Fatalf("computation after the restore = %d, want %d", got, refSum(iters))
					}
					s, _ = storeSwapout(t, r, "/snap/restoresweep")
				})
			}
			assertNoPartials(t, r.plat)
		}
	}
}

// TestChaosStagingRoundSweep fails a live migration's first staging round
// at every pull of its read stream, by daemon crash and by chunk fault:
// Round reports the staging failure, and Abort leaves the source running
// with its computation intact, the destination's staging area empty and the
// store consistent.
func TestChaosStagingRoundSweep(t *testing.T) {
	opts := MigrateOptions{DeviceTo: 2, Path: "/snap/stagesweep", Precopy: PrecopyOptions{MaxRounds: 2}}
	// A fault-free round sizes the sweep: the faults count the chunks the
	// host daemon serves, and the round's upload comes first.
	probe := newRig(t, "core_chaos_stage_probe", 2)
	probe.count(t, 20)
	m, err := NewMigration(probe.cp, opts)
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := m.Round()
	if err != nil {
		t.Fatal(err)
	}
	m.Abort()
	if first.ChunksTotal < 4 || first.ChunksNeeded != first.ChunksTotal {
		t.Fatalf("probe round shipped %d of %d chunks; the sweep wants a cold store and a few chunks", first.ChunksNeeded, first.ChunksTotal)
	}
	for _, crash := range []bool{true, false} {
		for k := 1; k <= first.ChunksTotal; k++ {
			t.Run(fmt.Sprintf("crash=%v/pull%d", crash, k), func(t *testing.T) {
				r := newRig(t, "core_chaos_stage", 2)
				r.count(t, 20)
				m, err := NewMigration(r.cp, opts)
				if err != nil {
					t.Fatal(err)
				}
				r.plat.Server.Fabric.SetInjector(faultinject.New(faultAtPull(t, crash, first.ChunksNeeded+k), nil))
				_, _, err = m.Round()
				disarm(r)
				if err == nil || !strings.Contains(err.Error(), "staging") {
					t.Fatalf("round with a fault on its staging stream: err = %v, want the staging failure", err)
				}
				m.Abort()
				if st := r.cp.State(); st != coi.StateActive {
					t.Fatalf("source process state %v after the aborted round, want active", st)
				}
				if got := r.count(t, 40); got != refSum(40) {
					t.Errorf("source computation after the aborted round = %d, want %d", got, refSum(40))
				}
				assertNoStaging(t, r, 2, opts.Path)
				assertNoPartials(t, r.plat)
				assertStoreConsistent(t, r)
			})
		}
	}
}

// storeReadDurations are the virtual times of the first store-stream
// restore, staging round, retry-enabled store-stream restore, plain file
// restore and retry-enabled plain file restore this test process ran; they
// outlive one run of the test, so -count=N compares N runs.
var storeReadDurations [5]simclock.Duration

// TestStoreRestoreDeterministic: a swap-in over the store read stream, a
// staging round over it and a swap-in over the paper's descriptor from a
// plain file are priced from sizes alone — one stream is the link's only
// flow. A retry policy picks no transport, so each swap-in costs the same
// with one as without when no fault fires. Fresh platforms in one
// process, and (scripts/verify.sh: -count=50 at GOMAXPROCS 1 and 8) any
// number of runs, report one duration of each to the nanosecond.
func TestStoreRestoreDeterministic(t *testing.T) {
	// swapin swaps a fresh rig's process out, into the store or to a plain
	// file, and back in, and returns the rig and the restore's price.
	swapin := func(store, retry bool) (*rig, simclock.Duration) {
		r := newRig(t, "core_store_restore_deterministic", 2)
		r.count(t, 20)
		var copts CaptureOptions
		copts.Store.Enabled = store
		s, err := Swapout("/snap/restoredet", r.cp, copts)
		if err != nil {
			t.Fatal(err)
		}
		var ropts RestoreOptions
		ropts.Store.Enabled = store
		if retry {
			ropts.Retry = RetryPolicy{MaxAttempts: 4}
		}
		if _, err := Swapin(s, 1, ropts); err != nil {
			t.Fatal(err)
		}
		return r, s.Report.RestoreDevice
	}
	for i := 0; i < 2; i++ {
		r, restore := swapin(true, false)
		// A restored process respawns its pipeline thread when the first
		// call arrives; make one, so the image the round stages has the
		// thread's record in it on every run.
		r.count(t, 30)
		r.quiesce(t)
		m, err := NewMigration(r.cp, MigrateOptions{DeviceTo: 2, Path: "/snap/stagedet", Precopy: PrecopyOptions{MaxRounds: 2}})
		if err != nil {
			t.Fatal(err)
		}
		round, _, err := m.Round()
		if err != nil {
			t.Fatal(err)
		}
		m.Abort()
		_, retrying := swapin(true, true)
		_, plain := swapin(false, false)
		_, plainRetrying := swapin(false, true)
		got := [5]simclock.Duration{restore, round.StageDuration, retrying, plain, plainRetrying}
		for k, d := range got {
			if d <= 0 {
				t.Fatalf("figure %d of %v is not a duration", k, got)
			}
		}
		if retrying != restore || plainRetrying != plain {
			t.Errorf("retry-enabled swap-ins took %d (store) and %d (plain) virtual ns, retry-free ones %d and %d: a retry policy with no fault must cost nothing",
				retrying, plainRetrying, restore, plain)
		}
		if storeReadDurations == [5]simclock.Duration{} {
			storeReadDurations = got
		}
		if got != storeReadDurations {
			t.Fatalf("store-stream restore, staging, retry-enabled store restore, plain and retry-enabled plain restore took %v virtual ns, earlier identical ones %v", got, storeReadDurations)
		}
		t.Logf("virtual ns: store-stream restore %d, staging %d, retry-enabled store restore %d, plain restore %d, retry-enabled plain restore %d",
			got[0], got[1], got[2], got[3], got[4])
	}
}

// TestRestoreObservesStoreResidency: whether a snapshot lives in the store
// is something RestoreChain can see — no plain context file on the host, a
// committed manifest in the store — so a zero RestoreOptions must take the
// same store read stream, and seed the same chunk-digest cache from the
// manifest, as one with Store.Enabled set. Before residency was observed
// the zero-options swap-in fell to the one-slot descriptor, reading the
// store through a file system overlay (2.7x the restore), and left the
// cache cold, so the next capture
// re-read and re-shipped every chunk (25x the capture).
func TestRestoreObservesStoreResidency(t *testing.T) {
	type figures struct {
		restore, capture simclock.Duration
		shipped          int64
	}
	cycle := func(bin string, ropts RestoreOptions) figures {
		r := newRig(t, bin, 1)
		r.count(t, 20)
		s, _ := storeSwapout(t, r, "/snap/resident")
		if _, err := Swapin(s, 1, ropts); err != nil {
			t.Fatal(err)
		}
		// As in TestStoreRestoreDeterministic: one call, so the respawned
		// pipeline thread's record is in the next image on every run.
		r.count(t, 30)
		r.quiesce(t)
		next, _ := storeSwapout(t, r, "/snap/resident_next")
		return figures{s.Report.RestoreTotal(), next.Report.Capture, next.Report.ShippedBytes}
	}
	want := cycle("core_resident_flagged", storeStreamRestoreOpts())
	got := cycle("core_resident_observed", RestoreOptions{})
	if got.restore != want.restore {
		t.Errorf("zero-options restore of a store-resident snapshot took %d virtual ns, the Store.Enabled one %d", got.restore, want.restore)
	}
	if got.capture != want.capture || got.shipped != want.shipped {
		t.Errorf("capture after a zero-options restore: %d virtual ns, %d bytes shipped; after the Store.Enabled one (digest cache seeded from the manifest): %d ns, %d bytes",
			got.capture, got.shipped, want.capture, want.shipped)
	}
}

// paintedBinary is the rig's counter with one more region, name, of size
// bytes over background seed, and a "paint" call that fills its bytes
// [4 MiB, 12 MiB) with fill: at least one whole default-size chunk of
// the image.
func paintedBinary(bin, name string, size int64, seed uint64, fill byte) *coi.Binary {
	b := testBinary(bin)
	b.AddRegion(name, proc.RegionHeap, size, seed)
	b.Register("paint", func(ctx *coi.RunContext, _ []byte) ([]byte, error) {
		ctx.Region(name).WriteAt(bytes.Repeat([]byte{fill}, 8<<20), 4*simclock.MiB)
		return nil, nil
	})
	return b
}

// swapCycle is a swap-out of a fresh rig running bin, after 20 counts and
// one paint, and a swap-in onto the same card over streams streams, into
// the store or through plain files. It returns the frozen image's chunk
// digests and the snapshot's report, and fails the test unless every
// region of the restored process, before it resumed, holds the bytes it
// was frozen with. (The full layouts differ by a thread record: a restored process
// respawns its pipeline thread on the next call.)
func swapCycle(t *testing.T, bin *coi.Binary, store bool, streams int) (digests []string, rep *Report) {
	t.Helper()
	r := newRigBinary(t, bin, 1)
	r.count(t, 20)
	if _, err := r.pl.RunFunction("paint", nil); err != nil {
		t.Fatal(err)
	}
	dir := "/snap/" + bin.Name
	s := NewSnapshot(dir, r.cp)
	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
	p := r.offload(t).Proc()
	lay, err := r.plat.CR.LayoutFull(p)
	if err != nil {
		t.Fatal(err)
	}
	frozen, _ := lay.Materialize()
	digests = snapstore.ChunkDigests(frozen, blcr.PageChunk)
	regions := make(map[string]blob.Blob)
	for _, reg := range p.Regions() {
		regions[reg.Name()] = reg.SnapshotRange(0, reg.Size())
	}
	copts := CaptureOptions{Terminate: true}
	copts.Store.Enabled = store
	if err := s.Capture(copts); err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	ropts := RestoreOptions{Streams: streams}
	ropts.Store.Enabled = store
	if _, err := s.Restore(1, ropts); err != nil {
		t.Fatal(err)
	}
	restored := r.offload(t).Proc().Regions()
	if len(restored) != len(regions) {
		t.Fatalf("restored process has %d regions, frozen %d", len(restored), len(regions))
	}
	for _, reg := range restored {
		want, ok := regions[reg.Name()]
		if got := reg.SnapshotRange(0, reg.Size()); !ok || got.Len() != want.Len() || !blob.Equal(got, want) {
			t.Fatalf("region %q after the swap-in differs from the frozen one", reg.Name())
		}
	}
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	if got := r.count(t, 30); got != refSum(30) {
		t.Fatalf("computation after the swap-in = %d, want %d", got, refSum(30))
	}
	return digests, &s.Report
}

// zeroChunks counts the digests that name a whole default-size chunk of
// zeros: the chunks a store read stream serves as holes.
func zeroChunks(digests []string) int {
	zero, n := snapstore.ZeroDigest(blcr.PageChunk), 0
	for _, d := range digests {
		if d == zero {
			n++
		}
	}
	return n
}

// holeSeedDurations are TestStoreRestoreWritesHolesOverSeededRegions's
// two swap-in prices as the first run in this test process saw them, so
// -count=N compares N runs.
var holeSeedDurations [2]simclock.Duration

// TestStoreRestoreWritesHolesOverSeededRegions: a hole is skipped only
// where the fresh region is zeros already. Here the application paints
// zeros over 8 MiB of a region whose background is seed 7, so the image
// has whole zero chunks whose bytes are not that region's background. A
// store swap-in serves them as holes; the restore must still write them
// (every restored region equals its frozen self, over one store stream
// and over two striped ones) and pay their copy: next to the swap-in of
// the same image painted 0xA5 instead, it may save what a hole does not
// move (its RDMA and socket copy), never a chunk's copy into the region.
func TestStoreRestoreWritesHolesOverSeededRegions(t *testing.T) {
	const size = 16 * simclock.MiB
	zeros := paintedBinary("core_hole_seed7_zeros", "canvas", size, 7, 0)
	digests, rep := swapCycle(t, zeros, true, 1)
	zeroed := rep.RestoreDevice
	if n := zeroChunks(digests); n < 1 {
		t.Fatalf("the zero-painted image has no whole zero chunk among its %d", len(digests))
	}
	// Two striped store streams load the same holes run by run; their
	// price is not pinned (the link's flow count, ROADMAP item 1b). Over a
	// seed-0 region, where holes are skipped, both shapes must leave the
	// same bytes too.
	swapCycle(t, zeros, true, 2)
	skipped := paintedBinary("core_hole_seed0", "private", 64*simclock.MiB, 0, 0xA5)
	if digests, _ := swapCycle(t, skipped, true, 1); zeroChunks(digests) < 8 {
		t.Fatalf("the seed-0 image has %d zero chunks of %d, want at least 8", zeroChunks(digests), len(digests))
	}
	swapCycle(t, skipped, true, 2)
	digests, rep = swapCycle(t, paintedBinary("core_hole_seed7_a5", "canvas", size, 7, 0xA5), true, 1)
	painted := rep.RestoreDevice
	if n := zeroChunks(digests); n != 0 {
		t.Fatalf("the 0xA5-painted image has %d zero chunks, want none", n)
	}
	copyChunk := simclock.Default().PhiMemcpy(blcr.PageChunk)
	if painted-zeroed >= copyChunk/2 {
		t.Errorf("swap-in with zero chunks over seed 7: %d virtual ns, with 0xA5 there: %d; the zeros must not save half a chunk's copy (%d ns)",
			zeroed, painted, copyChunk)
	}
	got := [2]simclock.Duration{zeroed, painted}
	if holeSeedDurations == [2]simclock.Duration{} {
		holeSeedDurations = got
	}
	if got != holeSeedDurations {
		t.Fatalf("swap-ins took %v virtual ns, an earlier identical run %v", got, holeSeedDurations)
	}
	t.Logf("virtual ns: store swap-in with zeros over seed 7 %d, with 0xA5 %d", zeroed, painted)
}

// guardCycles runs the two swap cycles the zero rule's guards pin: a
// store swap of an image with no zero chunk (the rig with a 16 MiB heap
// over seed 3, half of it painted) and a plain swap of a zero-rich image
// shaped like bench/'s store workloads (a 256 MiB seed-0 heap: 60 of its
// 75 chunks are zero). It returns the two reports and the zero-rich
// image's digests.
func guardCycles(t *testing.T) (store, plain *Report, zeroRich []string) {
	t.Helper()
	digests, store := swapCycle(t, paintedBinary("core_nohole_seed3", "heap", 16*simclock.MiB, 3, 0xA5), true, 1)
	if n := zeroChunks(digests); n != 0 {
		t.Fatalf("the seed-3 image has %d zero chunks, want none", n)
	}
	zeroRich, plain = swapCycle(t, paintedBinary("core_nohole_zero_rich", "private", 256*simclock.MiB, 0, 0xA5), false, 1)
	if n := zeroChunks(zeroRich); 2*n < len(zeroRich) {
		t.Fatalf("the zero-rich image has %d zero chunks of %d, want most", n, len(zeroRich))
	}
	return store, plain, zeroRich
}

// TestSwapinWithoutHolesUnchanged pins the two swap-ins of guardCycles,
// which a hole cannot reach, to the figures they had before store streams
// served holes: the store image has no zero chunk, and a plain read never
// yields a hole.
func TestSwapinWithoutHolesUnchanged(t *testing.T) {
	// This test's figures on the tree before holes.
	const (
		seededStore = simclock.Duration(80_821_519)
		zeroPlain   = simclock.Duration(1_081_253_224)
	)
	store, plain, digests := guardCycles(t)
	if store.RestoreDevice != seededStore || plain.RestoreDevice != zeroPlain {
		t.Errorf("store swap-in of an image with no zero chunk took %d virtual ns, plain swap-in of a zero-rich one %d; before holes they took %d and %d",
			store.RestoreDevice, plain.RestoreDevice, seededStore, zeroPlain)
	}
	t.Logf("virtual ns: store swap-in without zero chunks %d, plain swap-in of a zero-rich image %d (%d of %d chunks zero)",
		store.RestoreDevice, plain.RestoreDevice, zeroChunks(digests), len(digests))
}

// TestColdStoreCaptureWithoutZeroChunksUnchanged pins the two captures of
// guardCycles, which the page-table sweep cannot shorten, to the figures
// they had before the sweep: the cold store capture has no untouched
// seed-0 chunk, so it walks every chunk (and a walked chunk's page tables
// cost nothing extra), and a plain capture ships every byte whatever it
// holds.
func TestColdStoreCaptureWithoutZeroChunksUnchanged(t *testing.T) {
	// This test's figures on the tree before the sweep.
	const (
		seededStore = simclock.Duration(239_583_970)
		zeroPlain   = simclock.Duration(1_185_013_128)
	)
	store, plain, digests := guardCycles(t)
	for _, rep := range []*Report{store, plain} {
		if rep.ShippedBytes != rep.SnapshotBytes {
			t.Fatalf("a capture shipped %d of %d bytes, want all", rep.ShippedBytes, rep.SnapshotBytes)
		}
	}
	if store.Capture != seededStore || plain.Capture != zeroPlain {
		t.Errorf("cold store capture of an image with no zero chunk took %d virtual ns, plain capture of a zero-rich one %d; before the sweep they took %d and %d",
			store.Capture, plain.Capture, seededStore, zeroPlain)
	}
	t.Logf("virtual ns: cold store capture without zero chunks %d, plain capture of a zero-rich image %d (%d of %d chunks zero)",
		store.Capture, plain.Capture, zeroChunks(digests), len(digests))
}
