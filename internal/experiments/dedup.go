package experiments

import (
	"fmt"

	"snapify/internal/blob"
	"snapify/internal/coi"
	"snapify/internal/core"
	"snapify/internal/obs"
	"snapify/internal/platform"
	"snapify/internal/simclock"
	"snapify/internal/trace"
)

// DedupSwapImageBytes is the default device image of the dedup swap
// benchmark. Like the faulted-capture benchmark it is deliberately
// smaller than the parallel sweep's 8 GiB: the object of study is the
// *ratio* of bytes shipped with and without the store, and that ratio is
// size-independent once the image dwarfs one chunk.
const DedupSwapImageBytes = 1 * simclock.GiB

// DedupSwapCycles is how many swap-out/swap-in round trips each data
// path runs. The first store-path cycle ships everything (the store is
// cold); every later cycle ships only the chunks the workload dirtied
// in between, so the dedup win grows with the cycle count.
const DedupSwapCycles = 4

// DedupSwapRow is one swap cycle's measurements on both data paths.
type DedupSwapRow struct {
	Cycle int `json:"cycle"`
	// SnapshotBytes is the logical context-file size (identical across
	// cycles and paths: swapping never changes the image size).
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// PlainShippedBytes is what the plain data path moved to the host —
	// always the whole image.
	PlainShippedBytes int64 `json:"plain_shipped_bytes"`
	// StoreShippedBytes is what the dedup path moved after the have/need
	// negotiation skipped the chunks the store already held.
	StoreShippedBytes int64 `json:"store_shipped_bytes"`
	PlainCaptureNs    int64 `json:"plain_capture_ns"`
	StoreCaptureNs    int64 `json:"store_capture_ns"`
	// PlainRestoreNs is the swap-in over the paper's one-slot descriptor,
	// whose stages add up per chunk; StoreRestoreNs the same image pulled
	// out of the store over the two-slot read stream, whose stages overlap.
	// Both are the whole restore: context, local store, reconnect.
	PlainRestoreNs int64 `json:"plain_restore_ns"`
	StoreRestoreNs int64 `json:"store_restore_ns"`
	// ChunksTotal and ChunksShipped are the negotiation's have/need
	// outcome, summed over the cycle's store_negotiate spans (one per
	// window of the capture's digest list).
	ChunksTotal   int64 `json:"chunks_total"`
	ChunksShipped int64 `json:"chunks_shipped"`
	// ZeroChunks counts the chunks of the cycle's committed manifest that
	// are the zero chunk: no negotiation needs one, so none ships.
	ZeroChunks int64 `json:"zero_chunks"`
}

// DedupSwapResult is the full comparison.
type DedupSwapResult struct {
	Benchmark  string         `json:"benchmark"`
	ImageBytes int64          `json:"image_bytes"`
	Cycles     int            `json:"cycles"`
	Rows       []DedupSwapRow `json:"rows"`

	PlainShippedTotal int64 `json:"plain_shipped_total"`
	StoreShippedTotal int64 `json:"store_shipped_total"`
	// ReductionX is PlainShippedTotal / StoreShippedTotal — the headline
	// dedup win (the acceptance floor is 3x at 4 cycles).
	ReductionX float64 `json:"reduction_x"`
	// StoreDedupRatio is the store's logical/stored byte ratio after the
	// run: how many snapshot bytes each resident chunk byte serves.
	StoreDedupRatio float64 `json:"store_dedup_ratio"`
	// ContextsIdentical reports the dual-capture identity probe: the same
	// frozen process captured once to a plain file and once through the
	// store, with the store copy read back chunk-by-chunk — both byte
	// streams must be identical, so restores from the store rebuild
	// exactly what a plain restore would.
	ContextsIdentical bool `json:"contexts_identical"`
	// NegotiationSpans counts the store_negotiate spans on the trace;
	// CorrelatedSpans counts those sharing a scope id with a
	// snapify_capture span (all of them, or the trace is broken).
	// WholeNegotiations counts the store captures (scopes with a
	// store_digest span) whose negotiation windows add up to the image:
	// at least one store_negotiate span, chunks_total summing to the digest
	// pass's chunk count (every store capture, or a window went missing).
	NegotiationSpans  int `json:"negotiation_spans"`
	CorrelatedSpans   int `json:"correlated_spans"`
	WholeNegotiations int `json:"whole_negotiations"`
	// ChunksAfterGC is the store's resident chunk count after every
	// manifest was released and a GC ran: zero, or the refcounts leak.
	ChunksAfterGC int `json:"chunks_after_gc"`

	tracer *obs.Tracer
}

// TraceJSON exports the run's virtual-clock trace as Chrome trace-event
// JSON; the store_negotiate spans sit on the card tracks, scoped to
// their captures.
func (r *DedupSwapResult) TraceJSON() []byte {
	return r.tracer.ChromeTrace()
}

// DedupSwap swaps one offload process out and back in `cycles` times on
// each data path — plain host files, then the content-addressed store —
// running one offload call between swaps so consecutive images differ by
// a realistic dirty set. It reports the bytes each path physically
// shipped, proves the store round-trip byte-identical with a dual
// capture of one frozen image, and finishes by releasing every manifest
// and running GC to pin the refcount accounting at zero chunks.
//
// Each data path runs on its own freshly built platform: the two runs are
// deterministic replays of the same workload, so sharing one platform
// would land both instances' spans at the same virtual times on the
// shared host and coid trace lanes, and the exported trace would show
// phantom overlaps between operations that never coexisted.
func DedupSwap(imageBytes int64, cycles int) (*DedupSwapResult, error) {
	if cycles < 2 {
		return nil, fmt.Errorf("dedup swap: need at least 2 cycles to dedup across, got %d", cycles)
	}
	cfg := serverFor(1, imageBytes)
	spec := imageSpec("DS", "dedup swap cycles", imageBytes, cycles+2)

	// Both instances run to completion after their cycles: a corrupted
	// restore would derail the remaining offload calls.
	plain, err := newRig(cfg, spec, 1)
	if err != nil {
		return nil, err
	}
	plainReports, err := swapCycles(plain, cycles, false, "/bench/dedup/plain")
	if err == nil {
		_, err = plain.in.Run()
	}
	plain.stop()
	if err != nil {
		return nil, fmt.Errorf("plain path: %w", err)
	}

	// The store-path instance also takes the dual-capture identity probe,
	// while the process is still resident.
	store, err := newRig(cfg, spec, 1)
	if err != nil {
		return nil, err
	}
	defer store.stop()
	plat := store.plat
	storeReports, err := swapCycles(store, cycles, true, "/bench/dedup/store")
	if err != nil {
		return nil, fmt.Errorf("store path: %w", err)
	}
	identical, err := dualCaptureIdentical(store)
	if err != nil {
		return nil, fmt.Errorf("store path: identity probe: %w", err)
	}
	if _, err := store.in.Run(); err != nil {
		return nil, fmt.Errorf("store path: %w", err)
	}

	res := &DedupSwapResult{
		Benchmark: "dedup-swap", ImageBytes: imageBytes, Cycles: cycles,
		ContextsIdentical: identical,
		tracer:            plat.Obs.TracerOf(),
	}

	// The store_negotiate spans carry each store capture's have/need
	// outcome, one span per window of its digest list; their scope ids must
	// resolve to captures, and per capture they must add up to the image
	// its store_digest span describes. Store captures appear in cycle
	// order, the identity probe's last.
	type negotiated struct {
		scope                       uint64
		spans, total, needed, image int64
	}
	captureScopes := map[uint64]bool{}
	byScope := map[uint64]*negotiated{}
	var storeCaptures []*negotiated
	capture := func(scope uint64) *negotiated {
		if byScope[scope] == nil {
			byScope[scope] = &negotiated{scope: scope}
			storeCaptures = append(storeCaptures, byScope[scope])
		}
		return byScope[scope]
	}
	for _, sp := range res.tracer.Spans() {
		switch sp.Name {
		case "snapify_capture":
			captureScopes[sp.Scope] = true
		case "store_digest":
			capture(sp.Scope).image = sp.Args["chunks_total"]
		case "store_negotiate":
			n := capture(sp.Scope)
			n.spans++
			n.total += sp.Args["chunks_total"]
			n.needed += sp.Args["chunks_needed"]
		}
	}
	for _, n := range storeCaptures {
		res.NegotiationSpans += int(n.spans)
		if n.scope != 0 && captureScopes[n.scope] {
			res.CorrelatedSpans += int(n.spans)
		}
		if n.spans > 0 && n.image > 0 && n.total == n.image {
			res.WholeNegotiations++
		}
	}

	for c := 0; c < cycles; c++ {
		row := DedupSwapRow{
			Cycle:             c,
			SnapshotBytes:     plainReports[c].SnapshotBytes,
			PlainShippedBytes: plainReports[c].ShippedBytes,
			StoreShippedBytes: storeReports[c].ShippedBytes,
			PlainCaptureNs:    int64(plainReports[c].Capture),
			StoreCaptureNs:    int64(storeReports[c].Capture),
			PlainRestoreNs:    int64(plainReports[c].RestoreTotal()),
			StoreRestoreNs:    int64(storeReports[c].RestoreTotal()),
		}
		if c < len(storeCaptures) {
			row.ChunksTotal = storeCaptures[c].total
			row.ChunksShipped = storeCaptures[c].needed
		}
		m, _, err := plat.Store.Manifest(fmt.Sprintf("/bench/dedup/store/cycle%d/%s", c, coi.ContextFileName))
		if err != nil {
			return nil, fmt.Errorf("store path: cycle %d: %w", c, err)
		}
		row.ZeroChunks = int64(m.ZeroChunks())
		res.PlainShippedTotal += row.PlainShippedBytes
		res.StoreShippedTotal += row.StoreShippedBytes
		res.Rows = append(res.Rows, row)
	}
	if res.StoreShippedTotal > 0 {
		res.ReductionX = float64(res.PlainShippedTotal) / float64(res.StoreShippedTotal)
	}
	res.StoreDedupRatio = plat.Store.Stats().DedupRatio()

	// Drop every snapshot and collect: a clean store afterwards is the
	// refcount/GC acceptance (ISSUE 5) measured, not assumed.
	if res.ChunksAfterGC, err = drainStore(plat.Store); err != nil {
		return nil, err
	}
	return res, nil
}

// swapCycles swaps the rig's process out and back in `cycles` times on one
// data path, one offload call between swaps — the small working set a real
// swapped tenant dirties between residencies — and returns each cycle's
// report.
func swapCycles(r *rig, cycles int, storeMode bool, pathPrefix string) ([]*core.Report, error) {
	var copts core.CaptureOptions
	var ropts core.RestoreOptions
	copts.Store.Enabled = storeMode
	ropts.Store.Enabled = storeMode
	var reports []*core.Report
	for c := 0; c < cycles; c++ {
		s, err := core.Swapout(fmt.Sprintf("%s/cycle%d", pathPrefix, c), r.in.CP, copts)
		if err != nil {
			return nil, fmt.Errorf("cycle %d swapout: %w", c, err)
		}
		cp, err := core.Swapin(s, 1, ropts)
		if err != nil {
			return nil, fmt.Errorf("cycle %d swapin: %w", c, err)
		}
		r.in.CP = cp
		reports = append(reports, &s.Report)
		if _, err := r.in.RunCalls(1); err != nil {
			return nil, err
		}
	}
	return reports, nil
}

// replay re-runs the comparison a recorded document describes.
func (r *DedupSwapResult) replay() (Result, error) { return DedupSwap(r.ImageBytes, r.Cycles) }

// Render prints the comparison in the tables' layout.
func (r *DedupSwapResult) Render() string {
	t := trace.New(fmt.Sprintf("Dedup swap: %s image, %d swap cycles, plain files vs content-addressed store",
		sizeLabel(r.ImageBytes), r.Cycles),
		"Cycle", "Snapshot (MiB)", "Plain ship (MiB)", "Store ship (MiB)", "Chunks need/total", "Plain restore (ms)", "Store restore (ms)")
	for _, row := range r.Rows {
		t.Row(fmt.Sprintf("%d", row.Cycle),
			fmt.Sprintf("%d", row.SnapshotBytes/simclock.MiB),
			fmt.Sprintf("%d", row.PlainShippedBytes/simclock.MiB),
			fmt.Sprintf("%d", row.StoreShippedBytes/simclock.MiB),
			fmt.Sprintf("%d/%d", row.ChunksShipped, row.ChunksTotal),
			fmt.Sprintf("%.0f", simclock.Duration(row.PlainRestoreNs).Seconds()*1000),
			fmt.Sprintf("%.0f", simclock.Duration(row.StoreRestoreNs).Seconds()*1000))
	}
	return t.String() + fmt.Sprintf("\nshipped: plain %d MiB, store %d MiB — %.1fx reduction; store dedup ratio %.2fx\nstore context byte-identical to plain: %v; chunks after release-all + GC: %d",
		r.PlainShippedTotal/simclock.MiB, r.StoreShippedTotal/simclock.MiB,
		r.ReductionX, r.StoreDedupRatio, r.ContextsIdentical, r.ChunksAfterGC)
}

// Capture-time bounds of the store path relative to the plain path, in
// virtual time. A warm store capture re-reads and ships only what
// changed, so it must cost a fraction of shipping everything. A cold one
// walks every page exactly as the plain capture does and is priced by the
// same pipeline rule — walk, digest copy, slot copy, RDMA and host write
// of different chunks overlap, and the walk is the slowest stage of both —
// so all it may add is a deeper pipeline fill and one have/need round-trip
// per window of chunks: 1.01x plain at 256 MiB, 1.003x at 1 GiB. The bound
// leaves room for a slower store's chunk writes but not for
// any stage falling back out of the overlap — the digest copy alone, run
// as a serial pass again, costs 1.31x.
const (
	warmStoreCaptureMaxRatio = 0.25
	coldStoreCaptureMaxRatio = 1.15
)

// storeRestoreMaxRatio bounds a store swap-in against the plain serial one
// of the same image. The plain descriptor has one staging slot, so a chunk
// costs the sum of its stages — host read, RDMA, socket copy, page copy:
// 14.65 ms per 4 MiB; the store's read stream has two, so a chunk costs its
// slowest stage, a 5.02 ms card-side copy: 0.37x at 256 MiB, 0.35x at 1 GiB
// (the local store and the reconnect, the same on both paths, are the
// rest). Any stage falling back out of the overlap breaks the bound: the
// page copy alone, added to the slowest of the other three again, costs
// about 0.7x.
const storeRestoreMaxRatio = 0.40

// CheckShape verifies the acceptance claims: the cold cycle ships every
// chunk of the image but the zero ones (recurrences of a non-zero chunk
// included: an empty store holds nothing else), every warm cycle ships strictly less and captures in at
// most a quarter of the plain path's time, every store restore takes at
// most 0.40x the plain serial one, the total reduction is at least 3x,
// the store-resident context is byte-for-byte the plain capture, every
// negotiation span correlates with a capture scope and every store
// capture's windows add up to its image, and releasing everything leaves
// an empty store.
func (r *DedupSwapResult) CheckShape() error {
	if len(r.Rows) != r.Cycles {
		return fmt.Errorf("dedup swap: %d rows for %d cycles", len(r.Rows), r.Cycles)
	}
	for _, row := range r.Rows {
		if row.SnapshotBytes != r.Rows[0].SnapshotBytes {
			return fmt.Errorf("dedup swap: cycle %d snapshot is %d bytes, cycle 0 was %d",
				row.Cycle, row.SnapshotBytes, r.Rows[0].SnapshotBytes)
		}
		if row.PlainShippedBytes != row.SnapshotBytes {
			return fmt.Errorf("dedup swap: plain path shipped %d of %d bytes at cycle %d — plain captures ship everything",
				row.PlainShippedBytes, row.SnapshotBytes, row.Cycle)
		}
		if row.Cycle > 0 && row.StoreShippedBytes >= row.SnapshotBytes {
			return fmt.Errorf("dedup swap: warm cycle %d still shipped %d of %d bytes — negotiation skipped nothing",
				row.Cycle, row.StoreShippedBytes, row.SnapshotBytes)
		}
		maxRatio := warmStoreCaptureMaxRatio
		if row.Cycle == 0 {
			maxRatio = coldStoreCaptureMaxRatio
		}
		if limit := int64(maxRatio * float64(row.PlainCaptureNs)); row.StoreCaptureNs > limit {
			return fmt.Errorf("dedup swap: cycle %d store capture took %d virtual ns, over %.2fx the plain capture's %d",
				row.Cycle, row.StoreCaptureNs, maxRatio, row.PlainCaptureNs)
		}
		if limit := int64(storeRestoreMaxRatio * float64(row.PlainRestoreNs)); row.StoreRestoreNs <= 0 || row.StoreRestoreNs > limit {
			return fmt.Errorf("dedup swap: cycle %d store restore took %d virtual ns, over %.2fx the plain serial restore's %d",
				row.Cycle, row.StoreRestoreNs, storeRestoreMaxRatio, row.PlainRestoreNs)
		}
	}
	if cold := r.Rows[0]; cold.ChunksShipped != cold.ChunksTotal-cold.ZeroChunks {
		return fmt.Errorf("dedup swap: cold store cycle shipped %d of %d chunks, %d of them zero — the empty store can dedup exactly the zero chunks",
			cold.ChunksShipped, cold.ChunksTotal, cold.ZeroChunks)
	}
	if r.ReductionX < 3.0 {
		return fmt.Errorf("dedup swap: only %.2fx shipped-byte reduction over %d cycles, want >= 3x",
			r.ReductionX, r.Cycles)
	}
	if !r.ContextsIdentical {
		return fmt.Errorf("dedup swap: store round-trip of the context file is not byte-identical to the plain capture")
	}
	// The store cycles plus the identity probe each negotiated their
	// whole image, in one window or several.
	if r.WholeNegotiations != r.Cycles+1 {
		return fmt.Errorf("dedup swap: %d of %d store captures have store_negotiate spans adding up to their image's chunk count", r.WholeNegotiations, r.Cycles+1)
	}
	if r.CorrelatedSpans != r.NegotiationSpans {
		return fmt.Errorf("dedup swap: only %d of %d negotiation spans share a scope with a snapify_capture span",
			r.CorrelatedSpans, r.NegotiationSpans)
	}
	if r.ChunksAfterGC != 0 {
		return fmt.Errorf("dedup swap: %d chunks survive release-all + GC — a refcount leaked", r.ChunksAfterGC)
	}
	return nil
}

// dualCaptureIdentical captures the same frozen process twice — once to
// a plain host file, once through the store — and compares the two byte
// streams, reading the store copy back chunk by chunk as its manifest
// lists them. No work runs between the captures
// (and CaptureFull does not reset dirty tracking), so the frozen image
// is the same both times.
func dualCaptureIdentical(r *rig) (bool, error) {
	plat := r.plat
	if _, err := r.cycle("/bench/dedup/ident_plain", core.CaptureOptions{}, nil); err != nil {
		return false, fmt.Errorf("plain %w", err)
	}
	var storeOpts core.CaptureOptions
	storeOpts.Store.Enabled = true
	if _, err := r.cycle("/bench/dedup/ident_store", storeOpts, nil); err != nil {
		return false, fmt.Errorf("store %w", err)
	}
	plain, _, err := plat.Host().FS.ReadFile("/bench/dedup/ident_plain/" + coi.ContextFileName)
	if err != nil {
		return false, err
	}
	stored, err := readStoreFile(plat, "/bench/dedup/ident_store/"+coi.ContextFileName)
	if err != nil {
		return false, err
	}
	return plain.Len() == stored.Len() && blob.Equal(plain, stored), nil
}

// readStoreFile assembles a store-resident snapshot file from its
// committed manifest's chunks, read straight out of the store: the
// oracle touches no Snapify-IO code.
func readStoreFile(plat *platform.Platform, path string) (blob.Blob, error) {
	m, _, err := plat.Store.Manifest(path)
	if err != nil {
		return blob.Blob{}, err
	}
	parts := make([]blob.Blob, len(m.Chunks))
	for i, dg := range m.Chunks {
		if parts[i], _, err = plat.Store.ReadChunk(dg); err != nil {
			return blob.Blob{}, err
		}
	}
	return blob.Concat(parts...), nil
}
