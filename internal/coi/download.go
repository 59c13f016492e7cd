package coi

import (
	"fmt"
	"strings"

	"snapify/internal/blcr"
	"snapify/internal/blob"
	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/snapifyio"
	"snapify/internal/stream"
)

// This file is the download side of the data path, beside upload.go: how a
// context image comes back to a card. A store-resident image — a swap-in's,
// or the chunks a live migration's destination stages round by round —
// comes over store-mode read streams: the host serves the named chunks of
// the path's digest plan (none named: the whole image, in order) out of its
// chunk store, prefetching on two staging slots, so the host's read, the
// RDMA and the card's copies of different chunks overlap — the read mirror
// of the upload's two-slot write streams — where the paper's one-slot
// descriptor, which a plain file keeps, adds them up per chunk.

// streamRestart rebuilds the process by streaming its context from host
// storage (Section 4.3), deltas replayed on top. Where the context lives
// picks the source: the plain file over the paper's one-slot descriptor,
// the store-resident image over the store's two-slot read stream. The
// stream count alone picks the shape: striped range streams, each
// prefetching on two slots, for streams > 1; else the one whole stream.
// Either way a range of the source is the same descriptor with a Stripe,
// which is what a read that faults reopens under a retry policy. The
// parser is the same throughout.
func (d *Daemon) streamRestart(cr *blcr.Checkpointer, req *RestoreReq, ctxPath string, spawn blcr.Spawner) (*proc.Process, *blcr.Stats, error) {
	node, io := d.dev.Node, d.plat.IO
	whole := snapifyio.OpenOptions{Store: req.StoreResident}
	if req.StoreResident {
		whole.Slots = 2
	}
	src, err := io.OpenStream(node, simnet.HostNode, ctxPath, snapifyio.Read, whole)
	if err != nil {
		return nil, nil, err
	}
	defer src.Close() //nolint:errcheck // read side: close only releases the descriptor
	deltas := make([]stream.Source, 0, len(req.DeltaDirs))
	defer func() {
		for _, ds := range deltas {
			ds.Close() //nolint:errcheck // read side: close only releases the descriptor
		}
	}()
	for _, dd := range req.DeltaDirs {
		ds, err := io.Open(node, simnet.HostNode, dd+"/"+DeltaFileName, snapifyio.Read)
		if err != nil {
			return nil, nil, err
		}
		deltas = append(deltas, ds)
	}
	open := func(off, n int64) (stream.Source, error) {
		o := whole
		if req.Streams > 1 {
			o.Slots = 2
		}
		o.Stripe = snapifyio.Stripe{Offset: off, Length: n}
		return io.OpenStream(node, simnet.HostNode, ctxPath, snapifyio.Read, o)
	}
	size := src.Size()
	var restored *proc.Process
	var rst *blcr.Stats
	if req.Streams > 1 {
		// The whole stream only supplied the context size; the pages
		// arrive over the range streams.
		src.Close() //nolint:errcheck // size probe: close only releases the descriptor
		restored, rst, err = cr.RestartChainParallel(size, req.Streams, blcr.PageChunk, open, deltas, spawn)
	} else {
		restored, rst, err = cr.RestartChain(src, size, open, deltas, spawn)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("restoring offload process: %w", err)
	}
	return restored, rst, nil
}

// --- live migration: destination staging ---

// handleSnapifyPrecopyStage is the destination card's side of a pre-copy
// round: pull the freshly shipped chunks out of the host store into the
// staging area (StageSync), or discard what a migration parked on this
// card: the staged chunks (StageDrop), and with StageDropAll also the
// local-store files the switch-over's pause saved beside the context.
func (d *Daemon) handleSnapifyPrecopyStage(req *StageReq) (*StageResp, error) {
	ctxPath := req.Path
	if req.Mode == StageDrop || req.Mode == StageDropAll {
		d.staging.Drop(ctxPath)
		if req.Mode == StageDropAll {
			// The agent named the files dir+"/"+LocalStorePrefix+name from
			// the unclean snapshot directory: match them the same way.
			d.dev.FS.RemoveAll(strings.TrimSuffix(ctxPath, "/"+ContextFileName) + "/" + LocalStorePrefix)
		}
		return &StageResp{}, nil
	}
	size, chunkBytes, digests, _, ok, planDur, err := d.plat.IO.StagePlan(d.dev.Node, simnet.HostNode, ctxPath)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("coi: stage sync: no digest plan for %s on the host store", ctxPath)
	}
	pullDur, fetched, err := d.stagePull(ctxPath, size, chunkBytes, digests)
	if err != nil {
		return nil, err
	}
	resp := &StageResp{Duration: planDur + pullDur, FetchedBytes: fetched, StagedBytes: d.staging.StagedBytes(ctxPath)}
	tk := d.coidTrack()
	tk.AlignTo(req.Align)
	tk.Emit(req.Scope, "precopy_stage", req.Align, resp.Duration, map[string]int64{
		"fetched_bytes": resp.FetchedBytes,
		"staged_bytes":  resp.StagedBytes,
	})
	return resp, nil
}

// stagePull reconciles the staging area for path with the digest plan the
// host store just reported and pulls exactly the chunks that differ — the
// slots still empty plus whatever the new plan disagrees with — over one
// store-mode read stream, open for the whole pull. Each chunk is one step
// of the pipeline: the host's store read, the RDMA, the socket copy and the
// copy into the staging area overlap across chunks. A zero chunk comes as a
// hole and costs its reply alone (DESIGN.md §11). Staging verifies every
// chunk against the plan's digest before it admits it, so a plan that moved
// between the report and the open is an error here, never a wrong image.
func (d *Daemon) stagePull(path string, size, chunkBytes int64, digests []string) (simclock.Duration, int64, error) {
	need := d.staging.Plan(path, size, chunkBytes, digests)
	if len(need) == 0 {
		return 0, 0, nil
	}
	f, err := d.plat.IO.OpenStream(d.dev.Node, simnet.HostNode, path, snapifyio.Read,
		snapifyio.OpenOptions{Slots: 2, Store: true, Chunks: need})
	if err != nil {
		return 0, 0, fmt.Errorf("coi: stage pull: %w", err)
	}
	defer f.Close() //nolint:errcheck // read side: close only releases the descriptor
	acc := simclock.NewPipelineAccum()
	var fetched int64
	for _, idx := range need {
		want := min(chunkBytes, size-int64(idx)*chunkBytes)
		parts := make([]blob.Blob, 0, 1)
		for got := int64(0); got < want; {
			b, cost, err := f.Next(want - got)
			if err != nil {
				return 0, 0, fmt.Errorf("coi: stage pull chunk %d: %w", idx, err)
			}
			if cost.Hole {
				// Zeros that did not move are staged without a copy.
				stream.Observe(acc, cost)
			} else {
				stream.Observe(acc, cost, d.plat.Model().PhiMemcpy(b.Len()))
			}
			parts = append(parts, b)
			got += b.Len()
		}
		if err := d.staging.SetChunk(path, idx, blob.Concat(parts...)); err != nil {
			return 0, 0, err
		}
		fetched += want
	}
	return acc.Total(), fetched, nil
}

// tryAdoptedRestart restores the migrated process from the staging area:
// the pre-copy rounds parked (almost) every chunk on this card, so the
// restart installs page tables over resident frames instead of streaming
// the context from the host; only last-round stragglers are pulled. The
// committed manifest is the authority — the pull re-verifies every staged
// chunk against it, so a stale staging area degrades to extra fetches,
// never to a wrong image. ok=false falls back to the streaming restore.
// Either way the staged image has served its purpose: it is dropped on
// every way out, so a failed adoption leaves nothing parked on the card.
func (d *Daemon) tryAdoptedRestart(cr *blcr.Checkpointer, ctxPath string, spawn blcr.Spawner) (*proc.Process, *blcr.Stats, *blcr.DigestCache, bool) {
	defer d.staging.Drop(ctxPath)
	size, chunkBytes, digests, committed, ok, planDur, err := d.plat.IO.StagePlan(d.dev.Node, simnet.HostNode, ctxPath)
	if err != nil || !ok || !committed {
		return nil, nil, nil, false
	}
	pullDur, _, err := d.stagePull(ctxPath, size, chunkBytes, digests)
	if err != nil {
		return nil, nil, nil, false
	}
	img, ok := d.staging.Image(ctxPath)
	if !ok {
		return nil, nil, nil, false
	}
	restored, rst, err := cr.RestartAdopted(img, spawn)
	if err != nil {
		return nil, nil, nil, false
	}
	rst.Duration += planDur + pullDur
	// The plan is the committed manifest the staged image was verified
	// against: it seeds the migrated process's chunk-digest cache.
	return restored, rst, blcr.NewDigestCache(rst.Geometry, chunkBytes, digests, blcr.SeedRestore), true
}
