package coi

import (
	"errors"
	"fmt"

	"snapify/internal/blcr"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/snapifyio"
	"snapify/internal/stream"
)

// This file is the one upload loop of the dedup-aware data path: every
// image that goes into the host's chunk store — a paused store capture, a
// pre-copy round of a running process, a migration's final delta — is
// digested, negotiated and shipped by storeUpload, window by window.

// storeWindow is W, the number of chunks a digest pass re-reads before it
// asks the store which of them to ship. Each window costs one have/need
// round-trip, ≈70 µs charged serially (two 12 µs SCIF messages around the
// store's 40 µs index lookup), against the 16 ms a card core takes to walk
// one 4 MiB chunk at 250 MiB/s: the negotiation adds 70 µs / (W × 16 ms) to
// a pass — 0.4 % at W = 1, 0.05 % at 8, nothing worth having beyond. What W
// costs is its size: a window is what the pass reads before the first byte
// of it can ship (W walks ≈ 128 ms at 8), and what a warm capture may
// re-read and still pay exactly one round-trip (swap cycles dirty 2–3
// chunks). 8 sits where the round-trips have stopped mattering and the
// window is still a small part of any image worth deduplicating.
const storeWindow = 8

// errCarriedChunkMissing reports that the store lacks a chunk whose digest
// a pass over a running process carried forward without reading it: the
// chunk cannot be read now (the bytes may no longer be the ones the digest
// names), so the pass has to be redone in full.
var errCarriedChunkMissing = errors.New("coi: store lacks a chunk the digest pass carried without reading")

// upload is where and how one image goes into the host store.
type upload struct {
	path    string
	streams int
	// live: the process is running, so only chunks the pass read itself
	// may ship (errCarriedChunkMissing otherwise).
	live bool
	// at is the virtual time the loop starts at (acc's zero); scope and
	// streamSpan label the spans it emits.
	at         simclock.Duration
	scope      uint64
	streamSpan string
}

// storeUpload drives pass to completion: for each window of storeWindow
// re-read chunks it digests the window (pass.Next), offers the window's
// digests to the host store, and writes the chunks the store lacks — from
// the pass's own reads, never a re-read — into store-mode two-slot streams
// that stay open across windows, each window's need set partitioned across
// up.streams of them. Window w needs nothing from window w+1, so the first
// chunk is in the store before the last window is read; a pass with
// nothing left to read (at most storeWindow chunks dirty, or after Whole)
// is one window over the whole list and one round-trip, which is all a
// warm capture, a floor-checked pre-copy round and a retry ever send. An
// empty need set opens no stream and costs only its round-trip.
//
// The loop is sequential on the host clock; the overlap is in the
// pricing, by the plain capture's rule: each chunk is one step of acc with
// its walk, its copy and its transport stages side by side (pass.Observe),
// each round-trip a serial acc.Add. It returns the bytes shipped and the
// chunks the store asked for; the per-stream spans are emitted only when
// every stream closed cleanly, so a failed pass leaves none behind.
func (op *OffloadProc) storeUpload(pass *blcr.DigestPass, acc *simclock.PipelineAccum, up upload) (shipped int64, needed int, err error) {
	node, io := op.d.dev.Node, op.d.plat.IO
	size, chunk := pass.ImageBytes(), pass.ChunkBytes()
	tk := op.agentTrack()
	files := make([]*snapifyio.File, up.streams)
	opened := make([]simclock.Duration, up.streams)
	bytes := make([]int64, up.streams)
	defer func() {
		// Detach, not Abort: aborting a store stream drops the path's
		// pending upload whenever the daemon gets to it — possibly after a
		// retry has negotiated its successor. A detached stream leaves the
		// chunks that landed and nothing else.
		for _, f := range files {
			if f != nil {
				f.Detach()
			}
		}
	}()
	for {
		lo, hi, ok := pass.Next(storeWindow)
		if !ok {
			break
		}
		need, _, negDur, err := io.NegotiateWindow(node, simnet.HostNode, up.path, size, chunk, lo, pass.Digests()[lo:hi])
		tk.Emit(up.scope, "store_negotiate", up.at+acc.Total(), negDur, map[string]int64{
			"chunks_total":  int64(hi - lo),
			"chunks_needed": int64(len(need)),
		})
		acc.Add(negDur)
		if err != nil {
			return shipped, needed, err
		}
		needed += len(need)
		if up.live {
			for _, i := range need {
				if !pass.Reread(i) {
					return shipped, needed, errCarriedChunkMissing
				}
			}
		}
		for g, group := range splitNeed(need, up.streams) {
			if files[g] == nil {
				opened[g] = up.at + acc.Total()
				files[g], err = io.OpenStream(node, simnet.HostNode, up.path, snapifyio.Write, snapifyio.OpenOptions{
					Slots:  2,
					Stripe: snapifyio.Stripe{Length: size, Total: size},
					Store:  true,
				})
				if err != nil {
					return shipped, needed, err
				}
			}
			for _, i := range group {
				piece := pass.Chunk(i)
				cost, err := files[g].WriteBlobAt(int64(i)*chunk, piece)
				if err != nil {
					return shipped, needed, err
				}
				pass.Observe(acc, i, cost)
				bytes[g] += piece.Len()
				shipped += piece.Len()
			}
		}
		pass.ObserveUnshipped(acc, lo, hi)
	}
	for _, f := range files {
		if f == nil {
			continue
		}
		tail, err := f.Flush()
		if err != nil {
			return shipped, needed, err
		}
		stream.Observe(acc, tail)
		if err := f.Close(); err != nil {
			return shipped, needed, err
		}
	}
	// Mirror the plain parallel capture's per-stream spans so the host's
	// deriveCapture (and the exported trace) treat both data paths alike.
	tracer := op.d.plat.Obs.TracerOf()
	for g, n := range bytes {
		if n > 0 {
			stk := tracer.Track(node.String(), fmt.Sprintf("%s/stream %d", op.p.Name(), g))
			stk.AlignTo(opened[g])
			stk.Emit(up.scope, up.streamSpan, opened[g], up.at+acc.Total()-opened[g], map[string]int64{"bytes": n})
		}
	}
	return shipped, needed, nil
}

// splitNeed partitions a window's need set into contiguous groups, one
// stream each, none for an empty set. Chunks are uniform except the
// image's last, so an even split by count is an even split by bytes.
func splitNeed(need []int, streams int) [][]int {
	streams = min(streams, len(need))
	if streams == 0 {
		return nil
	}
	per := (len(need) + streams - 1) / streams
	groups := make([][]int, 0, streams)
	for i := 0; i < len(need); i += per {
		groups = append(groups, need[i:min(i+per, len(need))])
	}
	return groups
}
