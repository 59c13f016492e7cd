// Package stream defines the contracts between snapshot producers/consumers
// (the BLCR-equivalent checkpointer) and the storage transports (Snapify-IO,
// the NFS variants, scp, and the local file systems).
//
// A transport moves blob chunks and reports, per chunk, the virtual-time
// cost of each of its internal stages plus whether those stages overlap
// with the producer (pipelined) or serialize against it. The checkpointer
// composes its own page-walk stage with the transport's stages through a
// simclock.PipelineAccum, so end-to-end checkpoint and restart times emerge
// from the same per-stage constants for every storage backend — which is
// exactly the comparison Tables 3 and 4 of the paper make.
package stream

import (
	"snapify/internal/blob"
	"snapify/internal/simclock"
)

// Cost is the virtual cost of moving one chunk through a transport.
type Cost struct {
	// Stages holds the per-stage durations for this chunk, in data-path
	// order (e.g. socket copy, RDMA, file-system write). A transport may
	// reuse its backing array on its next call, so a Cost is consumed
	// (Observe, Add) before the transport is called again.
	Stages []simclock.Duration
	// Serial, when true, means the stages do not overlap with the producer
	// or with each other (e.g. a synchronous NFS RPC per write), so the
	// chunk's total cost is the sum of all stages with no pipelining.
	Serial bool
	// Hole marks a piece the transport did not move: zeros standing for a
	// store chunk whose digest is that of its length in zero bytes, which
	// no one read, sent or copied (DESIGN.md §11). Only a store-mode
	// Snapify-IO read stream yields one, on every piece of such a chunk; a
	// consumer that writes the zeros pays their copy itself.
	Hole bool
}

// Add returns the plain sum of the stage durations.
func (c Cost) Add() simclock.Duration {
	var d simclock.Duration
	for _, s := range c.Stages {
		d += s
	}
	return d
}

// Sink receives a snapshot stream.
type Sink interface {
	// WriteBlob appends one chunk and returns its transport cost.
	WriteBlob(b blob.Blob) (Cost, error)
	// Close finalizes the stream (makes the file visible, sends EOF).
	Close() error
	// Abort discards the partial stream.
	Abort()
}

// Source produces a snapshot stream.
type Source interface {
	// Next returns the next chunk of at most max bytes, with its transport
	// cost, or io.EOF after the last chunk.
	Next(max int64) (blob.Blob, Cost, error)
	// Close releases the source.
	Close() error
}

// Watermarked is implemented by sinks that track a durability watermark:
// Acked returns how many bytes of the stream the remote end has
// acknowledged as written, in order, with no gaps. After a transport
// fault, a writer may resume from this offset instead of starting over.
type Watermarked interface {
	Acked() int64
}

// Detacher is implemented by sinks that can part with a shared remote
// assembly without poisoning it: Detach abandons this transport leg but
// leaves the bytes already acknowledged in place, so a successor stream
// opened over the remaining range completes the same file. Contrast
// Abort, which discards the whole assembly.
type Detacher interface {
	Detach()
}

// Flusher is implemented by sinks that pipeline writes internally (keeping
// chunks in flight across WriteBlob calls, like a multi-slot Snapify-IO
// stream) and can drain the in-flight tail. Flush blocks until every
// buffered chunk is acknowledged and returns the cost of that remaining
// work; callers that account per-chunk costs should Observe it before
// Close.
type Flusher interface {
	Flush() (Cost, error)
}

// Observe feeds one chunk's producer-side stages plus the transport cost
// into the accumulator, honoring the transport's Serial flag. The stage
// list is built on the stack; one longer than the buffer (no producer and
// transport here have more than five stages together) spills to the heap.
func Observe(acc *simclock.PipelineAccum, c Cost, producerStages ...simclock.Duration) {
	var buf [8]simclock.Duration
	all := append(buf[:0], producerStages...)
	all = append(all, c.Stages...)
	if c.Serial {
		acc.SerialObserve(all...)
		return
	}
	acc.Observe(all...)
}
