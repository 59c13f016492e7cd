package snapifyio

import (
	"testing"

	"snapify/internal/blob"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/stream"
)

// TestChunkRoundTripAllocs is the allocation gate of the chunk data path:
// a steady-state 4 MiB chunk written from a card through a 2-slot stream
// (chunk-ready, RDMA drain, file write, chunk-ack) and pulled back (pull,
// file read, RDMA push, chunk-here) allocates only what holds content,
// counted over every goroutine of the round trip. Measured: 2 objects
// each way, the two messages' queued copies (3 now and then under -race);
// before the stream reused its message buffers and structs, built fault
// keys only for an armed plan and shared whole slices, 23 per write and
// 22 per read.
func TestChunkRoundTripAllocs(t *testing.T) {
	const bound = 6
	r := newRig(t)
	chunk := blob.Synthetic(5, DefaultBufSize)
	const warm, runs = 4, 50
	acc := simclock.NewPipelineAccum()

	w, err := r.svc.OpenStream(1, simnet.HostNode, "/allocs", Write, OpenOptions{Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	write := func() {
		cost, err := w.WriteBlob(chunk)
		if err != nil {
			t.Fatal(err)
		}
		stream.Observe(acc, cost)
	}
	for range warm {
		write()
	}
	perWrite := testing.AllocsPerRun(runs, write)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rd, err := r.svc.OpenStream(1, simnet.HostNode, "/allocs", Read, OpenOptions{Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	read := func() {
		b, cost, err := rd.Next(DefaultBufSize)
		if err != nil {
			t.Fatal(err)
		}
		if b.Len() != DefaultBufSize {
			t.Fatalf("read %d bytes, want %d", b.Len(), DefaultBufSize)
		}
		stream.Observe(acc, cost)
	}
	for range warm {
		read()
	}
	perRead := testing.AllocsPerRun(runs, read)
	if err := rd.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("allocations per 4 MiB chunk: write %.0f, read %.0f", perWrite, perRead)
	if perWrite > bound || perRead > bound {
		t.Fatalf("allocations per 4 MiB chunk: write %.0f, read %.0f, want at most %d", perWrite, perRead, bound)
	}
}
