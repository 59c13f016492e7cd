package coi

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"snapify/internal/blcr"
	"snapify/internal/blob"
	"snapify/internal/obs"
	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/snapstore"
)

// recordingStore is a ChunkStore that logs, in one sequence with the
// digest function's calls, what the upload loop asked of it. resident
// names the windows (by ordinal) whose chunks it claims to hold already.
type recordingStore struct {
	mu       sync.Mutex
	chunk    int64
	events   []string // "digest", "negotiate <first> <n>", "put <idx>"
	digests  map[int]string
	puts     map[int]int
	windows  int
	resident func(window int) bool
}

func (s *recordingStore) log(format string, args ...any) {
	s.events = append(s.events, fmt.Sprintf(format, args...))
}

func (s *recordingStore) digest(b blob.Blob) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log("digest")
	return snapstore.Digest(b)
}

func (s *recordingStore) NegotiateWindow(path string, size, chunkBytes int64, first int, digests []string) ([]int, bool, simclock.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log("negotiate %d %d", first, len(digests))
	s.chunk = chunkBytes
	w := s.windows
	s.windows++
	var need []int
	for i, d := range digests {
		s.digests[first+i] = d
		if s.resident == nil || !s.resident(w) {
			need = append(need, first+i)
		}
	}
	return need, false, 5, nil
}

func (s *recordingStore) PutChunkAt(path string, off int64, content blob.Blob) (simclock.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := int(off / s.chunk)
	if snapstore.Digest(content) != s.digests[idx] {
		return 0, fmt.Errorf("chunk %d is not the content its window announced", idx)
	}
	s.log("put %d", idx)
	s.puts[idx]++
	return 7, nil
}

func (s *recordingStore) CloseUpload(string) (bool, simclock.Duration, error) { return true, 0, nil }
func (s *recordingStore) AbortUpload(string)                                  {}
func (s *recordingStore) AbortAll()                                           {}
func (s *recordingStore) DigestPlan(string) (int64, int64, []string, bool, bool, simclock.Duration) {
	return 0, 0, nil, false, false, 0
}
func (s *recordingStore) ReadChunk(string) (blob.Blob, simclock.Duration, error) {
	return blob.Blob{}, 0, errors.New("recordingStore keeps no content")
}

// uploadRig launches an idle offload process with a 3 MiB heap of unique
// content and swaps the host daemon's chunk store for a recording one. At
// 64 KiB chunks the image is a little over 48 chunks: seven windows.
func uploadRig(t *testing.T, name string) (*env, *OffloadProc, *recordingStore) {
	t.Helper()
	bin := NewBinary(name)
	bin.AddRegion("heap", proc.RegionHeap, 3*simclock.MiB, 41)
	RegisterBinary(bin)
	e := newEnv(t, 1)
	cp := e.create(t, name, 1)
	op, err := DaemonAt(e.plat, 1).Lookup(cp.ID())
	if err != nil {
		t.Fatal(err)
	}
	st := &recordingStore{digests: map[int]string{}, puts: map[int]int{}}
	if err := e.plat.IO.AttachStore(simnet.HostNode, st); err != nil {
		t.Fatal(err)
	}
	return e, op, st
}

const uploadTestChunk = 64 * simclock.KiB

func coldPass(t *testing.T, e *env, op *OffloadProc, st *recordingStore) *blcr.DigestPass {
	t.Helper()
	lay, err := e.plat.CR.LayoutFull(op.Proc())
	if err != nil {
		t.Fatal(err)
	}
	return lay.DigestPass(nil, uploadTestChunk, blcr.SeedCapture, st.digest)
}

// TestStoreUploadShipsEachWindowBeforeDigestingTheNext is the dataflow the
// pipelined price stands for: when window k is offered to the store,
// exactly the chunks of windows 0..k have been digested — nothing ahead —
// and every chunk of the windows before k has been put, bar the one the
// two-slot stream may still hold in flight. In particular chunk 0 is in
// the store before the last window is read. Every chunk is digested once
// and put once, from the bytes its digest names: the loop ships the pass's
// own reads.
func TestStoreUploadShipsEachWindowBeforeDigestingTheNext(t *testing.T) {
	e, op, st := uploadRig(t, "coi_upload_order")
	pass := coldPass(t, e, op, st)
	chunks := len(pass.Digests())
	if chunks <= 3*storeWindow {
		t.Fatalf("image is %d chunks; the test wants more than three windows", chunks)
	}
	acc := simclock.NewPipelineAccum()
	shipped, needed, err := op.storeUpload(pass, acc, upload{path: "/snap/order/ctx", streams: 1, scope: 1, streamSpan: "capture_stream"})
	if err != nil {
		t.Fatal(err)
	}
	if shipped != pass.ImageBytes() || needed != chunks {
		t.Fatalf("shipped %d of %d bytes, %d of %d chunks", shipped, pass.ImageBytes(), needed, chunks)
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	digested, put, windows := 0, 0, 0
	put0, lastDigest := -1, -1
	for at, ev := range st.events {
		var first, n, idx int
		switch {
		case ev == "digest":
			digested++
			lastDigest = at
		case scan(ev, "put %d", &idx):
			put++
			if idx == 0 {
				put0 = at
			}
		case scan(ev, "negotiate %d %d", &first, &n):
			if first != windows*storeWindow || digested != first+n {
				t.Errorf("window %d offers chunks [%d,%d) with %d chunks digested", windows, first, first+n, digested)
			}
			if put < first-1 {
				t.Errorf("window %d is offered with only %d of the %d chunks before it in the store", windows, put, first)
			}
			windows++
		}
	}
	if want := (chunks + storeWindow - 1) / storeWindow; windows != want {
		t.Errorf("%d negotiation windows for %d chunks, want %d", windows, chunks, want)
	}
	if put0 < 0 || put0 > lastDigest {
		t.Errorf("chunk 0 was put at event %d, the last chunk digested at %d: the first window must ship before the last is read", put0, lastDigest)
	}
	if digested != chunks {
		t.Errorf("%d digest calls for %d chunks: a chunk was read twice", digested, chunks)
	}
	for i := 0; i < chunks; i++ {
		if st.puts[i] != 1 {
			t.Errorf("chunk %d was put %d times", i, st.puts[i])
		}
	}
}

func scan(s, format string, args ...any) bool {
	n, err := fmt.Sscanf(s, format, args...)
	return err == nil && n == len(args)
}

// TestStoreUploadEmptyWindowOpensNoStream: a window whose chunks the store
// already holds comes back with an empty need set. It ships nothing and
// opens nothing — if every window does, the pass ends without a stream —
// and costs its round-trip plus the reads that found that out. The
// partition the need set goes through used to be inline arithmetic that
// divided by the (zero) group count.
func TestStoreUploadEmptyWindowOpensNoStream(t *testing.T) {
	if got := splitNeed(nil, 4); len(got) != 0 {
		t.Fatalf("splitNeed(nil, 4) = %v, want no groups", got)
	}
	if got := splitNeed([]int{3, 4, 9}, 2); len(got) != 2 || len(got[0]) != 2 || got[1][0] != 9 {
		t.Fatalf("splitNeed([3 4 9], 2) = %v, want [[3 4] [9]]", got)
	}

	opened := func(e *env) int64 {
		return e.plat.Obs.MetricsOf().Counter("snapifyio_streams_opened_total", "",
			obs.L("node", simnet.NodeID(1).String()), obs.L("mode", "write")).Value()
	}
	t.Run("one_window_resident", func(t *testing.T) {
		e, op, st := uploadRig(t, "coi_upload_empty_one")
		st.resident = func(w int) bool { return w == 1 }
		pass := coldPass(t, e, op, st)
		before := opened(e)
		shipped, needed, err := op.storeUpload(pass, simclock.NewPipelineAccum(), upload{path: "/snap/empty/ctx", streams: 2, scope: 1, streamSpan: "capture_stream"})
		if err != nil {
			t.Fatal(err)
		}
		if want := len(pass.Digests()) - storeWindow; needed != want || len(st.puts) != want {
			t.Errorf("needed %d, put %d chunks, want all but the resident window's: %d", needed, len(st.puts), want)
		}
		if shipped != pass.ImageBytes()-storeWindow*uploadTestChunk {
			t.Errorf("shipped %d bytes of %d with one %d-chunk window resident", shipped, pass.ImageBytes(), storeWindow)
		}
		if got := opened(e) - before; got != 2 {
			t.Errorf("%d streams opened, want the two that stay open across windows", got)
		}
	})
	t.Run("every_window_resident", func(t *testing.T) {
		e, op, st := uploadRig(t, "coi_upload_empty_all")
		st.resident = func(int) bool { return true }
		pass := coldPass(t, e, op, st)
		before := opened(e)
		acc := simclock.NewPipelineAccum()
		shipped, needed, err := op.storeUpload(pass, acc, upload{path: "/snap/empty/ctx", streams: 2, scope: 1, streamSpan: "capture_stream"})
		if err != nil {
			t.Fatal(err)
		}
		if shipped != 0 || needed != 0 || len(st.puts) != 0 || opened(e) != before {
			t.Errorf("shipped %d bytes, %d chunks needed, %d put, %d streams opened; want nothing", shipped, needed, len(st.puts), opened(e)-before)
		}
		// What is left to pay: the reads, pipelined, and one round-trip a
		// window — the plain pass over the same pages with no transport.
		reads := simclock.NewPipelineAccum()
		lay, err := e.plat.CR.LayoutFull(op.Proc())
		if err != nil {
			t.Fatal(err)
		}
		ref := lay.DigestPass(nil, uploadTestChunk, blcr.SeedNone, snapstore.Digest)
		ref.Whole()
		ref.ObserveUnshipped(reads, 0, len(ref.Digests()))
		var trips simclock.Duration
		for _, sp := range e.plat.Obs.TracerOf().ScopeSpans(1) {
			if sp.Name == "store_negotiate" {
				trips += sp.Dur
			}
			if sp.Name == "capture_stream" {
				t.Errorf("a pass that shipped nothing left a %s span", sp.Name)
			}
		}
		if acc.Total() != reads.Total()+trips {
			t.Errorf("pass cost %v, want its reads %v plus its round-trips %v", acc.Total(), reads.Total(), trips)
		}
	})
}
