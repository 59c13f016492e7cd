package core

import (
	"fmt"
	"sync"
	"testing"

	"snapify/internal/blob"
	"snapify/internal/coi"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
)

// TestParallelSerialCapturesByteIdentical is the golden test for the
// striped data path: the same frozen process is captured once serially
// and once across 4 Snapify-IO streams, and the two context files on the
// host file system must be byte-for-byte identical. Striping changes who
// writes which range, never what lands in the file.
func TestParallelSerialCapturesByteIdentical(t *testing.T) {
	r := newRig(t, "core_golden", 1)
	r.count(t, 25)

	capture := func(dir string, opts CaptureOptions) {
		t.Helper()
		s := NewSnapshot(dir, r.cp)
		if err := s.Pause(); err != nil {
			t.Fatal(err)
		}
		if err := s.Capture(opts); err != nil {
			t.Fatal(err)
		}
		if err := s.Wait(); err != nil {
			t.Fatal(err)
		}
		if err := s.Resume(); err != nil {
			t.Fatal(err)
		}
	}
	// No work runs between the two captures, so the frozen image is the
	// same both times; CaptureFull does not reset dirty tracking.
	capture("/snap/golden/serial", CaptureOptions{})
	capture("/snap/golden/parallel", CaptureOptions{Streams: 4})

	serial, _, err := r.plat.Host().FS.ReadFile("/snap/golden/serial/" + coi.ContextFileName)
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := r.plat.Host().FS.ReadFile("/snap/golden/parallel/" + coi.ContextFileName)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Len() != parallel.Len() {
		t.Fatalf("context sizes differ: serial %d, parallel %d", serial.Len(), parallel.Len())
	}
	if !blob.Equal(serial, parallel) {
		t.Error("parallel capture is not byte-identical to the serial capture")
	}
}

// TestParallelCaptureReportsStreams pins the per-stream accounting: a
// 4-stream capture must report 4 worker durations whose max equals the
// capture duration, and a serial capture must report exactly one stream.
func TestParallelCaptureReportsStreams(t *testing.T) {
	r := newRig(t, "core_streams", 1)
	r.count(t, 10)

	s := NewSnapshot("/snap/streams/par", r.cp)
	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := s.Capture(CaptureOptions{Streams: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if s.Report.CaptureStreams != 4 {
		t.Errorf("CaptureStreams = %d, want 4", s.Report.CaptureStreams)
	}
	if len(s.Report.CaptureStreamDurations) != 4 {
		t.Fatalf("CaptureStreamDurations has %d entries, want 4", len(s.Report.CaptureStreamDurations))
	}
	max := s.Report.CaptureStreamDurations[0]
	for _, d := range s.Report.CaptureStreamDurations {
		if d <= 0 {
			t.Errorf("stream duration %v must be positive", d)
		}
		if d > max {
			max = d
		}
	}
	if max != s.Report.Capture {
		t.Errorf("capture duration %v != slowest stream %v", s.Report.Capture, max)
	}
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}

	s2 := NewSnapshot("/snap/streams/serial", r.cp)
	if err := s2.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Capture(CaptureOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Wait(); err != nil {
		t.Fatal(err)
	}
	if s2.Report.CaptureStreams != 1 {
		t.Errorf("serial CaptureStreams = %d, want 1", s2.Report.CaptureStreams)
	}
	if s2.Report.CaptureStreamDurations != nil {
		t.Errorf("serial capture reported %d stream durations, want none",
			len(s2.Report.CaptureStreamDurations))
	}
	if err := s2.Resume(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelCaptureRestoreEquivalence captures with 4 streams and
// terminate, restores with 4 streams, and checks the application computes
// the same answer it would have without the snapshot: the parallel data
// path preserves process state exactly.
func TestParallelCaptureRestoreEquivalence(t *testing.T) {
	r := newRig(t, "core_par_rt", 1)
	r.count(t, 30)

	s := NewSnapshot("/snap/par_rt", r.cp)
	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := s.Capture(CaptureOptions{Terminate: true, Streams: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Restore(1, RestoreOptions{Streams: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	if got := r.count(t, 60); got != refSum(60) {
		t.Errorf("after parallel restore: result %d, want %d", got, refSum(60))
	}
}

// TestConcurrentParallelCaptures is the multi-stream stress test: several
// applications on one card capture with 4 streams each at the same time,
// so the card's Snapify-IO daemon is assembling many striped files at
// once while the monitor thread keeps serving pause traffic. Run under
// -race this exercises the locking in the daemon's open-file table, the
// striped assembly state, and the shard workers.
func TestConcurrentParallelCaptures(t *testing.T) {
	coi.RegisterBinary(testBinary("core_par_conc"))
	r := newRig(t, "core_par_conc_unused", 1) // builds platform + daemons
	plat := r.plat

	const apps = 4
	rigs := make([]*rig, apps)
	for i := range rigs {
		host := plat.Procs.Spawn(fmt.Sprintf("host_par_conc_%d", i), simnet.HostNode, plat.Host().Mem)
		cp, err := coi.CreateProcess(plat, host, r.tl, 1, "core_par_conc")
		if err != nil {
			t.Fatal(err)
		}
		pl, err := cp.CreatePipeline()
		if err != nil {
			t.Fatal(err)
		}
		rigs[i] = &rig{plat: plat, host: host, tl: r.tl, cp: cp, pl: pl}
	}

	var wg sync.WaitGroup
	errs := make([]error, apps)
	for i, rg := range rigs {
		wg.Add(1)
		go func(i int, rg *rig) {
			defer wg.Done()
			fail := func(err error) { errs[i] = fmt.Errorf("app %d: %w", i, err) }
			if _, err := rg.pl.RunFunction("count", makeCountArgs(15)); err != nil {
				fail(err)
				return
			}
			// Two back-to-back striped snapshots per app, 4 streams each.
			for gen := 0; gen < 2; gen++ {
				s := NewSnapshot(fmt.Sprintf("/snap/par_conc/%d_%d", i, gen), rg.cp)
				if err := s.Pause(); err != nil {
					fail(err)
					return
				}
				if err := s.Capture(CaptureOptions{Streams: 4}); err != nil {
					fail(err)
					return
				}
				if err := s.Wait(); err != nil {
					fail(err)
					return
				}
				if err := s.Resume(); err != nil {
					fail(err)
					return
				}
			}
			out, err := rg.pl.RunFunction("count", makeCountArgs(35))
			if err != nil {
				fail(err)
				return
			}
			if got := decodeU64(out); got != refSum(35) {
				fail(fmt.Errorf("result %d, want %d", got, refSum(35)))
			}
		}(i, rg)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	// Every striped context file must have been fully assembled.
	for i := 0; i < apps; i++ {
		for gen := 0; gen < 2; gen++ {
			path := fmt.Sprintf("/snap/par_conc/%d_%d/%s", i, gen, coi.ContextFileName)
			if !plat.Host().FS.Exists(path) {
				t.Errorf("missing context file %s", path)
			}
		}
	}
}

// TestRestoreLocalStoreOneShardPerStream swaps in a process with three
// equal local-store buffers. Its reload deals the buffers into at most
// Streams shards, one pipeline each: two streams leave one of them two
// buffers to load in a row, three give each its own, and one stream is
// the paper's serial reload, pinned to the nanosecond.
func TestRestoreLocalStoreOneShardPerStream(t *testing.T) {
	const bufBytes = 2 << 20
	local := make(map[int]simclock.Duration)
	for _, streams := range []int{1, 2, 3} {
		r := newRig(t, "core_ls_shards", 1)
		var bufs []*coi.Buffer
		for i := 0; i < 3; i++ {
			buf, err := r.cp.CreateBuffer(bufBytes)
			if err != nil {
				t.Fatal(err)
			}
			if err := buf.Write([]byte(fmt.Sprintf("buffer %d", i)), int64(i)*4096); err != nil {
				t.Fatal(err)
			}
			bufs = append(bufs, buf)
		}
		r.count(t, 10)
		snap, err := Swapout("/snap/lsshards", r.cp, CaptureOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Swapin(snap, 1, RestoreOptions{Streams: streams}); err != nil {
			t.Fatalf("streams %d: %v", streams, err)
		}
		for i, buf := range bufs {
			want := fmt.Sprintf("buffer %d", i)
			got := make([]byte, len(want))
			if err := buf.Read(got, int64(i)*4096); err != nil || string(got) != want {
				t.Fatalf("streams %d: buffer %d reads %q (%v), want %q", streams, i, got, err, want)
			}
		}
		if snap.Report.LocalStoreBytes != 3*bufBytes {
			t.Fatalf("streams %d: local store is %d bytes, want %d", streams, snap.Report.LocalStoreBytes, 3*bufBytes)
		}
		local[streams] = snap.Report.RestoreLocal
		t.Logf("streams %d: RestoreLocal %d ns", streams, local[streams])
	}
	if local[2] <= local[3] {
		t.Errorf("RestoreLocal at 2 streams %v, not above 3 streams' %v: a stream loads two buffers in a row", local[2], local[3])
	}
	// One stream is one pipeline over the three buffers in order; this is
	// the serial reload's price before the reload had shards.
	if want := simclock.Duration(27_070_243); local[1] != want {
		t.Errorf("RestoreLocal at 1 stream %d ns, want the serial reload's %d", local[1], want)
	}
}
