package coi_test

// Wall-clock micro-benchmark of the warm store-capture path (ROADMAP item
// 1b). It sits beside internal/coi, whose agent runs the digest pass, but
// drives it through internal/core — the only caller — so it lives in the
// external test package.

import (
	"testing"

	"snapify/internal/coi"
	"snapify/internal/core"
	"snapify/internal/platform/platformtest"
	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
)

var sinkCapture simclock.Duration

// BenchmarkStoreCaptureWarm times one warm store checkpoint (pause,
// store capture, resume) of a 256 MiB process that dirtied one page since
// the previous capture: the digest pass re-reads one or two 4 MiB chunks
// of 73 and carries every other digest forward. ns/op and allocs/op are
// the simulator's own cost; capture-vms/op is the capture's virtual time.
func BenchmarkStoreCaptureWarm(b *testing.B) {
	bin := coi.NewBinary("coi_bench_warm")
	bin.AddRegion("private", proc.RegionHeap, 256*simclock.MiB, 0)
	coi.RegisterBinary(bin)
	plat := platformtest.Start(b, platformtest.Options{CardMem: simclock.GiB})
	host := plat.Procs.Spawn("host_proc", simnet.HostNode, plat.Host().Mem)
	cp, err := coi.CreateProcess(plat, host, simclock.NewTimeline(), 1, bin.Name)
	if err != nil {
		b.Fatal(err)
	}
	op, err := coi.DaemonAt(plat, 1).Lookup(cp.ID())
	if err != nil {
		b.Fatal(err)
	}
	private := op.Proc().Region("private")
	var opts core.CaptureOptions
	opts.Store.Enabled = true
	checkpoint := func(i int) simclock.Duration {
		private.WriteAt([]byte{byte(i), byte(i >> 8)}, 100*simclock.MiB)
		s := core.NewSnapshot("/bench/warm", cp)
		if err := s.Pause(); err != nil {
			b.Fatal(err)
		}
		if err := s.Capture(opts); err != nil {
			b.Fatal(err)
		}
		if err := s.Wait(); err != nil {
			b.Fatal(err)
		}
		if err := s.Resume(); err != nil {
			b.Fatal(err)
		}
		return s.Report.Capture
	}
	checkpoint(0) // cold: digests and ships everything, seeds the cache

	b.ReportAllocs()
	b.ResetTimer()
	var total simclock.Duration
	for i := 1; i <= b.N; i++ {
		total += checkpoint(i)
	}
	sinkCapture = total
	b.ReportMetric(float64(total)/float64(b.N)/1e6, "capture-vms/op")
}
