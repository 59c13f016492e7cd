package coi_test

// Wall-clock micro-benchmarks of the store data path: capture, warm
// (ROADMAP item 1b) and cold (item 4), and the swap-in restore over the
// store read stream. They sit beside internal/coi, whose agent runs the
// upload loop and whose daemon the download, but drive them through
// internal/core — the only caller — so they live in the external test
// package.

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

// benchProcess starts a platform with one 256 MiB offload process on
// card 1.
func benchProcess(b *testing.B, name string) (*coi.Process, *coi.OffloadProc) {
	b.Helper()
	bin := coi.NewBinary(name)
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
	return cp, op
}

// storeCheckpoint runs one store checkpoint (pause, store capture,
// resume) and returns the capture's virtual time.
func storeCheckpoint(b *testing.B, cp *coi.Process, dir string) simclock.Duration {
	b.Helper()
	var opts core.CaptureOptions
	opts.Store.Enabled = true
	s := core.NewSnapshot(dir, cp)
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

// BenchmarkStoreCaptureWarm times one warm store checkpoint of a 256 MiB
// process that dirtied one page since the previous capture: the digest
// pass re-reads one or two 4 MiB chunks of 73 and carries every other
// digest forward. ns/op and allocs/op are the simulator's own cost;
// capture-vms/op is the capture's virtual time.
func BenchmarkStoreCaptureWarm(b *testing.B) {
	cp, op := benchProcess(b, "coi_bench_warm")
	private := op.Proc().Region("private")
	checkpoint := func(i int) simclock.Duration {
		private.WriteAt([]byte{byte(i), byte(i >> 8)}, 100*simclock.MiB)
		return storeCheckpoint(b, cp, "/bench/warm")
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

// BenchmarkStoreCaptureCold times the first store checkpoint of a fresh
// 256 MiB process into an empty store: every one of 73 chunks is read,
// digested, offered in windows and shipped. Platform and process are new
// each iteration and set up off the clock.
func BenchmarkStoreCaptureCold(b *testing.B) {
	b.ReportAllocs()
	var total simclock.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cp, _ := benchProcess(b, "coi_bench_cold")
		b.StartTimer()
		total += storeCheckpoint(b, cp, "/bench/cold")
	}
	sinkCapture = total
	b.ReportMetric(float64(total)/float64(b.N)/1e6, "capture-vms/op")
}

// BenchmarkStoreRestore times one swap-in of a store-resident 256 MiB
// process: 73 chunks of 4 MiB pulled over the store read stream into the
// restart parser, the digest cache seeded, the handle rebound. The
// swap-out between restores is off the clock. restore-vms/op is the
// restore's virtual time.
func BenchmarkStoreRestore(b *testing.B) {
	cp, _ := benchProcess(b, "coi_bench_restore")
	var copts core.CaptureOptions
	var ropts core.RestoreOptions
	copts.Store.Enabled = true
	ropts.Store.Enabled = true

	b.ReportAllocs()
	var total simclock.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := core.Swapout("/bench/restore", cp, copts)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if cp, err = s.Restore(1, ropts); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := s.Resume(); err != nil {
			b.Fatal(err)
		}
		total += s.Report.RestoreTotal()
	}
	sinkCapture = total
	b.ReportMetric(float64(total)/float64(b.N)/1e6, "restore-vms/op")
}
