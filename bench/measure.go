package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"unsafe"

	"snapify/internal/simclock"
)

// hostCost is what one timed section cost the simulator's host. User CPU,
// bytes allocated and (per process) peak RSS are the gated host metrics:
// on this class of sandbox wall and sys time are dominated by page-fault
// noise from multi-GiB allocation churn, so they ride along as diagnostics
// only.
type hostCost struct {
	UserS    float64 // user-mode CPU as the kernel accounts it
	CPUS     float64 // UserS at the sandbox's quiet speed: UserS / Slowdown
	Slowdown float64 // the calibration kernel's cost beside this section over its reference cost
	SysS     float64
	WallS    float64
	AllocMiB float64
	// PeakRSSMiB is the resident-set high-water mark the section reached
	// (what the set-up left resident included); 0 where the kernel would
	// not reset the mark.
	PeakRSSMiB float64
	Mallocs    float64
	GCCycles   float64
}

// meter times the sections of one repetition. A repetition is
// prepare (untimed, charged to set-up) → begin … end (the timed ops) →
// oracle and teardown (untimed).
type meter struct {
	calIters int
	cal0S    float64 // the calibration run before the set-up section
	repWall  simclock.WallTimer
	setupS   float64 // the set-up's wall time over its slowdown

	calS float64 // the calibration run between set-up and timed section
	wall simclock.WallTimer
	ru   syscall.Rusage
	ms   runtime.MemStats
	cost hostCost
	open bool

	rssReset bool // the high-water mark was reset when the timed section opened
}

// newMeter opens a repetition's set-up section. It starts from a collected
// heap, so the set-up's wall time does not depend on how much garbage the
// previous repetition left behind. calIters sizes the calibration kernel
// run before the set-up, between set-up and timed section and after the
// timed section (scale.CalIters; 0 = none).
func newMeter(calIters int) *meter {
	runtime.GC()
	m := &meter{calIters: calIters, cal0S: calibrate(calIters)}
	m.repWall = simclock.StartWall()
	return m
}

// begin closes the repetition's set-up section and opens the timed one.
// The forced collection between them keeps the previous repetition's
// garbage out of this one's CPU figure; it is charged to neither.
func (m *meter) begin() {
	setupNs := m.repWall.ElapsedNs()
	runtime.GC()
	runtime.ReadMemStats(&m.ms)
	m.rssReset = resetPeakRSS()
	m.calS = calibrate(m.calIters)
	m.setupS = float64(setupNs) / 1e9 / m.slowdown(m.cal0S, m.calS)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &m.ru) // RUSAGE_SELF cannot fail on Linux
	m.wall = simclock.StartWall()
	m.open = true
}

// end closes the timed section.
func (m *meter) end() {
	if !m.open {
		return
	}
	m.open = false
	wallNs := m.wall.ElapsedNs()
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	user := tvSeconds(ru.Utime) - tvSeconds(m.ru.Utime)
	slowdown := m.slowdown(m.calS, calibrate(m.calIters))
	m.cost = hostCost{
		UserS:    user,
		CPUS:     user / slowdown,
		Slowdown: slowdown,
		SysS:     tvSeconds(ru.Stime) - tvSeconds(m.ru.Stime),
		WallS:    float64(wallNs) / 1e9,
		AllocMiB: float64(ms.TotalAlloc-m.ms.TotalAlloc) / float64(simclock.MiB),
		Mallocs:  float64(ms.Mallocs - m.ms.Mallocs),
		GCCycles: float64(ms.NumGC - m.ms.NumGC),
	}
	if m.rssReset {
		m.cost.PeakRSSMiB = peakRSSMiB()
	}
}

// slowdown is the mean of two calibration runs over the kernel's reference
// cost: how much slower than its quiet self the sandbox was between them.
func (m *meter) slowdown(beforeS, afterS float64) float64 {
	if m.calIters <= 0 {
		return 1
	}
	return (beforeS + afterS) / 2 / (float64(m.calIters) * calRefNsPerIter / 1e9)
}

// The sandbox is a few vCPUs of a shared host, and its speed comes and goes
// in phases of seconds to minutes: the same repetition costs 20-45 % more
// user CPU in a slow phase, on every workload, whatever the code does. A
// fixed register-only integer kernel run just before and just after a
// section slows by the same factor (README, "Calibrated CPU time"), so the
// timed section's CPU time and the set-up's wall time are reported divided
// by it: seconds at the quiet sandbox's speed. calRefNsPerIter is the kernel's quiet cost on the
// sandbox this benchmark was written on; on another machine it scales
// every host_cpu_s and setup_s by one constant, which no comparison of two commits on
// that machine sees.
const calRefNsPerIter = 1.575

// calSink keeps the kernel's result live. Atomic: the tests run workloads
// in parallel.
var calSink atomic.Uint64

// calibrate runs iters rounds of the kernel and returns the CPU seconds
// (user + system, CLOCK_PROCESS_CPUTIME_ID: exact, not tick-sampled) they
// took. The kernel touches no memory, so it leaves the caches as it found
// them.
func calibrate(iters int) float64 {
	if iters <= 0 {
		return 0
	}
	t0 := processCPUSeconds()
	x, acc := uint64(1), uint64(0)
	for i := 0; i < iters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		acc += z
	}
	calSink.Add(acc)
	return processCPUSeconds() - t0
}

func processCPUSeconds() float64 {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// resetPeakRSS sets the process's resident-set high-water mark back to its
// current resident set (Linux 4.0 and later: "5" to clear_refs), so that
// the next peakRSSMiB is the peak since now. False where /proc refuses.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB reads the process's high-water resident set (VmHWM). One
// process runs one workload, so the figure is per workload.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return ruMaxRSSMiB()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return ruMaxRSSMiB()
}

func ruMaxRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// quartiles returns the first quartile, median and third quartile of xs
// by linear interpolation between order statistics.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}
