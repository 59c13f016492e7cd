package workloads

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"snapify/internal/coi"
	"snapify/internal/platform"
	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
)

// Region and progress bookkeeping names.
const (
	hostDataRegion = "host_data"
	progressRegion = "app_progress"
	deviceHeap     = "private"
)

var binarySerial atomic.Int64

// RegisterBinary builds and registers the device binary for spec and
// returns its unique name. The binary has the app's private heap and one
// resumable kernel that mixes the input buffer into a running checksum,
// one step at a time, with all progress in device memory.
func RegisterBinary(s Spec) string {
	name := fmt.Sprintf("wl_%s_%d", s.Code, binarySerial.Add(1))
	bin := coi.NewBinary(name)
	bin.AddRegion(deviceHeap, proc.RegionHeap, s.DeviceMem, 0)
	steps := s.StepsPerCall
	if steps < 1 {
		steps = 1
	}
	perStep := s.ComputePerCall / simclock.Duration(steps)
	bin.Register("kernel", func(ctx *coi.RunContext, args []byte) ([]byte, error) {
		bufID := int(binary.BigEndian.Uint32(args))
		callIdx := binary.BigEndian.Uint64(args[4:])
		inBytes := int64(binary.BigEndian.Uint64(args[12:]))

		heap := ctx.Region(deviceHeap)
		buf := ctx.Buffer(bufID)
		// Device-side progress: [call u64 | step u64 | checksum u64]. The
		// step counter is keyed by the call index, so a snapshot at any
		// step boundary — including after the final step but before the
		// result send — re-enters without redoing or skipping work.
		st := make([]byte, 24)
		heap.ReadAt(st, 0)
		storedCall := binary.BigEndian.Uint64(st[:8])
		step := binary.BigEndian.Uint64(st[8:16])
		sum := binary.BigEndian.Uint64(st[16:])
		if storedCall != callIdx {
			// A fresh call, not a re-entry.
			step = 0
			binary.BigEndian.PutUint64(st[:8], callIdx)
			binary.BigEndian.PutUint64(st[8:16], 0)
			heap.WriteAt(st, 0)
		}
		sliceLen := inBytes / int64(steps)
		if sliceLen < 1 {
			sliceLen = 1
		}
		for ; step < uint64(steps); step++ {
			step := step
			if err := ctx.Step(func() {
				off := (int64(step) * sliceLen) % buf.Size()
				n := sliceLen
				if off+n > buf.Size() {
					n = buf.Size() - off
				}
				// The fold streams, so the slice is read in place.
				buf.Visit(off, n, func(p []byte) { sum = fold(sum, p) })
				sum += callIdx
				binary.BigEndian.PutUint64(st[8:16], step+1)
				binary.BigEndian.PutUint64(st[16:], sum)
				heap.WriteAt(st, 0)
				// Dirty a rotating page of the private heap, as a real
				// kernel's working set would.
				heap.WriteAt(st[:8], 4096+(int64(callIdx)*4096)%(4*simclock.MiB))
				ctx.Compute(perStep)
			}); err != nil {
				return nil, err
			}
		}
		out := make([]byte, 8)
		binary.BigEndian.PutUint64(out, sum)
		return out, nil
	})
	coi.RegisterBinary(bin)
	return name
}

// The kernel checksum's multiplier P (the FNV-64 prime) and its powers,
// each reduced mod 2⁶⁴ (constant arithmetic is exact, so the wrap-around
// uint64 multiplication would do is spelled out).
const (
	foldP1 = 1099511628211
	foldP2 = foldP1 * foldP1 % (1 << 64)
	foldP3 = foldP2 * foldP1 % (1 << 64)
	foldP4 = foldP3 * foldP1 % (1 << 64)
	foldP5 = foldP4 * foldP1 % (1 << 64)
	foldP6 = foldP5 * foldP1 % (1 << 64)
	foldP7 = foldP6 * foldP1 % (1 << 64)
	foldP8 = foldP7 * foldP1 % (1 << 64)
)

// fold mixes p into sum as sum = sum·P + b for each byte b in turn, eight
// bytes per step: Horner's rule over one little-endian word gives sum·P⁸ +
// b₀P⁷ + … + b₆P + b₇, and since uint64 arithmetic is arithmetic mod 2⁶⁴
// the result equals the byte-at-a-time chain for every input. The byte
// terms do not depend on sum, so each step's serial chain is one multiply
// and one add.
func fold(sum uint64, p []byte) uint64 {
	for ; len(p) >= 8; p = p[8:] {
		w := binary.LittleEndian.Uint64(p)
		hi := (w&0xff)*foldP7 + (w>>8&0xff)*foldP6 + ((w>>16&0xff)*foldP5 + (w>>24&0xff)*foldP4)
		lo := (w>>32&0xff)*foldP3 + (w>>40&0xff)*foldP2 + ((w>>48&0xff)*foldP1 + w>>56)
		sum = sum*foldP8 + (hi + lo)
	}
	for _, b := range p {
		sum = sum*foldP1 + uint64(b)
	}
	return sum
}

// Instance is one running benchmark: the host process, its offload
// process, and the driver state.
type Instance struct {
	Spec Spec
	Plat *platform.Platform
	Host *proc.Process
	TL   *simclock.Timeline
	CP   *coi.Process
	PL   *coi.Pipeline
	Buf  *coi.Buffer

	lastSum uint64
}

// Launch starts spec on the given device, allocating the host data, the
// COI buffer (the local store), and the pipeline.
func Launch(plat *platform.Platform, s Spec, dev simnet.NodeID) (*Instance, error) {
	host := plat.Procs.Spawn("host_"+s.Code, simnet.HostNode, plat.Host().Mem)
	in, err := LaunchWithHost(plat, s, dev, host, simclock.NewTimeline())
	if err != nil {
		host.Terminate()
	}
	return in, err
}

// LaunchWithHost starts spec inside an existing host process (an MPI rank
// launches its per-rank zone this way).
func LaunchWithHost(plat *platform.Platform, s Spec, dev simnet.NodeID, host *proc.Process, tl *simclock.Timeline) (*Instance, error) {
	fail := func(err error) (*Instance, error) {
		return nil, err
	}
	if _, err := host.AddRegion(hostDataRegion, proc.RegionHeap, s.HostMem, 0); err != nil {
		return fail(err)
	}
	if _, err := host.AddRegion(progressRegion, proc.RegionData, 4096, 0); err != nil {
		return fail(err)
	}
	binName := RegisterBinary(s)
	cp, err := coi.CreateProcess(plat, host, tl, dev, binName)
	if err != nil {
		return fail(err)
	}
	pl, err := cp.CreatePipeline()
	if err != nil {
		return fail(err)
	}
	buf, err := cp.CreateBuffer(s.LocalStore)
	if err != nil {
		return fail(err)
	}
	return &Instance{Spec: s, Plat: plat, Host: host, TL: tl, CP: cp, PL: pl, Buf: buf}, nil
}

// Attach rebuilds an Instance around a restarted application (the host
// process and handle restored by core.RestartApp). The driver resumes from
// the progress counter in the restored host memory.
func Attach(plat *platform.Platform, s Spec, host *proc.Process, cp *coi.Process) (*Instance, error) {
	pls := cp.Pipelines()
	if len(pls) != 1 {
		return nil, fmt.Errorf("workloads: restored app has %d pipelines", len(pls))
	}
	bufs := cp.Buffers()
	if len(bufs) != 1 {
		return nil, fmt.Errorf("workloads: restored app has %d buffers", len(bufs))
	}
	var buf *coi.Buffer
	for _, b := range bufs {
		buf = b
	}
	return &Instance{Spec: s, Plat: plat, Host: host, TL: cp.Timeline(), CP: cp, PL: pls[0], Buf: buf}, nil
}

// Progress returns the number of completed offload calls.
func (in *Instance) Progress() int {
	r := in.Host.Region(progressRegion)
	b := make([]byte, 8)
	r.ReadAt(b, 0)
	return int(binary.BigEndian.Uint64(b))
}

func (in *Instance) setProgress(n int) {
	r := in.Host.Region(progressRegion)
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(n))
	r.WriteAt(b, 0)
}

// RunCalls executes up to n further offload calls (fewer if the run
// completes) and returns the number executed.
func (in *Instance) RunCalls(n int) (int, error) {
	s := in.Spec
	model := in.Plat.Model()
	done := 0
	stage := getStaging(s.InPerCall + s.OutPerCall)
	defer staging.Put(stage)
	inData, outData := (*stage)[:s.InPerCall], (*stage)[s.InPerCall:]
	clear(inData)
	for done < n {
		call := in.Progress()
		if call >= s.Calls {
			break
		}
		// Host-side step: produce the input block (deterministic content)
		// and dirty a page of host data.
		for i := 0; i < len(inData); i += 251 {
			inData[i] = byte(call + i)
		}
		in.TL.Advance(model.HostMemcpy(s.InPerCall))
		hd := in.Host.Region(hostDataRegion)
		hd.WriteAt(inData[:min64(4096, s.InPerCall)], (int64(call)*4096)%(4*simclock.MiB))

		// Transfer in, run, transfer out — the offload pragma's in/out
		// clauses.
		off := (int64(call) * s.InPerCall) % s.LocalStore
		nIn := min64(s.InPerCall, s.LocalStore-off)
		if err := in.Buf.Write(inData[:nIn], off); err != nil {
			return done, err
		}
		args := make([]byte, 20)
		binary.BigEndian.PutUint32(args, uint32(in.Buf.ID()))
		binary.BigEndian.PutUint64(args[4:], uint64(call))
		binary.BigEndian.PutUint64(args[12:], uint64(s.InPerCall))
		out, err := in.PL.RunFunction("kernel", args)
		if err != nil {
			return done, err
		}
		in.lastSum = binary.BigEndian.Uint64(out)
		if s.OutPerCall > 0 {
			nOut := min64(s.OutPerCall, s.LocalStore)
			if err := in.Buf.Read(outData[:nOut], 0); err != nil {
				return done, err
			}
		}
		in.setProgress(call + 1)
		done++
	}
	return done, nil
}

// staging holds RunCalls' host-side transfer buffers (*[]byte) between
// calls. A COI buffer write copies out of them, so none is ever aliased.
var staging = sync.Pool{New: func() any { return new([]byte) }}

// getStaging returns a staging buffer of n bytes; its content is stale.
func getStaging(n int64) *[]byte {
	p := staging.Get().(*[]byte)
	if int64(cap(*p)) < n {
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	return p
}

// Run executes the benchmark to completion and returns its checksum.
func (in *Instance) Run() (uint64, error) {
	if _, err := in.RunCalls(in.Spec.Calls); err != nil {
		return 0, err
	}
	return in.Checksum(), nil
}

// Checksum returns the device-side checksum after the last completed call.
func (in *Instance) Checksum() uint64 { return in.lastSum }

// Runtime returns the application's virtual runtime so far.
func (in *Instance) Runtime() simclock.Duration { return in.TL.Now() }

// Done reports whether all calls have completed.
func (in *Instance) Done() bool { return in.Progress() >= in.Spec.Calls }

// Close tears the application down.
func (in *Instance) Close() {
	in.Host.Terminate()
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
