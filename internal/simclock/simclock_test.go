package simclock

import (
	"math/rand"
	"testing"
	"time"
)

func TestXferBasic(t *testing.T) {
	m := Default()
	if got := m.RDMA(0); got != m.RDMASetup {
		t.Errorf("RDMA(0) = %v, want setup-only %v", got, m.RDMASetup)
	}
	one := m.RDMA(m.RDMABandwidth)
	want := m.RDMASetup + time.Second
	if diff := one - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("RDMA(1s worth) = %v, want ~%v", one, want)
	}
}

func TestModelMonotonicInBytes(t *testing.T) {
	m := Default()
	fns := map[string]func(int64) Duration{
		"RDMA":         m.RDMA,
		"SCIFMsg":      m.SCIFMsg,
		"PhiMemcpy":    m.PhiMemcpy,
		"HostMemcpy":   m.HostMemcpy,
		"PhiPageWalk":  m.PhiPageWalk,
		"HostPageWalk": m.HostPageWalk,
		"RegisterCost": m.RegisterCost,
	}
	for name, fn := range fns {
		prev := Duration(-1)
		for _, n := range []int64{0, 1, KiB, MiB, 64 * MiB, GiB} {
			d := fn(n)
			if d < prev {
				t.Errorf("%s not monotonic at %d bytes: %v < %v", name, n, d, prev)
			}
			prev = d
		}
	}
}

func TestPipelineSingleChunkEqualsSerial(t *testing.T) {
	stages := []Stage{Rate(2 * GiB), Rate(6 * GiB), Rate(3 * GiB)}
	total := int64(3 * MiB)
	p := Pipeline(total, 4*MiB, stages...)
	s := Serial(total, 4*MiB, stages...)
	if p != s {
		t.Errorf("single-chunk pipeline %v != serial %v", p, s)
	}
}

func TestPipelineBottleneckDominates(t *testing.T) {
	// With many chunks the pipeline time approaches total/bottleneck.
	slow := Rate(1 * GiB)
	fast := Rate(10 * GiB)
	total := int64(1 * GiB)
	p := Pipeline(total, 4*MiB, fast, slow, fast)
	want := xfer(total, 1*GiB)
	// Allow fill overhead of a few chunks.
	if p < want {
		t.Errorf("pipeline %v faster than bottleneck bound %v", p, want)
	}
	if p > want+xfer(16*MiB, 1*GiB) {
		t.Errorf("pipeline %v too far above bottleneck bound %v", p, want)
	}
}

func TestPipelineNeverFasterThanAnyStage(t *testing.T) {
	for i := 0; i < 300; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		total := 1 + r.Int63n(256*MiB)
		chunk := 1 + r.Int63n(8*MiB)
		bw1 := int64(1*MiB) + r.Int63n(8*GiB)
		bw2 := int64(1*MiB) + r.Int63n(8*GiB)
		p := Pipeline(total, chunk, Rate(bw1), Rate(bw2))
		// Per-chunk durations truncate to whole nanoseconds, so allow one
		// nanosecond of slack per chunk against the exact bound.
		slack := Duration(total/chunk + 2)
		for _, bw := range []int64{bw1, bw2} {
			if p+slack < xfer(total, bw) {
				t.Fatalf("seed %d: pipeline %v faster than stage bound %v (total=%d chunk=%d bw=%d)",
					i, p, xfer(total, bw), total, chunk, bw)
			}
		}
		if s := Serial(total, chunk, Rate(bw1), Rate(bw2)); p > s {
			t.Fatalf("seed %d: pipeline %v slower than serial %v", i, p, s)
		}
	}
}

func TestSerialAccountsEveryChunk(t *testing.T) {
	setup := 1 * time.Millisecond
	st := RateWithSetup(setup, 1*GiB)
	total := int64(10 * MiB)
	chunk := int64(1 * MiB)
	got := Serial(total, chunk, st)
	want := 10 * (setup + xfer(chunk, 1*GiB))
	if got != want {
		t.Errorf("Serial = %v, want %v", got, want)
	}
}

func TestPipelinePartialLastChunk(t *testing.T) {
	st := Fixed(time.Millisecond)
	got := Pipeline(10*MiB+1, 4*MiB, st) // chunks: 4,4,2+1B -> 3 chunks
	want := 3 * time.Millisecond
	if got != want {
		t.Errorf("partial-chunk pipeline = %v, want %v", got, want)
	}
}

func TestMaxHelpers(t *testing.T) {
	if Max(time.Second, 2*time.Second) != 2*time.Second {
		t.Error("Max wrong")
	}
	if MaxAll() != 0 {
		t.Error("MaxAll() should be 0")
	}
	if MaxAll(time.Second, 3*time.Second, 2*time.Second) != 3*time.Second {
		t.Error("MaxAll wrong")
	}
}

func TestDefaultOrderings(t *testing.T) {
	// The calibration must preserve the platform's qualitative orderings;
	// the paper's results depend on these.
	m := Default()
	if m.RDMABandwidth <= m.NFSBandwidth {
		t.Error("RDMA must be faster than the virtio/NFS path")
	}
	if m.NFSBandwidth <= m.SCPCipherBandwidth {
		t.Error("NFS streaming must beat cipher-bound scp")
	}
	if m.HostMemcpyBandwidth <= m.PhiMemcpyBandwidth {
		t.Error("host cores must copy faster than a KNC core")
	}
	if m.HostFSFlushBandwidth >= m.HostFSWriteBandwidth {
		t.Error("flush to disk must be slower than writing the page cache")
	}
}
