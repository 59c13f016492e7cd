package simclock

import (
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
