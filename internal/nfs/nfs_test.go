package nfs

import (
	"io"
	"testing"

	"snapify/internal/blob"
	"snapify/internal/hostfs"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/stream"
)

func newMount(t *testing.T) (*Mount, *hostfs.FS) {
	t.Helper()
	m := simclock.Default()
	fabric := simnet.NewFabric(m, 1)
	host := hostfs.New(m)
	return NewMount(fabric, 1, host), host
}

// drain writes content through sink in writeSize pieces and returns the
// accumulated virtual time.
func drain(t *testing.T, sink stream.Sink, content blob.Blob, writeSize int64) simclock.Duration {
	t.Helper()
	acc := simclock.NewPipelineAccum()
	err := content.ForEachChunk(writeSize, func(c blob.Blob) error {
		cost, err := sink.WriteBlob(c)
		if err != nil {
			return err
		}
		stream.Observe(acc, cost)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return acc.Total()
}

func TestHostCannotMount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for host-side mount")
		}
	}()
	m := simclock.Default()
	NewMount(simnet.NewFabric(m, 1), simnet.HostNode, hostfs.New(m))
}

func TestSyncWriteStoresContent(t *testing.T) {
	mnt, host := newMount(t)
	content := blob.FromBytes([]byte("checkpoint data over nfs"))
	sink, err := mnt.CreateSync("/snap/ctx")
	if err != nil {
		t.Fatal(err)
	}
	d := drain(t, sink, content, 8)
	if d <= 0 {
		t.Error("cost must be positive")
	}
	got, _, err := host.ReadFile("/snap/ctx")
	if err != nil {
		t.Fatal(err)
	}
	if !blob.Equal(got, content) {
		t.Error("content mismatch")
	}
}

func TestSmallWritesPunishSyncOnly(t *testing.T) {
	// BLCR's preamble: many small writes. Plain NFS pays one RPC each;
	// the buffered variants absorb them.
	mnt, _ := newMount(t)
	content := blob.Zeros(256 * 96) // 256 records of 96 B

	s1, _ := mnt.CreateSync("/a")
	syncD := drain(t, s1, content, 96)
	s2, _ := mnt.CreateKernelBuffered("/b")
	kernD := drain(t, s2, content, 96)

	model := simclock.Default()
	if syncD < 256*model.NFSRPCLatency {
		t.Errorf("sync small writes cost %v, want >= 256 RPCs (%v)", syncD, 256*model.NFSRPCLatency)
	}
	if kernD*10 > syncD {
		t.Errorf("kernel buffering should absorb small writes: %v vs sync %v", kernD, syncD)
	}
}

func TestBufferedOrdering(t *testing.T) {
	// Section 7: kernel buffering boosts NFS "to a large degree", user
	// buffering "to a lesser degree", and both beat plain sync for bulk
	// checkpoint-sized streams.
	mnt, _ := newMount(t)
	content := blob.Synthetic(3, 256*simclock.MiB)

	s1, _ := mnt.CreateSync("/sync")
	syncD := drain(t, s1, content, 64*simclock.KiB) // BLCR page-granular writes
	s2, _ := mnt.CreateKernelBuffered("/kern")
	kernD := drain(t, s2, content, 64*simclock.KiB)
	s3, _ := mnt.CreateUserBuffered("/user")
	userD := drain(t, s3, content, 64*simclock.KiB)

	if !(kernD < userD && userD < syncD) {
		t.Errorf("want kernel (%v) < user (%v) < sync (%v)", kernD, userD, syncD)
	}
}

func TestBufferedFlushOnClose(t *testing.T) {
	mnt, host := newMount(t)
	content := blob.FromBytes([]byte("short"))
	sink, _ := mnt.CreateKernelBuffered("/f")
	if _, err := sink.WriteBlob(content); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err := host.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if !blob.Equal(got, content) {
		t.Error("buffered tail lost at close")
	}
}

func TestReadRoundTripAndCost(t *testing.T) {
	mnt, host := newMount(t)
	content := blob.Synthetic(7, 64*simclock.MiB)
	host.WriteFile("/ctx", content)
	src, err := mnt.Open("/ctx")
	if err != nil {
		t.Fatal(err)
	}
	acc := simclock.NewPipelineAccum()
	var parts []blob.Blob
	for {
		b, cost, err := src.Next(4 * simclock.MiB)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		stream.Observe(acc, cost)
		parts = append(parts, b)
	}
	if !blob.Equal(blob.Concat(parts...), content) {
		t.Error("read content mismatch")
	}
	// Readahead keeps RPCs in flight: the read must cost less than the
	// fully serial bound of one RPC round trip per rsize transfer plus the
	// wire time.
	model := simclock.Default()
	serial := simclock.Duration(64*simclock.MiB/model.NFSMaxTransfer)*model.NFSRPCLatency +
		simclock.Rate(model.NFSBandwidth)(64*simclock.MiB)
	if acc.Total() >= serial {
		t.Errorf("read cost %v suggests no readahead (serial bound %v)", acc.Total(), serial)
	}
}

func TestMissingFileRead(t *testing.T) {
	mnt, _ := newMount(t)
	if _, err := mnt.Open("/missing"); err == nil {
		t.Fatal("open of missing file must fail")
	}
}

func TestAbortDiscardsPartial(t *testing.T) {
	mnt, host := newMount(t)
	sink, _ := mnt.CreateUserBuffered("/partial")
	sink.WriteBlob(blob.Zeros(10))
	sink.Abort()
	if host.Exists("/partial") {
		t.Error("aborted file visible")
	}
}
