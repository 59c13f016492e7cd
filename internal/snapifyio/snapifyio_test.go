package snapifyio

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"snapify/internal/blob"
	"snapify/internal/phi"
	"snapify/internal/scif"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/stream"
	"snapify/internal/vfs"
)

// rig is a two-device server with daemons on every node.
type rig struct {
	server *phi.Server
	net    *scif.Network
	svc    *Service
}

func newRig(t *testing.T) *rig {
	t.Helper()
	server := phi.NewServer(phi.ServerConfig{Devices: 2})
	net := scif.NewNetwork(server.Fabric)
	svc := NewService(net, nil)
	if _, err := svc.StartDaemon(simnet.HostNode, server.Host.FS); err != nil {
		t.Fatal(err)
	}
	for _, d := range server.Devices {
		if _, err := svc.StartDaemon(d.Node, d.FS); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(svc.Stop)
	return &rig{server: server, net: net, svc: svc}
}

// writeAll streams a blob through a write-mode file in chunks.
func writeAll(t *testing.T, f *File, content blob.Blob) simclock.Duration {
	t.Helper()
	acc := simclock.NewPipelineAccum()
	err := content.ForEachChunk(DefaultBufSize, func(chunk blob.Blob) error {
		cost, err := f.WriteBlob(chunk)
		if err != nil {
			return err
		}
		stream.Observe(acc, cost)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return acc.Total()
}

// readAll drains a read-mode file.
func readAll(t *testing.T, f *File) (blob.Blob, simclock.Duration) {
	t.Helper()
	acc := simclock.NewPipelineAccum()
	var parts []blob.Blob
	for {
		chunk, cost, err := f.Next(DefaultBufSize)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		stream.Observe(acc, cost)
		parts = append(parts, chunk)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return blob.Concat(parts...), acc.Total()
}

func TestWriteDeviceToHost(t *testing.T) {
	r := newRig(t)
	content := blob.Concat(
		blob.FromBytes([]byte("snapshot header")),
		blob.Synthetic(9, 20*simclock.MiB),
	)
	f, err := r.svc.Open(1, simnet.HostNode, "/snap/ctx", Write)
	if err != nil {
		t.Fatal(err)
	}
	d := writeAll(t, f, content)
	if d <= 0 {
		t.Error("write cost must be positive")
	}
	got, _, err := r.server.Host.FS.ReadFile("/snap/ctx")
	if err != nil {
		t.Fatal(err)
	}
	if !blob.Equal(got, content) {
		t.Error("host file content differs from what the device wrote")
	}
	// Synthetic background must not have materialized in the host file.
	if got.LiteralBytes() > 1*simclock.MiB {
		t.Errorf("host file holds %d literal bytes", got.LiteralBytes())
	}
}

func TestReadHostToDevice(t *testing.T) {
	r := newRig(t)
	content := blob.Concat(blob.FromBytes([]byte("ctx!")), blob.Synthetic(3, 9*simclock.MiB))
	r.server.Host.FS.WriteFile("/snap/ctx", content)
	f, err := r.svc.Open(1, simnet.HostNode, "/snap/ctx", Read)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != content.Len() {
		t.Errorf("Size = %d, want %d", f.Size(), content.Len())
	}
	got, d := readAll(t, f)
	if d <= 0 {
		t.Error("read cost must be positive")
	}
	if !blob.Equal(got, content) {
		t.Error("read content differs")
	}
}

func TestDeviceToDeviceCopy(t *testing.T) {
	// Migration copies the local store directly between coprocessors.
	r := newRig(t)
	content := blob.FromBytes([]byte("local store of the offload process"))
	if _, err := r.server.Device(1).FS.WriteFile("/tmp/store", content); err != nil {
		t.Fatal(err)
	}
	src, err := r.svc.Open(1, 1, "/tmp/store", Read) // local read via loopback
	if err != nil {
		t.Fatal(err)
	}
	dst, err := r.svc.Open(1, 2, "/tmp/store", Write) // push to mic1
	if err != nil {
		t.Fatal(err)
	}
	got, _ := readAll(t, src)
	writeAll(t, dst, got)
	back, err := r.svc.Open(2, 2, "/tmp/store", Read)
	if err != nil {
		t.Fatal(err)
	}
	if stored, _ := readAll(t, back); !blob.Equal(stored, content) {
		t.Error("device-to-device copy corrupted content")
	}
}

func TestWriteFasterThanReadForLargeFiles(t *testing.T) {
	// Section 7: device-to-host writes outrun host-to-device reads because
	// the host flushes asynchronously while reads are synchronous.
	r := newRig(t)
	content := blob.Synthetic(5, simclock.GiB)
	fw, err := r.svc.Open(1, simnet.HostNode, "/f", Write)
	if err != nil {
		t.Fatal(err)
	}
	wd := writeAll(t, fw, content)

	fr, err := r.svc.Open(1, simnet.HostNode, "/f", Read)
	if err != nil {
		t.Fatal(err)
	}
	_, rd := readAll(t, fr)
	if wd >= rd {
		t.Errorf("write (%v) should be faster than read (%v) for 1 GiB", wd, rd)
	}
}

func TestOpenErrors(t *testing.T) {
	r := newRig(t)
	if _, err := r.svc.Open(9, 0, "/f", Write); !errors.Is(err, ErrNoDaemon) {
		t.Errorf("open from daemon-less node: %v", err)
	}
	_, err := r.svc.Open(1, simnet.HostNode, "/missing", Read)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Errorf("open of missing remote file: %v", err)
	}
}

func TestWriteToFullDeviceFails(t *testing.T) {
	// Writing a snapshot into a nearly-full card's RAM fs must fail with a
	// remote error and leave no partial file.
	r := newRig(t)
	free := r.server.Device(1).Mem.Free()
	f, err := r.svc.Open(0, 1, "/tmp/too_big", Write)
	if err != nil {
		t.Fatal(err)
	}
	content := blob.Zeros(free + simclock.MiB)
	var failed bool
	err = content.ForEachChunk(DefaultBufSize, func(chunk blob.Blob) error {
		if _, err := f.WriteBlob(chunk); err != nil {
			failed = true
			return err
		}
		return nil
	})
	if !failed || err == nil {
		t.Fatal("write exceeding card memory must fail")
	}
	f.Abort()
	if _, err := r.server.Device(1).FS.Open("/tmp/too_big"); err == nil {
		t.Error("partial file left behind")
	}
}

func TestModeEnforcement(t *testing.T) {
	r := newRig(t)
	r.server.Host.FS.WriteFile("/f", blob.Zeros(10))
	fr, _ := r.svc.Open(1, 0, "/f", Read)
	if _, err := fr.WriteBlob(blob.Zeros(1)); err == nil {
		t.Error("write on read-mode file must fail")
	}
	fr.Close()
	fw, _ := r.svc.Open(1, 0, "/g", Write)
	if _, _, err := fw.Next(10); err == nil {
		t.Error("read on write-mode file must fail")
	}
	fw.Abort()
	if _, err := fw.WriteBlob(blob.Zeros(1)); !errors.Is(err, ErrFileClosed) {
		t.Errorf("write after abort: %v", err)
	}
}

func TestDuplicateDaemonRejected(t *testing.T) {
	r := newRig(t)
	if _, err := r.svc.StartDaemon(1, r.server.Device(1).FS); err == nil {
		t.Fatal("duplicate daemon must be rejected")
	}
}

func TestFileVisibleOnlyAfterClose(t *testing.T) {
	r := newRig(t)
	f, _ := r.svc.Open(1, 0, "/staged", Write)
	f.WriteBlob(blob.Zeros(100))
	if r.server.Host.FS.Exists("/staged") {
		t.Error("file visible before Close")
	}
	f.Close()
	if !r.server.Host.FS.Exists("/staged") {
		t.Error("file missing after Close")
	}
}

func TestCostStagesShape(t *testing.T) {
	r := newRig(t)
	f, _ := r.svc.Open(1, 0, "/f", Write)
	cost, err := f.WriteBlob(blob.Zeros(DefaultBufSize))
	if err != nil {
		t.Fatal(err)
	}
	if len(cost.Stages) != 3 {
		t.Fatalf("want 3 pipeline stages, got %d", len(cost.Stages))
	}
	for i, s := range cost.Stages {
		if s <= 0 {
			t.Errorf("stage %d cost %v", i, s)
		}
	}
	if cost.Serial {
		t.Error("Snapify-IO stages must be pipelined")
	}
	f.Close()
}

func TestRDMATrafficOnFabric(t *testing.T) {
	r := newRig(t)
	before := r.server.Fabric.Traffic(1, 0)
	f, _ := r.svc.Open(1, 0, "/f", Write)
	writeAll(t, f, blob.Zeros(16*simclock.MiB))
	moved := r.server.Fabric.Traffic(1, 0) - before
	if moved < 16*simclock.MiB {
		t.Errorf("fabric moved %d bytes device->host, want >= %d", moved, 16*simclock.MiB)
	}
}

func TestConcurrentStreams(t *testing.T) {
	// Several processes stream through the daemons at once: one handler
	// per connection, no cross-talk.
	r := newRig(t)
	const streams = 6
	var wg sync.WaitGroup
	errs := make([]error, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			content := blob.Concat(
				blob.FromBytes([]byte{byte(i)}),
				blob.Synthetic(uint64(i+1), 2*simclock.MiB),
			)
			path := "/conc/" + string(rune('a'+i))
			f, err := r.svc.Open(simnet.NodeID(1+i%2), simnet.HostNode, path, Write)
			if err != nil {
				errs[i] = err
				return
			}
			if err := content.ForEachChunk(DefaultBufSize, func(c blob.Blob) error {
				_, err := f.WriteBlob(c)
				return err
			}); err != nil {
				errs[i] = err
				return
			}
			if err := f.Close(); err != nil {
				errs[i] = err
				return
			}
			got, _, err := r.server.Host.FS.ReadFile(path)
			if err != nil {
				errs[i] = err
				return
			}
			if !blob.Equal(got, content) {
				errs[i] = fmt.Errorf("stream %d corrupted", i)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("stream %d: %v", i, err)
		}
	}
}

func TestMismatchedStagingBufferRejected(t *testing.T) {
	server := phi.NewServer(phi.ServerConfig{Devices: 1})
	net := scif.NewNetwork(server.Fabric)
	svc := NewService(net, nil)
	if _, err := svc.StartDaemonBuf(simnet.HostNode, server.Host.FS, 1*simclock.MiB); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.StartDaemonBuf(1, server.Device(1).FS, 2*simclock.MiB); err != nil {
		t.Fatal(err)
	}
	defer svc.Stop()
	if _, err := svc.Open(1, simnet.HostNode, "/f", Write); err == nil {
		t.Fatal("mismatched staging sizes must be rejected at open")
	}
	if _, err := svc.StartDaemonBuf(2, nil, 0); err == nil {
		t.Fatal("zero buffer size must be rejected")
	}
}

// TestDaemonCrashLeavesNoPartialFiles is the daemon-abort orphan
// regression (DESIGN.md §10): a daemon that dies mid-stripe must take
// its in-progress ".partial" assembly markers with it. Before the fix,
// the crash wiped the assembly table but the marker survived on the
// host file system, shadowing later captures to the same path.
func TestDaemonCrashLeavesNoPartialFiles(t *testing.T) {
	r := newRig(t)
	const total = 8 * int64(simclock.MiB)
	f, err := r.svc.OpenStream(1, simnet.HostNode, "/snap/crashed", Write, OpenOptions{
		Slots:  2,
		Stripe: Stripe{Offset: 0, Length: total, Total: total},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Move one chunk so the sparse assembly (and its marker) exists.
	if _, err := f.WriteBlob(blob.Synthetic(3, DefaultBufSize)); err != nil {
		t.Fatal(err)
	}
	if !r.server.Host.FS.Exists("/snap/crashed" + vfs.PartialSuffix) {
		t.Fatal("no partial marker while the stripe is in progress")
	}
	if err := r.svc.CrashDaemon(simnet.HostNode); err != nil {
		t.Fatal(err)
	}
	// The stream is dead; its next operation fails.
	if _, err := f.WriteBlob(blob.Synthetic(4, DefaultBufSize)); err == nil {
		t.Error("write after daemon crash must fail")
	}
	f.Abort()
	for _, p := range r.server.Host.FS.List("") {
		if strings.HasSuffix(p, vfs.PartialSuffix) {
			t.Errorf("orphan partial file after daemon crash: %s", p)
		}
	}
	if r.server.Host.FS.Exists("/snap/crashed") {
		t.Error("crashed assembly must not surface as a committed file")
	}
	// The restarted daemon accepts new streams on the same path, and a
	// clean write commits.
	f2, err := r.svc.OpenStream(1, simnet.HostNode, "/snap/crashed", Write, OpenOptions{
		Slots:  2,
		Stripe: Stripe{Offset: 0, Length: total, Total: total},
	})
	if err != nil {
		t.Fatalf("open after daemon restart: %v", err)
	}
	content := blob.Synthetic(5, total)
	if err := content.ForEachChunk(DefaultBufSize, func(chunk blob.Blob) error {
		_, werr := f2.WriteBlob(chunk)
		return werr
	}); err != nil {
		t.Fatal(err)
	}
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err := r.server.Host.FS.ReadFile("/snap/crashed")
	if err != nil {
		t.Fatal(err)
	}
	if !blob.Equal(got, content) {
		t.Error("post-restart capture differs from what was written")
	}
}

// TestDiscardRemovesPendingAssembly covers the writer-gave-up path: a
// Discard control request drops the pending assembly and its marker.
func TestDiscardRemovesPendingAssembly(t *testing.T) {
	r := newRig(t)
	// The stripe is twice the chunk the writer manages to send: the
	// abandoned assembly is genuinely incomplete, so neither the detach
	// nor the discard may ever commit it.
	const total = 8 * int64(simclock.MiB)
	f, err := r.svc.OpenStream(1, simnet.HostNode, "/snap/given_up", Write, OpenOptions{
		Slots:  1,
		Stripe: Stripe{Offset: 0, Length: total, Total: total},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteBlob(blob.Synthetic(6, DefaultBufSize)); err != nil {
		t.Fatal(err)
	}
	f.Detach()
	if err := r.svc.Discard(1, simnet.HostNode, "/snap/given_up"); err != nil {
		t.Fatal(err)
	}
	if r.server.Host.FS.Exists("/snap/given_up"+vfs.PartialSuffix) || r.server.Host.FS.Exists("/snap/given_up") {
		t.Error("discard left the assembly or its marker behind")
	}
}
