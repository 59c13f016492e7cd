package platform_test

import (
	"errors"
	"io"
	"strings"
	"testing"

	"snapify/internal/blob"
	"snapify/internal/platform"
	"snapify/internal/platform/platformtest"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/snapifyio"
	"snapify/internal/snapstore"
	"snapify/internal/vfs"
)

func TestNewAssemblesServer(t *testing.T) {
	plat := platformtest.Start(t, platformtest.Options{Devices: 2})
	if got := len(plat.Server.Devices); got != 2 {
		t.Fatalf("server has %d devices, want 2", got)
	}
	if plat.Host() == nil {
		t.Fatal("no host")
	}
	for _, node := range []simnet.NodeID{1, 2} {
		if plat.Device(node) == nil {
			t.Fatalf("no device at node %v", node)
		}
		if plat.NFS(node) == nil {
			t.Fatalf("no NFS mount at node %v", node)
		}
	}
	if plat.Model() == nil {
		t.Fatal("no cost model")
	}
	if !plat.SnapifyEnabled {
		t.Error("Snapify instrumentation off by default")
	}
}

func TestNewSeedsRuntimeLibraries(t *testing.T) {
	plat := platformtest.Start(t, platformtest.Options{})
	b, _, err := plat.Host().FS.ReadFile(platform.RuntimeLibsPath)
	if err != nil {
		t.Fatalf("runtime libs not seeded: %v", err)
	}
	if b.Len() != 24*simclock.MiB {
		t.Errorf("runtime libs are %d bytes, want %d", b.Len(), 24*simclock.MiB)
	}
	if !blob.Equal(b, blob.Synthetic(0xF00D, 24*simclock.MiB)) {
		t.Error("runtime libs content differs from the deterministic seed")
	}
}

// A store-resident snapshot is served by the host daemon's store read
// stream and by nothing else: a plain read of its path finds no file.
func TestStoreServedOnlyByTheStoreStream(t *testing.T) {
	plat := platformtest.Start(t, platformtest.Options{})
	if plat.Store == nil {
		t.Fatal("no store")
	}
	const chunk = 16 * 1024
	content := blob.Synthetic(7, 64*1024)
	path := "/snap/store_probe"
	digests := snapstore.ChunkDigests(content, chunk)
	need, _, _, err := plat.Store.Negotiate(path, "", content.Len(), chunk, digests)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range need {
		off := int64(idx) * chunk
		if _, err := plat.Store.PutChunkAt(path, off, content.Slice(off, min(chunk, content.Len()-off))); err != nil {
			t.Fatal(err)
		}
	}
	if committed, _, err := plat.Store.CloseUpload(path); err != nil || !committed {
		t.Fatalf("close upload: committed=%v err=%v", committed, err)
	}

	f, err := plat.IO.OpenStream(simnet.HostNode, simnet.HostNode, path, snapifyio.Read, snapifyio.OpenOptions{Store: true})
	if err != nil {
		t.Fatalf("store snapshot not served by the store stream: %v", err)
	}
	defer f.Close()
	var parts []blob.Blob
	for {
		b, _, err := f.Next(1 << 20)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("store stream read: %v", err)
		}
		parts = append(parts, b)
	}
	if got := blob.Concat(parts...); !blob.Equal(got, content) {
		t.Error("store stream returned different bytes than the store holds")
	}

	_, err = plat.IO.Open(simnet.HostNode, simnet.HostNode, path, snapifyio.Read)
	var remote *snapifyio.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, vfs.ErrNotExist.Error()) {
		t.Errorf("plain open of a store-only path: err = %v, want the host's not-exist", err)
	}
}

func TestNoSnapifyOption(t *testing.T) {
	plat := platformtest.Start(t, platformtest.Options{NoSnapify: true})
	if plat.SnapifyEnabled {
		t.Error("NoSnapify platform still reports Snapify enabled")
	}
}

func TestCardMemOption(t *testing.T) {
	plat := platformtest.Start(t, platformtest.Options{CardMem: 1 * simclock.GiB})
	// Total = configured physical memory; some is OS-reserved.
	dev := plat.Device(1)
	if total := dev.Mem.Free() + dev.Mem.Used(); total > 1*simclock.GiB {
		t.Errorf("card reports %d bytes, want <= 1 GiB", total)
	}
	if dev.Mem.Used() == 0 {
		t.Error("no OS reserve carved out of card memory")
	}
}

func TestNFSPanicsOnUnknownNode(t *testing.T) {
	plat := platformtest.Start(t, platformtest.Options{Devices: 1})
	defer func() {
		if recover() == nil {
			t.Error("NFS on a nonexistent node must panic (caller bug)")
		}
	}()
	plat.NFS(simnet.NodeID(99))
}
