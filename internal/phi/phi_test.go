package phi

import (
	"sync"
	"testing"

	"snapify/internal/blob"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
)

func TestMemBudgetBasics(t *testing.T) {
	b := NewMemBudget(1000)
	if err := b.Reserve(600); err != nil {
		t.Fatal(err)
	}
	if err := b.Reserve(500); err == nil {
		t.Fatal("over-reservation must fail")
	}
	if b.Used() != 600 || b.Free() != 400 || b.capacity != 1000 {
		t.Errorf("Used/Free/Capacity = %d/%d/%d", b.Used(), b.Free(), b.capacity)
	}
	b.Release(600)
	if b.Used() != 0 {
		t.Errorf("Used = %d after release", b.Used())
	}
}

func TestMemBudgetOverReleasePanics(t *testing.T) {
	b := NewMemBudget(10)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on over-release")
		}
	}()
	b.Release(1)
}

func TestMemBudgetConcurrent(t *testing.T) {
	b := NewMemBudget(1 << 30)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if err := b.Reserve(100); err != nil {
					t.Error(err)
					return
				}
				b.Release(100)
			}
		}()
	}
	wg.Wait()
	if b.Used() != 0 {
		t.Errorf("Used = %d after balanced ops", b.Used())
	}
}

func TestDeviceDefaults(t *testing.T) {
	d := NewDevice(simclock.Default(), 1, DeviceConfig{})
	if d.Cores != 60 || d.ThreadsPerCore != 4 {
		t.Errorf("default card shape wrong: %d cores x %d", d.Cores, d.ThreadsPerCore)
	}
	if d.Mem.capacity != 8*simclock.GiB {
		t.Errorf("default memory = %d", d.Mem.capacity)
	}
	// The OS reservation must already be charged.
	if d.Mem.Used() != 512*simclock.MiB {
		t.Errorf("OS reservation = %d", d.Mem.Used())
	}
}

func TestDeviceCannotBeHost(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for host-node device")
		}
	}()
	NewDevice(simclock.Default(), simnet.HostNode, DeviceConfig{})
}

func TestRamFSCompetesWithProcessMemory(t *testing.T) {
	// The paper's core storage constraint: a big file in the RAM fs starves
	// process allocation, and vice versa.
	d := NewDevice(simclock.Default(), 1, DeviceConfig{MemBytes: 1 * simclock.GiB, OSReserved: 100 * simclock.MiB})
	if _, err := d.FS.WriteFile("/tmp/snapshot", blob.Zeros(600*simclock.MiB)); err != nil {
		t.Fatal(err)
	}
	// Process tries to allocate 400 MiB: only ~324 MiB free.
	if err := d.Mem.Reserve(400 * simclock.MiB); err == nil {
		t.Fatal("process allocation should fail while the snapshot occupies the RAM fs")
	}
	d.FS.Remove("/tmp/snapshot")
	if err := d.Mem.Reserve(400 * simclock.MiB); err != nil {
		t.Fatalf("allocation after file removal: %v", err)
	}
}

func TestServerAssembly(t *testing.T) {
	s := NewServer(ServerConfig{Devices: 2})
	if s.Fabric.Devices() != 2 || len(s.Devices) != 2 {
		t.Fatalf("server has %d fabric devices, %d cards", s.Fabric.Devices(), len(s.Devices))
	}
	if s.Host.Node != simnet.HostNode {
		t.Error("host node wrong")
	}
	if s.Device(1).Node != 1 || s.Device(2).Node != 2 {
		t.Error("device lookup wrong")
	}
	if s.Host.Mem.capacity != 32*simclock.GiB {
		t.Errorf("host memory default = %d", s.Host.Mem.capacity)
	}
	if s.Model() == nil {
		t.Error("nil model")
	}
}

func TestServerUnknownDevicePanics(t *testing.T) {
	s := NewServer(ServerConfig{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown device")
		}
	}()
	s.Device(9)
}
