package scp

import (
	"testing"

	"snapify/internal/blob"
	"snapify/internal/phi"
	"snapify/internal/simclock"
)

func TestCopyDeviceToHost(t *testing.T) {
	s := phi.NewServer(phi.ServerConfig{Devices: 1})
	dev, host := s.Device(1), s.Host
	content := blob.Concat(blob.FromBytes([]byte("payload")), blob.Synthetic(5, simclock.MiB))
	if _, err := dev.FS.WriteFile("/tmp/f", content); err != nil {
		t.Fatal(err)
	}
	d, err := Copy(s.Fabric, dev.Node, dev.FS, "/tmp/f", host.Node, host.FS, "/f")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := host.FS.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if !blob.Equal(got, content) {
		t.Error("content mismatch")
	}
	if d < s.Model().SCPHandshake {
		t.Errorf("cost %v below handshake cost", d)
	}
}

func TestCopyIsCipherBound(t *testing.T) {
	s := phi.NewServer(phi.ServerConfig{Devices: 1})
	content := blob.Synthetic(9, simclock.GiB)
	s.Host.FS.WriteFile("/big", content)
	d, err := Copy(s.Fabric, s.Host.Node, s.Host.FS, "/big", s.Device(1).Node, s.Device(1).FS, "/tmp/big")
	if err != nil {
		t.Fatal(err)
	}
	bound := simclock.Rate(s.Model().SCPCipherBandwidth)(simclock.GiB)
	if d < bound {
		t.Errorf("scp of 1 GiB cost %v, below cipher bound %v", d, bound)
	}
}

func TestCopyMissingSource(t *testing.T) {
	s := phi.NewServer(phi.ServerConfig{Devices: 1})
	if _, err := Copy(s.Fabric, 1, s.Device(1).FS, "/nope", 0, s.Host.FS, "/f"); err == nil {
		t.Fatal("copy of missing source must fail")
	}
}

func TestCopyIntoFullCardFails(t *testing.T) {
	s := phi.NewServer(phi.ServerConfig{Devices: 1, Device: phi.DeviceConfig{MemBytes: simclock.GiB}})
	content := blob.Zeros(2 * simclock.GiB)
	s.Host.FS.WriteFile("/big", content)
	if _, err := Copy(s.Fabric, 0, s.Host.FS, "/big", 1, s.Device(1).FS, "/tmp/big"); err == nil {
		t.Fatal("copy exceeding card memory must fail")
	}
	if _, err := s.Device(1).FS.Open("/tmp/big"); err == nil {
		t.Error("partial file left on card")
	}
}
