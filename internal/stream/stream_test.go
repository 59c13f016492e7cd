package stream

import (
	"io"
	"testing"
	"time"

	"snapify/internal/blob"
	"snapify/internal/hostfs"
	"snapify/internal/phi"
	"snapify/internal/ramfs"
	"snapify/internal/simclock"
)

func TestCostAddAndObserve(t *testing.T) {
	c := Cost{Stages: []simclock.Duration{time.Second, 2 * time.Second}}
	if c.Add() != 3*time.Second {
		t.Errorf("Add = %v", c.Add())
	}
	// Pipelined: fill then bottleneck.
	acc := simclock.NewPipelineAccum()
	Observe(acc, c, 500*time.Millisecond)
	Observe(acc, c, 500*time.Millisecond)
	want := (3*time.Second + 500*time.Millisecond) + 2*time.Second
	if acc.Total() != want {
		t.Errorf("pipelined total = %v, want %v", acc.Total(), want)
	}
	// Serial: everything sums.
	acc2 := simclock.NewPipelineAccum()
	Observe(acc2, Cost{Stages: c.Stages, Serial: true}, 500*time.Millisecond)
	Observe(acc2, Cost{Stages: c.Stages, Serial: true}, 500*time.Millisecond)
	if acc2.Total() != 7*time.Second {
		t.Errorf("serial total = %v, want 7s", acc2.Total())
	}
}

func TestHostFSSinkSourceRoundTrip(t *testing.T) {
	fs := hostfs.New(simclock.Default())
	sink, err := NewHostFSSink(fs, "/f")
	if err != nil {
		t.Fatal(err)
	}
	content := blob.Concat(blob.FromBytes([]byte("abc")), blob.Synthetic(4, 5000))
	cost, err := sink.WriteBlob(content)
	if err != nil {
		t.Fatal(err)
	}
	if len(cost.Stages) != 1 || cost.Stages[0] <= 0 || cost.Serial {
		t.Errorf("cost = %+v", cost)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	src, err := NewHostFSSource(fs, "/f")
	if err != nil {
		t.Fatal(err)
	}
	var parts []blob.Blob
	for {
		b, _, err := src.Next(1024)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, b)
	}
	src.Close()
	if !blob.Equal(blob.Concat(parts...), content) {
		t.Error("round trip mismatch")
	}
}

func TestRamFSSinkAbortReleasesBudget(t *testing.T) {
	bud := phi.NewMemBudget(10000)
	fs := ramfs.New(simclock.Default(), bud)
	sink, err := NewRamFSSink(fs, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sink.WriteBlob(blob.Zeros(5000)); err != nil {
		t.Fatal(err)
	}
	sink.Abort()
	if bud.Used() != 0 {
		t.Errorf("abort leaked %d bytes", bud.Used())
	}
	// Budget gate propagates as a write error.
	sink2, _ := NewRamFSSink(fs, "/g")
	if _, err := sink2.WriteBlob(blob.Zeros(20000)); err == nil {
		t.Error("over-budget write must fail")
	}
	sink2.Abort()
}

func TestRamFSSourceRoundTrip(t *testing.T) {
	bud := phi.NewMemBudget(1 << 20)
	fs := ramfs.New(simclock.Default(), bud)
	content := blob.Synthetic(3, 40000)
	if _, err := fs.WriteFile("/f", content); err != nil {
		t.Fatal(err)
	}
	src, err := NewRamFSSource(fs, "/f")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := src.Next(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if !blob.Equal(got, content) {
		t.Error("content mismatch")
	}
	if _, _, err := src.Next(1); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
	src.Close()
}
