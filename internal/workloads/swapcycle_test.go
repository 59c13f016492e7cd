package workloads

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"snapify/internal/blob"
	"snapify/internal/coi"
	"snapify/internal/core"
	"snapify/internal/simclock"
)

// literalExtents counts b's literal extents.
func literalExtents(b blob.Blob) int {
	n := 0
	for _, e := range b.Extents() {
		if e.IsLiteral() {
			n++
		}
	}
	return n
}

// layout describes how fragmented an app's content is: the literal
// extents of every region snapshot on both sides (one per span of the
// region's overlay) and of every store manifest under dir, reassembled
// from its chunks.
func layout(t *testing.T, in *Instance, dir string) []string {
	t.Helper()
	op, err := coi.DaemonAt(in.Plat, in.CP.DeviceNode()).Lookup(in.CP.ID())
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, r := range append(op.Proc().Regions(), in.Host.Regions()...) {
		out = append(out, fmt.Sprintf("region %s: %d", r.Name(), literalExtents(r.Snapshot())))
	}
	st := in.Plat.Store
	for _, path := range st.List() {
		if !strings.HasPrefix(path, dir+"/") {
			continue
		}
		m, _, err := st.Manifest(path)
		if err != nil {
			t.Fatal(err)
		}
		var content blob.Blob
		for _, d := range m.Chunks {
			c, _, err := st.ReadChunk(d)
			if err != nil {
				t.Fatal(err)
			}
			content = blob.Concat(content, c)
		}
		out = append(out, fmt.Sprintf("manifest %s: %d", path, literalExtents(content)))
	}
	slices.Sort(out)
	return out
}

// TestSwapCyclesKeepFragmentationBounded runs 30 store swap cycles of an
// app whose host keeps rewriting one block of its local store across two
// of the spans its calls wrote. Restores adopt the chunk extents they
// receive and each write into a shared span splits it, but once the
// boundaries exist they are reused: the layout after cycle 30 equals the
// layout after cycle 2.
func TestSwapCyclesKeepFragmentationBounded(t *testing.T) {
	s, _ := ByCode("MC")
	s = scaled(s, 8)
	plat := newPlat(t, 1)
	in, err := Launch(plat, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if _, err := in.RunCalls(4); err != nil {
		t.Fatal(err)
	}
	const dir = "/snap/frag"
	var copts core.CaptureOptions
	copts.Store.Enabled = true
	copts.ChunkBytes = 64 * simclock.KiB
	var ropts core.RestoreOptions
	ropts.Store.Enabled = true
	block := make([]byte, s.InPerCall)
	var second []string
	for c := 1; c <= 30; c++ {
		for i := range block {
			block[i] = byte(c + i)
		}
		if err := in.Buf.Write(block, s.InPerCall/2); err != nil {
			t.Fatal(err)
		}
		snap, err := core.Swapout(dir, in.CP, copts)
		if err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		cp, err := core.Swapin(snap, 1, ropts)
		if err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		if in, err = Attach(plat, s, in.Host, cp); err != nil {
			t.Fatal(err)
		}
		switch got := layout(t, in, dir); c {
		case 2:
			second = got
		case 30:
			if !slices.Equal(got, second) {
				t.Errorf("layout after cycle 30:\n%s\nafter cycle 2:\n%s", strings.Join(got, "\n"), strings.Join(second, "\n"))
			}
			t.Logf("layout after cycle 30:\n%s", strings.Join(got, "\n"))
		}
	}
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
}
