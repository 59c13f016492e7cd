package scif

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"snapify/internal/blob"
	"snapify/internal/faultinject"
	"snapify/internal/phi"
	"snapify/internal/proc"
	"snapify/internal/simclock"
)

// extentsOnly hides a Memory's concrete type, so a byte-slice transfer
// takes the extent path (SnapshotRange → WriteBlob) instead of the direct
// copy.
type extentsOnly struct{ Memory }

// rdmaRig is one host endpoint connected to a card endpoint that has a
// window over part of a card region.
type rdmaRig struct {
	net    *Network
	host   *Endpoint
	region *proc.Region
	win    *Window
}

const (
	rigRegion  = 64 << 10
	rigWinBase = 4096
	rigWinLen  = 32 << 10
)

func newRDMARig(t *testing.T) rdmaRig {
	t.Helper()
	n := newTestNetwork(t, 1)
	c, s := dial(t, n, 0, 1)
	r, err := proc.New("card", 1, 1, phi.NewMemBudget(1<<40)).AddRegion("coibuf", proc.RegionLocalStore, rigRegion, 0x5eed)
	if err != nil {
		t.Fatal(err)
	}
	r.CutEpoch() // arm the digest-epoch tracker
	w, _, err := s.Register(r, rigWinBase, rigWinLen)
	if err != nil {
		t.Fatal(err)
	}
	return rdmaRig{net: n, host: c, region: r, win: w}
}

// randRange draws a window-relative (off, n), a quarter of the time pinned
// to one of the window's edges, occasionally empty or one past the end.
func randRange(rng *rand.Rand) (off, n int64) {
	n = rng.Int64N(9000)
	switch rng.IntN(8) {
	case 0:
		off = 0
	case 1:
		off = rigWinLen - n
	case 2:
		off = rigWinLen - n + 1 // one byte past the window: ErrBadWindow
	default:
		off = rng.Int64N(rigWinLen - n + 1)
	}
	if rng.IntN(20) == 0 {
		n = 0
	}
	return off, n
}

// TestDirectRDMAMatchesExtentPath drives the same random transfers
// between a host byte slice and a card region through the direct copy and
// through the extent path: content, overlay size, both dirty trackers,
// the returned durations and errors must all agree.
func TestDirectRDMAMatchesExtentPath(t *testing.T) {
	direct, extent := newRDMARig(t), newRDMARig(t)
	rng := rand.New(rand.NewPCG(6, 25))
	local := make([]byte, 3*rigWinLen)
	for i := 0; i < 600; i++ {
		off, n := randRange(rng)
		localOff := rng.Int64N(int64(len(local)) - n + 1)
		var dd, de simclock.Duration
		var errD, errE error
		if rng.IntN(2) == 0 {
			for j := localOff; j < localOff+n; j++ {
				local[j] = byte(rng.Uint32())
			}
			dd, errD = direct.host.VWriteTo(Bytes(local), localOff, n, direct.win.Offset+off)
			de, errE = extent.host.VWriteTo(extentsOnly{Bytes(local)}, localOff, n, extent.win.Offset+off)
		} else {
			gotD, gotE := make([]byte, len(local)), make([]byte, len(local))
			dd, errD = direct.host.VReadFrom(Bytes(gotD), localOff, n, direct.win.Offset+off)
			de, errE = extent.host.VReadFrom(extentsOnly{Bytes(gotE)}, localOff, n, extent.win.Offset+off)
			if string(gotD) != string(gotE) {
				t.Fatalf("op %d: VReadFrom [%d,+%d) delivered different bytes", i, off, n)
			}
		}
		if fmt.Sprint(errD) != fmt.Sprint(errE) {
			t.Fatalf("op %d [%d,+%d): direct err %v, extent err %v", i, off, n, errD, errE)
		}
		if off+n > rigWinLen && !errors.Is(errD, ErrBadWindow) {
			t.Fatalf("op %d [%d,+%d): past the window, err %v", i, off, n, errD)
		}
		if dd != de {
			t.Fatalf("op %d [%d,+%d): direct took %v, extent %v", i, off, n, dd, de)
		}
		if !blob.Equal(direct.region.Snapshot(), extent.region.Snapshot()) {
			t.Fatalf("op %d [%d,+%d): region content differs", i, off, n)
		}
		if a, b := direct.region.DirtyBytes(), extent.region.DirtyBytes(); a != b {
			t.Fatalf("op %d: overlay bytes %d vs %d", i, a, b)
		}
		if a, b := direct.region.DirtyRanges(), extent.region.DirtyRanges(); !reflect.DeepEqual(a, b) {
			t.Fatalf("op %d: DirtyRanges %v vs %v", i, a, b)
		}
		if i%7 == 0 {
			if a, b := direct.region.CutEpoch(), extent.region.CutEpoch(); !reflect.DeepEqual(a, b) {
				t.Fatalf("op %d: CutEpoch %v vs %v", i, a, b)
			}
		}
		if i%50 == 0 {
			direct.region.MarkClean()
			extent.region.MarkClean()
		}
	}
}

// TestDirectRDMAFaults checks that the direct path consults the fault plan
// like the extent path: a Drop resets the connection before a byte moves,
// a Slow multiplies the price.
func TestDirectRDMAFaults(t *testing.T) {
	arm := func(r rdmaRig, f faultinject.Fault) {
		f.Site = faultinject.SiteRDMA
		r.net.Fabric().SetInjector(faultinject.New(faultinject.Plan{f}, nil))
	}
	for _, dir := range []string{"VWriteTo", "VReadFrom"} {
		xfer := func(r rdmaRig) (simclock.Duration, error) {
			p := Bytes("payload bytes")
			if dir == "VWriteTo" {
				return r.host.VWriteTo(p, 0, int64(len(p)), r.win.Offset)
			}
			return r.host.VReadFrom(p, 0, int64(len(p)), r.win.Offset)
		}
		t.Run(dir+"/drop", func(t *testing.T) {
			r := newRDMARig(t)
			arm(r, faultinject.Fault{Kind: faultinject.Drop})
			if _, err := xfer(r); !errors.Is(err, ErrConnReset) {
				t.Fatalf("under Drop: %v, want ErrConnReset", err)
			}
			if r.region.DirtyBytes() != 0 || len(r.region.DirtyRanges()) != 0 {
				t.Error("a dropped transfer wrote the region")
			}
			if !r.host.closed {
				t.Error("Drop left the endpoint open")
			}
		})
		t.Run(dir+"/slow", func(t *testing.T) {
			clean, slow := newRDMARig(t), newRDMARig(t)
			arm(slow, faultinject.Fault{Kind: faultinject.Slow, Factor: 3})
			dc, err := xfer(clean)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := xfer(slow)
			if err != nil {
				t.Fatal(err)
			}
			if ds != 3*dc {
				t.Errorf("Slow ×3 took %v, clean %v", ds, dc)
			}
		})
	}
}

// benchRDMA times n-byte transfers between a local memory and a card
// region window, the shape of a COI buffer write or read.
func benchRDMA(b *testing.B, write bool) {
	for _, size := range []int64{64 << 10, 1 << 20} {
		for _, kind := range []string{"bytes", "blob"} {
			b.Run(fmt.Sprintf("%s/%dKiB", kind, size>>10), func(b *testing.B) {
				n := newTestNetwork(b, 1)
				c, s := dial(b, n, 0, 1)
				r, err := proc.New("card", 1, 1, phi.NewMemBudget(1<<40)).AddRegion("coibuf", proc.RegionLocalStore, 4*size, 0x5eed)
				if err != nil {
					b.Fatal(err)
				}
				r.WriteAt(bytes.Repeat([]byte{1}, int(4*size)), 0) // the window is all overlay, as after the first writes
				w, _, err := s.Register(r, 0, 4*size)
				if err != nil {
					b.Fatal(err)
				}
				src := make([]byte, size)
				for i := range src {
					src[i] = byte(i * 7)
				}
				var local Memory = Bytes(src)
				if kind == "blob" {
					buf := blob.NewBuffer(size, 0)
					buf.WriteAt(src, 0)
					local = buf
				}
				b.SetBytes(size)
				b.ReportAllocs()
				b.ResetTimer()
				for i := range b.N {
					off := w.Offset + int64(i%4)*size
					if write {
						_, err = c.VWriteTo(local, 0, size, off)
					} else {
						_, err = c.VReadFrom(local, 0, size, off)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkVWriteTo(b *testing.B)  { benchRDMA(b, true) }
func BenchmarkVReadFrom(b *testing.B) { benchRDMA(b, false) }

// TestNilInjectorAllocs is the allocation gate of the fault hooks: with no
// plan armed no fault key is built, so a message costs only the copy Send
// queues, in either direction, and a direct RDMA allocates nothing.
func TestNilInjectorAllocs(t *testing.T) {
	r := newRDMARig(t)
	card := r.host.peer
	msg := make([]byte, 40)
	roundTrip := func() {
		if _, err := r.host.Send(msg); err != nil {
			t.Fatal(err)
		}
		if _, _, err := card.Recv(); err != nil {
			t.Fatal(err)
		}
		if _, err := card.Send(msg); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.host.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(100, roundTrip); a != 2 {
		t.Errorf("a message each way allocates %.0f objects, want 2 (the queued copies)", a)
	}
	var local Memory = Bytes(make([]byte, 4096)) // converted once: the conversion allocates
	rdma := func() {
		if _, err := r.host.VWriteTo(local, 0, local.Size(), r.win.Offset); err != nil {
			t.Fatal(err)
		}
		if _, err := r.host.VReadFrom(local, 0, local.Size(), r.win.Offset); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(100, rdma); a != 0 {
		t.Errorf("an RDMA write and read allocate %.0f objects, want 0", a)
	}
}
