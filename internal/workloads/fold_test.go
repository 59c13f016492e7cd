package workloads

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// foldBytewise is the kernel checksum one byte at a time: the definition
// fold must reproduce.
func foldBytewise(sum uint64, p []byte) uint64 {
	for _, v := range p {
		sum = sum*1099511628211 + uint64(v)
	}
	return sum
}

func TestFoldMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 9))
	random := make([]byte, 257+8)
	for i := range random {
		random[i] = byte(rng.Uint32())
	}
	inputs := map[string][]byte{
		"random": random,
		"ones":   bytes.Repeat([]byte{0xff}, len(random)),
		"zeros":  make([]byte, len(random)),
	}
	for name, buf := range inputs {
		for align := 0; align < 8; align++ {
			for n := 0; n <= 257; n++ {
				p := buf[align : align+n]
				for _, sum := range []uint64{0, ^uint64(0), rng.Uint64()} {
					if got, want := fold(sum, p), foldBytewise(sum, p); got != want {
						t.Fatalf("%s align %d len %d sum %#x: fold = %#x, bytewise = %#x", name, align, n, sum, got, want)
					}
				}
			}
		}
	}
}

// TestChecksumsPinned pins each OpenMP app's final checksum at six calls
// to the value the byte-at-a-time kernel produced. Every other checksum
// check compares two runs of the same kernel, so only this one catches a
// kernel that is deterministic but wrong.
func TestChecksumsPinned(t *testing.T) {
	want := map[string]uint64{
		"MD": 0xff62aa924a779782,
		"MC": 0x4831155fef0371d0,
		"SS": 0x1d1e1e3311210d42,
		"SG": 0x68d58a96938afb48,
		"NB": 0x6414493707a82c3e,
		"JC": 0x7801dad9da2f97be,
		"KM": 0xd3f89818e4963562,
		"BS": 0xdf175fa684141640,
	}
	plat := newPlat(t, 1)
	for _, s := range OpenMP {
		in, err := Launch(plat, scaled(s, 6), 1)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := in.Run()
		in.Close()
		if err != nil {
			t.Fatal(err)
		}
		if sum != want[s.Code] {
			t.Errorf("%s: checksum %#016x, want %#016x", s.Code, sum, want[s.Code])
		}
	}
}

// BenchmarkFold times the kernel checksum over 64 KiB of random bytes, the
// word-at-a-time fold against the byte-at-a-time definition.
func BenchmarkFold(b *testing.B) {
	p := make([]byte, 64<<10)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range p {
		p[i] = byte(rng.Uint32())
	}
	for _, k := range []struct {
		name string
		fn   func(uint64, []byte) uint64
	}{{"word", fold}, {"bytewise", foldBytewise}} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(len(p)))
			var sum uint64
			for range b.N {
				sum = k.fn(sum, p)
			}
			sink = sum
		})
	}
}

var sink uint64
