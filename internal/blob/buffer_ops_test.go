package blob

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"
)

// The overlay's differential check: a Buffer driven by a program of
// operations must agree, after every operation, with a flat []byte oracle
// that also tracks which bytes the overlay holds. A program is bytes so the
// same check is a fuzz target: one background-seed selector, then 6-byte
// ops (kind, off lo/hi, n lo/hi, arg).

const opsSize = 512

var opsSeeds = []uint64{0, 7, 0xDEADBEEF}

const (
	opWriteAt       = iota // WriteAt of a pattern
	opFill                 // Fill with arg
	opLiteral              // WriteBlob of a literal extent
	opOwnBackground        // WriteBlob of the buffer's own background there: clears the overlay
	opSameSeed             // WriteBlob of the buffer's seed cut at stream offset arg
	opForeignSeed          // WriteBlob of another seed's stream
	opRestore              // Restore of its own snapshot, or of a mixed blob
	opKinds
)

type bufOp struct {
	kind   byte
	off, n uint16
	arg    byte
}

func encodeOps(bg byte, ops ...bufOp) []byte {
	prog := []byte{bg}
	for _, op := range ops {
		prog = append(prog, op.kind, byte(op.off), byte(op.off>>8), byte(op.n), byte(op.n>>8), op.arg)
	}
	return prog
}

// bufferOpCases are the hand-picked shapes: the random programs and the
// fuzzer start from them.
var bufferOpCases = []struct {
	name string
	prog []byte
}{
	{"contained", encodeOps(1, bufOp{opWriteAt, 100, 200, 1}, bufOp{opWriteAt, 150, 20, 2})},
	{"overlap-left-and-right", encodeOps(1, bufOp{opWriteAt, 100, 50, 1}, bufOp{opWriteAt, 80, 40, 2}, bufOp{opWriteAt, 140, 40, 3})},
	{"adjacent", encodeOps(2, bufOp{opWriteAt, 100, 10, 1}, bufOp{opWriteAt, 110, 10, 2}, bufOp{opWriteAt, 90, 10, 3})},
	{"spanning-several", encodeOps(2, bufOp{opWriteAt, 10, 10, 1}, bufOp{opWriteAt, 30, 10, 2}, bufOp{opFill, 50, 10, 0xEE}, bufOp{opWriteAt, 5, 60, 4})},
	{"sequential", encodeOps(0, bufOp{opWriteAt, 0, 64, 1}, bufOp{opWriteAt, 64, 64, 2}, bufOp{opWriteAt, 128, 64, 3}, bufOp{opWriteAt, 32, 128, 4})},
	{"literal-blob", encodeOps(1, bufOp{opLiteral, 200, 100, 9}, bufOp{opLiteral, 250, 100, 10})},
	{"clear-splits-span", encodeOps(1, bufOp{opFill, 10, 100, 1}, bufOp{opOwnBackground, 40, 20, 0})},
	{"clear-across-adjacent", encodeOps(2, bufOp{opWriteAt, 10, 30, 1}, bufOp{opWriteAt, 40, 30, 2}, bufOp{opWriteAt, 70, 30, 3}, bufOp{opOwnBackground, 20, 60, 0})},
	{"same-seed-shifted", encodeOps(1, bufOp{opWriteAt, 0, 300, 1}, bufOp{opSameSeed, 100, 100, 7}, bufOp{opSameSeed, 100, 100, 100})},
	{"zero-seed-any-offset", encodeOps(0, bufOp{opWriteAt, 0, 300, 1}, bufOp{opSameSeed, 100, 100, 7})},
	{"foreign-seed", encodeOps(2, bufOp{opWriteAt, 50, 10, 1}, bufOp{opForeignSeed, 0, 200, 3})},
	{"restore-own-snapshot", encodeOps(1, bufOp{opWriteAt, 10, 10, 1}, bufOp{opWriteAt, 20, 10, 2}, bufOp{opRestore, 0, 0, 0})},
	{"restore-mixed", encodeOps(2, bufOp{opFill, 0, 512, 5}, bufOp{opRestore, 100, 50, 1}, bufOp{opRestore, 300, 10, 2})},
}

// opOracle is the flat reference: content plus which bytes the overlay
// holds (a write marks; a synthetic extent matching the background
// unmarks, as Buffer.WriteBlob documents).
type opOracle struct {
	seed  uint64
	data  []byte
	dirty []bool
}

func newOpOracle(size int, seed uint64) *opOracle {
	o := &opOracle{seed: seed, data: make([]byte, size), dirty: make([]bool, size)}
	Materialize(seed, 0, o.data)
	return o
}

func (o *opOracle) write(p []byte, off int) {
	copy(o.data[off:], p)
	for i := range p {
		o.dirty[off+i] = true
	}
}

func (o *opOracle) writeBlob(off int, src Blob) {
	for _, e := range src.Extents() {
		if !e.IsLiteral() && e.Seed == o.seed && streamOff(e.Seed, e.Off) == streamOff(o.seed, int64(off)) {
			Materialize(o.seed, int64(off), o.data[off:off+int(e.Size)])
			for i := 0; i < int(e.Size); i++ {
				o.dirty[off+i] = false
			}
		} else {
			o.write(Blob{extents: []Extent{e}, size: e.Size}.Bytes(), off)
		}
		off += int(e.Size)
	}
}

func pattern(n int, arg byte, step int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = arg + byte(i*31+step)
	}
	return p
}

// runBufferOps interprets prog against a Buffer and the oracle, checking
// the two agree after every op.
func runBufferOps(t testing.TB, prog []byte) {
	t.Helper()
	next := func() byte {
		if len(prog) == 0 {
			return 0
		}
		c := prog[0]
		prog = prog[1:]
		return c
	}
	bg := opsSeeds[int(next())%len(opsSeeds)]
	buf, o := NewBuffer(opsSize, bg), newOpOracle(opsSize, bg)
	// held is every blob the buffer has given out or taken in, with the
	// content it had then: copy on write must keep each one immutable
	// whatever the buffer does afterwards.
	var held []heldBlob
	hold := func(b Blob) { held = append(held, heldBlob{b, b.Bytes()}) }
	writeBlob := func(off int, src Blob) {
		hold(src)
		buf.WriteBlob(int64(off), src)
	}
	for step := 0; len(prog) > 0 && step < 64; step++ {
		kind := next() % opKinds
		off := (int(next()) | int(next())<<8) % opsSize
		n := (int(next()) | int(next())<<8) % (opsSize - off + 1)
		arg := next()
		switch kind {
		case opWriteAt:
			p := pattern(n, arg, step)
			buf.WriteAt(p, int64(off))
			o.write(p, off)
		case opFill:
			buf.WriteAt(bytes.Repeat([]byte{arg}, n), int64(off))
			o.write(bytes.Repeat([]byte{arg}, n), off)
		case opLiteral:
			src := FromBytes(pattern(n, arg, step))
			writeBlob(off, src)
			o.writeBlob(off, src)
		case opOwnBackground, opSameSeed, opForeignSeed:
			seed, at := bg, int64(off)
			if kind == opSameSeed {
				at = int64(arg)
			} else if kind == opForeignSeed {
				seed = bg + 1 + uint64(arg)
			}
			src := Synthetic(seed, at+int64(n)).Slice(at, int64(n))
			writeBlob(off, src)
			o.writeBlob(off, src)
		case opRestore:
			src := buf.Snapshot()
			if arg%3 != 0 {
				// Own background around a literal hole, the tail foreign
				// when arg is even.
				tailSeed := bg
				if arg%2 == 0 {
					tailSeed = bg + 1
				}
				src = Concat(Synthetic(bg, opsSize).Slice(0, int64(off)),
					FromBytes(pattern(n, arg, step)),
					Synthetic(tailSeed, opsSize).Slice(int64(off+n), int64(opsSize-off-n)))
			}
			writeBlob(0, src)
			o = newOpOracle(opsSize, bg)
			o.writeBlob(0, src)
		}
		// Before check's snapshot shares every span: a span the buffer
		// would still write in place must alias no held blob.
		for _, w := range buf.writes {
			if w.shared {
				continue
			}
			for i, h := range held {
				for _, e := range h.b.Extents() {
					if overlaps(w.data, e.Literal) {
						t.Fatalf("step %d: unshared span at %d aliases blob %d", step, w.off, i)
					}
				}
			}
		}
		hold(o.check(t, buf, step, off, n, uint64(arg)<<8|uint64(step)))
		for i, h := range held {
			if !bytes.Equal(h.b.Bytes(), h.want) {
				t.Fatalf("step %d: blob %d of %d changed after the buffer gave it out or took it in", step, i, len(held))
			}
		}
	}
}

// overlaps reports whether a and b share any byte of memory.
func overlaps(a, b []byte) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return pa < pb+uintptr(len(b)) && pb < pa+uintptr(len(a))
}

// heldBlob is a blob and the content it must keep.
type heldBlob struct {
	b    Blob
	want []byte
}

// check compares every observable of buf with the oracle: ReadAt and Visit
// on the op's range and on pseudo-random ranges, the whole snapshot,
// DirtyBytes, and the snapshot's extent list — literal exactly where the
// overlay holds the byte, each literal extent aliasing exactly one span
// (all of it, capacity capped), one synthetic extent per maximal gap. It
// returns the snapshot.
func (o *opOracle) check(t testing.TB, buf *Buffer, step, off, n int, rs uint64) Blob {
	t.Helper()
	ranges := [][2]int{{off, n}, {0, opsSize}}
	for i := 0; i < 3; i++ {
		ro := int(splitmixNext(&rs) % opsSize)
		ranges = append(ranges, [2]int{ro, int(splitmixNext(&rs) % uint64(opsSize-ro+1))})
	}
	for _, r := range ranges {
		got := make([]byte, r[1])
		buf.ReadAt(got, int64(r[0]))
		if !bytes.Equal(got, o.data[r[0]:r[0]+r[1]]) {
			t.Fatalf("step %d: ReadAt(%d, %d) differs from the oracle", step, r[0], r[1])
		}
		got = got[:0]
		buf.Visit(int64(r[0]), int64(r[1]), func(p []byte) { got = append(got, p...) })
		if !bytes.Equal(got, o.data[r[0]:r[0]+r[1]]) {
			t.Fatalf("step %d: Visit(%d, %d) differs from the oracle", step, r[0], r[1])
		}
	}
	snap := buf.Snapshot()
	if !bytes.Equal(snap.Bytes(), o.data) {
		t.Fatalf("step %d: Snapshot().Bytes() differs from the oracle", step)
	}
	var dirty int64
	for _, d := range o.dirty {
		if d {
			dirty++
		}
	}
	if got := buf.DirtyBytes(); got != dirty {
		t.Fatalf("step %d: DirtyBytes = %d, oracle %d", step, got, dirty)
	}
	pos, spans := 0, buf.writes
	for i, e := range snap.Extents() {
		if e.Size <= 0 {
			t.Fatalf("step %d: extent %d has size %d", step, i, e.Size)
		}
		for j := pos; j < pos+int(e.Size); j++ {
			if o.dirty[j] != e.IsLiteral() {
				t.Fatalf("step %d: extent %d [%d,%d) literal=%v, but byte %d dirty=%v", step, i, pos, pos+int(e.Size), e.IsLiteral(), j, o.dirty[j])
			}
		}
		switch {
		case e.IsLiteral():
			if len(spans) == 0 || spans[0].off != int64(pos) || len(spans[0].data) != len(e.Literal) || &spans[0].data[0] != &e.Literal[0] {
				t.Fatalf("step %d: literal extent %d [%d,%d) aliases no span exactly", step, i, pos, pos+int(e.Size))
			}
			if !spans[0].shared || cap(e.Literal) != len(e.Literal) {
				t.Fatalf("step %d: literal extent %d: span shared=%v, extent cap %d of len %d", step, i, spans[0].shared, cap(e.Literal), len(e.Literal))
			}
			spans = spans[1:]
		case i > 0 && !snap.Extents()[i-1].IsLiteral():
			t.Fatalf("step %d: extents %d and %d at %d are both synthetic: a gap split in two", step, i-1, i, pos)
		}
		pos += int(e.Size)
	}
	if len(spans) != 0 {
		t.Fatalf("step %d: %d spans appear in no extent of the snapshot", step, len(spans))
	}
	return snap
}

func splitmixNext(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func TestBufferOpsAgainstOracle(t *testing.T) {
	for _, c := range bufferOpCases {
		t.Run(c.name, func(t *testing.T) { runBufferOps(t, c.prog) })
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		prog := make([]byte, 1+6*(1+r.Intn(40)))
		r.Read(prog)
		// Make half the ops short, so spans are small and many.
		for j := 1; j+5 < len(prog); j += 6 {
			if r.Intn(2) == 0 {
				prog[j+3], prog[j+4] = byte(r.Intn(32)), 0
			}
		}
		runBufferOps(t, prog)
	}
}

func FuzzBufferOps(f *testing.F) {
	for _, c := range bufferOpCases {
		f.Add(c.prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) { runBufferOps(t, prog) })
}

// materializeRef is the per-byte loop Materialize replaced, kept as the
// reference the word-at-a-time version must agree with.
func materializeRef(seed uint64, off int64, dst []byte) {
	for i := 0; i < len(dst); {
		pos := off + int64(i)
		aligned := pos &^ 7
		w := gen8(seed, aligned)
		for j := pos - aligned; j < 8 && i < len(dst); j++ {
			dst[i] = byte(w >> (8 * uint(j)))
			i++
		}
	}
}

func TestMaterializeMatchesPerByteReference(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0xDEADBEEF} {
		for _, base := range []int64{0, 1 << 20} {
			for mod := int64(0); mod < 8; mod++ {
				for n := 0; n <= 24; n++ {
					got, want := bytes.Repeat([]byte{0xAA}, n), make([]byte, n)
					Materialize(seed, base+mod, got)
					materializeRef(seed, base+mod, want)
					if !bytes.Equal(got, want) {
						t.Fatalf("Materialize(%#x, %d, len %d) = %x, want %x", seed, base+mod, n, got, want)
					}
				}
			}
		}
	}
}

// literalExtents counts a blob's literal extents.
func literalExtents(b Blob) int {
	n := 0
	for _, e := range b.Extents() {
		if e.IsLiteral() {
			n++
		}
	}
	return n
}
