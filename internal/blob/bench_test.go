package blob

import (
	"runtime"
	"testing"
)

// BenchmarkBufferSequentialWrite fills a fresh 32 MiB buffer with 64 KiB
// writes, the way an offload app's "in" transfers fill its local store.
func BenchmarkBufferSequentialWrite(b *testing.B) {
	const size, chunk = 32 << 20, 64 << 10
	p := make([]byte, chunk)
	b.ReportAllocs()
	b.SetBytes(size)
	for i := 0; i < b.N; i++ {
		buf := NewBuffer(size, 7)
		for off := int64(0); off < size; off += chunk {
			buf.WriteAt(p, off)
		}
	}
}

// BenchmarkBufferReadAtCovered reads 64 KiB of a fully written range of a
// seeded buffer, the kernel's per-step read of its input.
func BenchmarkBufferReadAtCovered(b *testing.B) {
	const size, chunk = 4 << 20, 64 << 10
	buf := NewBuffer(size, 7)
	p := make([]byte, chunk)
	for off := int64(0); off < size; off += chunk {
		buf.WriteAt(p, off)
	}
	b.ReportAllocs()
	b.SetBytes(chunk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.ReadAt(p, int64(i)*chunk%size)
	}
}

// snapshotBuffer returns a 4 MiB buffer written in four 1 MiB spans.
func snapshotBuffer() *Buffer {
	const size, span = 4 << 20, 1 << 20
	buf := NewBuffer(size, 7)
	p := make([]byte, span)
	for off := int64(0); off < size; off += span {
		buf.WriteAt(p, off)
	}
	return buf
}

// BenchmarkBufferSnapshot snapshots a 4 MiB buffer of four written 1 MiB
// spans: the extents alias the spans, so the cost is the extent list.
func BenchmarkBufferSnapshot(b *testing.B) {
	buf := snapshotBuffer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshotSink = buf.Snapshot()
	}
}

var snapshotSink Blob

// TestBufferSnapshotAllocs is the snapshot's allocation gate, in bytes:
// 4 MiB of written spans snapshot without copying them (bytes.Join copied
// all 4 MiB before spans were shared).
func TestBufferSnapshotAllocs(t *testing.T) {
	buf := snapshotBuffer()
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		_ = buf.SnapshotRange(0, buf.Size())
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got >= 4<<10 {
		t.Errorf("SnapshotRange of 4 MiB in 1 MiB spans allocates %d B, want < 4 KiB", got)
	}
}

// BenchmarkMaterialize generates 1 MiB of seeded background.
func BenchmarkMaterialize(b *testing.B) {
	dst := make([]byte, 1<<20)
	b.ReportAllocs()
	b.SetBytes(int64(len(dst)))
	for i := 0; i < b.N; i++ {
		Materialize(0xDEADBEEF, 0, dst)
	}
}

// BenchmarkSparseStripedAssembly assembles a 4 GiB snapshot from 4 stripes
// of 256 synthetic 4 MiB chunks, interleaved chunk by chunk the way
// parallel Snapify-IO streams deliver them to the host's sparse writer.
func BenchmarkSparseStripedAssembly(b *testing.B) {
	const stripes, chunks, chunk = 4, 256, 4 << 20
	const stripe = chunks * chunk
	src := make([]Blob, stripes)
	for s := range src {
		src[s] = Synthetic(uint64(s+1), chunk)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := NewSparse(stripes * stripe)
		for k := int64(0); k < chunks; k++ {
			for s := int64(0); s < stripes; s++ {
				sp.WriteAt(s*stripe+k*chunk, src[s])
			}
		}
		_ = sp.Blob()
	}
}
