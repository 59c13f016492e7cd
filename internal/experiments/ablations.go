package experiments

import (
	"fmt"

	"snapify/internal/blob"
	"snapify/internal/phi"
	"snapify/internal/proc"
	"snapify/internal/scif"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/snapifyio"
	"snapify/internal/stream"
	"snapify/internal/trace"
)

// Ablations probe the design choices DESIGN.md calls out: the Snapify-IO
// staging buffer size (the paper picks 4 MiB "to balance between the
// requirement of minimizing memory footprint and the need of shorter
// transfer latency", Section 6), the NFS transfer size (why BLCR's write
// granularity decides the plain-NFS column of Table 4), and the
// incremental-checkpoint extension against the paper's full snapshots.

// BufSizeAblationRow is one staging-buffer-size measurement.
type BufSizeAblationRow struct {
	BufSize int64
	// Write1G is the device-to-host transfer time of a 1 GiB stream.
	Write1G simclock.Duration
	// Footprint is the staging memory pinned per stream (both daemons).
	Footprint int64
}

// BufSizeAblationResult is the staging-buffer sweep.
type BufSizeAblationResult []BufSizeAblationRow

// BufSizeAblation sweeps the Snapify-IO staging buffer from 64 KiB to
// 64 MiB.
func BufSizeAblation() (BufSizeAblationResult, error) {
	var rows BufSizeAblationResult
	for _, bufSize := range []int64{
		64 * simclock.KiB, 256 * simclock.KiB, 1 * simclock.MiB,
		4 * simclock.MiB, 16 * simclock.MiB, 64 * simclock.MiB,
	} {
		row, err := bufSizeRun(bufSize)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// bufSizeRun builds a fresh fabric, streams 1 GiB device-to-host at the
// given staging buffer size, and stops the service on every path out.
func bufSizeRun(bufSize int64) (BufSizeAblationRow, error) {
	server := phi.NewServer(phi.ServerConfig{Devices: 1, Device: phi.DeviceConfig{MemBytes: 8 * simclock.GiB}})
	net := scif.NewNetwork(server.Fabric)
	svc := snapifyio.NewService(net, nil)
	defer svc.Stop()
	if _, err := svc.StartDaemonBuf(simnet.HostNode, server.Host.FS, bufSize); err != nil {
		return BufSizeAblationRow{}, err
	}
	if _, err := svc.StartDaemonBuf(1, server.Device(1).FS, bufSize); err != nil {
		return BufSizeAblationRow{}, err
	}

	content := blob.Synthetic(7, simclock.GiB)
	f, err := svc.Open(1, simnet.HostNode, "/abl/f", snapifyio.Write)
	if err != nil {
		return BufSizeAblationRow{}, err
	}
	acc := simclock.NewPipelineAccum()
	err = content.ForEachChunk(bufSize, func(chunk blob.Blob) error {
		cost, err := f.WriteBlob(chunk)
		if err != nil {
			return err
		}
		stream.Observe(acc, cost)
		return nil
	})
	if err != nil {
		f.Abort()
		return BufSizeAblationRow{}, err
	}
	if err := f.Close(); err != nil {
		return BufSizeAblationRow{}, err
	}
	return BufSizeAblationRow{
		BufSize:   bufSize,
		Write1G:   acc.Total(),
		Footprint: 2 * bufSize,
	}, nil
}

// Render prints the sweep.
func (rows BufSizeAblationResult) Render() string {
	t := trace.New("Ablation: Snapify-IO staging buffer size (1 GiB device-to-host stream)",
		"Buffer", "Transfer", "Pinned staging memory")
	for _, r := range rows {
		t.Row(trace.Bytes(r.BufSize), trace.Seconds(r.Write1G), trace.Bytes(r.Footprint))
	}
	return t.String()
}

// CheckShape verifies the paper's trade-off: tiny buffers pay
// per-chunk overheads; past a few MiB the curve flattens, so growing the
// pinned footprint buys (almost) nothing — 4 MiB sits at the knee.
func (rows BufSizeAblationResult) CheckShape() error {
	byBuf := map[int64]simclock.Duration{}
	for _, r := range rows {
		byBuf[r.BufSize] = r.Write1G
	}
	if byBuf[64*simclock.KiB] <= byBuf[4*simclock.MiB] {
		return fmt.Errorf("64 KiB staging (%v) should be slower than 4 MiB (%v)",
			byBuf[64*simclock.KiB], byBuf[4*simclock.MiB])
	}
	knee := float64(byBuf[4*simclock.MiB])
	big := float64(byBuf[64*simclock.MiB])
	if gain := (knee - big) / knee; gain > 0.10 {
		return fmt.Errorf("going 4 MiB -> 64 MiB still gains %.0f%%: 4 MiB would not be the knee", gain*100)
	}
	return nil
}

// IncrementalRow compares full and delta checkpoints of a process whose
// working set is a small fraction of its footprint.
type IncrementalRow struct {
	DirtyFraction float64
	Full, Delta   simclock.Duration
	FullBytes     int64
	DeltaBytes    int64
}

// IncrementalAblationResult is the full-vs-delta comparison.
type IncrementalAblationResult []IncrementalRow

// IncrementalAblation measures the incremental-checkpoint extension on a
// 256 MiB native process at several dirty fractions.
func IncrementalAblation() (IncrementalAblationResult, error) {
	var rows IncrementalAblationResult
	for _, frac := range []float64{0.01, 0.05, 0.25, 1.0} {
		plat, err := newPlatform(1)
		if err != nil {
			return nil, err
		}
		dev := plat.Device(1)
		p := plat.Procs.Spawn("incr_bench", dev.Node, dev.Mem)
		const size = 256 * simclock.MiB
		heap, err := p.AddRegion("heap", proc.RegionHeap, size, 3)
		if err != nil {
			return nil, err
		}

		sink := func(path string) (stream.Sink, error) {
			return plat.IO.Open(dev.Node, simnet.HostNode, path, snapifyio.Write)
		}

		fullSink, err := sink("/abl/full")
		if err != nil {
			return nil, err
		}
		full, err := plat.CR.CheckpointFull(p, fullSink)
		if err != nil {
			return nil, err
		}
		// Dirty the requested fraction in 64 KiB strides.
		dirty := int64(frac * float64(size))
		stride := int64(64 * simclock.KiB)
		pattern := make([]byte, stride)
		for off := int64(0); off < dirty; off += stride {
			n := stride
			if dirty-off < n {
				n = dirty - off
			}
			heap.WriteAt(pattern[:n], off*int64(1/frac)%(size-stride))
		}
		deltaSink, err := sink("/abl/delta")
		if err != nil {
			return nil, err
		}
		delta, err := plat.CR.CheckpointDelta(p, deltaSink)
		if err != nil {
			return nil, err
		}
		p.AnnounceExit()
		p.Terminate()
		plat.IO.Stop()
		rows = append(rows, IncrementalRow{
			DirtyFraction: frac,
			Full:          full.Duration,
			Delta:         delta.Duration,
			FullBytes:     full.Bytes,
			DeltaBytes:    delta.Bytes,
		})
	}
	return rows, nil
}

// Render prints the comparison.
func (rows IncrementalAblationResult) Render() string {
	t := trace.New("Ablation: incremental vs full checkpoint (256 MiB native process, via Snapify-IO)",
		"Dirty fraction", "Full ckpt", "Delta ckpt", "Full bytes", "Delta bytes", "Speedup")
	for _, r := range rows {
		t.Row(fmt.Sprintf("%.0f%%", r.DirtyFraction*100),
			trace.Seconds(r.Full), trace.Seconds(r.Delta),
			trace.Bytes(r.FullBytes), trace.Bytes(r.DeltaBytes),
			trace.Speedup(float64(r.Full)/float64(r.Delta)))
	}
	return t.String()
}

// CheckShape verifies deltas win in proportion to the dirty
// fraction and degrade gracefully to ~full cost at 100%.
func (rows IncrementalAblationResult) CheckShape() error {
	for _, r := range rows {
		if r.DirtyFraction <= 0.05 && float64(r.Full)/float64(r.Delta) < 3 {
			return fmt.Errorf("delta at %.0f%% dirty only %.1fx faster",
				r.DirtyFraction*100, float64(r.Full)/float64(r.Delta))
		}
		if r.DeltaBytes > r.FullBytes {
			return fmt.Errorf("delta larger than full at %.0f%% dirty", r.DirtyFraction*100)
		}
	}
	return nil
}

// WsizeRow is one NFS transfer-size measurement for a 1 GiB BLCR-style
// checkpoint stream.
type WsizeRow struct {
	Wsize int64
	Ckpt  simclock.Duration
}

// WsizeAblationResult is the NFS transfer-size sweep.
type WsizeAblationResult []WsizeRow

// WsizeAblation sweeps the NFS rsize/wsize to show why BLCR's synchronous
// write granularity decides the plain-NFS column of Table 4.
func WsizeAblation() (WsizeAblationResult, error) {
	var rows WsizeAblationResult
	for _, wsize := range []int64{16 * simclock.KiB, 64 * simclock.KiB, 256 * simclock.KiB, 1 * simclock.MiB} {
		plat, err := newPlatform(1)
		if err != nil {
			return nil, err
		}
		model := plat.Model()
		model.NFSMaxTransfer = wsize
		dev := plat.Device(1)
		p := plat.Procs.Spawn("wsize_bench", dev.Node, dev.Mem)
		if _, err := p.AddRegion("heap", proc.RegionHeap, simclock.GiB, 3); err != nil {
			return nil, err
		}
		sink, err := plat.NFS(dev.Node).CreateSync("/abl/wsize")
		if err != nil {
			return nil, err
		}
		st, err := plat.CR.Checkpoint(p, sink)
		if err != nil {
			return nil, err
		}
		p.AnnounceExit()
		p.Terminate()
		plat.IO.Stop()
		rows = append(rows, WsizeRow{Wsize: wsize, Ckpt: st.Duration})
	}
	return rows, nil
}

// Render prints the sweep.
func (rows WsizeAblationResult) Render() string {
	t := trace.New("Ablation: NFS transfer size vs plain-NFS checkpoint cost (1 GiB)",
		"rsize/wsize", "Checkpoint")
	for _, r := range rows {
		t.Row(trace.Bytes(r.Wsize), trace.Seconds(r.Ckpt))
	}
	return t.String()
}

// CheckShape verifies monotonicity: smaller transfers, more RPCs,
// slower checkpoints.
func (rows WsizeAblationResult) CheckShape() error {
	for i := 1; i < len(rows); i++ {
		if rows[i].Ckpt >= rows[i-1].Ckpt {
			return fmt.Errorf("checkpoint not faster at wsize %s vs %s",
				trace.Bytes(rows[i].Wsize), trace.Bytes(rows[i-1].Wsize))
		}
	}
	return nil
}
