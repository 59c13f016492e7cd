package experiments

import (
	"fmt"

	"snapify/internal/blob"
	"snapify/internal/scp"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/snapifyio"
	"snapify/internal/stream"
	"snapify/internal/trace"
	"snapify/internal/vfs"
)

// Table3Sizes are the file sizes of the copy micro-benchmark.
var Table3Sizes = []int64{
	1 * simclock.MiB, 16 * simclock.MiB, 64 * simclock.MiB,
	256 * simclock.MiB, 1 * simclock.GiB,
}

// Table3Row is one file size's measurements (seconds of virtual time).
type Table3Row struct {
	Size int64
	// Write: device -> host. Read: host -> device.
	SnapifyIOWrite, SnapifyIORead simclock.Duration
	NFSWrite, NFSRead             simclock.Duration
	SCPWrite, SCPRead             simclock.Duration
}

// Table3Result is the full micro-benchmark.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 runs the file-copy micro-benchmark of Section 7 ("Snapify-IO
// performance"): a native process on the Xeon Phi copies files of various
// sizes between the card and the host through Snapify-IO, the NFS mount,
// and scp.
func Table3() (*Table3Result, error) {
	plat, err := newPlatform(1)
	if err != nil {
		return nil, err
	}
	dev := plat.Device(1)
	host := plat.Host()
	mnt := plat.NFS(1)

	// toHost times a copy of the card's /tmp/src into a host-side sink (the
	// table's "write" direction); toCard a copy of a host-side source into
	// a scratch file on the card, removed again afterwards ("read").
	toHost := func(sink stream.Sink, err error) (simclock.Duration, error) {
		if err != nil {
			return 0, err
		}
		src, err := dev.FS.Open("/tmp/src")
		if err != nil {
			sink.Abort()
			return 0, err
		}
		acc := simclock.NewPipelineAccum()
		if err := copyReaderToSink(src, sink, acc); err != nil {
			return 0, err
		}
		return acc.Total(), nil
	}
	toCard := func(src stream.Source, err error) (simclock.Duration, error) {
		if err != nil {
			return 0, err
		}
		w, err := dev.FS.Create("/tmp/dst")
		if err != nil {
			src.Close() //nolint:errcheck // error path: the create failure is the reported error; Close on a read source only releases the handle
			return 0, err
		}
		acc := simclock.NewPipelineAccum()
		if err := copySourceToWriter(src, w, acc); err != nil {
			return 0, err
		}
		dev.FS.Remove("/tmp/dst") //nolint:errcheck // scratch cleanup; a failed remove only holds simulated ram until the next loop
		return acc.Total(), nil
	}

	res := &Table3Result{}
	for _, size := range Table3Sizes {
		row := Table3Row{Size: size}
		content := blob.Synthetic(uint64(size), size)

		// --- device -> host ("write") ---
		if _, err := dev.FS.WriteFile("/tmp/src", content); err != nil {
			return nil, fmt.Errorf("table3: staging %s on card: %w", sizeLabel(size), err)
		}
		// Snapify-IO: the native process reads the local file and writes
		// through a Snapify-IO descriptor to the host.
		if row.SnapifyIOWrite, err = toHost(plat.IO.Open(dev.Node, simnet.HostNode, "/t3/sio_w", snapifyio.Write)); err != nil {
			return nil, err
		}
		// NFS: cp to the mounted directory (buffered client).
		if row.NFSWrite, err = toHost(mnt.CreateBuffered("/t3/nfs_w")); err != nil {
			return nil, err
		}
		if row.SCPWrite, err = scp.Copy(plat.Server.Fabric, dev.Node, dev.FS, "/tmp/src",
			simnet.HostNode, host.FS, "/t3/scp_w"); err != nil {
			return nil, err
		}
		dev.FS.Remove("/tmp/src") //nolint:errcheck // scratch cleanup; a failed remove only holds simulated ram until the next loop

		// --- host -> device ("read") ---
		if _, err := host.FS.WriteFile("/t3/src", content); err != nil {
			return nil, err
		}
		if row.SnapifyIORead, err = toCard(plat.IO.Open(dev.Node, simnet.HostNode, "/t3/src", snapifyio.Read)); err != nil {
			return nil, err
		}
		if row.NFSRead, err = toCard(mnt.Open("/t3/src")); err != nil {
			return nil, err
		}
		if row.SCPRead, err = scp.Copy(plat.Server.Fabric, simnet.HostNode, host.FS, "/t3/src",
			dev.Node, dev.FS, "/tmp/scp_r"); err != nil {
			return nil, err
		}
		dev.FS.Remove("/tmp/scp_r") //nolint:errcheck // scratch cleanup; a failed remove only holds simulated ram until the next loop
		host.FS.RemoveAll("/t3/")

		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// copyReaderToSink pumps a vfs.Reader into a stream.Sink.
func copyReaderToSink(r vfs.Reader, sink stream.Sink, acc *simclock.PipelineAccum) error {
	for {
		chunk, rd, err := r.Next(4 * simclock.MiB)
		if err != nil {
			break // io.EOF
		}
		cost, werr := sink.WriteBlob(chunk)
		if werr != nil {
			sink.Abort()
			return werr
		}
		stream.Observe(acc, cost, rd)
	}
	return sink.Close()
}

// copySourceToWriter pumps a stream.Source into a vfs.Writer.
func copySourceToWriter(src stream.Source, w *vfs.Writer, acc *simclock.PipelineAccum) error {
	for {
		chunk, cost, err := src.Next(4 * simclock.MiB)
		if err != nil {
			break // io.EOF
		}
		wd, werr := w.WriteBlob(chunk)
		if werr != nil {
			w.Abort()
			return werr
		}
		stream.Observe(acc, cost, wd)
	}
	if c, ok := src.(interface{ Close() error }); ok {
		c.Close() //nolint:errcheck // read side already at EOF: close only releases the descriptor
	}
	return w.Close()
}

// Render prints the table in the paper's layout.
func (r *Table3Result) Render() string {
	t := trace.New("Table 3: Time to copy files between the host and the Xeon Phi",
		"File size",
		"SnapIO wr", "NFS wr", "scp wr",
		"SnapIO rd", "NFS rd", "scp rd")
	for _, row := range r.Rows {
		t.Row(sizeLabel(row.Size),
			trace.Seconds(row.SnapifyIOWrite), trace.Seconds(row.NFSWrite), trace.Seconds(row.SCPWrite),
			trace.Seconds(row.SnapifyIORead), trace.Seconds(row.NFSRead), trace.Seconds(row.SCPRead))
	}
	return t.String()
}

// CheckShape verifies the paper's qualitative claims: Snapify-IO beats NFS
// and scp for all but the smallest size; the gap grows with size; writes
// beat reads for Snapify-IO; scp is slowest.
func (r *Table3Result) CheckShape() error {
	for _, row := range r.Rows {
		if row.Size <= 1*simclock.MiB {
			continue // the paper's 1 MB case: NFS buffering may win
		}
		if !(row.SnapifyIOWrite < row.NFSWrite && row.NFSWrite < row.SCPWrite) {
			return fmt.Errorf("table3 %s write ordering violated: sio=%v nfs=%v scp=%v",
				sizeLabel(row.Size), row.SnapifyIOWrite, row.NFSWrite, row.SCPWrite)
		}
		if !(row.SnapifyIORead < row.NFSRead && row.NFSRead < row.SCPRead) {
			return fmt.Errorf("table3 %s read ordering violated: sio=%v nfs=%v scp=%v",
				sizeLabel(row.Size), row.SnapifyIORead, row.NFSRead, row.SCPRead)
		}
		if row.SnapifyIOWrite >= row.SnapifyIORead {
			return fmt.Errorf("table3 %s: Snapify-IO write (%v) should beat read (%v)",
				sizeLabel(row.Size), row.SnapifyIOWrite, row.SnapifyIORead)
		}
	}
	// The advantage grows with file size.
	first, last := r.Rows[1], r.Rows[len(r.Rows)-1]
	if ratio(last.NFSWrite, last.SnapifyIOWrite) <= ratio(first.NFSWrite, first.SnapifyIOWrite) {
		return fmt.Errorf("table3: Snapify-IO advantage does not grow with size")
	}
	return nil
}

func ratio(a, b simclock.Duration) float64 { return float64(a) / float64(b) }
