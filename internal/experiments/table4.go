package experiments

import (
	"fmt"

	"snapify/internal/blcr"
	"snapify/internal/proc"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/snapifyio"
	"snapify/internal/stream"
	"snapify/internal/trace"
)

// Table4Sizes are the malloc sizes of the native-checkpoint benchmark.
var Table4Sizes = []int64{
	1 * simclock.MiB, 64 * simclock.MiB, 256 * simclock.MiB,
	1 * simclock.GiB, 4 * simclock.GiB,
}

// Table4Row is one malloc size's measurements. A zero duration with OOM
// set means the configuration was impossible (the paper's 4 GB Local
// case: the checkpoint no longer fits in card memory).
type Table4Row struct {
	Size int64

	CkptLocal, CkptNFS, CkptNFSKern, CkptNFSUser, CkptSnapIO simclock.Duration
	LocalOOM                                                 bool

	RestartLocal, RestartNFS, RestartSnapIO simclock.Duration
}

// Table4Result is the full benchmark.
type Table4Result struct {
	Rows []Table4Row
}

// Table4 reproduces the BLCR checkpoint/restart comparison for native Xeon
// Phi applications (Section 7, "Snapify-IO performance", second
// micro-benchmark): a native process mallocs 1 MB – 4 GB and runs an
// OpenMP loop; BLCR captures and restores it through five storage paths.
func Table4() (*Table4Result, error) {
	res := &Table4Result{}
	for _, size := range Table4Sizes {
		row := Table4Row{Size: size}

		// Each size gets a fresh platform so RAM-fs residue cannot skew
		// the memory gate.
		plat, err := newPlatform(1)
		if err != nil {
			return nil, err
		}
		dev := plat.Device(1)
		mnt := plat.NFS(1)

		spawn := func() (*proc.Process, error) {
			p := plat.Procs.Spawn("native_bench", dev.Node, dev.Mem)
			if _, err := p.AddRegion("heap", proc.RegionHeap, size, 7); err != nil {
				p.Terminate()
				return nil, err
			}
			// The micro-benchmark's OpenMP region: 240 threads that live
			// for the process's lifetime (their quiesce cost is part of
			// every checkpoint).
			for i := 0; i < 240; i++ {
				if err := p.SpawnThread("omp", func() { <-p.Exited() }); err != nil {
					p.Terminate()
					return nil, err
				}
			}
			p.Region("heap").WriteAt([]byte("touched"), 0)
			return p, nil
		}

		p, err := spawn()
		if err != nil {
			return nil, fmt.Errorf("table4: spawning %s process: %w", sizeLabel(size), err)
		}

		ckpt := func(mk func() (stream.Sink, error)) (simclock.Duration, error) {
			sink, err := mk()
			if err != nil {
				return 0, err
			}
			st, err := plat.CR.Checkpoint(p, sink)
			if err != nil {
				return 0, err
			}
			return st.Duration, nil
		}

		// Local: the snapshot goes to the card's own RAM file system.
		d, err := ckpt(func() (stream.Sink, error) {
			s, err := stream.NewHostFSSink(dev.FS, "/tmp/ctx_local")
			return s, err
		})
		if err != nil {
			// Expected for 4 GB: heap + snapshot exceed card memory.
			row.LocalOOM = true
		} else {
			row.CkptLocal = d
		}

		if row.CkptNFS, err = ckpt(func() (stream.Sink, error) { return mnt.CreateSync("/t4/ctx_nfs") }); err != nil {
			return nil, err
		}
		if row.CkptNFSKern, err = ckpt(func() (stream.Sink, error) { return mnt.CreateKernelBuffered("/t4/ctx_kern") }); err != nil {
			return nil, err
		}
		if row.CkptNFSUser, err = ckpt(func() (stream.Sink, error) { return mnt.CreateUserBuffered("/t4/ctx_user") }); err != nil {
			return nil, err
		}
		if row.CkptSnapIO, err = ckpt(func() (stream.Sink, error) {
			return plat.IO.Open(dev.Node, simnet.HostNode, "/t4/ctx_sio", snapifyio.Write)
		}); err != nil {
			return nil, err
		}

		// Kill the process, then restart from each stored snapshot.
		p.AnnounceExit()
		p.Terminate()

		restart := func(mk func() (stream.Source, error)) (simclock.Duration, error) {
			src, err := mk()
			if err != nil {
				return 0, err
			}
			rp, st, err := plat.CR.Restart(src, func(img *blcr.Image) (*proc.Process, error) {
				return plat.Procs.Spawn(img.Name, dev.Node, dev.Mem), nil
			})
			src.Close() //nolint:errcheck // read side at EOF: close only releases the descriptor
			if err != nil {
				return 0, err
			}
			rp.ResumeSteps()
			d := st.Duration + plat.Model().ProcLaunch
			rp.AnnounceExit()
			rp.Terminate()
			return d, nil
		}

		if !row.LocalOOM {
			if row.RestartLocal, err = restart(func() (stream.Source, error) {
				return stream.NewHostFSSource(dev.FS, "/tmp/ctx_local")
			}); err != nil {
				return nil, err
			}
			dev.FS.Remove("/tmp/ctx_local") //nolint:errcheck // scratch cleanup; a failed remove only holds simulated ram until the next loop
		}
		if row.RestartNFS, err = restart(func() (stream.Source, error) { return mnt.Open("/t4/ctx_nfs") }); err != nil {
			return nil, err
		}
		if row.RestartSnapIO, err = restart(func() (stream.Source, error) {
			return plat.IO.Open(dev.Node, simnet.HostNode, "/t4/ctx_sio", snapifyio.Read)
		}); err != nil {
			return nil, err
		}
		plat.IO.Stop()
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the table in the paper's layout.
func (r *Table4Result) Render() string {
	t := trace.New("Table 4: BLCR checkpoint and restart of a native Xeon Phi process",
		"malloc",
		"ckpt Local", "ckpt NFS", "ckpt NFS-kbuf", "ckpt NFS-ubuf", "ckpt SnapIO",
		"rst Local", "rst NFS", "rst SnapIO")
	for _, row := range r.Rows {
		local := trace.Seconds(row.CkptLocal)
		rstLocal := trace.Seconds(row.RestartLocal)
		if row.LocalOOM {
			local, rstLocal = "OOM", "OOM"
		}
		t.Row(sizeLabel(row.Size),
			local, trace.Seconds(row.CkptNFS), trace.Seconds(row.CkptNFSKern),
			trace.Seconds(row.CkptNFSUser), trace.Seconds(row.CkptSnapIO),
			rstLocal, trace.Seconds(row.RestartNFS), trace.Seconds(row.RestartSnapIO))
	}
	return t.String()
}

// CheckShape verifies the paper's claims: Local is fastest but fails at
// 4 GB; Snapify-IO beats every NFS variant; kernel buffering beats user
// buffering beats plain NFS for checkpoints; Snapify-IO's advantage over
// NFS holds for restart too.
func (r *Table4Result) CheckShape() error {
	for _, row := range r.Rows {
		lbl := sizeLabel(row.Size)
		if row.Size >= 4*simclock.GiB {
			if !row.LocalOOM {
				return fmt.Errorf("table4 %s: Local should be impossible (card memory gate)", lbl)
			}
		} else {
			if row.LocalOOM {
				return fmt.Errorf("table4 %s: Local unexpectedly OOM", lbl)
			}
			if row.CkptLocal >= row.CkptSnapIO {
				return fmt.Errorf("table4 %s: Local ckpt (%v) should beat Snapify-IO (%v)", lbl, row.CkptLocal, row.CkptSnapIO)
			}
		}
		// Below a few tens of MB fixed costs dominate and the orderings
		// blur (the paper sees the same effect at 1 MB in Table 3); the
		// strict ordering claim is about checkpoint-sized snapshots.
		if row.Size >= 64*simclock.MiB {
			if !(row.CkptSnapIO < row.CkptNFSKern && row.CkptNFSKern <= row.CkptNFSUser && row.CkptNFSUser < row.CkptNFS) {
				return fmt.Errorf("table4 %s ckpt ordering violated: sio=%v kern=%v user=%v nfs=%v",
					lbl, row.CkptSnapIO, row.CkptNFSKern, row.CkptNFSUser, row.CkptNFS)
			}
		}
		if row.RestartSnapIO >= row.RestartNFS {
			return fmt.Errorf("table4 %s restart: Snapify-IO (%v) should beat NFS (%v)", lbl, row.RestartSnapIO, row.RestartNFS)
		}
	}
	// Speedups in the paper's reported ranges (conclusion: checkpoint
	// 4.7–8.8x, restart 4.4–5.3x for 1–4 GB; we accept the same order of
	// magnitude, 2–16x).
	for _, row := range r.Rows {
		if row.Size < simclock.GiB {
			continue
		}
		ck := ratio(row.CkptNFS, row.CkptSnapIO)
		if ck < 2 || ck > 16 {
			return fmt.Errorf("table4 %s: checkpoint speedup %.1fx outside plausible range", sizeLabel(row.Size), ck)
		}
		rs := ratio(row.RestartNFS, row.RestartSnapIO)
		if rs < 1.5 || rs > 16 {
			return fmt.Errorf("table4 %s: restart speedup %.1fx outside plausible range", sizeLabel(row.Size), rs)
		}
	}
	return nil
}
