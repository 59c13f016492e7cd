package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"snapify/internal/blcr"
	"snapify/internal/blob"
	"snapify/internal/coi"
	"snapify/internal/fleetd"
	"snapify/internal/obs"
	"snapify/internal/proc"
	"snapify/internal/scif"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/snapifyio"
	"snapify/internal/snapstore"
	"snapify/internal/stream"
)

// The micro-probes: each calls one layer's public API directly, on
// inputs shaped like the workloads' (4 MiB chunks of a seeded image), and
// reports wall time around the call (*_host_ns*) and the virtual duration
// the call returned (*_sim_ns*). They are the bottom rung of the ladder:
// when an end-to-end figure moves, the probe of the layer that was
// changed should move with it, and no other.

// probe carries what every micro-probe needs: the seed its inputs come
// from and the image size it works on (a whole number of chunks).
type probe struct {
	seed  uint64
	image int64
	div   int // loop counts are divided by this (1 at full scale)
}

// n scales a full-scale loop count.
func (p probe) n(full int) int { return max(full/p.div, 1) }

func (p probe) chunks() int { return int(p.image / chunkBytes) }

// wallNs runs fn and returns the wall nanoseconds it took.
func wallNs(fn func() error) (float64, error) {
	w := simclock.StartWall()
	err := fn()
	return float64(w.ElapsedNs()), err
}

func perMiB(ns float64, bytes int64) float64 {
	return ns / (float64(bytes) / float64(simclock.MiB))
}

// runProbes fills out with every probe metric. The fleet-size probes
// re-run fleet_oversub's own trace at other parameters, so they run only
// there; everywhere else the fleetd figures stay 0, like its counters.
func runProbes(out map[string]float64, opts options) error {
	pr := probe{seed: opts.Seed, image: opts.Scale.ProbeImage, div: opts.Scale.ProbeDiv}
	for _, p := range []struct {
		name string
		fn   func(map[string]float64, probe) error
	}{
		{"simnet", probeSimnet},
		{"scif", probeSCIF},
		{"blob", probeBlob},
		{"snapifyio", probeSnapifyIO},
		{"blcr", probeBLCR},
		{"snapstore", probeSnapstore},
		{"coi", probeCOI},
		{"obs", probeObs},
	} {
		if err := p.fn(out, pr); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	if opts.Workload == "fleet_oversub" {
		return probeFleet(out, generate(opts.Seed, opts.Scale), opts.Scale)
	}
	return nil
}

func probeSimnet(out map[string]float64, p probe) error {
	f := simnet.NewFabric(simclock.Default(), 2)
	for i := 0; i < 8; i++ {
		defer f.RegisterFlow(1, simnet.HostNode)()
	}
	calls := p.n(200000)
	var sink simclock.Duration
	ns, _ := wallNs(func() error {
		for i := 0; i < calls; i++ {
			sink += f.RDMACost(1, simnet.HostNode, chunkBytes)
		}
		return nil
	})
	if sink <= 0 {
		return errors.New("RDMACost returned no cost")
	}
	out["simnet.cost_host_ns_per_call"] = ns / float64(calls)
	return nil
}

func probeSCIF(out map[string]float64, p probe) error {
	net := scif.NewNetwork(simnet.NewFabric(simclock.Default(), 1))
	l, err := net.Listen(1, 0)
	if err != nil {
		return err
	}
	defer l.Close()
	host, err := net.Connect(simnet.HostNode, l.Addr())
	if err != nil {
		return err
	}
	defer host.Close()
	card, err := l.Accept()
	if err != nil {
		return err
	}
	defer card.Close()

	trips := p.n(20000)
	msg := make([]byte, 64)
	var sim simclock.Duration
	ns, err := wallNs(func() error {
		for i := 0; i < trips; i++ {
			d, err := host.Send(msg)
			if err != nil {
				return err
			}
			sim += d
			reply, d, err := card.Recv()
			if err != nil {
				return err
			}
			sim += d
			if d, err = card.Send(reply); err != nil {
				return err
			}
			sim += d
			if _, d, err = host.Recv(); err != nil {
				return err
			}
			sim += d
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["scif.msg_host_ns"] = ns / float64(trips)
	out["scif.msg_sim_ns"] = float64(sim) / float64(trips)

	writes := p.n(64)
	remote := blob.NewBuffer(chunkBytes, p.seed)
	local := blob.NewBuffer(chunkBytes, p.seed+1)
	sim = 0
	ns, err = wallNs(func() error {
		for i := 0; i < writes; i++ {
			w, d, err := host.Register(remote, 0, chunkBytes)
			if err != nil {
				return err
			}
			sim += d
			if d, err = card.VWriteTo(local, 0, chunkBytes, w.Offset); err != nil {
				return err
			}
			sim += d
			if err := host.Unregister(w); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["scif.rdma_host_ns_per_mib"] = perMiB(ns, int64(writes)*chunkBytes)
	out["scif.rdma_sim_ns_per_mib"] = perMiB(float64(sim), int64(writes)*chunkBytes)
	return nil
}

func probeBlob(out map[string]float64, p probe) error {
	seed, probeImage, probeChunks := p.seed, p.image, p.chunks()
	var n int
	ns, _ := wallNs(func() error {
		n = len(blob.Synthetic(seed, probeImage).Bytes())
		return nil
	})
	if int64(n) != probeImage {
		return fmt.Errorf("materialized %d bytes of %d", n, probeImage)
	}
	out["blob.materialize_host_ns_per_mib"] = perMiB(ns, probeImage)

	buf := blob.NewBuffer(probeImage, seed)
	page := make([]byte, 4096)
	s := seed
	for i := 0; i < 1000; i++ {
		page[0] = byte(i)
		buf.WriteAt(page, int64(splitmix64(&s)%uint64(probeImage/4096))*4096)
	}
	var snapshot blob.Blob
	ns, _ = wallNs(func() error {
		snapshot = buf.Snapshot()
		return nil
	})
	out["blob.buffer_snapshot_host_ns"] = ns

	chunks := 0
	ns, err := wallNs(func() error {
		return snapshot.ForEachChunk(chunkBytes, func(blob.Blob) error {
			chunks++
			return nil
		})
	})
	if err != nil {
		return err
	}
	if chunks != probeChunks {
		return fmt.Errorf("walked %d chunks of %d", chunks, probeChunks)
	}
	out["blob.chunk_walk_host_ns_per_chunk"] = ns / float64(chunks)
	return nil
}

// pump writes the image to sink in 4 MiB blobs, and drain reads a source
// back the same way; both return the virtual transport cost.
func pump(sink stream.Sink, img blob.Blob) (simclock.Duration, error) {
	var sim simclock.Duration
	err := img.ForEachChunk(chunkBytes, func(c blob.Blob) error {
		cost, err := sink.WriteBlob(c)
		sim += cost.Add()
		return err
	})
	if err != nil {
		sink.Abort()
		return 0, err
	}
	return sim, sink.Close()
}

func drain(src stream.Source) (simclock.Duration, int64, error) {
	var sim simclock.Duration
	var n int64
	for {
		b, cost, err := src.Next(chunkBytes)
		if err == io.EOF {
			return sim, n, src.Close()
		}
		if err != nil {
			return 0, 0, err
		}
		sim += cost.Add()
		n += b.Len()
	}
}

func probeSnapifyIO(out map[string]float64, p probe) error {
	seed, probeImage := p.seed, p.image
	plat, stop, err := newPlatform(1, 2*simclock.GiB, false)
	if err != nil {
		return err
	}
	defer stop()
	img := blob.Synthetic(seed, probeImage)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var wsim, rsim simclock.Duration
	wns, err := wallNs(func() error {
		f, err := plat.IO.Open(1, simnet.HostNode, "/probe/sio", snapifyio.Write)
		if err != nil {
			return err
		}
		wsim, err = pump(f, img)
		return err
	})
	if err != nil {
		return err
	}
	var got int64
	rns, err := wallNs(func() error {
		f, err := plat.IO.Open(1, simnet.HostNode, "/probe/sio", snapifyio.Read)
		if err != nil {
			return err
		}
		rsim, got, err = drain(f)
		return err
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	if got != probeImage {
		return fmt.Errorf("read back %d bytes of %d", got, probeImage)
	}
	out["snapifyio.write_host_ns_per_mib"] = perMiB(wns, probeImage)
	out["snapifyio.write_sim_ns_per_mib"] = perMiB(float64(wsim), probeImage)
	out["snapifyio.read_host_ns_per_mib"] = perMiB(rns, probeImage)
	out["snapifyio.read_sim_ns_per_mib"] = perMiB(float64(rsim), probeImage)
	out["snapifyio.allocs_per_mib"] = perMiB(float64(ms1.Mallocs-ms0.Mallocs), 2*probeImage)

	// Four stripes of one file, written one after another: the figure is
	// the per-stripe transport cost, not the parallel speed-up (that is
	// ckpt_plain's streams=4 ops).
	const stripes = 4
	var ssim simclock.Duration
	for i := int64(0); i < stripes; i++ {
		part := probeImage / stripes
		f, err := plat.IO.OpenStream(1, simnet.HostNode, "/probe/sio_striped", snapifyio.Write, snapifyio.OpenOptions{
			Slots:  2,
			Stripe: snapifyio.Stripe{Offset: i * part, Length: part, Total: probeImage},
		})
		if err != nil {
			return err
		}
		d, err := pump(f, img.Slice(i*part, part))
		if err != nil {
			return err
		}
		ssim += d
	}
	out["snapifyio.striped_write_sim_ns_per_mib"] = perMiB(float64(ssim), probeImage)
	return nil
}

// discardSink is the bench-owned sink the checkpoint probe writes into:
// it costs nothing, so the figure is the checkpointer's own.
type discardSink struct{ bytes int64 }

func (s *discardSink) WriteBlob(b blob.Blob) (stream.Cost, error) {
	s.bytes += b.Len()
	return stream.Cost{}, nil
}
func (s *discardSink) Close() error { return nil }
func (s *discardSink) Abort()       {}

func probeBLCR(out map[string]float64, pr probe) error {
	plat, stop, err := newPlatform(1, 2*simclock.GiB, false)
	if err != nil {
		return err
	}
	defer stop()
	dev := plat.Device(1)
	p := plat.Procs.Spawn("probe_blcr", dev.Node, dev.Mem)
	defer p.Terminate()
	heap, err := p.AddRegion("heap", proc.RegionHeap, pr.image, pr.seed)
	if err != nil {
		return err
	}
	heap.WriteAt([]byte("touched"), 0)

	sink := &discardSink{}
	var st *blcr.Stats
	ns, err := wallNs(func() (err error) {
		st, err = plat.CR.CheckpointFrozen(p, sink)
		return err
	})
	if err != nil {
		return err
	}
	out["blcr.ckpt_host_ns_per_mib"] = perMiB(ns, st.Bytes)
	out["blcr.ckpt_sim_ns_per_mib"] = perMiB(float64(st.Duration), st.Bytes)

	// Restart needs a real context file: capture once more to the host
	// file system and read it back from there.
	hostSink, err := stream.NewHostFSSink(plat.Host().FS, "/probe/ctx")
	if err != nil {
		return err
	}
	if _, err := plat.CR.CheckpointFrozen(p, hostSink); err != nil {
		return err
	}
	src, err := stream.NewHostFSSource(plat.Host().FS, "/probe/ctx")
	if err != nil {
		return err
	}
	var rst *blcr.Stats
	ns, err = wallNs(func() error {
		rp, st, err := plat.CR.Restart(src, func(img *blcr.Image) (*proc.Process, error) {
			return plat.Procs.Spawn(img.Name+"_restored", dev.Node, dev.Mem), nil
		})
		if err != nil {
			return err
		}
		rst = st
		rp.ResumeSteps()
		rp.AnnounceExit()
		rp.Terminate()
		return src.Close()
	})
	if err != nil {
		return err
	}
	out["blcr.restart_host_ns_per_mib"] = perMiB(ns, rst.Bytes)
	out["blcr.restart_sim_ns_per_mib"] = perMiB(float64(rst.Duration), rst.Bytes)

	var digests []string
	var size int64
	ns, err = wallNs(func() error {
		lay, err := plat.CR.LayoutFull(p)
		if err != nil {
			return err
		}
		size = lay.Size()
		digests, _ = lay.ChunkDigests(chunkBytes, snapstore.Digest)
		return nil
	})
	if err != nil {
		return err
	}
	if len(digests) == 0 {
		return errors.New("layout produced no digests")
	}
	out["blcr.layout_digest_host_ns_per_mib"] = perMiB(ns, size)
	return nil
}

func probeSnapstore(out map[string]float64, pr probe) error {
	seed, probeImage, probeChunks := pr.seed, pr.image, pr.chunks()
	plat, stop, err := newPlatform(1, 2*simclock.GiB, false)
	if err != nil {
		return err
	}
	defer stop()
	st := plat.Store

	// Digest: a pure-synthetic chunk is served from the process-wide cache
	// on its second call; one literal page defeats the cache and the whole
	// chunk is materialized and hashed.
	syn := blob.Synthetic(seed^0xD16E57, chunkBytes)
	snapstore.Digest(syn)
	cachedCalls := pr.n(1000)
	ns, _ := wallNs(func() error {
		for i := 0; i < cachedCalls; i++ {
			snapstore.Digest(syn)
		}
		return nil
	})
	out["snapstore.digest_cached_host_ns_per_mib"] = perMiB(ns/float64(cachedCalls), chunkBytes)
	const uncachedCalls = 8
	ns, _ = wallNs(func() error {
		for i := 0; i < uncachedCalls; i++ {
			page := make([]byte, 4096)
			page[0] = byte(i + 1)
			snapstore.Digest(blob.Splice(syn, 4096, blob.FromBytes(page)))
		}
		return nil
	})
	out["snapstore.digest_uncached_host_ns_per_mib"] = perMiB(ns/uncachedCalls, chunkBytes)

	// A probeImage of distinct chunks, each with one literal page so the
	// store sees real content.
	var chunks []blob.Blob
	var digests []string
	for i := 0; i < probeChunks; i++ {
		page := make([]byte, 4096)
		page[0], page[1] = byte(i), byte(i>>8)
		c := blob.Splice(blob.Synthetic(seed+uint64(i)+1, chunkBytes), 0, blob.FromBytes(page))
		chunks = append(chunks, c)
		digests = append(digests, snapstore.Digest(c))
	}

	var need []int
	var negSim simclock.Duration
	negNew, err := wallNs(func() (err error) {
		need, _, negSim, err = st.Negotiate("/probe/a/ctx", "", probeImage, chunkBytes, digests)
		return err
	})
	if err != nil {
		return err
	}
	if len(need) != probeChunks {
		return fmt.Errorf("empty store needs %d of %d chunks", len(need), probeChunks)
	}
	ns, err = wallNs(func() error {
		for i, c := range chunks {
			if _, err := st.PutChunkAt("/probe/a/ctx", int64(i)*chunkBytes, c); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["snapstore.put_chunk_host_ns_per_mib"] = perMiB(ns, probeImage)
	if ok, _, err := st.CloseUpload("/probe/a/ctx"); err != nil || !ok {
		return fmt.Errorf("upload did not commit: committed=%v err=%v", ok, err)
	}
	var committed bool
	negHave, err := wallNs(func() (err error) {
		var d simclock.Duration
		_, committed, d, err = st.Negotiate("/probe/b/ctx", "", probeImage, chunkBytes, digests)
		negSim += d
		return err
	})
	if err != nil {
		return err
	}
	if !committed {
		return errors.New("all-present negotiation did not commit on the spot")
	}
	out["snapstore.negotiate_host_ns_per_chunk"] = (negNew + negHave) / float64(2*probeChunks)
	out["snapstore.negotiate_sim_ns_per_chunk"] = float64(negSim) / float64(2*probeChunks)

	ns, err = wallNs(func() error {
		for _, d := range digests {
			if _, _, err := st.ReadChunk(d); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["snapstore.read_chunk_host_ns_per_mib"] = perMiB(ns, probeImage)

	var problems []string
	ns, _ = wallNs(func() error {
		problems, _ = st.Verify()
		return nil
	})
	if len(problems) > 0 {
		return fmt.Errorf("verify: %v", problems)
	}
	out["snapstore.verify_host_ns_per_mib"] = perMiB(ns, probeImage)

	for _, p := range st.List() {
		if _, err := st.Release(p); err != nil {
			return err
		}
	}
	var gs snapstore.GCStats
	ns, err = wallNs(func() (err error) {
		gs, _, err = st.GC(0)
		return err
	})
	if err != nil {
		return err
	}
	if gs.ChunksReclaimed != probeChunks {
		return fmt.Errorf("gc reclaimed %d of %d chunks", gs.ChunksReclaimed, probeChunks)
	}
	out["snapstore.gc_host_ns_per_chunk"] = ns / float64(probeChunks)
	return nil
}

// noopCalls runs calls no-op offload calls on a fresh platform and
// returns the wall and virtual nanoseconds per call, plus the platform
// for further probing (stop it with the returned func).
func noopCalls(noHooks bool, calls int) (hostNs, simNs float64, cp *coi.Process, stop func(), err error) {
	plat, stopPlat, err := newPlatform(1, 2*simclock.GiB, noHooks)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	bin := coi.NewBinary("bench_noop")
	bin.AddRegion("private", proc.RegionHeap, simclock.MiB, 0)
	bin.Register("noop", func(*coi.RunContext, []byte) ([]byte, error) { return nil, nil })
	coi.RegisterBinary(bin)
	host := plat.Procs.Spawn("probe_host", simnet.HostNode, plat.Host().Mem)
	stop = func() { host.Terminate(); stopPlat() }
	tl := simclock.NewTimeline()
	cp, err = coi.CreateProcess(plat, host, tl, 1, "bench_noop")
	if err != nil {
		stop()
		return 0, 0, nil, nil, err
	}
	pl, err := cp.CreatePipeline()
	if err != nil {
		stop()
		return 0, 0, nil, nil, err
	}
	start := tl.Now()
	ns, err := wallNs(func() error {
		for i := 0; i < calls; i++ {
			if _, err := pl.RunFunction("noop", nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		stop()
		return 0, 0, nil, nil, err
	}
	return ns / float64(calls), float64(tl.Now()-start) / float64(calls), cp, stop, nil
}

func probeCOI(out map[string]float64, p probe) error {
	calls := p.n(2000)
	_, bareSim, _, stop, err := noopCalls(true, calls)
	if err != nil {
		return err
	}
	stop()
	hostNs, simNs, cp, stop, err := noopCalls(false, calls)
	if err != nil {
		return err
	}
	defer stop()
	out["coi.run_function_host_ns"] = hostNs
	out["coi.run_function_sim_ns"] = simNs
	out["coi.hook_sim_ns_per_call"] = simNs - bareSim

	writes := p.n(64)
	buf, err := cp.CreateBuffer(simclock.MiB)
	if err != nil {
		return err
	}
	data := make([]byte, simclock.MiB)
	ns, err := wallNs(func() error {
		for i := 0; i < writes; i++ {
			data[i] = byte(i)
			if err := buf.Write(data, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["coi.buffer_write_host_ns_per_mib"] = ns / float64(writes)
	return nil
}

func probeObs(out map[string]float64, p probe) error {
	spans := p.n(20000)
	tr := obs.NewTracer()
	tk := tr.Track("probe", "lane")
	ns, _ := wallNs(func() error {
		for i := 0; i < spans; i++ {
			tk.Emit(0, "probe_span", simclock.Duration(i)*1000, 1000, nil)
		}
		return nil
	})
	out["obs.emit_host_ns_per_span"] = ns / float64(spans)
	var exported int
	ns, _ = wallNs(func() error {
		exported = len(tr.ChromeTrace())
		return nil
	})
	if exported == 0 {
		return errors.New("empty trace export")
	}
	out["obs.export_host_ns_per_span"] = ns / float64(spans)
	return nil
}

// probeFleet re-runs the workload's trace shape at three fleet sizes (a
// quarter, the workload's own, and four times it, at 20 jobs per host)
// for the log-log slope of host ns per event, and once with
// oversubscription off for the cost of placement and queueing alone.
func probeFleet(out map[string]float64, in inputs, sc scale) error {
	perEvent := func(hosts int, opts fleetd.Options) (float64, error) {
		model := in.FleetModel
		model.Hosts = hosts
		// The admission queue grows with the fleet, or the big fleet
		// spends its run refusing jobs.
		opts.QueueDepth = opts.QueueDepth * hosts / sc.FleetHosts
		specs := in.Fleet
		if jobs := hosts * sc.FleetJobs / sc.FleetHosts; jobs != len(specs) {
			// Same load per host: the arrival rate scales with the fleet
			// (the generator's defaults are 20 ms between bursts, 1 ms
			// within one).
			specs = fleetd.GenerateTrace(fleetd.TraceConfig{
				Seed: fleetTraceSeed, Jobs: jobs, Tenants: sc.FleetTenants, CardMem: model.CardMem,
				BurstEvery: 20 * time.Millisecond * simclock.Duration(sc.FleetHosts) / simclock.Duration(hosts),
				MeanGap:    time.Millisecond * simclock.Duration(sc.FleetHosts) / simclock.Duration(hosts),
				BurstScale: fleetBurstScale, ThinkScale: fleetThinkScale,
			})
		}
		m := newMeter(sc.CalIters)
		c, err := fleetRun(nil, specs, model, opts, false, m)
		if err != nil {
			return 0, err
		}
		return ratio(m.cost.CPUS*1e9, float64(c.Stats().Events)), nil
	}
	var xs, ys []float64
	for _, hosts := range []int{sc.FleetHosts / 4, sc.FleetHosts, sc.FleetHosts * 4} {
		ns, err := perEvent(hosts, in.FleetOpts)
		if err != nil {
			return fmt.Errorf("scaling run at %d hosts: %w", hosts, err)
		}
		xs = append(xs, math.Log(float64(hosts)))
		ys = append(ys, math.Log(math.Max(ns, 1)))
	}
	out["fleetd.scaling_exp"] = math.Max(0, slope(xs, ys))
	opts := in.FleetOpts
	opts.OversubPct = 100
	ns, err := perEvent(sc.FleetHosts, opts)
	if err != nil {
		return err
	}
	out["fleetd.host_ns_per_event_pct100"] = ns
	return nil
}

// slope is the least-squares slope of ys over xs.
func slope(xs, ys []float64) float64 {
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(len(xs))
	my /= float64(len(ys))
	var num, den float64
	for i := range xs {
		num += (xs[i] - mx) * (ys[i] - my)
		den += (xs[i] - mx) * (xs[i] - mx)
	}
	return ratio(num, den)
}
