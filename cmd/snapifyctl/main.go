// Command snapifyctl demonstrates the paper's `snapify` command-line
// utility (Section 5): it signals a host process and submits swap-out,
// swap-in, or migration commands through a pipe, and the Snapify signal
// handler inside the host process executes them — the application itself
// is never modified.
//
// The simulation runs in-process, so this tool boots a two-card server,
// launches a demo offload application, and then applies the commands given
// on the command line against its host PID, printing the process table
// state after each one.
//
// Usage:
//
//	snapifyctl [command...]
//	    commands: swapout [store] | swapin <device> | migrate <device> [store|live]
//	            | store ls|stat|verify|gc
//	            | trace <out.json> | metrics
//	    default sequence: swapout, swapin 2, migrate 1 live
//
//	snapifyctl analyze critical-path <trace.json>
//	    offline: print the critical-path breakdown (chain, blame table,
//	    straggler skew, pre-copy rounds) of an exported Chrome trace
//	snapifyctl analyze flight <dump.json>
//	    offline: summarize a flight-recorder dump (reason, counter
//	    deltas, critical path of the recorded window)
//	snapifyctl fleet status
//	    boot the deterministic fleet control-plane demo (model backend,
//	    2x oversubscription, one host draining), advance to mid-run, and
//	    print per-host card occupancy and evacuation progress
//	snapifyctl fleet queue
//	    same scenario; print the admission queue (per-tenant depth and
//	    the pending jobs in dispatch order)
//
// swapout store (and migrate <device> store) capture through the
// content-addressed dedup store instead of plain host files; migrate
// <device> live runs a pre-copy live migration — the image ships in
// rounds while the process runs, and the reply details each round's
// dirty/shipped bytes plus the final downtime. The store
// subcommands inspect it: ls lists committed manifests, stat prints
// chunk/dedup statistics, verify re-digests every chunk and checks the
// refcount invariants, and gc runs a mark-and-sweep collection. trace
// writes the session's virtual-clock trace as Chrome trace-event JSON
// (open it at ui.perfetto.dev); metrics prints the platform metrics
// registry in Prometheus text exposition. Both observe whatever commands
// ran before them in the sequence.
package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"time"

	"snapify"
	"snapify/internal/obs"
	"snapify/internal/obs/analyze"
	"snapify/internal/proc"
	"snapify/internal/snapstore"
)

func main() {
	// `analyze` works on files a previous run exported — no demo server
	// to boot, so it dispatches before the simulation starts.
	if len(os.Args) > 1 && os.Args[1] == "analyze" {
		analyzeCommand(os.Args[2:])
		return
	}

	// `fleet` boots its own control-plane scenario — no demo server.
	if len(os.Args) > 1 && os.Args[1] == "fleet" {
		fleetCommand(os.Args[2:])
		return
	}

	snapify.RegisterBinary(demoBinary())
	srv, err := snapify.NewServer(snapify.ServerOptions{Devices: 2})
	fatal(err)
	defer srv.Stop()

	app, err := srv.Launch("ctl_demo", 1)
	fatal(err)
	defer app.Close()
	pl, err := app.Proc.CreatePipeline()
	fatal(err)

	// Run some work so the process has real state to carry across swaps.
	args := make([]byte, 8)
	binary.BigEndian.PutUint64(args, 500)
	_, err = pl.RunFunction("sum", args)
	fatal(err)

	srvr := app.InstallCommandServer()
	fmt.Printf("launched ctl_demo: host PID %d, offload process on %v\n",
		app.Host.PID(), app.Proc.DeviceNode())

	cmds := parseCommands(os.Args[1:])
	for _, cmd := range cmds {
		if cmd == "metrics" {
			fmt.Printf("\n$ snapifyctl metrics\n")
			fmt.Print(srv.Platform.Obs.MetricsOf().Expose())
			continue
		}
		if sub, ok := strings.CutPrefix(cmd, "store "); ok {
			fmt.Printf("\n$ snapifyctl store %s\n", sub)
			storeCommand(srv.Platform.Store, sub)
			continue
		}
		if path, ok := strings.CutPrefix(cmd, "trace "); ok {
			fmt.Printf("\n$ snapifyctl trace %s\n", path)
			out := srv.Platform.Obs.TracerOf().ChromeTrace()
			if err := obs.ValidateChromeTrace(out); err != nil {
				fatal(err)
			}
			fatal(os.WriteFile(path, out, 0o644))
			fmt.Printf("  wrote %s: valid Chrome trace; open at ui.perfetto.dev\n", path)
			continue
		}
		fmt.Printf("\n$ snapify %d %s\n", app.Host.PID(), cmd)
		reply, err := srvr.SubmitCommand(cmd)
		if err != nil {
			fmt.Printf("  error: %v\n", err)
			continue
		}
		// A migration reply details each pre-copy round and the downtime.
		if detail, ok := strings.CutPrefix(reply, "ok\n"); ok {
			for _, line := range strings.Split(detail, "\n") {
				fmt.Printf("  %s\n", line)
			}
		}
		state := "resident on " + srvr.Proc().DeviceNode().String()
		if srvr.Swapped() {
			state = "swapped out to host storage"
		}
		fmt.Printf("  ok: offload process now %s\n", state)
	}

	// Prove the process survived everything.
	binary.BigEndian.PutUint64(args, 1000)
	out, err := pl.RunFunction("sum", args)
	fatal(err)
	fmt.Printf("\nfinal sum(1000) = %d (expected %d) — state preserved across all operations\n",
		binary.BigEndian.Uint64(out), 1000*999/2)
}

func parseCommands(argv []string) []string {
	if len(argv) == 0 {
		return []string{"swapout /ctl/snap", "swapin 2", "migrate 1 /ctl/mig live"}
	}
	var out []string
	for i := 0; i < len(argv); i++ {
		switch argv[i] {
		case "swapout":
			cmd := "swapout /ctl/snap"
			if i+1 < len(argv) && argv[i+1] == "store" {
				cmd += " store"
				i++
			}
			out = append(out, cmd)
		case "swapin", "migrate":
			if i+1 >= len(argv) {
				fatal(fmt.Errorf("%s needs a device argument", argv[i]))
			}
			if argv[i] == "swapin" {
				out = append(out, "swapin "+argv[i+1])
			} else {
				cmd := "migrate " + argv[i+1] + " /ctl/mig"
				if i+2 < len(argv) && (argv[i+2] == "store" || argv[i+2] == "live") {
					cmd += " " + argv[i+2]
					i++
				}
				out = append(out, cmd)
			}
			i++
		case "store":
			if i+1 >= len(argv) {
				fatal(fmt.Errorf("store needs a subcommand (ls | stat | verify | gc)"))
			}
			switch argv[i+1] {
			case "ls", "stat", "verify", "gc":
				out = append(out, "store "+argv[i+1])
			default:
				fatal(fmt.Errorf("unknown store subcommand %q (want ls | stat | verify | gc)", argv[i+1]))
			}
			i++
		case "metrics":
			out = append(out, "metrics")
		case "trace":
			if i+1 >= len(argv) {
				fatal(fmt.Errorf("trace needs an output path argument"))
			}
			out = append(out, "trace "+argv[i+1])
			i++
		default:
			fatal(fmt.Errorf("unknown command %q (want swapout [store] | swapin <dev> | migrate <dev> [store|live] | store <sub> | trace <out> | metrics)", argv[i]))
		}
	}
	return out
}

// analyzeCommand services `snapifyctl analyze <sub> <file>`: offline
// analysis of artifacts a previous run exported (a Chrome trace from
// `trace`/`-trace`, or a flight-recorder dump from SNAPIFY_FLIGHT_DIR).
func analyzeCommand(argv []string) {
	if len(argv) != 2 {
		fatal(fmt.Errorf("usage: snapifyctl analyze critical-path <trace.json> | analyze flight <dump.json>"))
	}
	data, err := os.ReadFile(argv[1])
	fatal(err)
	switch argv[0] {
	case "critical-path":
		spans, err := analyze.ParseChromeTrace(data)
		fatal(err)
		report, err := analyze.CriticalPath(spans)
		fatal(err)
		fmt.Print(report.Render(10))
	case "flight":
		report, err := analyze.FlightReport(data)
		fatal(err)
		fmt.Print(report)
	default:
		fatal(fmt.Errorf("unknown analyze subcommand %q (want critical-path | flight)", argv[0]))
	}
}

// storeCommand services one `store <sub>` inspection command against the
// platform's dedup store.
func storeCommand(st *snapstore.Store, sub string) {
	switch sub {
	case "ls":
		paths := st.List()
		if len(paths) == 0 {
			fmt.Println("  (no committed manifests)")
			return
		}
		for _, p := range paths {
			m, _, err := st.Manifest(p)
			fatal(err)
			fmt.Printf("  %s  %d bytes, %d chunks\n", m.Path, m.Size, len(m.Chunks))
		}
	case "stat":
		s := st.Stats()
		fmt.Printf("  manifests:     %d\n", s.Manifests)
		fmt.Printf("  chunks:        %d (%d bytes stored)\n", s.Chunks, s.StoredBytes)
		fmt.Printf("  logical bytes: %d\n", s.LogicalBytes)
		fmt.Printf("  dedup ratio:   %.2fx\n", s.DedupRatio())
		fmt.Printf("  reclaimable:   %d chunks (%d bytes)\n", s.ReclaimableChunks, s.ReclaimableBytes)
	case "verify":
		problems, _ := st.Verify()
		if len(problems) == 0 {
			fmt.Println("  store consistent: every chunk matches its digest, every reference resolves")
			return
		}
		for _, p := range problems {
			fmt.Printf("  PROBLEM: %s\n", p)
		}
		fatal(fmt.Errorf("store verify found %d problems", len(problems)))
	case "gc":
		gs, _, err := st.GC(0)
		fatal(err)
		fmt.Printf("  scanned %d chunks, reclaimed %d (%d bytes), swept %d stale tmp files, %d live\n",
			gs.ChunksScanned, gs.ChunksReclaimed, gs.BytesReclaimed, gs.TmpSwept, gs.ChunksLive)
	}
}

func demoBinary() *snapify.Binary {
	bin := snapify.NewBinary("ctl_demo")
	bin.AddRegion("state", proc.RegionHeap, 1<<16, 0)
	bin.Register("sum", func(ctx *snapify.RunContext, args []byte) ([]byte, error) {
		n := binary.BigEndian.Uint64(args)
		st := ctx.Region("state")
		buf := make([]byte, 16)
		st.ReadAt(buf, 0)
		for {
			i := binary.BigEndian.Uint64(buf[:8])
			if i >= n {
				break
			}
			if err := ctx.Step(func() {
				s := binary.BigEndian.Uint64(buf[8:])
				binary.BigEndian.PutUint64(buf[:8], i+1)
				binary.BigEndian.PutUint64(buf[8:], s+i)
				st.WriteAt(buf, 0)
				ctx.Compute(100 * time.Microsecond)
			}); err != nil {
				return nil, err
			}
		}
		out := make([]byte, 8)
		st.ReadAt(buf, 0)
		copy(out, buf[8:])
		return out, nil
	})
	return bin
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "snapifyctl:", err)
		os.Exit(1)
	}
}
