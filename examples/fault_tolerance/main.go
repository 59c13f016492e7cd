// Fault tolerance: the classic checkpoint/restart loop the paper's
// introduction motivates — a long-running offload application checkpoints
// periodically; random failures kill it; a supervisor restarts it from the
// latest snapshot. The run always completes with the correct result, and
// only the work since the last checkpoint is ever repeated.
package main

import (
	"fmt"
	"math/rand"
	"os"

	"snapify"
	"snapify/internal/core"
	"snapify/internal/workloads"
)

func main() {
	srv, err := snapify.NewServer(snapify.ServerOptions{Devices: 1})
	check(err)
	defer srv.Stop()
	plat := srv.Platform

	spec, _ := workloads.ByCode("KM")
	spec.Calls = 40
	const checkpointEvery = 8

	rng := rand.New(rand.NewSource(7))

	// Reference result from an undisturbed run.
	ref, err := workloads.Launch(plat, spec, 1)
	check(err)
	want, err := ref.Run()
	check(err)
	ref.Close()

	fmt.Printf("K-Means, %d offload calls, checkpoint every %d, random failures injected\n\n",
		spec.Calls, checkpointEvery)

	in, err := workloads.Launch(plat, spec, 1)
	check(err)
	app := core.NewApp(plat, in.CP)
	lastCkpt := ""
	failures, checkpoints := 0, 0

	for !in.Done() {
		// Run one checkpoint interval, with a chance of dying mid-way.
		target := in.Progress() + checkpointEvery
		if target > spec.Calls {
			target = spec.Calls
		}
		for in.Progress() < target {
			if lastCkpt != "" && rng.Intn(12) == 0 {
				// Crash: host process dies, daemon reaps the offload side.
				failures++
				lost := in.Progress()
				in.Close()
				app2, host2, _, err := srv.RestartApp(lastCkpt)
				check(err)
				in, err = workloads.Attach(plat, spec, host2, app2.Proc())
				check(err)
				app = app2
				fmt.Printf("  CRASH at call %d -> restarted from %s at call %d (%d calls repeated)\n",
					lost, lastCkpt, in.Progress(), lost-in.Progress())
				continue
			}
			_, err := in.RunCalls(1)
			check(err)
		}
		if in.Done() {
			break
		}
		dir := fmt.Sprintf("/ft/ckpt_%d", in.Progress())
		rep, err := app.Checkpoint(dir)
		check(err)
		lastCkpt = dir
		checkpoints++
		fmt.Printf("checkpoint at call %d (%.2fs virtual, %.0fMiB)\n",
			in.Progress(), rep.Total().Seconds(),
			float64(rep.HostSnapshotBytes+rep.Offload.SnapshotBytes+rep.Offload.LocalStoreBytes)/(1<<20))
	}

	got := in.Checksum()
	in.Close()
	fmt.Printf("\nrun complete: %d checkpoints, %d failures survived\n", checkpoints, failures)
	if got == want {
		fmt.Printf("final checksum %d matches the failure-free run — recovery was exact\n", got)
	} else {
		fmt.Printf("MISMATCH: %d != %d\n", got, want)
		os.Exit(1)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fault_tolerance:", err)
		os.Exit(1)
	}
}
