// MPI checkpoint: the paper's distributed scenario (Section 7) — a NAS
// multi-zone benchmark runs across a cluster of Xeon Phi nodes, one MPI
// rank per node, and the BLCR-integrated runtime takes a coordinated
// checkpoint of every rank (host process + offload process each). The job
// is then killed and restarted from the snapshot; it resumes at the
// checkpointed iteration.
package main

import (
	"fmt"
	"os"

	"snapify/internal/mpi"
	"snapify/internal/phi"
	"snapify/internal/platform"
	"snapify/internal/simclock"
	"snapify/internal/workloads"
)

const ranks = 2

func main() {
	cluster, err := mpi.NewCluster(ranks, platform.Config{Server: phi.ServerConfig{
		Devices: 1,
		Device:  phi.DeviceConfig{MemBytes: 8 * simclock.GiB},
	}})
	check(err)
	defer cluster.Stop()

	w, err := mpi.NewWorld(cluster, ranks)
	check(err)

	spec, _ := workloads.MZByCode("BT-MZ")
	spec.Iterations = 10

	fmt.Printf("BT-MZ (class C) on %d ranks, one Xeon Phi node each\n", ranks)
	err = w.Run(func(r *mpi.Rank) error {
		in, err := workloads.LaunchMZRank(r, spec, ranks)
		if err != nil {
			return err
		}
		return workloads.RunMZIterations(r, in, 4)
	})
	check(err)
	fmt.Println("ran 4 of 10 iterations; all MPI channels drained at the barrier")

	rep, err := w.Checkpoint("/mpi/btmz")
	check(err)
	fmt.Printf("coordinated checkpoint: %.1fs virtual (slowest rank)\n", rep.Total.Seconds())
	for i, b := range rep.PerRankBytes {
		fmt.Printf("  rank %d snapshot: %.0fMiB (host + device + local store)\n",
			i, float64(b)/float64(simclock.MiB))
	}

	fmt.Println("\n*** node failure: the whole job dies ***")
	w.Close()

	w2, rrep, err := cluster.Restart("/mpi/btmz", ranks)
	check(err)
	defer w2.Close()
	fmt.Printf("restarted from the snapshot in %.1fs virtual\n", rrep.Total.Seconds())

	err = w2.Run(func(r *mpi.Rank) error {
		in, err := workloads.AttachMZRank(r, spec, ranks)
		if err != nil {
			return err
		}
		fmt.Printf("  rank %d resumes at iteration %d\n", r.ID, in.Progress())
		if err := workloads.RunMZIterations(r, in, spec.Iterations-in.Progress()); err != nil {
			return err
		}
		// Every rank must agree that every rank finished the job.
		if done := r.AllreduceSum(uint64(in.Progress())); done != ranks*uint64(spec.Iterations) {
			return fmt.Errorf("rank %d: ranks completed %d iterations in total, want %d", r.ID, done, ranks*spec.Iterations)
		}
		return nil
	})
	check(err)
	fmt.Println("job completed all 10 iterations across the failure")
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpi_checkpoint:", err)
		os.Exit(1)
	}
}
