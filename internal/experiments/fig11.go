package experiments

import (
	"fmt"

	"snapify/internal/mpi"
	"snapify/internal/simclock"
	"snapify/internal/trace"
	"snapify/internal/workloads"
)

// Fig11RankCounts are the MPI task counts of the experiment.
var Fig11RankCounts = []int{1, 2, 4}

// Fig11Row is one (benchmark, rank count) cell.
type Fig11Row struct {
	Code  string
	Ranks int

	CheckpointTime simclock.Duration // (a)
	RestartTime    simclock.Duration // (b)
	PerRankBytes   int64             // (c)

	// Runtime is the extrapolated checkpoint-free runtime (the paper
	// reports 2–3 minutes for class C).
	Runtime simclock.Duration
}

// Fig11Result is the MPI checkpoint/restart experiment.
type Fig11Result struct {
	Rows []Fig11Row
}

// fig11Iterations is how many real iterations each measurement runs before
// the checkpoint; the full-run time is extrapolated from them.
const fig11Iterations = 2

// Fig11 runs coordinated checkpoint and restart for LU-MZ, SP-MZ, and
// BT-MZ (class C) with 1, 2, and 4 MPI ranks, one rank per cluster node.
func Fig11() (*Fig11Result, error) {
	res := &Fig11Result{}
	for _, spec := range workloads.NASMZ {
		for _, ranks := range Fig11RankCounts {
			row, err := fig11One(spec, ranks)
			if err != nil {
				return nil, fmt.Errorf("fig11 %s x%d: %w", spec.Code, ranks, err)
			}
			res.Rows = append(res.Rows, *row)
		}
	}
	return res, nil
}

func fig11One(spec workloads.MZSpec, ranks int) (*Fig11Row, error) {
	cluster, err := mpi.NewCluster(ranks, paperServer())
	if err != nil {
		return nil, err
	}
	defer cluster.Stop()
	w, err := mpi.NewWorld(cluster, ranks)
	if err != nil {
		return nil, err
	}

	instances := make([]*workloads.Instance, ranks)
	err = w.Run(func(r *mpi.Rank) error {
		in, err := workloads.LaunchMZRank(r, spec, ranks)
		if err != nil {
			return err
		}
		instances[r.ID] = in
		return workloads.RunMZIterations(r, in, fig11Iterations)
	})
	if err != nil {
		return nil, err
	}

	row := &Fig11Row{Code: spec.Code, Ranks: ranks}

	// Extrapolate the checkpoint-free runtime from the measured
	// iterations (rank 0's timeline; barriers keep ranks aligned).
	launch := instances[0].Runtime()
	perIter := simclock.Duration(0)
	if fig11Iterations > 0 {
		perIter = instances[0].Runtime() / simclock.Duration(fig11Iterations)
	}
	row.Runtime = launch/simclock.Duration(fig11Iterations+1) + perIter*simclock.Duration(spec.Iterations)

	// (a) + (c): coordinated checkpoint.
	rep, err := w.Checkpoint("/fig11/" + spec.Code)
	if err != nil {
		return nil, err
	}
	row.CheckpointTime = rep.Total
	var sum int64
	for _, b := range rep.PerRankBytes {
		sum += b
	}
	row.PerRankBytes = sum / int64(ranks)

	// (b): the job dies and restarts.
	w.Close()
	w2, rrep, err := cluster.Restart("/fig11/"+spec.Code, ranks)
	if err != nil {
		return nil, err
	}
	row.RestartTime = rrep.Total
	w2.Close()
	return row, nil
}

// Render prints the three sub-figures.
func (r *Fig11Result) Render() string {
	a := trace.New("Fig 11(a): MPI checkpoint time (class C)", "Benchmark", "Ranks", "Checkpoint")
	b := trace.New("Fig 11(b): MPI restart time (class C)", "Benchmark", "Ranks", "Restart")
	c := trace.New("Fig 11(c): Checkpoint size of a single rank", "Benchmark", "Ranks", "Per-rank size")
	for _, row := range r.Rows {
		a.Row(row.Code, row.Ranks, trace.Seconds(row.CheckpointTime))
		b.Row(row.Code, row.Ranks, trace.Seconds(row.RestartTime))
		c.Row(row.Code, row.Ranks, trace.Bytes(row.PerRankBytes))
	}
	return a.String() + "\n" + b.String() + "\n" + c.String()
}

// CheckShape verifies the paper's claims: per-rank checkpoint size and CR
// time decrease as ranks increase, and the checkpoint-free runtime dwarfs
// a single checkpoint (the feasibility argument for frequent checkpoints).
func (r *Fig11Result) CheckShape() error {
	byBench := map[string]map[int]Fig11Row{}
	for _, row := range r.Rows {
		if byBench[row.Code] == nil {
			byBench[row.Code] = map[int]Fig11Row{}
		}
		byBench[row.Code][row.Ranks] = row
	}
	for code, m := range byBench {
		r1, r2, r4 := m[1], m[2], m[4]
		if !(r1.PerRankBytes > r2.PerRankBytes && r2.PerRankBytes > r4.PerRankBytes) {
			return fmt.Errorf("fig11 %s: per-rank size not decreasing: %d %d %d",
				code, r1.PerRankBytes, r2.PerRankBytes, r4.PerRankBytes)
		}
		if !(r1.CheckpointTime > r4.CheckpointTime) {
			return fmt.Errorf("fig11 %s: checkpoint time not decreasing with ranks: %v -> %v",
				code, r1.CheckpointTime, r4.CheckpointTime)
		}
		for ranks, row := range m {
			if row.CheckpointTime <= 0 || row.RestartTime <= 0 {
				return fmt.Errorf("fig11 %s x%d: non-positive CR time", code, ranks)
			}
			if row.Runtime < 10*row.CheckpointTime {
				return fmt.Errorf("fig11 %s x%d: runtime %v too close to checkpoint cost %v for frequent checkpoints",
					code, ranks, row.Runtime, row.CheckpointTime)
			}
		}
	}
	return nil
}
