package mpi_test

import (
	"fmt"
	"testing"

	"snapify/internal/mpi"
	"snapify/internal/phi"
	"snapify/internal/platform"
	"snapify/internal/workloads"
)

func newCluster(t *testing.T, nodes int) *mpi.Cluster {
	t.Helper()
	c, err := mpi.NewCluster(nodes, platform.Config{Server: phi.ServerConfig{Devices: 1, Device: phi.DeviceConfig{MemBytes: 8 * (1 << 30)}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// ranks returns w's n rank handles, collected through Run.
func ranks(t *testing.T, w *mpi.World, n int) []*mpi.Rank {
	t.Helper()
	rs := make([]*mpi.Rank, n)
	if err := w.Run(func(r *mpi.Rank) error { rs[r.ID] = r; return nil }); err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestSendRecvAcrossRanks(t *testing.T) {
	c := newCluster(t, 2)
	w, err := mpi.NewWorld(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rs := ranks(t, w, 2)
	err = w.Run(func(r *mpi.Rank) error {
		if r.ID == 0 {
			if err := r.Send(1, 7, []byte("halo exchange")); err != nil {
				return err
			}
			msg, err := r.Recv(1, 8)
			if err != nil {
				return err
			}
			if string(msg) != "reply" {
				return fmt.Errorf("rank 0 got %q", msg)
			}
			return nil
		}
		msg, err := r.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(msg) != "halo exchange" {
			return fmt.Errorf("rank 1 got %q", msg)
		}
		return r.Send(0, 8, []byte("reply"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].TL.Now() <= 0 {
		t.Error("no network time charged")
	}
}

func TestTagFiltering(t *testing.T) {
	c := newCluster(t, 2)
	w, _ := mpi.NewWorld(c, 2)
	defer w.Close()
	rs := ranks(t, w, 2)
	r0, r1 := rs[0], rs[1]
	r0.Send(1, 5, []byte("five"))  //nolint:errcheck
	r0.Send(1, 3, []byte("three")) //nolint:errcheck
	msg, err := r1.Recv(0, 3)
	if err != nil || string(msg) != "three" {
		t.Fatalf("tag recv: %q %v", msg, err)
	}
	msg, _ = r1.Recv(0, 5)
	if string(msg) != "five" {
		t.Fatalf("second recv: %q", msg)
	}
	if r1.PendingBytes() != 0 {
		t.Error("pending bytes after drain")
	}
}

func TestBarrierAlignsTimelines(t *testing.T) {
	c := newCluster(t, 3)
	w, _ := mpi.NewWorld(c, 3)
	defer w.Close()
	rs := ranks(t, w, 3)
	rs[2].TL.Advance(1e9) // rank 2 is one second ahead
	err := w.Run(func(r *mpi.Rank) error {
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if rs[i].TL.Now() < 1e9 {
			t.Errorf("rank %d timeline %v behind the barrier", i, rs[i].TL.Now())
		}
	}
}

func TestAllreduce(t *testing.T) {
	c := newCluster(t, 3)
	w, _ := mpi.NewWorld(c, 3)
	defer w.Close()
	sums := make([]uint64, 3)
	err := w.Run(func(r *mpi.Rank) error {
		sums[r.ID] = r.AllreduceSum(uint64(r.ID + 1))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sums {
		if s != 6 {
			t.Errorf("rank %d allreduce = %d, want 6", i, s)
		}
	}
}

func TestWorldSizeValidation(t *testing.T) {
	c := newCluster(t, 2)
	if _, err := mpi.NewWorld(c, 3); err == nil {
		t.Error("oversized world must fail")
	}
	if _, err := mpi.NewWorld(c, 0); err == nil {
		t.Error("empty world must fail")
	}
}

func TestCoordinatedCheckpointRestart(t *testing.T) {
	const ranks = 2
	c := newCluster(t, ranks)
	w, err := mpi.NewWorld(c, ranks)
	if err != nil {
		t.Fatal(err)
	}

	spec, _ := workloads.MZByCode("SP-MZ")
	spec.Iterations = 8

	instances := make([]*workloads.Instance, ranks)
	err = w.Run(func(r *mpi.Rank) error {
		in, err := workloads.LaunchMZRank(r, spec, ranks)
		if err != nil {
			return err
		}
		instances[r.ID] = in
		return workloads.RunMZIterations(r, in, 3)
	})
	if err != nil {
		t.Fatal(err)
	}

	rep, err := w.Checkpoint("/snap/mpi")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerRank) != ranks || rep.Total <= 0 {
		t.Fatalf("report: %+v", rep)
	}
	for i, b := range rep.PerRankBytes {
		if b <= 0 {
			t.Errorf("rank %d snapshot empty", i)
		}
	}

	// The job dies; restart it from the coordinated snapshot.
	w.Close()
	w2, rrep, err := c.Restart("/snap/mpi", ranks)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rrep.Total <= 0 {
		t.Error("restart total missing")
	}
	err = w2.Run(func(r *mpi.Rank) error {
		in, err := workloads.AttachMZRank(r, spec, ranks)
		if err != nil {
			return err
		}
		if got := in.Progress(); got != 3 {
			return fmt.Errorf("rank %d progress %d, want 3", r.ID, got)
		}
		return workloads.RunMZIterations(r, in, spec.Iterations-3)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRejectsUndrainedChannels(t *testing.T) {
	c := newCluster(t, 2)
	w, _ := mpi.NewWorld(c, 2)
	defer w.Close()
	rs := ranks(t, w, 2)
	rs[0].Send(1, 1, []byte("in flight")) //nolint:errcheck
	if _, err := w.Checkpoint("/snap/dirty"); err == nil {
		t.Fatal("checkpoint with undrained channels must fail")
	}
}
