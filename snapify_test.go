package snapify_test

import (
	"encoding/binary"
	"testing"
	"time"

	"snapify"
	"snapify/internal/proc"
)

// demoBinary is a public-API example kernel: sums the first n integers
// with its progress in device memory.
func demoBinary(name string) *snapify.Binary {
	bin := snapify.NewBinary(name)
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
				ctx.Compute(time.Millisecond)
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

func runSum(t *testing.T, pl *snapify.Pipeline, n uint64) uint64 {
	t.Helper()
	args := make([]byte, 8)
	binary.BigEndian.PutUint64(args, n)
	out, err := pl.RunFunction("sum", args)
	if err != nil {
		t.Fatal(err)
	}
	return binary.BigEndian.Uint64(out)
}

func TestPublicAPIEndToEnd(t *testing.T) {
	snapify.RegisterBinary(demoBinary("pub_demo"))
	srv, err := snapify.NewServer(snapify.ServerOptions{Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	app, err := srv.Launch("pub_demo", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	pl, err := app.Proc.CreatePipeline()
	if err != nil {
		t.Fatal(err)
	}
	if got := runSum(t, pl, 100); got != 4950 {
		t.Fatalf("sum(100) = %d", got)
	}

	// Checkpoint + resume via the five primitives.
	s := snapify.NewSnapshot("/pub/snap1", app.Proc)
	if err := snapify.Pause(s); err != nil {
		t.Fatal(err)
	}
	if err := snapify.Capture(s, snapify.CaptureOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := snapify.Wait(s); err != nil {
		t.Fatal(err)
	}
	if err := snapify.Resume(s); err != nil {
		t.Fatal(err)
	}

	// Migrate to card 2, keep computing.
	if _, _, err := snapify.Migrate(app.Proc, snapify.MigrateOptions{DeviceTo: 2, Path: "/pub/mig"}); err != nil {
		t.Fatal(err)
	}
	if got := runSum(t, pl, 200); got != 19900 {
		t.Fatalf("sum(200) after migration = %d", got)
	}

	// Swap out and back.
	snap, err := snapify.Swapout("/pub/swap", app.Proc, snapify.CaptureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapify.Swapin(snap, 1, snapify.RestoreOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := runSum(t, pl, 300); got != 44850 {
		t.Fatalf("sum(300) after swap = %d", got)
	}
	if app.Timeline.Now() <= 0 {
		t.Error("timeline never advanced")
	}
}

func TestPublicAppCheckpointRestart(t *testing.T) {
	snapify.RegisterBinary(demoBinary("pub_cr"))
	srv, err := snapify.NewServer(snapify.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	app, err := srv.Launch("pub_cr", 1)
	if err != nil {
		t.Fatal(err)
	}
	pl, _ := app.Proc.CreatePipeline()
	runSum(t, pl, 50)

	cr := app.NewApp()
	rep, err := cr.Checkpoint("/pub/appcr")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() <= 0 {
		t.Error("empty checkpoint report")
	}
	want := runSum(t, pl, 120)
	app.Close()

	app2, host2, rrep, err := srv.RestartApp("/pub/appcr")
	if err != nil {
		t.Fatal(err)
	}
	defer host2.Terminate()
	if rrep.Total() <= 0 {
		t.Error("empty restart report")
	}
	if got := runSumOn(t, app2.Proc().Pipelines()[0], 120); got != want {
		t.Errorf("restarted sum = %d, want %d", got, want)
	}
}

func runSumOn(t *testing.T, pl *snapify.Pipeline, n uint64) uint64 {
	t.Helper()
	args := make([]byte, 8)
	binary.BigEndian.PutUint64(args, n)
	out, err := pl.RunFunction("sum", args)
	if err != nil {
		t.Fatal(err)
	}
	return binary.BigEndian.Uint64(out)
}
