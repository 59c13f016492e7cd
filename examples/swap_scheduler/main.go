// Swap scheduler: a COSMIC-style multi-tenant scheduler (the paper's
// Section 1 motivation for process swapping) runs three jobs whose
// combined footprint exceeds the card's physical memory. The fleetd
// controller, managing one host with one card through the platform
// backend, swaps a job out through Snapify while it computes on the
// host and back in for its next offload burst, so all three share the
// card — something the Phi OS's own page swapping cannot do, because
// COI buffers are pinned.
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"snapify/internal/coi"
	"snapify/internal/fleetd"
	"snapify/internal/obs"
	"snapify/internal/phi"
	"snapify/internal/platform"
	"snapify/internal/simclock"
	"snapify/internal/snapstore"
	"snapify/internal/workloads"
)

// jobs is how many tenants share the card.
const jobs = 3

// result is what a run leaves to check: each job's final checksum, the
// uninterrupted reference they must all equal, and the swap-outs it
// took to share the card.
type result struct {
	checksums []uint64
	want      uint64
	swapOuts  int64
}

func main() {
	res, err := run(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swap_scheduler:", err)
		os.Exit(1)
	}
	for i, sum := range res.checksums {
		if sum != res.want {
			fmt.Fprintf(os.Stderr, "swap_scheduler: job %d checksum %#x, want %#x\n", i+1, sum, res.want)
			os.Exit(1)
		}
	}
}

func jobSpec() workloads.Spec {
	return workloads.Spec{
		Code: "JOB", Name: "swap-scheduler tenant",
		HostMem:        16 * simclock.MiB,
		DeviceMem:      300 * simclock.MiB,
		LocalStore:     300 * simclock.MiB,
		Calls:          8,
		StepsPerCall:   4,
		ComputePerCall: 50 * time.Millisecond,
		InPerCall:      64 * simclock.KiB,
		OutPerCall:     64 * simclock.KiB,
	}
}

func run(w io.Writer) (*result, error) {
	// A deliberately small card: 2 GiB, of which the Phi OS holds 512 MiB.
	cfg := platform.Config{Server: phi.ServerConfig{
		Devices: 1,
		Device:  phi.DeviceConfig{MemBytes: 2 * simclock.GiB},
	}}
	plat, err := coi.Boot(cfg)
	if err != nil {
		return nil, err
	}
	defer coi.Shutdown(plat)

	spec := jobSpec()
	// Device heap and local store plus the offload runtime.
	footprint := spec.DeviceMem + spec.LocalStore + 64*simclock.MiB
	free := plat.Device(1).Mem.Free()
	be := fleetd.NewPlatformBackend(snapstore.NewFederation(obs.New(), snapstore.DefaultLink(), nil), 1, free)
	if err := be.AddHost("host", plat); err != nil {
		return nil, err
	}
	be.Capture.Store.Enabled = true
	be.Restore.Store.Enabled = true
	c := fleetd.New(fleetd.Options{OversubPct: 300}, be, obs.New())

	fmt.Fprintf(w, "card memory: %dMiB free; each job needs %dMiB resident\n\n", free/simclock.MiB, footprint/simclock.MiB)
	var specs []fleetd.JobSpec
	for id := 1; id <= jobs; id++ {
		s := spec
		specs = append(specs, fleetd.JobSpec{
			ID: id, Tenant: fmt.Sprintf("tenant-%c", 'a'+id-1),
			Arrival:   simclock.Duration(id) * time.Millisecond,
			Footprint: footprint, Bursts: 4,
			BurstLen: 200 * time.Millisecond, ThinkLen: 300 * time.Millisecond,
			Workload: &s,
		})
	}
	if err := c.SubmitTrace(specs); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "running %d jobs of 4 offload bursts each, 2 calls per burst ...\n", jobs)
	if err := c.Run(); err != nil {
		return nil, err
	}

	want, err := reference(cfg, spec)
	if err != nil {
		return nil, err
	}
	st := c.Stats()
	res := &result{want: want, swapOuts: st.SwapOuts}
	fmt.Fprintf(w, "\nall jobs finished in %.1fs virtual; %d swap-outs and %d swap-ins shared one card between %d tenants\n",
		st.Makespan.Seconds(), st.SwapOuts, st.SwapIns, jobs)
	for id := 1; id <= jobs; id++ {
		j, sum := c.JobByID(id), be.Instance(id).Checksum()
		res.checksums = append(res.checksums, sum)
		fmt.Fprintf(w, "  job %d (%s): %v, checksum %#x matches the uninterrupted reference: %v\n",
			id, j.Spec.Tenant, j.State, sum, sum == want)
	}
	return res, nil
}

// reference runs spec uninterrupted on a fresh server and returns its
// checksum.
func reference(cfg platform.Config, spec workloads.Spec) (uint64, error) {
	plat, err := coi.Boot(cfg)
	if err != nil {
		return 0, err
	}
	defer coi.Shutdown(plat)
	in, err := workloads.Launch(plat, spec, 1)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	return in.Run()
}
