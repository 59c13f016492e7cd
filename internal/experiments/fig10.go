package experiments

import (
	"fmt"

	"snapify/internal/core"
	"snapify/internal/simclock"
	"snapify/internal/trace"
	"snapify/internal/workloads"
)

// Fig10Row is one benchmark's full snapshot-lifecycle measurements.
type Fig10Row struct {
	Code string

	// (a) checkpoint time breakdown.
	Pause       simclock.Duration
	HostCapture simclock.Duration
	DevCapture  simclock.Duration
	CkptTotal   simclock.Duration

	// (b) checkpoint sizes.
	HostBytes, DevBytes, LocalStoreBytes int64

	// (c) restart time breakdown.
	HostRestore  simclock.Duration
	LocalCopy    simclock.Duration
	DevRestore   simclock.Duration
	RestartTotal simclock.Duration

	// (d) migration.
	MigPause, MigCapture, MigRestore simclock.Duration
	MigTotal                         simclock.Duration

	// (e) swap-out, (f) swap-in.
	SwapOutPause, SwapOutCapture simclock.Duration
	SwapOutTotal                 simclock.Duration
	SwapInRestore, SwapInResume  simclock.Duration
	SwapInTotal                  simclock.Duration
}

// Fig10Result holds all six sub-figures.
type Fig10Result struct {
	Rows []Fig10Row
}

// Fig10 runs the full snapshot lifecycle for every OpenMP benchmark:
// checkpoint (a, b), restart (c), migration (d), swap-out (e), and
// swap-in (f).
func Fig10() (*Fig10Result, error) {
	res := &Fig10Result{}
	for _, spec := range workloads.OpenMP {
		row, err := fig10One(spec)
		if err != nil {
			return nil, fmt.Errorf("fig10 %s: %w", spec.Code, err)
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

func fig10One(spec workloads.Spec) (*Fig10Row, error) {
	// A short prefix of the run; footprints, not progress, drive snapshot
	// cost.
	short := spec
	short.Calls = 4
	r, err := newRig(paperServer(), short, 2)
	if err != nil {
		return nil, err
	}
	defer r.stop()
	plat, in := r.plat, r.in

	row := &Fig10Row{Code: spec.Code}
	dir := "/fig10/" + spec.Code

	// (a)+(b): full-application checkpoint.
	app := core.NewApp(plat, in.CP)
	cr, err := app.Checkpoint(dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	row.Pause = cr.Offload.PauseTotal()
	row.HostCapture = cr.HostCapture
	row.DevCapture = cr.Offload.Capture
	row.CkptTotal = cr.Total()
	row.HostBytes = cr.HostSnapshotBytes
	row.DevBytes = cr.Offload.SnapshotBytes
	row.LocalStoreBytes = cr.Offload.LocalStoreBytes

	// (c): the application dies and restarts from the snapshot.
	in.Close()
	app2, host2, rr, err := core.RestartApp(plat, dir)
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	row.HostRestore = rr.HostRestore
	row.LocalCopy = rr.Offload.RestoreLocal
	row.DevRestore = rr.Offload.RestoreDevice + rr.Offload.RestoreReconnect
	row.RestartTotal = rr.Total()

	// (d): migrate the restarted process to the other card; the local
	// store streams device-to-device.
	cp := app2.Proc()
	_, msnap, err := core.Migrate(cp, core.MigrateOptions{DeviceTo: 2, Path: dir + "/mig"})
	if err != nil {
		return nil, fmt.Errorf("migrate: %w", err)
	}
	row.MigPause = msnap.Report.PauseTotal()
	row.MigCapture = msnap.Report.Capture
	row.MigRestore = msnap.Report.RestoreTotal()
	row.MigTotal = row.MigPause + row.MigCapture + row.MigRestore + msnap.Report.Resume

	// (e)+(f): swap out and back in.
	ssnap, err := core.Swapout(dir+"/swap", cp, core.CaptureOptions{})
	if err != nil {
		return nil, fmt.Errorf("swapout: %w", err)
	}
	row.SwapOutPause = ssnap.Report.PauseTotal()
	row.SwapOutCapture = ssnap.Report.Capture
	row.SwapOutTotal = row.SwapOutPause + row.SwapOutCapture

	if _, err := core.Swapin(ssnap, 2, core.RestoreOptions{}); err != nil {
		return nil, fmt.Errorf("swapin: %w", err)
	}
	row.SwapInRestore = ssnap.Report.RestoreTotal()
	row.SwapInResume = ssnap.Report.Resume
	row.SwapInTotal = row.SwapInRestore + row.SwapInResume

	host2.Terminate()
	return row, nil
}

// Render prints all six sub-figures.
func (r *Fig10Result) Render() string {
	a := trace.New("Fig 10(a): Checkpoint time breakdown",
		"Benchmark", "Pause", "Snapshot+Write (host)", "Snapshot+Write (device)", "Total")
	aChart := trace.NewBarChart("", "s", "pause", "host capture", "device capture")
	b := trace.New("Fig 10(b): Checkpoint file sizes",
		"Benchmark", "Host snapshot", "Device snapshot", "Local store", "Total")
	c := trace.New("Fig 10(c): Restart time breakdown",
		"Benchmark", "Host restart", "Local-store copy", "Device restore", "Total")
	d := trace.New("Fig 10(d): Process migration time",
		"Benchmark", "Pause (incl. direct local-store copy)", "Capture", "Restore", "Total")
	e := trace.New("Fig 10(e): Swap-out time",
		"Benchmark", "Pause", "Capture", "Total")
	f := trace.New("Fig 10(f): Swap-in time",
		"Benchmark", "Restore", "Resume", "Total")
	for _, row := range r.Rows {
		a.Row(row.Code, trace.Seconds(row.Pause), trace.Seconds(row.HostCapture),
			trace.Seconds(row.DevCapture), trace.Seconds(row.CkptTotal))
		aChart.Bar(row.Code, []float64{
			row.Pause.Seconds(), row.HostCapture.Seconds(), row.DevCapture.Seconds(),
		}, "")
		b.Row(row.Code, trace.Bytes(row.HostBytes), trace.Bytes(row.DevBytes),
			trace.Bytes(row.LocalStoreBytes), trace.Bytes(row.HostBytes+row.DevBytes+row.LocalStoreBytes))
		c.Row(row.Code, trace.Seconds(row.HostRestore), trace.Seconds(row.LocalCopy),
			trace.Seconds(row.DevRestore), trace.Seconds(row.RestartTotal))
		d.Row(row.Code, trace.Seconds(row.MigPause), trace.Seconds(row.MigCapture),
			trace.Seconds(row.MigRestore), trace.Seconds(row.MigTotal))
		e.Row(row.Code, trace.Seconds(row.SwapOutPause), trace.Seconds(row.SwapOutCapture),
			trace.Seconds(row.SwapOutTotal))
		f.Row(row.Code, trace.Seconds(row.SwapInRestore), trace.Millis(row.SwapInResume),
			trace.Seconds(row.SwapInTotal))
	}
	return a.String() + aChart.String() + "\n" + b.String() + "\n" + c.String() + "\n" +
		d.String() + "\n" + e.String() + "\n" + f.String()
}

// CheckShape verifies the paper's qualitative structure: SS and SG have
// the largest local stores, hence the longest pauses and migrations; MC is
// the lightest and fastest to migrate; checkpoint sizes span the paper's
// range; migration cost correlates with local store plus snapshot size.
func (r *Fig10Result) CheckShape() error {
	byCode := map[string]Fig10Row{}
	for _, row := range r.Rows {
		byCode[row.Code] = row
	}
	ss, sg, mc := byCode["SS"], byCode["SG"], byCode["MC"]

	for code, row := range byCode {
		if code == "SS" || code == "SG" {
			continue
		}
		if row.Pause >= ss.Pause || row.Pause >= sg.Pause {
			return fmt.Errorf("fig10 %s pause (%v) should be below SS (%v) and SG (%v): their local stores dominate",
				code, row.Pause, ss.Pause, sg.Pause)
		}
		if row.HostBytes >= ss.HostBytes {
			return fmt.Errorf("fig10 %s host snapshot (%d) should be below SS's (%d)", code, row.HostBytes, ss.HostBytes)
		}
	}
	for code, row := range byCode {
		if code == "MC" {
			continue
		}
		if row.MigTotal <= mc.MigTotal {
			return fmt.Errorf("fig10: MC should migrate fastest, but %s (%v) beats it (%v)", code, row.MigTotal, mc.MigTotal)
		}
	}
	// SS and SG: local store larger than the device snapshot (the paper's
	// explanation for their long pauses and short captures).
	for _, row := range []Fig10Row{ss, sg} {
		if row.LocalStoreBytes <= row.DevBytes {
			return fmt.Errorf("fig10 %s: local store (%d) should exceed device snapshot (%d)", row.Code, row.LocalStoreBytes, row.DevBytes)
		}
	}
	// Totals positive and ordered sanely everywhere.
	for code, row := range byCode {
		if row.CkptTotal <= 0 || row.RestartTotal <= 0 || row.MigTotal <= 0 ||
			row.SwapOutTotal <= 0 || row.SwapInTotal <= 0 {
			return fmt.Errorf("fig10 %s: non-positive totals", code)
		}
		if row.SwapOutTotal >= row.MigTotal {
			return fmt.Errorf("fig10 %s: swap-out (%v) should cost less than full migration (%v)", code, row.SwapOutTotal, row.MigTotal)
		}
	}
	return nil
}
