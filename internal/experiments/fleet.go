package experiments

// The fleet benchmark drives the fleetd control plane's model backend
// at cluster scale: a seeded bursty trace of jobs arrives open-loop
// against a fleet of hosts, once per oversubscription ratio. The
// object of study is the utilization-vs-oversubscription curve — how
// much extra throughput swap-based memory oversubscription buys and
// what it costs in swap latency — plus the event core's O(log n) claim
// at scale, pinned as heap comparisons per event. (The controller's
// wall-clock placement rate is bench/'s fleet_oversub workload.)

import (
	"fmt"

	"snapify/internal/fleetd"
	"snapify/internal/obs"
	"snapify/internal/simclock"
	"snapify/internal/trace"
)

// Fleet trace timing scales: bursts 20-90ms, thinks 400-3200ms. The
// think phases dwarf the ~0.5s swap cycle of a 1/8th-card job, so
// evicting thinkers is profitable — the regime the oversubscription
// sweep is designed to expose.
const (
	fleetBurstScale = 10
	fleetThinkScale = 400
)

// fleetEvacAt / fleetEvacDeadline: each run drains its first host in
// the middle of the arrival storm, so every row also carries an
// evacuation wave under churn.
const (
	fleetEvacAt       = 500 * simclock.Duration(1e6)
	fleetEvacDeadline = 120000 * simclock.Duration(1e6)
)

// FleetParams sizes a FleetBench run. It is embedded in the result
// document (the ratios as one row each), so the regression gate replays
// the exact configuration.
type FleetParams struct {
	Hosts        int    `json:"hosts"`
	CardsPerHost int    `json:"cards_per_host"`
	CardMem      int64  `json:"card_mem_bytes"`
	Jobs         int    `json:"jobs"`
	Tenants      int    `json:"tenants"`
	QueueDepth   int    `json:"queue_depth"`
	Seed         uint64 `json:"seed"`
	Ratios       []int  `json:"-"`
}

// DefaultFleetParams is the full-scale configuration: 120 hosts and
// 2400 jobs — past the 100-host / 1000-job floor, with aggregate
// memory demand ~3.6x the fleet's commit capacity at 100%, so the
// baseline queues and the oversubscribed rows have headroom to win.
func DefaultFleetParams() FleetParams {
	return FleetParams{
		Hosts: 120, CardsPerHost: 1, CardMem: 256 * simclock.MiB,
		Jobs: 2400, Tenants: 8, QueueDepth: 512, Seed: 42,
		Ratios: []int{100, 150, 200},
	}
}

// SmokeFleetParams is the CI-scale configuration with the same demand
// shape (~3.6x commit capacity) at a tenth the size.
func SmokeFleetParams() FleetParams {
	return FleetParams{
		Hosts: 12, CardsPerHost: 1, CardMem: 256 * simclock.MiB,
		Jobs: 240, Tenants: 4, QueueDepth: 128, Seed: 42,
		Ratios: []int{100, 200},
	}
}

// FleetRow is one oversubscription ratio's run.
type FleetRow struct {
	OversubPct int `json:"oversub_pct"`

	Admitted   int64 `json:"admitted"`
	Rejected   int64 `json:"rejected"`
	Completed  int64 `json:"completed"`
	Placements int64 `json:"placements"`

	Preemptions   int64 `json:"preemptions"`
	PreemptAborts int64 `json:"preempt_aborts"`
	SwapOuts      int64 `json:"swap_outs"`
	SwapIns       int64 `json:"swap_ins"`

	EvacMoves       int64 `json:"evac_moves"`
	EvacWaves       int64 `json:"evac_waves"`
	EvacDeadlineMet bool  `json:"evac_deadline_met"`

	MakespanNs int64 `json:"makespan_ns"`
	// UtilizationPct is mean busy card fraction in basis points
	// (10000 = every card bursting for the whole run).
	UtilizationPct int64 `json:"utilization_pct_x100"`
	SwapP50Ns      int64 `json:"swap_p50_ns"`
	SwapP99Ns      int64 `json:"swap_p99_ns"`
	QueueWaitP99Ns int64 `json:"queue_wait_p99_ns"`

	// Events and HeapComparisons pin the event core's O(log n) shape:
	// comparisons per event must stay logarithmic in the heap size.
	Events          int64 `json:"events"`
	HeapComparisons int64 `json:"heap_comparisons"`
}

// FleetResult is the full BENCH_fleet.json document.
type FleetResult struct {
	Benchmark string `json:"benchmark"`
	FleetParams
	Rows []FleetRow `json:"rows"`

	tracer *obs.Tracer // the highest-ratio run's tracer, for TraceJSON
}

// TraceJSON exports the highest-oversubscription run's control-plane
// trace as Chrome trace-event JSON: one process per host with a lane
// per card (launch/swap/migrate/recover ops), plus a process of
// per-job lanes (bursts, thinks, swap waits).
func (r *FleetResult) TraceJSON() []byte {
	return r.tracer.ChromeTrace()
}

// FleetBench runs the seeded trace once per oversubscription ratio
// against a fresh model-backed fleet and collects the curve.
func FleetBench(p FleetParams) (*FleetResult, error) {
	if p.Hosts < 2 || p.CardsPerHost < 1 || p.Jobs < 1 || len(p.Ratios) < 2 {
		return nil, fmt.Errorf("fleet: need >= 2 hosts, >= 1 card, >= 1 job, >= 2 ratios; got %+v", p)
	}
	res := &FleetResult{Benchmark: "fleet", FleetParams: p}
	specs := fleetd.GenerateTrace(fleetd.TraceConfig{
		Seed: p.Seed, Jobs: p.Jobs, Tenants: p.Tenants, CardMem: p.CardMem,
		BurstScale: fleetBurstScale, ThinkScale: fleetThinkScale,
	})
	for i, pct := range p.Ratios {
		be := fleetd.NewModelBackend(fleetd.ModelOptions{
			Hosts: p.Hosts, CardsPerHost: p.CardsPerHost, CardMem: p.CardMem,
		})
		// Only the last (highest-churn) ratio records a trace: one ratio's
		// spans per document keeps host/card track names unambiguous.
		o := obs.New()
		last := i == len(p.Ratios)-1
		c := fleetd.New(fleetd.Options{OversubPct: pct, QueueDepth: p.QueueDepth, Trace: last}, be, o)
		if last {
			res.tracer = o.TracerOf()
		}
		if err := c.SubmitTrace(specs); err != nil {
			return nil, fmt.Errorf("fleet: ratio %d: %w", pct, err)
		}
		c.ScheduleEvacuation(fleetEvacAt, "h000", fleetEvacDeadline)
		if err := c.Run(); err != nil {
			return nil, fmt.Errorf("fleet: ratio %d: %w", pct, err)
		}
		st := c.Stats()
		lats := c.SwapLatencies()
		waits := c.QueueWaits()
		row := FleetRow{
			OversubPct: pct,
			Admitted:   st.Admitted, Rejected: st.Rejected,
			Completed: st.Completed, Placements: st.Placements,
			Preemptions: st.Preemptions, PreemptAborts: st.PreemptAborts,
			SwapOuts: st.SwapOuts, SwapIns: st.SwapIns,
			EvacMoves: st.EvacMoves, EvacWaves: st.EvacWaves,
			MakespanNs:      int64(st.Makespan),
			UtilizationPct:  c.UtilizationPct(),
			SwapP50Ns:       int64(fleetd.Percentile(lats, 50)),
			SwapP99Ns:       int64(fleetd.Percentile(lats, 99)),
			QueueWaitP99Ns:  int64(fleetd.Percentile(waits, 99)),
			Events:          st.Events,
			HeapComparisons: c.EventComparisons(),
		}
		for _, r := range c.Evacuations() {
			if r.Host == "h000" {
				row.EvacDeadlineMet = r.Done && r.DeadlineMet
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// replay re-runs the sweep a recorded document describes.
func (r *FleetResult) replay() (Result, error) {
	p := r.FleetParams
	p.Ratios = make([]int, len(r.Rows))
	for i, row := range r.Rows {
		p.Ratios[i] = row.OversubPct
	}
	return FleetBench(p)
}

// Render prints the curve in the tables' layout.
func (r *FleetResult) Render() string {
	t := trace.New(fmt.Sprintf("Fleet control plane: %d hosts x %d cards, %d jobs (seed %d), oversubscription sweep",
		r.Hosts, r.CardsPerHost, r.Jobs, r.Seed),
		"Oversub", "Adm/Rej", "Done", "Swaps out/in", "Preempt", "Evac", "Util %", "Swap p50/p99 (ms)", "Makespan (ms)")
	for _, row := range r.Rows {
		t.Row(fmt.Sprintf("%d%%", row.OversubPct),
			fmt.Sprintf("%d/%d", row.Admitted, row.Rejected),
			fmt.Sprintf("%d", row.Completed),
			fmt.Sprintf("%d/%d", row.SwapOuts, row.SwapIns),
			fmt.Sprintf("%d", row.Preemptions),
			fmt.Sprintf("%d", row.EvacMoves),
			fmt.Sprintf("%d.%02d", row.UtilizationPct/100, row.UtilizationPct%100),
			fmt.Sprintf("%d/%d", row.SwapP50Ns/1e6, row.SwapP99Ns/1e6),
			fmt.Sprintf("%d", row.MakespanNs/1e6))
	}
	return t.String()
}

// CheckShape verifies the acceptance claims: jobs are conserved at
// every ratio, everything admitted completes, the evacuation lands
// inside its deadline, oversubscription actually swaps and lifts
// utilization over the 100% baseline, and the event heap stays
// logarithmic.
func (r *FleetResult) CheckShape() error {
	if len(r.Rows) < 2 {
		return fmt.Errorf("fleet: %d rows, want >= 2 for a curve", len(r.Rows))
	}
	if r.Rows[0].OversubPct != 100 {
		return fmt.Errorf("fleet: first row is %d%%, want the 100%% baseline", r.Rows[0].OversubPct)
	}
	for _, row := range r.Rows {
		if row.Admitted+row.Rejected != int64(r.Jobs) {
			return fmt.Errorf("fleet: %d%%: admitted %d + rejected %d != %d jobs",
				row.OversubPct, row.Admitted, row.Rejected, r.Jobs)
		}
		if row.Completed != row.Admitted {
			return fmt.Errorf("fleet: %d%%: completed %d of %d admitted",
				row.OversubPct, row.Completed, row.Admitted)
		}
		if row.Placements < row.Admitted {
			return fmt.Errorf("fleet: %d%%: %d placements for %d admitted jobs",
				row.OversubPct, row.Placements, row.Admitted)
		}
		if row.UtilizationPct <= 0 || row.UtilizationPct > 10000 {
			return fmt.Errorf("fleet: %d%%: utilization %d out of (0, 10000]",
				row.OversubPct, row.UtilizationPct)
		}
		if !row.EvacDeadlineMet {
			return fmt.Errorf("fleet: %d%%: evacuation missed its deadline", row.OversubPct)
		}
		if row.Events > 64 && row.HeapComparisons > row.Events*3*logCeil(row.Events) {
			return fmt.Errorf("fleet: %d%%: %d heap comparisons for %d events — not O(log n)",
				row.OversubPct, row.HeapComparisons, row.Events)
		}
	}
	base, top := r.Rows[0], r.Rows[len(r.Rows)-1]
	if top.SwapOuts <= base.SwapOuts {
		return fmt.Errorf("fleet: %d%% swapped %d times vs %d at baseline — oversubscription inert",
			top.OversubPct, top.SwapOuts, base.SwapOuts)
	}
	if top.SwapP50Ns <= 0 || top.SwapP99Ns < top.SwapP50Ns {
		return fmt.Errorf("fleet: %d%%: swap p50 %d / p99 %d malformed",
			top.OversubPct, top.SwapP50Ns, top.SwapP99Ns)
	}
	if top.UtilizationPct <= base.UtilizationPct {
		return fmt.Errorf("fleet: utilization %d at %d%% vs %d at 100%% — oversubscription bought nothing",
			top.UtilizationPct, top.OversubPct, base.UtilizationPct)
	}
	return nil
}

// logCeil returns ceil(log2(n)) for n > 1.
func logCeil(n int64) int64 {
	var l int64 = 1
	for v := int64(2); v < n; v *= 2 {
		l++
	}
	return l
}
