package main

// metricDef declares one metric. BENCHMARK.json at the repository root
// mirrors these tables; bench_test.go holds the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that counts as a regression
}

// endToEnd are the metrics every workload reports on every untraced run.
// What each means on each workload is tabulated in README.md.
var endToEnd = []metricDef{
	{"sim_elapsed_s", "s", "lower", 0.02},
	{"sim_downtime_s", "s", "lower", 0.02},
	{"host_cpu_s", "s", "lower", 0.25},
	{"host_alloc_mib", "MiB", "lower", 0.05},
	{"host_peak_rss_mib", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics every traced run reports, grouped by the layer
// (internal package) they measure. A layer that is idle in a workload
// reports 0 there — that is the separation the workloads are built for.
var perLayer = []metricDef{
	// simnet
	{Name: "simnet.cost_host_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "simnet.pcie_mib", Unit: "MiB", Better: "lower"},
	{Name: "simnet.peer_mib", Unit: "MiB", Better: "lower"},
	// scif
	{Name: "scif.msg_host_ns", Unit: "ns", Better: "lower"},
	{Name: "scif.msg_sim_ns", Unit: "ns", Better: "lower"},
	{Name: "scif.rdma_host_ns_per_mib", Unit: "ns/MiB", Better: "lower"},
	{Name: "scif.rdma_sim_ns_per_mib", Unit: "ns/MiB", Better: "lower"},
	// blob
	{Name: "blob.materialize_host_ns_per_mib", Unit: "ns/MiB", Better: "lower"},
	{Name: "blob.buffer_snapshot_host_ns", Unit: "ns", Better: "lower"},
	{Name: "blob.chunk_walk_host_ns_per_chunk", Unit: "ns", Better: "lower"},
	// snapifyio
	{Name: "snapifyio.write_host_ns_per_mib", Unit: "ns/MiB", Better: "lower"},
	{Name: "snapifyio.write_sim_ns_per_mib", Unit: "ns/MiB", Better: "lower"},
	{Name: "snapifyio.read_host_ns_per_mib", Unit: "ns/MiB", Better: "lower"},
	{Name: "snapifyio.read_sim_ns_per_mib", Unit: "ns/MiB", Better: "lower"},
	{Name: "snapifyio.striped_write_sim_ns_per_mib", Unit: "ns/MiB", Better: "lower"},
	{Name: "snapifyio.allocs_per_mib", Unit: "count", Better: "lower"},
	{Name: "snapifyio.retries", Unit: "count", Better: "lower"},
	// blcr
	{Name: "blcr.ckpt_host_ns_per_mib", Unit: "ns/MiB", Better: "lower"},
	{Name: "blcr.ckpt_sim_ns_per_mib", Unit: "ns/MiB", Better: "lower"},
	{Name: "blcr.restart_host_ns_per_mib", Unit: "ns/MiB", Better: "lower"},
	{Name: "blcr.restart_sim_ns_per_mib", Unit: "ns/MiB", Better: "lower"},
	{Name: "blcr.layout_digest_host_ns_per_mib", Unit: "ns/MiB", Better: "lower"},
	{Name: "blcr.stream_skew_frac", Unit: "ratio", Better: "lower"},
	// snapstore
	{Name: "snapstore.digest_cached_host_ns_per_mib", Unit: "ns/MiB", Better: "lower"},
	{Name: "snapstore.digest_uncached_host_ns_per_mib", Unit: "ns/MiB", Better: "lower"},
	{Name: "snapstore.negotiate_host_ns_per_chunk", Unit: "ns", Better: "lower"},
	{Name: "snapstore.negotiate_sim_ns_per_chunk", Unit: "ns", Better: "lower"},
	{Name: "snapstore.put_chunk_host_ns_per_mib", Unit: "ns/MiB", Better: "lower"},
	{Name: "snapstore.read_chunk_host_ns_per_mib", Unit: "ns/MiB", Better: "lower"},
	{Name: "snapstore.gc_host_ns_per_chunk", Unit: "ns", Better: "lower"},
	{Name: "snapstore.verify_host_ns_per_mib", Unit: "ns/MiB", Better: "lower"},
	{Name: "snapstore.chunks_needed_frac", Unit: "ratio", Better: "lower"},
	{Name: "snapstore.dedup_ratio", Unit: "ratio", Better: "higher"},
	{Name: "snapstore.chunks_after_gc", Unit: "count", Better: "lower"},
	// coi
	{Name: "coi.run_function_host_ns", Unit: "ns", Better: "lower"},
	{Name: "coi.run_function_sim_ns", Unit: "ns", Better: "lower"},
	{Name: "coi.hook_sim_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "coi.buffer_write_host_ns_per_mib", Unit: "ns/MiB", Better: "lower"},
	{Name: "coi.drained_msgs_per_pause", Unit: "count", Better: "lower"},
	{Name: "coi.hook_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "coi.offload_calls", Unit: "count", Better: "higher"},
	{Name: "coi.run_app_host_ns", Unit: "ns", Better: "lower"},
	// core
	{Name: "core.pause_host_ns", Unit: "ns", Better: "lower"},
	{Name: "core.capture_host_ns", Unit: "ns", Better: "lower"},
	{Name: "core.resume_host_ns", Unit: "ns", Better: "lower"},
	{Name: "core.restore_host_ns", Unit: "ns", Better: "lower"},
	{Name: "core.pause_sim_ns", Unit: "ns", Better: "lower"},
	{Name: "core.capture_sim_ns", Unit: "ns", Better: "lower"},
	{Name: "core.resume_sim_ns", Unit: "ns", Better: "lower"},
	{Name: "core.restore_sim_ns", Unit: "ns", Better: "lower"},
	{Name: "core.plain_capture_sim_ns", Unit: "ns", Better: "lower"},
	{Name: "core.stw_downtime_sim_ns", Unit: "ns", Better: "lower"},
	{Name: "core.shipped_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.precopy_rounds", Unit: "count", Better: "lower"},
	{Name: "core.precopy_round_host_ns", Unit: "ns", Better: "lower"},
	{Name: "core.precopy_shipped_mib", Unit: "MiB", Better: "lower"},
	{Name: "core.precopy_final_dirty_mib", Unit: "MiB", Better: "lower"},
	{Name: "core.finish_host_ns", Unit: "ns", Better: "lower"},
	// fleetd
	{Name: "fleetd.events", Unit: "count", Better: "lower"},
	{Name: "fleetd.placements", Unit: "count", Better: "lower"},
	{Name: "fleetd.host_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "fleetd.host_ns_per_placement", Unit: "ns", Better: "lower"},
	{Name: "fleetd.heap_cmps_per_event", Unit: "count", Better: "lower"},
	{Name: "fleetd.scaling_exp", Unit: "ratio", Better: "lower"},
	{Name: "fleetd.host_ns_per_event_pct100", Unit: "ns", Better: "lower"},
	{Name: "fleetd.preemptions", Unit: "count", Better: "lower"},
	{Name: "fleetd.preempt_abort_frac", Unit: "ratio", Better: "lower"},
	{Name: "fleetd.swap_outs", Unit: "count", Better: "lower"},
	{Name: "fleetd.swap_p50_sim_ms", Unit: "ms", Better: "lower"},
	{Name: "fleetd.swap_p99_sim_ms", Unit: "ms", Better: "lower"},
	{Name: "fleetd.rejected_frac", Unit: "ratio", Better: "lower"},
	{Name: "fleetd.evac_moves", Unit: "count", Better: "lower"},
	{Name: "fleetd.util_pct", Unit: "%", Better: "higher"},
	{Name: "fleetd.queue_wait_p50_sim_s", Unit: "s", Better: "lower"},
	// obs
	{Name: "obs.spans_per_op", Unit: "count", Better: "lower"},
	{Name: "obs.emit_host_ns_per_span", Unit: "ns", Better: "lower"},
	{Name: "obs.export_host_ns_per_span", Unit: "ns", Better: "lower"},
	// crit: critical-path blame folded by layer; sums to crit.window_sim_ns
	{Name: "crit.coi_sim_ns", Unit: "ns", Better: "lower"},
	{Name: "crit.blcr_sim_ns", Unit: "ns", Better: "lower"},
	{Name: "crit.snapstore_sim_ns", Unit: "ns", Better: "lower"},
	{Name: "crit.core_sim_ns", Unit: "ns", Better: "lower"},
	{Name: "crit.idle_sim_ns", Unit: "ns", Better: "lower"},
	{Name: "crit.other_sim_ns", Unit: "ns", Better: "lower"},
	{Name: "crit.window_sim_ns", Unit: "ns", Better: "lower"},
	// host / bench: ungated diagnostics of the traced repetitions
	{Name: "host.wall_s", Unit: "s", Better: "lower"},
	{Name: "host.sys_s", Unit: "s", Better: "lower"},
	{Name: "host.user_s", Unit: "s", Better: "lower"},
	{Name: "host.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "host.mallocs", Unit: "count", Better: "lower"},
	{Name: "bench.sim_jitter_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.once_setup_s", Unit: "s", Better: "lower"},
	{Name: "bench.rep_setup_s", Unit: "s", Better: "lower"},
	{Name: "bench.cpu_slowdown", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.self_bench_host_ns", Unit: "ns", Better: "lower"},
	{Name: "bench.self_core_host_ns", Unit: "ns", Better: "lower"},
	{Name: "bench.self_coi_host_ns", Unit: "ns", Better: "lower"},
	{Name: "bench.self_fleetd_host_ns", Unit: "ns", Better: "lower"},
}
