package main

// metricDef is one entry of the metric catalogue. NOTES.md explains what
// each metric should move; BENCHMARK.json at the repository root lists the
// same names (TestCatalogueMatchesBenchmarkJSON keeps them in step).
type metricDef struct {
	name, unit string
	higher     bool // higher is better
}

// endToEnd are the metrics a user of the router or the daemon sees. Every
// workload reports all of them with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"peak_rss_mb", "MiB", false},
	{"wall_s", "s", false},
	{"latency_p50_s", "s", false},
	{"latency_p90_s", "s", false},
	{"jobs_per_s", "1/s", true},
	{"routed_pct", "%", true},
	{"overlay_units", "units", false},
}

// perLayer are the single-layer metrics of the traced run. Every workload
// reports all of them; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"bench.generate_s", "s", false},
	{"netlist.read_s", "s", false},
	{"astar.searches", "count", false},
	{"astar.expanded", "count", false},
	{"astar.pushes", "count", false},
	{"astar.heap_peak", "count", false},
	{"astar.ns_per_expand", "ns", false},
	{"router.route_s", "s", false},
	{"router.sweep_s", "s", false},
	{"router.final_repair_s", "s", false},
	{"router.route_attempts", "count", false},
	{"router.ripups", "count", false},
	{"router.blocker_rips", "count", false},
	{"router.repair_passes", "count", false},
	{"router.repair_rips", "count", false},
	{"router.attempts_per_net", "ratio", false},
	{"router.failed_nets", "count", false},
	{"router.lost_nets", "count", false},
	{"router.window_check_s", "s", false},
	{"window.checks", "count", false},
	{"window.fail_ratio", "ratio", false},
	{"decomp.decompose_s", "s", false},
	{"decomp.decompositions", "count", false},
	{"decomp.hit_ratio", "ratio", true},
	{"decomp.us_per_decomposition", "us", false},
	{"decomp.blobs_per_decomposition", "count", false},
	{"decomp.evaluate_s", "s", false},
	{"decomp.replay_ms", "ms", false},
	{"colorflip.color_flip_s", "s", false},
	{"colorflip.dp_runs", "count", false},
	{"colorflip.component_peak", "count", false},
	{"sparse.searches", "count", true},
	{"sparse.fallbacks", "count", false},
	{"sparse.fallback_ratio", "ratio", false},
	{"sparse.nodes", "count", false},
	{"sparse.nodes_per_search", "count", false},
	{"serve.submit_ms_p50", "ms", false},
	{"serve.queue_wait_ms_p50", "ms", false},
	{"serve.queue_wait_ms_p90", "ms", false},
	{"serve.run_ms_p50", "ms", false},
	{"serve.result_ms_p50", "ms", false},
	{"serve.rejected", "count", false},
	{"serve.generator_lag_ms_max", "ms", false},
	{"serve.heap_live_mb", "MiB", false},
	{"obs.trace_overhead_pct", "%", false},
	{"obs.trace_events", "count", false},
	{"runtime.alloc_mb", "MiB", false},
	{"runtime.gc_cycles", "count", false},
	{"drc.check_s", "s", false},
}
