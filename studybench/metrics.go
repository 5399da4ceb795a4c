package main

// metricDef names one printed metric. BENCHMARK.json at the repository
// root lists the same metrics; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics come from untraced repetitions (-trace 0).
var endToEndMetrics = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"runs_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
	{"campaign_p50_ms", "ms", "lower"},
	{"campaign_tail_ms", "ms", "lower"},
}

// perLayerMetrics come from traced repetitions (-trace 1). A metric a
// workload does not exercise reads 0 there (restore on the re-execution
// path, the service layer on the study workloads). layers.json maps each
// to the end-to-end metric it should move and on which workload.
var perLayerMetrics = []metricDef{
	{"apps.build_ms", "ms", "lower"},
	{"transform.instrument_ms", "ms", "lower"},
	{"core.golden_ms", "ms", "lower"},
	{"core.snapshot_setup_ms", "ms", "lower"},
	{"vm.ns_per_cycle", "ns", "lower"},
	{"vm.exp_vs_plain_x", "x", "lower"},
	{"fpm.table_op_ns", "ns", "lower"},
	{"fpm.piggyback_msg_ns", "ns", "lower"},
	{"mpi.allreduce_us", "us", "lower"},
	{"mpi.sendrecv_us", "us", "lower"},
	{"mpi.timeout_stalls", "count", "lower"},
	{"mpi.stall_s", "s", "lower"},
	{"harness.restore_us_p50", "us", "lower"},
	{"harness.restore_us_p99", "us", "lower"},
	{"harness.restore_kb_mean", "KiB", "lower"},
	{"harness.restore_dirty_frac", "ratio", "lower"},
	{"harness.forked_frac", "ratio", "higher"},
	{"harness.inject_us_p50", "us", "lower"},
	{"harness.classify_us_p50", "us", "lower"},
	{"harness.unattributed_us_p50", "us", "lower"},
	{"go.alloc_kb_per_run", "KiB", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"harness.execute_ms_p50", "ms", "lower"},
	{"harness.execute_ms_p99", "ms", "lower"},
	{"harness.utilization", "ratio", "higher"},
	{"harness.drain_s", "s", "lower"},
	{"harness.merge_ms", "ms", "lower"},
	{"harness.journal_load_ms", "ms", "lower"},
	{"archive.put_ms", "ms", "lower"},
	{"archive.get_ms", "ms", "lower"},
	{"service.submit_ms", "ms", "lower"},
	{"service.queue_wait_ms", "ms", "lower"},
	{"service.coord_overhead_ms", "ms", "lower"},
	{"service.miss_p50_ms", "ms", "lower"},
	{"service.miss_tail_ms", "ms", "lower"},
	{"service.hit_p50_ms", "ms", "lower"},
	{"service.hit_tail_ms", "ms", "lower"},
	{"service.shard2_p50_ms", "ms", "lower"},
	{"service.shard2_tail_ms", "ms", "lower"},
	// Exact counts: correctness canaries that a change to how the study
	// runs must leave equal at a given seed.
	{"harness.experiments", "count", "higher"},
	{"harness.outcome_V", "count", "lower"},
	{"harness.outcome_ONA", "count", "lower"},
	{"harness.outcome_WO", "count", "lower"},
	{"harness.outcome_PEX", "count", "lower"},
	{"harness.outcome_C", "count", "lower"},
	{"harness.app_cycles", "count", "lower"},
	{"service.cache_hits", "count", "higher"},
	{"service.cache_misses", "count", "lower"},
	{"obs.trace_overhead_frac", "ratio", "lower"},
	{"failed_frac", "ratio", "lower"},
}
