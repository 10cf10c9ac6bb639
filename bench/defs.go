package main

// metricDef declares one metric of the benchmark. BENCHMARK.json at the
// repository root repeats name, unit, better and bound; a test keeps the two
// in step. README.md carries the definitions in words.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound (end-to-end only) is the share of the parent's median the
	// metric may worsen by before a change counts as a regression.
	Bound float64
	// Layer (per-layer only) is the module measured. README.md says which
	// end-to-end metric each layer metric is expected to move, and where.
	Layer string
}

// endToEnd is what a user of the daemon sees. Failed operations are not a
// metric here: they are the run's `failed` count, and any makes the run
// incorrect.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "lat_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "slo_ok_share", Unit: "ratio", Better: "higher", Bound: 0.05},
	{Name: "sat_ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
	{Name: "admitted_share", Unit: "ratio", Better: "higher", Bound: 0.08},
	{Name: "replay_flows_per_s", Unit: "flows/s", Better: "higher", Bound: 0.25},
}

var perLayer = []metricDef{
	{Name: "ncadmitd.admit_rtt_us_p50", Unit: "us", Better: "lower", Layer: "ncadmitd"},
	{Name: "ncadmitd.release_rtt_us_p50", Unit: "us", Better: "lower", Layer: "ncadmitd"},
	{Name: "ncadmitd.recheck_rtt_us_p50", Unit: "us", Better: "lower", Layer: "ncadmitd"},
	{Name: "ncadmitd.reject_rtt_us_p50", Unit: "us", Better: "lower", Layer: "ncadmitd"},
	{Name: "ncadmitd.noop_rtt_us_p50", Unit: "us", Better: "lower", Layer: "ncadmitd"},
	{Name: "ncadmitd.batch_rtt_us_per_flow", Unit: "us", Better: "lower", Layer: "ncadmitd"},
	{Name: "ncadmitd.admit_self_us", Unit: "us", Better: "lower", Layer: "ncadmitd"},
	{Name: "ncadmitd.release_self_us", Unit: "us", Better: "lower", Layer: "ncadmitd"},
	{Name: "ncadmitd.recheck_self_us", Unit: "us", Better: "lower", Layer: "ncadmitd"},
	{Name: "ncadmitd.batch_self_us_per_flow", Unit: "us", Better: "lower", Layer: "ncadmitd"},
	{Name: "ncadmitd.req_bytes_per_op", Unit: "B", Better: "lower", Layer: "ncadmitd"},
	{Name: "ncadmitd.resp_bytes_per_op", Unit: "B", Better: "lower", Layer: "ncadmitd"},
	{Name: "ncadmitd.healthz_rtt_us", Unit: "us", Better: "lower", Layer: "ncadmitd"},
	{Name: "ncadmitd.metrics_scrape_ms", Unit: "ms", Better: "lower", Layer: "ncadmitd"},

	{Name: "spec.parse_flow_ns", Unit: "ns", Better: "lower", Layer: "spec"},
	{Name: "spec.parse_batch_ns_per_flow", Unit: "ns", Better: "lower", Layer: "spec"},
	{Name: "spec.allocs_per_flow", Unit: "count", Better: "lower", Layer: "spec"},
	{Name: "spec.parse_platform_us", Unit: "us", Better: "lower", Layer: "spec"},

	{Name: "admit.admit_us_p50", Unit: "us", Better: "lower", Layer: "admit"},
	{Name: "admit.admit_us_tail", Unit: "us", Better: "lower", Layer: "admit"},
	{Name: "admit.release_us_p50", Unit: "us", Better: "lower", Layer: "admit"},
	{Name: "admit.recheck_us_p50", Unit: "us", Better: "lower", Layer: "admit"},
	{Name: "admit.reject_cached_ns_p50", Unit: "ns", Better: "lower", Layer: "admit"},
	{Name: "admit.batch_ns_per_flow", Unit: "ns", Better: "lower", Layer: "admit"},
	{Name: "admit.allocs_per_admit", Unit: "count", Better: "lower", Layer: "admit"},
	{Name: "admit.bytes_per_flow", Unit: "B", Better: "lower", Layer: "admit"},
	{Name: "admit.verdict_cache_hit_share", Unit: "ratio", Better: "higher", Layer: "admit"},
	{Name: "admit.analysis_memo_hit_share", Unit: "ratio", Better: "higher", Layer: "admit"},
	{Name: "admit.curve_memo_hit_share", Unit: "ratio", Better: "higher", Layer: "admit"},
	{Name: "admit.commit_conflicts", Unit: "count", Better: "lower", Layer: "admit"},
	{Name: "admit.classes", Unit: "count", Better: "lower", Layer: "admit"},
	{Name: "admit.flows", Unit: "count", Better: "higher", Layer: "admit"},
	{Name: "admit.phase.precheck_us_p50", Unit: "us", Better: "lower", Layer: "admit"},
	{Name: "admit.phase.queue_wait_us_p50", Unit: "us", Better: "lower", Layer: "admit"},
	{Name: "admit.phase.analysis_us_p50", Unit: "us", Better: "lower", Layer: "admit"},
	{Name: "admit.phase.victim_sweep_us_p50", Unit: "us", Better: "lower", Layer: "admit"},
	{Name: "admit.phase.validate_commit_us_p50", Unit: "us", Better: "lower", Layer: "admit"},
	{Name: "admit.phase.handoff_us_p50", Unit: "us", Better: "lower", Layer: "admit"},
	{Name: "admit.victims_checked_mean", Unit: "count", Better: "lower", Layer: "admit"},
	{Name: "admit.group_size_mean", Unit: "count", Better: "higher", Layer: "admit"},
	{Name: "admit.retries_per_kop", Unit: "1/kop", Better: "lower", Layer: "admit"},
	{Name: "admit.fallbacks_per_kop", Unit: "1/kop", Better: "lower", Layer: "admit"},
	{Name: "admit.rung_pruned_share", Unit: "ratio", Better: "higher", Layer: "admit"},

	{Name: "core.analyze_us_p50.blind", Unit: "us", Better: "lower", Layer: "core"},
	{Name: "core.analyze_us_p50.fifo", Unit: "us", Better: "lower", Layer: "core"},
	{Name: "core.analyze_us_p50.tight", Unit: "us", Better: "lower", Layer: "core"},
	{Name: "core.memo_hit_ns", Unit: "ns", Better: "lower", Layer: "core"},
	{Name: "core.tight_combos_mean", Unit: "count", Better: "lower", Layer: "core"},
	{Name: "core.tight_pruned_share", Unit: "ratio", Better: "higher", Layer: "core"},
	{Name: "core.allocs_per_analyze", Unit: "count", Better: "lower", Layer: "core"},
	{Name: "core.paper_analyze_us", Unit: "us", Better: "lower", Layer: "core"},

	{Name: "curve.convolve_ns", Unit: "ns", Better: "lower", Layer: "curve"},
	{Name: "curve.deconvolve_ns", Unit: "ns", Better: "lower", Layer: "curve"},
	{Name: "curve.min_ns", Unit: "ns", Better: "lower", Layer: "curve"},
	{Name: "curve.hdev_ns", Unit: "ns", Better: "lower", Layer: "curve"},
	{Name: "curve.vdev_ns", Unit: "ns", Better: "lower", Layer: "curve"},
	{Name: "curve.residual_ns", Unit: "ns", Better: "lower", Layer: "curve"},
	{Name: "curve.fifo_residual_ns", Unit: "ns", Better: "lower", Layer: "curve"},
	{Name: "curve.concave_hull_ns", Unit: "ns", Better: "lower", Layer: "curve"},
	{Name: "curve.memo_hit_ns", Unit: "ns", Better: "lower", Layer: "curve"},
	{Name: "curve.operand_segments_mean", Unit: "count", Better: "lower", Layer: "curve"},

	{Name: "sim.replay_us_per_flow", Unit: "us", Better: "lower", Layer: "sim"},
	{Name: "sim.events_per_flow", Unit: "count", Better: "lower", Layer: "sim"},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher", Layer: "sim"},
	{Name: "sim.paper_events_per_s", Unit: "1/s", Better: "higher", Layer: "sim"},
	{Name: "des.events_per_s", Unit: "1/s", Better: "higher", Layer: "des"},
	{Name: "des.allocs_per_event", Unit: "count", Better: "lower", Layer: "des"},

	{Name: "obs.attach_overhead_us_per_admit", Unit: "us", Better: "lower", Layer: "obs"},

	{Name: "driver.build_s", Unit: "s", Better: "lower", Layer: "driver"},
	{Name: "driver.late_p99_ms", Unit: "ms", Better: "lower", Layer: "driver"},
	{Name: "driver.offered_ops_per_s", Unit: "ops/s", Better: "higher", Layer: "driver"},
	{Name: "driver.achieved_ops_per_s", Unit: "ops/s", Better: "higher", Layer: "driver"},
	{Name: "driver.cpu_share", Unit: "ratio", Better: "lower", Layer: "driver"},
	{Name: "driver.trace_overhead_share", Unit: "ratio", Better: "lower", Layer: "driver"},
}
