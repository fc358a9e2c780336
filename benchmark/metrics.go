package main

// metric is one named measurement. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds; the tests
// hold the two together.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // end-to-end only: share of the median it may worsen by
}

// endToEndMetrics are what a user of the system sees, the same on
// every workload. Failures are reported as counts (attempted, failed)
// beside them, and as driver.failed_fraction.
var endToEndMetrics = []metric{
	{"query_p50_ms", "ms", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_query", "ms", "lower", 0.25},
	{"alloc_mb_per_query", "MB", "lower", 0.15},
	{"allocs_per_query", "count", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

func pl(name, unit, better string) metric { return metric{Name: name, Unit: unit, Better: better} }

// perLayerMetrics are measurements of single layers; the prefix is
// the module under internal/ (driver. is the benchmark itself). They
// carry no bound.
var perLayerMetrics = []metric{
	pl("driver.samples", "count", "higher"),
	pl("driver.query_p90_ms", "ms", "lower"),
	pl("driver.query_max_ms", "ms", "lower"),
	pl("driver.round_p50_spread", "ratio", "lower"),
	pl("driver.gc_cycles_per_query", "count", "lower"),
	pl("driver.gc_pause_ms_per_query", "ms", "lower"),
	pl("driver.oracle_check_s", "s", "lower"),
	pl("driver.failed_fraction", "ratio", "lower"),
	pl("driver.spatial_p50_ms", "ms", "lower"),
	pl("driver.textsim_p50_ms", "ms", "lower"),
	pl("driver.interval_p50_ms", "ms", "lower"),

	pl("sqlparse.parse_us", "us", "lower"),

	pl("engine.plan_us", "us", "lower"),
	pl("engine.scan_ms", "ms", "lower"),
	pl("engine.summarize_ms", "ms", "lower"),
	pl("engine.partition_ms", "ms", "lower"),
	pl("engine.combine_ms", "ms", "lower"),
	pl("engine.output_ms", "ms", "lower"),
	pl("engine.barrier_ms", "ms", "lower"),
	pl("engine.unattributed_ms", "ms", "lower"),
	pl("engine.candidates", "count", "lower"),
	pl("engine.verified", "count", "lower"),
	pl("engine.deduped", "count", "lower"),
	pl("engine.output_rows", "count", "lower"),
	pl("engine.state_bytes", "B", "lower"),
	pl("engine.assign_fanout", "ratio", "lower"),
	pl("engine.verify_hit_ratio", "ratio", "higher"),
	pl("engine.dup_ratio", "ratio", "lower"),
	pl("engine.mem_peak_bytes", "B", "lower"),
	pl("engine.spill_bytes", "B", "lower"),
	pl("engine.spill_runs", "count", "lower"),
	pl("engine.buckets_split", "count", "lower"),

	pl("cluster.exchange_ms", "ms", "lower"),
	pl("cluster.shuffle_bytes", "B", "lower"),
	pl("cluster.shuffle_records", "count", "lower"),
	pl("cluster.broadcast_bytes", "B", "lower"),
	pl("cluster.tasks", "count", "lower"),
	pl("cluster.backpressure_stalls", "count", "lower"),
	pl("cluster.checkpoint_bytes", "B", "lower"),
	pl("cluster.max_busy_ms", "ms", "lower"),
	pl("cluster.total_busy_ms", "ms", "lower"),
	pl("cluster.parallel_efficiency", "ratio", "higher"),
	pl("cluster.deliver_ns_per_row", "ns", "lower"),
	pl("cluster.deliver_bounded_ns_per_row", "ns", "lower"),

	pl("types.encode_ns_per_row", "ns", "lower"),
	pl("types.decode_ns_per_row", "ns", "lower"),
	pl("types.frame_bytes_per_row", "B", "lower"),
	pl("types.record_memsize_per_row", "B", "lower"),
	pl("types.batches", "count", "lower"),
	pl("types.rows_per_batch", "count", "higher"),
	pl("types.pool_hit_ratio", "ratio", "higher"),
	pl("types.value_bytes", "B", "lower"),

	pl("joins.local_agg_ns_per_key", "ns", "lower"),
	pl("joins.assign_ns_per_key", "ns", "lower"),
	pl("joins.buckets_per_key", "count", "lower"),
	pl("joins.verify_ns_per_pair", "ns", "lower"),

	pl("core.summary_codec_us", "us", "lower"),
	pl("core.plan_codec_us", "us", "lower"),
	pl("core.standalone_ms", "ms", "lower"),
	pl("core.framework_overhead_ratio", "ratio", "lower"),

	pl("expr.filter_ns_per_row", "ns", "lower"),

	pl("storage.spill_write_mb_s", "MB/s", "higher"),
	pl("storage.spill_read_mb_s", "MB/s", "higher"),
	pl("storage.ckpt_save_ms_per_mb", "ms/MB", "lower"),
	pl("storage.ckpt_load_ms_per_mb", "ms/MB", "lower"),

	pl("sched.acquire_release_ns", "ns", "lower"),
	pl("sched.queue_wait_p50_ms", "ms", "lower"),

	pl("serve.roundtrip_overhead_us", "us", "lower"),
	pl("serve.frame_encode_ns_per_row", "ns", "lower"),
	pl("serve.frame_decode_ns_per_row", "ns", "lower"),
	pl("serve.bytes_out_per_query", "B", "lower"),
	pl("serve.executed", "count", "higher"),
	pl("serve.failed", "count", "lower"),
	pl("serve.replayed", "count", "lower"),
	pl("serve.attempts_per_query", "count", "lower"),

	pl("trace.overhead_ratio", "ratio", "lower"),
	pl("trace.attributed_ratio", "ratio", "higher"),
}

// exactRepeat are the counts that must be identical run to run for a
// seed; -compare checks them for equality. cluster.shuffle_bytes joins
// them on the workloads without a memory budget (see compare.go).
var exactRepeat = []string{
	"engine.candidates", "engine.verified", "engine.deduped", "engine.output_rows",
	"engine.state_bytes", "engine.assign_fanout", "engine.spill_bytes", "engine.spill_runs",
	"cluster.shuffle_records", "cluster.broadcast_bytes", "cluster.checkpoint_bytes",
	"types.value_bytes", "types.frame_bytes_per_row",
}
