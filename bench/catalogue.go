package main

// metricDef describes one metric the benchmark emits. BENCHMARK.json carries
// name, unit, better and (end to end) bound; the rest is the catalogue
// bench/README.md prints. bench_test.go checks the two agree.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end to end only: share of the parent's median it may worsen by
	layer  string  // module the number belongs to ("" for end to end)
	source string  // "probe" (isolated loop), "trace" (traced run) or "run" (untraced windows)
	moves  string  // the end-to-end metric x workload it is predicted to move
}

// endToEnd is what a user of the engine sees, measured with tracing off.
// failed_op_frac is not listed: it must be 0, and a metric that is 0 has no
// relative bound, so it travels in the result's attempted/failed fields.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "setup_heap_mb", unit: "MB", better: "lower", bound: 0.05},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "op_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.02},
	{name: "alloc_bytes_per_op", unit: "B", better: "lower", bound: 0.02},
}

const (
	setupAll   = "setup_s, all workloads (small share)"
	p50Paper   = "op_p50_us on paper-default"
	p50Batch   = "op_p50_us on batch-mixed only"
	p50All     = "op_p50_us, all workloads"
	p50Durable = "op_p50_us, ops_per_s on durable-delivery only"
	evalShare  = "op_p50_us, ops_per_s on paper-default and ungrouped-100"
	none       = "none (guard)"
	diag       = "diagnostic"
)

// perLayer lists every layer metric, grouped by module.
var perLayer = []metricDef{
	{name: "xquery.parse_view_us", unit: "us", better: "lower", layer: "xquery", source: "probe", moves: setupAll},
	{name: "trigger.parse_us", unit: "us", better: "lower", layer: "trigger", source: "probe", moves: setupAll},
	{name: "compile.view_ms", unit: "ms", better: "lower", layer: "compile", source: "probe", moves: setupAll},

	{name: "core.create_trigger_join_us", unit: "us", better: "lower", layer: "core", source: "probe", moves: "setup_s on paper-default (x10,000)"},
	{name: "core.create_trigger_new_ms", unit: "ms", better: "lower", layer: "core", source: "probe", moves: "setup_s on ungrouped-100 (x100)"},
	{name: "affected.angraph_build_ms", unit: "ms", better: "lower", layer: "affected", source: "probe", moves: "setup_s on ungrouped-100 (x100)"},

	{name: "reldb.update_us", unit: "us", better: "lower", layer: "reldb", source: "probe", moves: p50Paper},
	{name: "reldb.lookup_us", unit: "us", better: "lower", layer: "reldb", source: "probe", moves: p50Paper},
	{name: "reldb.tx32_commit_us", unit: "us", better: "lower", layer: "reldb", source: "probe", moves: p50Batch},
	{name: "reldb.stmt_us", unit: "us", better: "lower", layer: "reldb", source: "trace", moves: p50All},
	{name: "reldb.tx_prepare_us", unit: "us", better: "lower", layer: "reldb", source: "trace", moves: p50Batch},
	{name: "reldb.tx_commit_us", unit: "us", better: "lower", layer: "reldb", source: "trace", moves: p50Batch},
	{name: "reldb.rows_read_per_op", unit: "count", better: "lower", layer: "reldb", source: "trace", moves: p50All},
	{name: "reldb.index_lookups_per_op", unit: "count", better: "lower", layer: "reldb", source: "trace", moves: p50All},
	{name: "reldb.full_scans_per_op", unit: "count", better: "lower", layer: "reldb", source: "trace", moves: p50All + "; must be 0 on paper-default"},

	{name: "affected.eval_us", unit: "us", better: "lower", layer: "affected", source: "probe", moves: evalShare},
	{name: "affected.pairs_per_eval", unit: "count", better: "lower", layer: "affected", source: "probe", moves: evalShare},
	{name: "affected.eval32_us", unit: "us", better: "lower", layer: "affected", source: "probe", moves: p50Batch},

	{name: "xqgm.view_eval_ms", unit: "ms", better: "lower", layer: "xqgm", source: "probe", moves: none},
	{name: "xqgm.ops_per_eval", unit: "count", better: "lower", layer: "xqgm", source: "probe", moves: none},
	{name: "xqgm.rows_per_eval", unit: "count", better: "lower", layer: "xqgm", source: "probe", moves: none},

	{name: "core.fire_us", unit: "us", better: "lower", layer: "core", source: "trace", moves: p50All},
	{name: "core.fires_per_op", unit: "count", better: "lower", layer: "core", source: "trace", moves: p50All + "; ~100x higher on ungrouped-100"},
	{name: "core.actions_per_op", unit: "count", better: "higher", layer: "core", source: "trace", moves: "none (fixed by the workload; 20 on durable-delivery)"},
	{name: "core.plan_cache_hit_frac", unit: "frac", better: "higher", layer: "core", source: "trace", moves: "setup_s, all workloads"},
	{name: "core.groups", unit: "count", better: "lower", layer: "core", source: "trace", moves: "op_p50_us on ungrouped-100"},
	{name: "core.sql_triggers", unit: "count", better: "lower", layer: "core", source: "trace", moves: "op_p50_us on ungrouped-100"},
	{name: "core.self_us", unit: "us", better: "lower", layer: "core", source: "trace", moves: p50All},

	{name: "wire.encode_us", unit: "us", better: "lower", layer: "wire", source: "probe", moves: "op_p50_us, alloc_bytes_per_op on durable-delivery only"},
	{name: "wire.decode_us", unit: "us", better: "lower", layer: "wire", source: "probe", moves: "none (replay path)"},
	{name: "wire.json_us", unit: "us", better: "lower", layer: "wire", source: "probe", moves: "op_p50_us, alloc_bytes_per_op on durable-delivery only"},
	{name: "wire.bytes_per_record", unit: "B", better: "lower", layer: "wire", source: "probe", moves: "op_p50_us on durable-delivery only"},

	{name: "outbox.append_batch20_us", unit: "us", better: "lower", layer: "outbox", source: "probe", moves: "none (batched durable commits; no workload yet)"},
	{name: "outbox.ack_us", unit: "us", better: "lower", layer: "outbox", source: "probe", moves: p50Durable},
	{name: "outbox.replay_us_per_record", unit: "us", better: "lower", layer: "outbox", source: "probe", moves: "none (restart path)"},
	{name: "outbox.compact_ms", unit: "ms", better: "lower", layer: "outbox", source: "probe", moves: p50Durable},
	{name: "outbox.disk_bytes_per_wire_byte", unit: "ratio", better: "lower", layer: "outbox", source: "probe", moves: "none (space)"},
	{name: "outbox.append_sync_us", unit: "us", better: "lower", layer: "outbox", source: "probe", moves: "none (Sync:true is not benchmarked; device-dependent)"},
	{name: "outbox.append_us", unit: "us", better: "lower", layer: "outbox", source: "trace", moves: p50Durable},
	{name: "outbox.fsync_us", unit: "us", better: "lower", layer: "outbox", source: "trace", moves: "none (0 under the stated flush policy)"},
	{name: "outbox.sink_us", unit: "us", better: "lower", layer: "outbox", source: "trace", moves: p50Durable},

	{name: "dispatch.enqueue_us", unit: "us", better: "lower", layer: "dispatch", source: "probe", moves: p50Durable},
	{name: "dispatch.roundtrip_us", unit: "us", better: "lower", layer: "dispatch", source: "probe", moves: p50Durable},
	{name: "dispatch.queue_wait_us", unit: "us", better: "lower", layer: "dispatch", source: "trace", moves: p50Durable},
	{name: "dispatch.run_us", unit: "us", better: "lower", layer: "dispatch", source: "trace", moves: p50Durable},
	{name: "dispatch.max_depth", unit: "count", better: "lower", layer: "dispatch", source: "trace", moves: p50Durable},

	{name: "shard.route_update_us", unit: "us", better: "lower", layer: "shard", source: "probe", moves: "none (scale-out is parked)"},
	{name: "shard.tx2pc_ms", unit: "ms", better: "lower", layer: "shard", source: "probe", moves: "none (scale-out is parked)"},

	{name: "e2e.op_p90_us", unit: "us", better: "lower", layer: "e2e", source: "run", moves: diag},
	{name: "e2e.op_p99_us", unit: "us", better: "lower", layer: "e2e", source: "run", moves: diag},
	{name: "e2e.op_max_us", unit: "us", better: "lower", layer: "e2e", source: "run", moves: diag},
	{name: "e2e.gc_cycles_per_kop", unit: "count", better: "lower", layer: "e2e", source: "run", moves: "ops_per_s, all workloads"},
	{name: "e2e.gc_pause_frac", unit: "frac", better: "lower", layer: "e2e", source: "run", moves: "ops_per_s, all workloads"},
	{name: "e2e.window_spread_frac", unit: "frac", better: "lower", layer: "e2e", source: "run", moves: "the benchmark's own noise figure"},
	{name: "obs.overhead_frac", unit: "frac", better: "lower", layer: "obs", source: "trace", moves: "diagnostic (PR 7's budget is 0.05)"},
}
