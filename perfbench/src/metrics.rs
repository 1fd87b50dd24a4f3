//! The metric names, units and directions the benchmark reports; they
//! must match `BENCHMARK.json` (the crate's tests check that).

/// `(name, unit, better)` rows.
pub type MetricTable = &'static [(&'static str, &'static str, &'static str)];

/// Every end-to-end metric (untraced runs).
pub const END_TO_END: MetricTable = &[
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_tail", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Every per-layer metric (traced runs).
pub const PER_LAYER: MetricTable = &[
    ("netlist.gen_ms", "ms", "lower"),
    ("netlist.stats_ms", "ms", "lower"),
    ("netlist.cells", "count", "lower"),
    ("pd.floorplan_ms", "ms", "lower"),
    ("pd.cluster_ms", "ms", "lower"),
    ("pd.place_ms", "ms", "lower"),
    ("pd.place_steps", "count", "lower"),
    ("pd.legalize_ms", "ms", "lower"),
    ("pd.opt_ms", "ms", "lower"),
    ("pd.opt_rounds", "count", "lower"),
    ("pd.route_ms", "ms", "lower"),
    ("pd.sta_ms", "ms", "lower"),
    ("pd.cts_ms", "ms", "lower"),
    ("pd.power_ms", "ms", "lower"),
    ("pd.flow_ms", "ms", "lower"),
    ("pd.unattributed_ms", "ms", "lower"),
    ("engine.fetch_cold_ms", "ms", "lower"),
    ("engine.fetch_warm_ms", "ms", "lower"),
    ("engine.fetch_hit_us", "us", "lower"),
    ("engine.hits", "count", "higher"),
    ("engine.misses", "count", "lower"),
    ("engine.warm_hits", "count", "higher"),
    ("engine.coalesced", "count", "higher"),
    ("thermal.solve_ms", "ms", "lower"),
    ("thermal.solves", "count", "lower"),
    ("thermal.sor_iterations", "count", "lower"),
    ("thermal.ns_per_cell_iter", "ns", "lower"),
    ("thermal.transient_ms", "ms", "lower"),
    ("registry.sensitivity_us", "us", "lower"),
    ("registry.tier_sweep_us", "us", "lower"),
    ("registry.capacity_sweep_us", "us", "lower"),
    ("registry.pd_flow_us", "us", "lower"),
    ("registry.ingest_us", "us", "lower"),
    ("serve.server_us_p50", "us", "lower"),
    ("serve.wire_us_p50", "us", "lower"),
    ("serve.executed", "count", "lower"),
    ("serve.cache_hits", "count", "higher"),
    ("serve.coalesced", "count", "higher"),
    ("serve.rejected", "count", "lower"),
    ("serve.hit_ratio", "ratio", "higher"),
    ("serve.queue_depth_max", "count", "lower"),
    ("trace.op_ms_p50", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
];

/// Counts that must repeat exactly across runs with the same seed.
pub const EXACT_COUNTS: &[&str] = &[
    "netlist.cells",
    "pd.place_steps",
    "pd.opt_rounds",
    "thermal.sor_iterations",
    "engine.warm_hits",
    "serve.executed",
];
