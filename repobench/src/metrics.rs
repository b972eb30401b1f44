//! The metric names and units `BENCHMARK.json` declares.
//!
//! Every workload prints every end-to-end metric in an untraced run and
//! every per-layer metric in a traced one; a layer the workload never calls
//! reads 0.

/// `(name, unit)` of the end-to-end metrics, in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("rate_pct", "%"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
];

/// `(name, unit)` of the per-layer metrics of the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.parse_ms", "ms"),
    ("sim.collapse_ms", "ms"),
    ("sim.drop_ms", "ms"),
    ("sim.drop_calls", "count"),
    ("atpg.stuck_at_ms", "ms"),
    ("atpg.path_delay_ms", "ms"),
    ("atpg.podem_ms", "ms"),
    ("atpg.podem_calls", "count"),
    ("atpg.podem_fault_p50_us", "us"),
    ("atpg.podem_fault_max_us", "us"),
    ("atpg.aborted", "count"),
    ("atpg.untestable", "count"),
    ("atpg.cube_yield", "ratio"),
    ("atpg.aborted_time_share", "ratio"),
    ("atpg.fault_coverage_pct", "%"),
    ("atpg.split_valid", "count"),
    ("bits.histogram_ms", "ms"),
    ("bits.distinct_blocks", "count"),
    ("evo.run_ms", "ms"),
    ("evo.evaluations", "count"),
    ("evo.generations", "count"),
    ("evo.evals_per_s", "1/s"),
    ("evo.default_over_t1", "ratio"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.cache_fallbacks", "count"),
    ("core.encode_ms", "ms"),
    ("core.decompress_ms", "ms"),
    ("decoder.verify_ms", "ms"),
    ("decoder.cycles", "count"),
    ("service.submit_us_p50", "us"),
    ("service.submit_us_max", "us"),
    ("service.job_run_ms_p50", "ms"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_len_max", "count"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.sheds", "count"),
    ("service.retries", "count"),
    ("service.rejected", "count"),
    ("service.checkpoint_tax_pct", "%"),
    ("service.latency_p95_ms", "ms"),
    ("service.latency_samples", "count"),
    ("service.generator_late_ms", "ms"),
    ("trace.pass_s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_ms", "ms"),
    ("trace.spans", "count"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["atpg_flow", "table_ea", "service_mix"];

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(BENCHMARK_JSON.contains(&entry), "missing {entry}");
        }
        for name in WORKLOADS {
            assert!(BENCHMARK_JSON.contains(&format!("\"name\": \"{name}\", \"why\"")));
        }
        let declared = BENCHMARK_JSON.matches("\"name\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(name, _)| *name)
            .chain(WORKLOADS.iter().copied())
            .collect();
        names.sort_unstable();
        let count = names.len();
        names.dedup();
        assert_eq!(names.len(), count);
    }
}
