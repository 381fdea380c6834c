//! Every metric the benchmark prints, by name, with its unit. The same
//! names, units and order are in `BENCHMARK.json`; a test keeps the two in
//! step.

/// End-to-end: what a user of the system sees. Gated by `BENCHMARK.json`'s
/// bounds on every workload, measured with tracing off. An operation is one
/// driver call on `point_read` and `durable_write`, one pass of the power
/// suite on the Phoenix session on `tpch_phoenix` (so `op_p50_us` is the
/// paper's Table 1 time), and the call that spans the crash on
/// `crash_resume` (so `op_p50_us` is the paper's Figure 2 recovery time).
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
    ("disk_bytes_per_user_byte", "ratio"),
    ("setup_s", "s"),
];

/// Reported and not gated: the end-to-end candidates whose run-to-run spread
/// on this host is too wide for a bound (`BASELINE.md`), the paper's own
/// figures, and the layers (layer = crate). A metric that does not apply to
/// a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Measured with tracing off, like the gated ones, over the same operations.
    ("throughput_ops_s", "1/s"),
    ("op_p99_us", "us"),
    ("server_cpu_us_per_op", "us"),
    // The paper's Table 1, on `tpch_phoenix`.
    ("power_native_ms", "ms"),
    ("power_phoenix_ms", "ms"),
    ("phoenix_overhead_ratio", "ratio"),
    ("phoenix_dml_overhead_ratio", "ratio"),
    // The paper's Figure 2 and ROADMAP item 3, on `crash_resume`.
    ("recovery_p50_ms", "ms"),
    ("recovery_p80_ms", "ms"),
    ("server_ready_p50_ms", "ms"),
    ("recovery_over_recompute", "ratio"),
    ("error_rate", "ratio"),
    ("sql.parse_us_per_stmt", "us"),
    ("wire.codec_us_per_roundtrip", "us"),
    ("wire.bytes_per_op", "B"),
    ("server.ping_p50_us", "us"),
    ("server.frontend_share", "ratio"),
    ("server.cpu_us_per_ping", "us"),
    ("server.login_us", "us"),
    ("server.requests_per_op", "count"),
    ("driver.client_cpu_us_per_op", "us"),
    ("engine.exec_read_us", "us"),
    ("engine.exec_write_us", "us"),
    ("engine.explain_us", "us"),
    ("engine.stmt_p50_bucket_us.read", "us"),
    ("engine.stmt_p50_bucket_us.write", "us"),
    ("storage.fsyncs_per_op", "count"),
    ("storage.wal_appends_per_op", "count"),
    ("storage.group_commit_batch", "count"),
    ("storage.snapshot_publishes_per_op", "count"),
    ("storage.wal_bytes_per_op", "B"),
    ("storage.checkpoints", "count"),
    ("storage.checkpoint_pause_p50_bucket_us", "us"),
    ("storage.fsync_p50_bucket_us", "us"),
    ("storage.commit_us", "us"),
    ("storage.replay_ms", "ms"),
    ("storage.replay_records_per_s", "1/s"),
    ("core.wrap_overhead_us", "us"),
    ("core.materialize_overhead_us", "us"),
    ("core.server_requests_per_app_stmt", "count"),
    ("core.fsyncs_per_app_stmt", "count"),
    ("core.virtual_session_ms", "ms"),
    ("core.sql_state_ms", "ms"),
    ("core.reconnect_attempts", "count"),
    ("core.replied_from_status", "count"),
    ("core.resubmissions", "count"),
    ("tpch.load_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

pub const WORKLOADS: &[&str] = &[
    "point_read",
    "durable_write",
    "tpch_phoenix",
    "crash_resume",
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly these metrics with these units, and
    /// the four workloads.
    #[test]
    fn benchmark_json_matches() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let flat: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",");
            assert_eq!(
                flat.matches(&entry).count(),
                1,
                "{name} [{unit}] in BENCHMARK.json"
            );
        }
        assert_eq!(
            flat.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a metric the benchmark does not print"
        );
        for w in WORKLOADS {
            assert!(
                flat.contains(&format!("{{\"name\":\"{w}\",\"why\":")),
                "workload {w}"
            );
        }
    }
}
