//! Explorer-driven regression tests.
//!
//! Each test's fault plan counts only its own threads and the servers it
//! started, so the tests run in parallel.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use phoenix_chaos as chaos;
use phoenix_chaos_explore::{
    enumerate_cases, explore, explorer_config, run_case, run_clean, seed_workload, CrashCase,
    ExploreOptions,
};
use phoenix_core::PhoenixConnection;
use phoenix_driver::Environment;
use phoenix_engine::EngineConfig;
use phoenix_server::ServerHarness;
use phoenix_storage::types::Value;

/// Points whose every visit happens on the server's single execute/commit
/// path. Their `(point, nth)` sequence is a pure function of the workload
/// even while the pipelined phase overlaps the client and server threads;
/// the wire-level points are hit by both sides of the in-process harness,
/// so only their *counts* are workload-pure once requests are in flight
/// concurrently with replies.
const DURABLE_POINTS: &[&str] = &[
    "wal.append",
    "wal.fsync",
    "wal.rotate",
    "checkpoint.write",
    "checkpoint.truncate",
    "store.publish",
    "server.pipeline_dequeue",
    "server.reply_send",
];

fn durable_subtrace(trace: &[chaos::Visit]) -> Vec<(&'static str, u64)> {
    trace
        .iter()
        .filter(|v| DURABLE_POINTS.contains(&v.point))
        .map(|v| (v.point, v.nth))
        .collect()
}

fn visit_counts(trace: &[chaos::Visit]) -> std::collections::BTreeMap<&'static str, u64> {
    let mut counts = std::collections::BTreeMap::new();
    for v in trace {
        *counts.entry(v.point).or_insert(0u64) += 1;
    }
    counts
}

#[test]
fn clean_trace_is_deterministic_and_enumerates_100_plus_points() {
    let (out_a, trace_a) = run_clean();
    let (out_b, trace_b) = run_clean();
    assert_eq!(
        durable_subtrace(&trace_a),
        durable_subtrace(&trace_b),
        "the durable-point sub-trace must be a pure function of the workload"
    );
    assert_eq!(
        visit_counts(&trace_a),
        visit_counts(&trace_b),
        "per-point visit counts must be a pure function of the workload"
    );
    assert_eq!(out_a, out_b, "clean output must be deterministic");
    assert!(
        trace_a.len() >= 100,
        "acceptance floor: >= 100 distinct crash points, got {}",
        trace_a.len()
    );
    // The trace must cover every layer's fault points.
    for point in [
        "wal.append",
        "wal.fsync",
        "wal.rotate",
        "checkpoint.write",
        "checkpoint.truncate",
        "store.publish",
        "wire.read_frame",
        "wire.write_frame",
        "server.pipeline_dequeue",
        "server.reply_send",
    ] {
        assert!(
            trace_a.iter().any(|v| v.point == point),
            "canonical workload never visits {point}"
        );
    }
    // The index phase must be planner-visible in the baseline: its EXPLAIN
    // reply pins the access path, so any crash case that recovers with a
    // lost or mis-built index diverges from this reply.
    let replies = out_a.replies.join("\n");
    assert!(
        replies.contains("index-eq") && replies.contains("ix_acct_bal"),
        "index phase must record an index-served EXPLAIN in the baseline"
    );
    assert!(
        enumerate_cases(&trace_a, true).len() > trace_a.len(),
        "torn-write variants must add cases"
    );
}

#[test]
fn bounded_sweep_upholds_every_invariant() {
    // A budgeted slice by default; the whole schedule space behind the
    // opt-in env var (CI runs it nightly-style, see ci.yml).
    let full = std::env::var("PHOENIX_CHAOS_FULL").is_ok();
    let opts = ExploreOptions {
        budget: if full { 0 } else { 18 },
        seed: 0xC0FFEE,
        torn_writes: true,
        verbose: false,
    };
    let report = explore(&opts);
    assert!(report.enumerated >= 100, "enumerated {}", report.enumerated);
    assert!(report.executed > 0);
    assert_eq!(
        report.executed, report.crashed,
        "every selected case simulates process death and must crash/restart"
    );
    assert!(
        report.violations.is_empty(),
        "invariant violations (seed + point id reproduce each):\n{}",
        report
            .violations
            .iter()
            .map(|v| format!(
                "  {} seed={} :: {}",
                v.case_id,
                v.seed,
                v.details.join("; ")
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Satellite: the exactly-once window. Crash *between* the WAL commit and
/// the reply send — the statement is durably committed but its reply is
/// lost. Phoenix must answer from the persisted reply buffer (status
/// table), never re-execute.
#[test]
fn exactly_once_window_replays_reply_without_reexecution() {
    let dir = std::env::temp_dir().join(format!("phoenix-exactly-once-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // The server serves inside the plan it is started in; the schedule is
    // set once the seed is in.
    let guard = chaos::arm(chaos::Schedule::new());
    let harness = Arc::new(Mutex::new(
        ServerHarness::start(&dir, EngineConfig::default()).unwrap(),
    ));
    let mut pc = {
        let h = harness.lock().unwrap();
        PhoenixConnection::connect(
            &Environment::new(),
            &h.addr(),
            "app",
            "test",
            explorer_config(),
        )
        .unwrap()
    };
    seed_workload(&mut pc).unwrap();

    // A wrapped DML is one request: `[BEGIN; statement; status-row insert;
    // COMMIT]`. Crashing at its `server.reply_send` visit means the
    // transaction (statement + status row) is durable but the client never
    // hears back: the exactly-once window of paper §3.
    guard.reset(chaos::Schedule::new().crash_at("server.reply_send", 1));
    let stop = Arc::new(AtomicBool::new(false));
    let supervisor = phoenix_chaos_explore::spawn_supervisor(
        guard.plan(),
        Arc::clone(&harness),
        Arc::clone(&stop),
    );

    let r = pc
        .execute("UPDATE acct SET bal = bal + 1 WHERE id = 1")
        .expect("statement must succeed through recovery");
    assert_eq!(r.affected(), 1);

    stop.store(true, Ordering::Relaxed);
    assert!(supervisor.join().unwrap(), "the crash must actually fire");
    let fired = guard.fired();
    assert_eq!(fired.len(), 1);
    assert_eq!(fired[0].point, "server.reply_send");
    drop(guard);

    let stats = pc.stats().clone();
    assert!(
        stats.replied_from_status >= 1,
        "reply must come from the persisted reply buffer, stats: {stats:?}"
    );
    assert_eq!(
        stats.resubmissions, 0,
        "a committed statement must never be re-executed"
    );
    assert!(stats.recoveries >= 1);

    // Row counts prove no duplicate DML: bal went 100 -> 101 exactly once,
    // and the table still has its 8 seeded rows.
    let check = pc
        .execute("SELECT bal FROM acct WHERE id = 1")
        .unwrap()
        .rows()
        .to_vec();
    assert_eq!(check, vec![vec![Value::Int(101)]]);
    let count = pc.execute("SELECT id FROM acct ORDER BY id").unwrap();
    assert_eq!(count.rows().len(), 8);

    pc.close();
    harness.lock().unwrap().shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite companion: the server dies mid-send, leaving the client a
/// half-written response frame. The driver must classify it as a clean
/// connection loss (recovery), never a decode panic — here proven end to
/// end through PhoenixConnection.
#[test]
fn torn_reply_frame_recovers_cleanly() {
    let case = CrashCase {
        point: "server.reply_send",
        nth: 4,
        spec: chaos::FaultSpec::TornWrite { n_bytes: 6 },
    };
    let outcome = run_case(&case);
    assert!(outcome.fired);
    assert!(outcome.crashed);
    let out = outcome
        .output
        .expect("workload must survive a torn reply frame");
    // Cross-check against a clean baseline: full equivalence.
    let (baseline, _) = run_clean();
    assert_eq!(
        phoenix_chaos_explore::verify(&baseline, &out),
        Vec::<String>::new()
    );
    assert!(outcome.stats.recoveries >= 1);
    outcome.index_check.expect("index audit after recovery");
}

/// Satellite: crash mid-WAL inside index-maintained DML. The plan starts
/// counting only after CREATE INDEX, so the scheduled `wal.append` visit is
/// the wrapped INSERT's commit, the one write that carries its rows and its
/// commit record — index entries in flight when the server dies. Recovery must land the row exactly once, rebuild the
/// index REDO-only, and keep serving the equality probe through it.
#[test]
fn crash_mid_wal_during_indexed_dml_stays_consistent() {
    let dir = std::env::temp_dir().join(format!("phoenix-index-crash-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // The server serves inside the plan it is started in; the schedule is
    // set once the seed is in.
    let guard = chaos::arm(chaos::Schedule::new());
    let harness = Arc::new(Mutex::new(
        ServerHarness::start(&dir, EngineConfig::default()).unwrap(),
    ));
    let mut pc = {
        let h = harness.lock().unwrap();
        PhoenixConnection::connect(
            &Environment::new(),
            &h.addr(),
            "app",
            "test",
            explorer_config(),
        )
        .unwrap()
    };
    seed_workload(&mut pc).unwrap();
    pc.execute("CREATE INDEX ix_bal ON acct(bal)").unwrap();

    guard.reset(chaos::Schedule::new().crash_at("wal.append", 1));
    let stop = Arc::new(AtomicBool::new(false));
    let supervisor = phoenix_chaos_explore::spawn_supervisor(
        guard.plan(),
        Arc::clone(&harness),
        Arc::clone(&stop),
    );

    let r = pc
        .execute("INSERT INTO acct VALUES (42, 4200, 'ix')")
        .expect("statement must succeed through recovery");
    assert_eq!(r.affected(), 1);

    stop.store(true, Ordering::Relaxed);
    assert!(supervisor.join().unwrap(), "the crash must actually fire");
    drop(guard);

    // Exactly once, visible through the rebuilt index, and the full audit
    // finds every index entry backed by exactly its table rows.
    let rows = pc
        .execute("SELECT id FROM acct WHERE bal = 4200")
        .unwrap()
        .rows()
        .to_vec();
    assert_eq!(rows, vec![vec![Value::Int(42)]]);
    let plan = pc
        .execute("EXPLAIN SELECT id FROM acct WHERE bal = 4200")
        .unwrap();
    assert_eq!(plan.rows()[0][3], Value::Text("index-eq".into()));
    {
        let h = harness.lock().unwrap();
        h.with_engine(|e| e.verify_indexes())
            .expect("live engine")
            .expect("index audit after recovery");
    }

    pc.close();
    harness.lock().unwrap().shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
