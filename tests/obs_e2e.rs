//! End-to-end observability test: a crash/recover cycle must leave a
//! complete, ordered recovery timeline in the event journal, drive the
//! recovery counters, and be visible through the `Request::Stats` wire
//! round trip. The server and the client are started on the test's thread,
//! so both count into that thread's observability instance — one registry
//! and one journal that no other test writes to, so the counts are exact.

use std::time::Duration;

use phoenix_core::{PhoenixConfig, PhoenixConnection};
use phoenix_driver::Environment;
use phoenix_engine::EngineConfig;
use phoenix_obs::EventKind;
use phoenix_server::ServerHarness;

#[test]
fn crash_recovery_timeline_and_wire_stats() {
    let dir = std::env::temp_dir().join(format!("phoenix-obs-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut server = ServerHarness::start(&dir, EngineConfig::default()).unwrap();
    let addr = server.addr();

    let env = Environment::new().with_read_timeout(Some(Duration::from_millis(500)));
    let mut cfg = PhoenixConfig::default();
    cfg.recovery.read_timeout = Some(Duration::from_millis(500));
    cfg.recovery.ping_interval = Duration::from_millis(20);
    let mut db = PhoenixConnection::connect(&env, &addr, "obs", "db", cfg).unwrap();

    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    for i in 0..5 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, {i})"))
            .unwrap();
    }

    // Crash mid-session; Phoenix must recover transparently.
    server.crash().unwrap();
    std::thread::sleep(Duration::from_millis(40));
    server.restart().unwrap();
    for i in 5..10 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, {i})"))
            .unwrap();
    }
    let n = db.execute("SELECT COUNT(*) FROM t").unwrap().rows()[0][0]
        .as_i64()
        .unwrap();
    assert_eq!(n, 10, "exactly-once violated across the crash");

    // --- Counters -------------------------------------------------------
    assert!(db.stats().recoveries >= 1);
    assert!(
        db.stats().reconnect_attempts >= 1,
        "recovery must have reconnected at least once"
    );
    let obs = server.obs();
    assert!(
        std::sync::Arc::ptr_eq(obs, env.obs()),
        "client and server were started in one instance"
    );
    let snapshot = obs.snapshot();
    assert_eq!(
        snapshot.counter("phoenix_reconnect_attempts_total"),
        Some(db.stats().reconnect_attempts),
        "the instance counts exactly this connection's attempts"
    );
    assert_eq!(
        snapshot.counter("phoenix_recoveries_total"),
        Some(db.stats().recoveries)
    );

    // --- Recovery timeline ---------------------------------------------
    // The journal timestamps are taken inside the journal lock, so sequence
    // order and timestamp order must agree — globally, not just per
    // component.
    let events = obs.journal().events();
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "journal out of order");
        assert!(
            pair[0].ts_us <= pair[1].ts_us,
            "timestamps must be monotonic with sequence: {:?} then {:?}",
            pair[0],
            pair[1]
        );
    }
    // The full ordered recovery story: crash detected, then at least one
    // reconnect attempt, then reconnected, then the session context
    // replayed, then state verified, then recovery complete.
    let seq_of = |kind: EventKind| {
        events
            .iter()
            .find(|e| e.component == "core" && e.kind == kind)
            .unwrap_or_else(|| panic!("no {kind:?} event in journal"))
            .seq
    };
    let crash = seq_of(EventKind::CrashDetected);
    let attempt = seq_of(EventKind::ReconnectAttempt);
    let reconnected = seq_of(EventKind::Reconnected);
    let context = seq_of(EventKind::ContextReinstalled);
    let verified = seq_of(EventKind::StateVerified);
    let complete = seq_of(EventKind::RecoveryComplete);
    assert!(
        crash < attempt && attempt < reconnected && reconnected < context,
        "timeline out of order: crash={crash} attempt={attempt} \
         reconnected={reconnected} context={context}"
    );
    assert!(
        context < verified && verified < complete,
        "timeline out of order: context={context} verified={verified} complete={complete}"
    );

    // --- Wire round trip ------------------------------------------------
    let mut monitor = env.connect(&addr, "monitor", "db").unwrap();
    let stats = monitor.server_stats().unwrap();
    assert!(
        stats
            .counter("phoenix_wal_fsyncs_total")
            .is_some_and(|v| v > 0),
        "committed inserts must have fsynced the WAL"
    );
    let stmt_latency_samples: u64 = stats
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("phoenix_stmt_latency_us"))
        .map(|(_, h)| h.count())
        .sum();
    assert!(
        stmt_latency_samples > 0,
        "statement latency histograms must have recorded the workload"
    );
    assert!(
        !stats.events.is_empty(),
        "the journal must travel with the snapshot"
    );
    monitor.close();

    db.close();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two servers in one process, each started on its own thread and driven by
/// its own client: each `Stats` reply reports its own server's requests and
/// its own journal, never the sum of both.
#[test]
fn two_servers_in_one_process_report_apart() {
    let start = std::sync::Arc::new(std::sync::Barrier::new(2));
    let run = |name: &'static str, pings: u64, closes: usize| {
        let start = std::sync::Arc::clone(&start);
        std::thread::spawn(move || {
            let dir = std::env::temp_dir()
                .join(format!("phoenix-obs-apart-{name}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let server = ServerHarness::start(&dir, EngineConfig::default()).unwrap();
            let env = Environment::new();
            // Both servers are up and both clients connect before either
            // does its work, so their requests interleave.
            start.wait();
            let mut conn = env.connect(&server.addr(), name, "db").unwrap();
            for _ in 0..closes {
                env.connect(&server.addr(), name, "db").unwrap().close();
            }
            for _ in 0..pings {
                conn.ping().unwrap();
            }
            conn.execute("CREATE TABLE t (k INT)").unwrap();
            let stats = conn.server_stats().unwrap();
            conn.close();
            drop(server);
            let _ = std::fs::remove_dir_all(&dir);
            stats
        })
    };
    let (a, b) = (run("a", 3, 1), run("b", 5, 2));
    for (stats, pings, closes) in [(a.join().unwrap(), 3, 1), (b.join().unwrap(), 5, 2)] {
        let requests = |t: &str| stats.counter(&format!("phoenix_requests_total{{type=\"{t}\"}}"));
        assert_eq!(requests("ping"), Some(pings));
        assert_eq!(requests("exec"), Some(1));
        assert_eq!(requests("login_v2"), Some(closes as u64 + 1));
        let closed = stats
            .events
            .iter()
            .filter(|e| e.kind == EventKind::ConnectionClose)
            .count();
        assert_eq!(closed, closes, "the journal is the server's own");
    }
}
