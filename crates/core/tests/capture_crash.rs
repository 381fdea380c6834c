//! Crashes inside Phoenix's one-request wrappers: the result capture and a
//! wrapped `EXEC`. Each test's server is started inside the test's own
//! fault plan, so the tests run in parallel.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use phoenix_chaos as chaos;
use phoenix_chaos::FaultPlan;
use phoenix_core::{PhoenixConfig, PhoenixConnection};
use phoenix_driver::Environment;
use phoenix_engine::EngineConfig;
use phoenix_server::ServerHarness;
use phoenix_storage::types::Value;

/// A server on a fresh directory, and a Phoenix session on it. Call it
/// inside an armed plan: the server serves inside the plan it starts in.
fn start(name: &str) -> (Arc<Mutex<ServerHarness>>, PhoenixConnection, PathBuf) {
    let dir = std::env::temp_dir().join(format!("phoenix-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let harness = Arc::new(Mutex::new(
        ServerHarness::start(&dir, EngineConfig::default()).unwrap(),
    ));
    let addr = harness.lock().unwrap().addr();
    let mut config = PhoenixConfig::default();
    config.recovery.read_timeout = Some(Duration::from_millis(800));
    config.recovery.ping_interval = Duration::from_millis(20);
    let pc = PhoenixConnection::connect(&Environment::new(), &addr, "app", "test", config).unwrap();
    (harness, pc, dir)
}

/// Crash and restart the server once `plan` asks for it; yields whether it
/// did before `stop` was raised.
fn supervise(
    plan: Arc<FaultPlan>,
    harness: &Arc<Mutex<ServerHarness>>,
    stop: &Arc<AtomicBool>,
) -> JoinHandle<bool> {
    let harness = Arc::clone(harness);
    let stop = Arc::clone(stop);
    std::thread::spawn(move || loop {
        if plan.crash_requested() {
            let mut h = harness.lock().unwrap();
            h.crash().expect("supervisor crash");
            plan.acknowledge_crash();
            std::thread::sleep(Duration::from_millis(20));
            h.restart().expect("supervisor restart");
            return true;
        }
        if stop.load(Ordering::Relaxed) {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    })
}

/// A crash inside the capture request — `[CREATE TABLE t AS <select>;
/// SELECT * FROM t]`, one request — aborts the whole attempt: the query is
/// resubmitted under a fresh name and its rows arrive exactly once.
///
/// * At `wal.append` (the capture's one append, at its commit) nothing is
///   committed, so the aborted attempt leaves no table.
/// * At `store.publish` (after the commit record is durable) and at
///   `server.reply_send` (after the read-back ran) the aborted attempt's
///   table is committed but unregistered; it survives recovery, and `close`
///   sweeps it with the successful attempt's.
#[test]
fn query_resubmitted_after_crash_inside_capture_batch() {
    for (point, committed) in [
        ("wal.append", false),
        ("store.publish", true),
        ("server.reply_send", true),
    ] {
        let guard = chaos::arm(chaos::Schedule::new());
        let (harness, mut pc, dir) = start(&format!("capture-crash-{}", point.replace('.', "-")));
        pc.execute("CREATE TABLE customer (id INT PRIMARY KEY, name TEXT)")
            .unwrap();
        pc.execute(
            "INSERT INTO customer VALUES (1, 'Smith'), (2, 'Jones'), (3, 'Smith'), (4, 'Brown')",
        )
        .unwrap();
        let captures = |h: &ServerHarness| -> Vec<String> {
            h.with_engine(|e| {
                let mut names = e.snapshot().table_names();
                names.retain(|n| n.starts_with("phoenix.rs_"));
                names
            })
            .unwrap()
        };
        assert!(captures(&harness.lock().unwrap()).is_empty());

        // The capture request is the next to append, publish and reply.
        guard.reset(chaos::Schedule::new().crash_at(point, 1));
        let stop = Arc::new(AtomicBool::new(false));
        let supervisor = supervise(guard.plan(), &harness, &stop);
        let r = pc.execute("SELECT id, name FROM customer ORDER BY id");
        stop.store(true, Ordering::Relaxed);
        let crashed = supervisor.join().unwrap();
        assert!(guard.fired().iter().any(|f| f.point == point), "{point}");
        drop(guard);
        assert!(
            crashed,
            "{point}: the injected fault must have crashed the server"
        );

        let r = r.unwrap_or_else(|e| panic!("{point}: the query must survive the crash: {e}"));
        let name = |s: &str| Value::Text(s.into());
        assert_eq!(
            r.rows(),
            &[
                vec![Value::Int(1), name("Smith")],
                vec![Value::Int(2), name("Jones")],
                vec![Value::Int(3), name("Smith")],
                vec![Value::Int(4), name("Brown")],
            ],
            "{point}"
        );
        let stats = pc.stats().clone();
        assert!(stats.recoveries >= 1, "{point}: {stats:?}");
        assert!(stats.resubmissions >= 1, "{point}: {stats:?}");
        assert_eq!(stats.materialized_result_sets, 1, "{point}: {stats:?}");

        // The resubmitted attempt's table, and the aborted one's if its
        // commit beat the crash.
        let left = captures(&harness.lock().unwrap());
        assert_eq!(left.len(), 1 + committed as usize, "{point}: {left:?}");

        pc.close();
        let left = captures(&harness.lock().unwrap());
        assert!(left.is_empty(), "{point}: close left {left:?}");
        harness.lock().unwrap().shutdown();
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// The server dies after committing a wrapped `EXEC` of a procedure that
/// PRINTs, before its reply leaves: the reply Phoenix replays from the
/// status table carries the row count *and* the messages, which the server
/// wrote into the status row itself (`@@MESSAGES`), and the procedure's
/// insert applied once.
#[test]
fn messages_preserved_with_dml_outcome() {
    let guard = chaos::arm(chaos::Schedule::new());
    let (harness, mut pc, dir) = start("messages-crash");
    pc.execute("CREATE TABLE t (v INT)").unwrap();
    pc.execute(
        "CREATE PROCEDURE noisy AS BEGIN PRINT 'starting'; \
         INSERT INTO t VALUES (1), (2), (3); PRINT 'done' END",
    )
    .unwrap();

    // The EXEC's batch reply is the first reply the server sends from here.
    guard.reset(chaos::Schedule::new().crash_at("server.reply_send", 1));
    let stop = Arc::new(AtomicBool::new(false));
    let supervisor = supervise(guard.plan(), &harness, &stop);
    let r = pc.execute("EXEC noisy");
    stop.store(true, Ordering::Relaxed);
    let crashed = supervisor.join().unwrap();
    assert!(guard.fired().iter().any(|f| f.point == "server.reply_send"));
    drop(guard);
    assert!(crashed, "the injected fault must have crashed the server");

    let r = r.expect("the EXEC survives the crash");
    assert_eq!(r.affected(), 3);
    assert_eq!(r.messages, ["starting", "done"]);
    let stats = pc.stats().clone();
    assert_eq!(stats.replied_from_status, 1, "{stats:?}");
    assert_eq!(stats.resubmissions, 0, "{stats:?}");
    let count = pc.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(count.rows(), &[vec![Value::Int(3)]]);

    pc.close();
    harness.lock().unwrap().shutdown();
    std::fs::remove_dir_all(dir).unwrap();
}
