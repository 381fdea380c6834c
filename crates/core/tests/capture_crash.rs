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

/// A crash inside the capture batch — `[BEGIN; CREATE TABLE; CREATE
/// PROCEDURE; EXEC; COMMIT]`, one request — aborts the whole attempt: the
/// query is resubmitted under fresh names, its rows arrive once, the
/// aborted attempt's result table does not survive recovery, and `close`
/// sweeps what the successful attempt created.
#[test]
fn query_resubmitted_after_crash_inside_capture_batch() {
    let guard = chaos::arm(chaos::Schedule::new());
    let (harness, mut pc, dir) = start("capture-crash");
    pc.execute("CREATE TABLE customer (id INT PRIMARY KEY, name TEXT)")
        .unwrap();
    pc.execute(
        "INSERT INTO customer VALUES (1, 'Smith'), (2, 'Jones'), (3, 'Smith'), (4, 'Brown')",
    )
    .unwrap();
    let captures = |h: &ServerHarness| -> Vec<String> {
        h.with_engine(|e| {
            let snap = e.snapshot();
            let mut names = snap.table_names();
            names.extend(snap.proc_names());
            names.retain(|n| n.starts_with("phoenix.rs_") || n.starts_with("phoenix.cap_"));
            names
        })
        .unwrap()
    };
    assert!(captures(&harness.lock().unwrap()).is_empty());

    // The batch appends to the log for CREATE TABLE, CREATE PROCEDURE and
    // the INSERT the procedure runs: die at the third, with the table and
    // procedure created and nothing committed.
    guard.reset(chaos::Schedule::new().crash_at("wal.append", 3));
    let stop = Arc::new(AtomicBool::new(false));
    let supervisor = supervise(guard.plan(), &harness, &stop);
    let r = pc.execute("SELECT id, name FROM customer ORDER BY id");
    stop.store(true, Ordering::Relaxed);
    let crashed = supervisor.join().unwrap();
    assert!(guard.fired().iter().any(|f| f.point == "wal.append"));
    drop(guard);
    assert!(crashed, "the injected fault must have crashed the server");

    let r = r.expect("the query survives the crash");
    let name = |s: &str| Value::Text(s.into());
    assert_eq!(
        r.rows(),
        &[
            vec![Value::Int(1), name("Smith")],
            vec![Value::Int(2), name("Jones")],
            vec![Value::Int(3), name("Smith")],
            vec![Value::Int(4), name("Brown")],
        ]
    );
    let stats = pc.stats().clone();
    assert!(stats.recoveries >= 1, "{stats:?}");
    assert!(stats.resubmissions >= 1, "{stats:?}");

    // Only the resubmitted attempt's table and procedure exist.
    let left = captures(&harness.lock().unwrap());
    assert_eq!(left.len(), 2, "{left:?}");
    assert_eq!(
        left.iter().filter(|n| n.starts_with("phoenix.rs_")).count(),
        1,
        "{left:?}"
    );

    pc.close();
    assert!(captures(&harness.lock().unwrap()).is_empty());
    harness.lock().unwrap().shutdown();
    std::fs::remove_dir_all(dir).unwrap();
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
