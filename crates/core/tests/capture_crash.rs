//! A crash inside Phoenix's one-request result capture. This test arms the
//! process-global fault schedule, so it has a test binary to itself: a
//! sibling test's server would count toward (and be halted by) its
//! schedule.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use phoenix_chaos as chaos;
use phoenix_core::{PhoenixConfig, PhoenixConnection};
use phoenix_driver::Environment;
use phoenix_engine::EngineConfig;
use phoenix_server::ServerHarness;
use phoenix_storage::types::Value;

/// A crash inside the capture batch — `[BEGIN; CREATE TABLE; CREATE
/// PROCEDURE; EXEC; COMMIT]`, one request — aborts the whole attempt: the
/// query is resubmitted under fresh names, its rows arrive once, the
/// aborted attempt's result table does not survive recovery, and `close`
/// sweeps what the successful attempt created.
#[test]
fn query_resubmitted_after_crash_inside_capture_batch() {
    let dir = std::env::temp_dir().join(format!("phoenix-capture-crash-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // One partition, so every log append visits the one `wal.append` point.
    let engine_config = EngineConfig {
        partitions: Some(1),
        ..EngineConfig::default()
    };
    let harness = Arc::new(Mutex::new(
        ServerHarness::start(&dir, engine_config).unwrap(),
    ));
    let addr = harness.lock().unwrap().addr();
    let mut config = PhoenixConfig::default();
    config.recovery.read_timeout = Some(Duration::from_millis(800));
    config.recovery.ping_interval = Duration::from_millis(20);
    let mut pc =
        PhoenixConnection::connect(&Environment::new(), &addr, "app", "test", config).unwrap();
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
    let guard = chaos::arm(chaos::Schedule::new().crash_at("wal.append", 3));
    let stop = Arc::new(AtomicBool::new(false));
    let supervisor = {
        let harness = Arc::clone(&harness);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || loop {
            if chaos::crash_requested() {
                let mut h = harness.lock().unwrap();
                h.crash().expect("supervisor crash");
                chaos::acknowledge_crash();
                std::thread::sleep(Duration::from_millis(20));
                h.restart().expect("supervisor restart");
                return true;
            }
            if stop.load(Ordering::Relaxed) {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        })
    };
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
