//! Transaction isolation through the wire: the probes a build with one
//! shared working store failed, each over its own client connections to a
//! running server.

mod common;

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use common::{call, login};
use phoenix_engine::EngineConfig;
use phoenix_server::ServerHarness;
use phoenix_storage::db::Durability;
use phoenix_storage::types::Value;
use phoenix_wire::message::{Outcome, Request, Response};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "phoenix-server-isolation-{tag}-{}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn config(checkpoint_every: Option<u64>) -> EngineConfig {
    EngineConfig {
        durability: Durability::Buffered,
        checkpoint_every,
        ..EngineConfig::default()
    }
}

fn client(h: &ServerHarness) -> TcpStream {
    let mut s = TcpStream::connect(h.addr()).unwrap();
    s.set_nodelay(true).unwrap();
    login(&mut s);
    s
}

/// Run `sql`; its rows, its affected count as one row, or nothing.
fn exec(s: &mut TcpStream, sql: &str) -> Vec<Vec<Value>> {
    match call(s, Request::Exec { sql: sql.into() }) {
        Response::Result { outcome, .. } => match outcome {
            Outcome::ResultSet { rows, .. } => rows,
            Outcome::RowsAffected(n) => vec![vec![Value::Int(n as i64)]],
            Outcome::Done => Vec::new(),
        },
        other => panic!("{sql}: {other:?}"),
    }
}

fn kv(k: i64, v: i64) -> Vec<Value> {
    vec![Value::Int(k), Value::Int(v)]
}

const ROWS: &str = "SELECT k, v FROM t ORDER BY k";

/// A server over a fresh directory with `t (k, v)` holding `(1, v)`.
fn one_row(tag: &str, v: i64) -> (ServerHarness, std::path::PathBuf) {
    let dir = temp_dir(tag);
    let h = ServerHarness::start(&dir, config(None)).unwrap();
    let mut s = client(&h);
    exec(&mut s, "CREATE TABLE t (k INT PRIMARY KEY, v INT)");
    exec(&mut s, &format!("INSERT INTO t VALUES (1, {v})"));
    (h, dir)
}

#[test]
fn concurrent_autocommit_increments_are_all_kept() {
    let (h, dir) = one_row("increments", 0);
    let start = Arc::new(Barrier::new(2));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let mut s = client(&h);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..5_000 {
                    let n = exec(&mut s, "UPDATE t SET v = v + 1 WHERE k = 1");
                    assert_eq!(n, [[Value::Int(1)]]);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(exec(&mut client(&h), ROWS), [kv(1, 10_000)]);
    drop(h);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_open_transaction_is_invisible_to_others() {
    let (h, dir) = one_row("dirty-read", 10);
    let (mut a, mut b) = (client(&h), client(&h));
    exec(&mut a, "BEGIN");
    exec(&mut a, "UPDATE t SET v = 99 WHERE k = 1");
    exec(&mut a, "INSERT INTO t VALUES (2, 20)");
    assert_eq!(exec(&mut b, ROWS), [kv(1, 10)]);
    exec(&mut a, "COMMIT");
    assert_eq!(exec(&mut b, ROWS), [kv(1, 99), kv(2, 20)]);
    drop(h);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_rollback_leaves_another_sessions_commit_in_place() {
    let (mut h, dir) = one_row("rollback", 10);
    let (mut a, mut b) = (client(&h), client(&h));
    exec(&mut a, "BEGIN");
    exec(&mut a, "UPDATE t SET v = 99 WHERE k = 1");
    assert_eq!(
        exec(&mut b, "UPDATE t SET v = v + 1 WHERE k = 1"),
        [[Value::Int(1)]]
    );
    exec(&mut a, "ROLLBACK");
    assert_eq!(exec(&mut b, ROWS), [kv(1, 11)], "live");
    h.crash().unwrap();
    h.restart().unwrap();
    assert_eq!(exec(&mut client(&h), ROWS), [kv(1, 11)], "after restart");
    drop(h);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_rollback_under_another_sessions_update_keeps_the_database_openable() {
    let (mut h, dir) = one_row("unopenable", 10);
    let (mut a, mut b) = (client(&h), client(&h));
    exec(&mut a, "BEGIN");
    exec(&mut a, "INSERT INTO t VALUES (5, 50)");
    assert_eq!(
        exec(&mut b, "UPDATE t SET v = v + 1 WHERE k = 5"),
        [[Value::Int(0)]]
    );
    exec(&mut a, "ROLLBACK");
    h.crash().unwrap();
    h.restart().unwrap();
    assert_eq!(exec(&mut client(&h), ROWS), [kv(1, 10)]);
    drop(h);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One idle `BEGIN` + insert held open on one connection, 20 000
/// autocommit inserts on another, a checkpoint due every 1 000 log
/// records: the log stays within one checkpoint interval.
#[test]
fn checkpoints_run_beside_an_idle_open_transaction() {
    let dir = temp_dir("checkpoints");
    let h = ServerHarness::start(&dir, config(Some(1_000))).unwrap();
    let (mut idle, mut busy) = (client(&h), client(&h));
    exec(&mut busy, "CREATE TABLE t (k INT PRIMARY KEY, v INT)");
    exec(&mut idle, "BEGIN");
    exec(&mut idle, "INSERT INTO t VALUES (0, 0)");
    let mut largest = 0;
    for k in 1..=20_000 {
        exec(&mut busy, &format!("INSERT INTO t VALUES ({k}, {k})"));
        largest = largest.max(std::fs::metadata(dir.join("phoenix.wal")).unwrap().len());
    }
    // Under 100 bytes framed per insert and commit: 500 such pairs are the
    // interval, with room to spare.
    assert!(largest <= 100_000, "the log grew to {largest} bytes");
    exec(&mut idle, "COMMIT");
    assert_eq!(
        exec(&mut busy, "SELECT COUNT(*) FROM t"),
        [[Value::Int(20_001)]]
    );
    drop(h);
    std::fs::remove_dir_all(&dir).unwrap();
}
