//! Transactions are isolated: each one reads and writes its own copy of the
//! committed store and publishes nothing before it commits. Four probes a
//! build with one shared working store failed, each as a test here (the
//! fifth, checkpoints beside an idle open transaction, is
//! `checkpoints_run_beside_an_idle_open_txn` in the engine's unit tests):
//!
//! * two sessions' autocommit increments of one row lost updates;
//! * a session read another's uncommitted rows;
//! * a rollback put its images back over another session's commit;
//! * a rollback under another session's update of its row left a
//!   database that no longer opened.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use phoenix_engine::engine::{Engine, EngineConfig};
use phoenix_engine::ErrorCode;
use phoenix_storage::db::Durability;
use phoenix_storage::types::Value;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "phoenix-isolation-{}-{tag}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn open(dir: &PathBuf) -> Engine {
    let config = EngineConfig {
        durability: Durability::Buffered,
        ..EngineConfig::default()
    };
    Engine::open(dir, config).unwrap()
}

/// `t (k, v)` holding `(1, 10)`.
fn one_row(e: &Engine) {
    let sid = e.create_session("setup");
    e.execute(sid, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        .unwrap();
    e.execute(sid, "INSERT INTO t VALUES (1, 10)").unwrap();
    e.close_session(sid).unwrap();
}

fn rows(e: &Engine, sid: u64) -> Vec<Vec<Value>> {
    e.execute(sid, "SELECT k, v FROM t ORDER BY k")
        .unwrap()
        .rows()
        .to_vec()
}

fn kv(k: i64, v: i64) -> Vec<Value> {
    vec![Value::Int(k), Value::Int(v)]
}

/// Two sessions each increment one row 5 000 times in autocommit. Every
/// increment is acknowledged, so the row ends at exactly 10 000: a commit
/// that loses the row to the other session is re-run on the store as it
/// then stands, never lost and never reported.
#[test]
fn concurrent_autocommit_increments_are_all_kept() {
    let dir = temp_dir("increments");
    let e = Arc::new(open(&dir));
    let sid = e.create_session("setup");
    e.execute(sid, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        .unwrap();
    e.execute(sid, "INSERT INTO t VALUES (1, 0)").unwrap();
    let start = Arc::new(Barrier::new(2));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let (e, start) = (Arc::clone(&e), Arc::clone(&start));
            std::thread::spawn(move || {
                let sid = e.create_session("incrementer");
                start.wait();
                for _ in 0..5_000 {
                    let r = e
                        .execute(sid, "UPDATE t SET v = v + 1 WHERE k = 1")
                        .unwrap();
                    assert_eq!(r.affected(), 1);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(rows(&e, sid), [kv(1, 10_000)]);
    drop(e);
    let e = open(&dir);
    let sid = e.create_session("after");
    assert_eq!(rows(&e, sid), [kv(1, 10_000)], "after reopen");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// While A's update and insert are open, B reads neither; once A commits,
/// B reads both.
#[test]
fn an_open_transaction_is_invisible_to_others() {
    let dir = temp_dir("dirty-read");
    let e = open(&dir);
    one_row(&e);
    let (a, b) = (e.create_session("a"), e.create_session("b"));
    e.execute(a, "BEGIN").unwrap();
    e.execute(a, "UPDATE t SET v = 99 WHERE k = 1").unwrap();
    e.execute(a, "INSERT INTO t VALUES (2, 20)").unwrap();
    assert_eq!(
        rows(&e, a),
        [kv(1, 99), kv(2, 20)],
        "A reads its own writes"
    );
    assert_eq!(rows(&e, b), [kv(1, 10)], "B reads none of them");
    assert_eq!(e.snapshot().table("dbo.t").unwrap().len(), 1);
    e.execute(a, "COMMIT").unwrap();
    assert_eq!(rows(&e, b), [kv(1, 99), kv(2, 20)]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A rolls back after B committed an increment of the row A had updated:
/// B's commit stays, live and after a reopen.
#[test]
fn a_rollback_leaves_another_sessions_commit_in_place() {
    let dir = temp_dir("rollback");
    {
        let e = open(&dir);
        one_row(&e);
        let (a, b) = (e.create_session("a"), e.create_session("b"));
        e.execute(a, "BEGIN").unwrap();
        e.execute(a, "UPDATE t SET v = 99 WHERE k = 1").unwrap();
        let r = e.execute(b, "UPDATE t SET v = v + 1 WHERE k = 1").unwrap();
        assert_eq!(r.affected(), 1);
        assert_eq!(rows(&e, b), [kv(1, 11)], "B incremented the committed 10");
        e.execute(a, "ROLLBACK").unwrap();
        assert_eq!(rows(&e, b), [kv(1, 11)], "live");
    }
    let e = open(&dir);
    let sid = e.create_session("after");
    assert_eq!(rows(&e, sid), [kv(1, 11)], "after reopen");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A inserts a row in an open transaction; B's autocommit update of that
/// row finds nothing to update; A rolls back; the next open succeeds.
#[test]
fn a_rollback_under_another_sessions_update_keeps_the_database_openable() {
    let dir = temp_dir("unopenable");
    {
        let e = open(&dir);
        one_row(&e);
        let (a, b) = (e.create_session("a"), e.create_session("b"));
        e.execute(a, "BEGIN").unwrap();
        e.execute(a, "INSERT INTO t VALUES (5, 50)").unwrap();
        let r = e.execute(b, "UPDATE t SET v = v + 1 WHERE k = 5").unwrap();
        assert_eq!(r.affected(), 0, "B cannot see A's uncommitted row");
        e.execute(a, "ROLLBACK").unwrap();
    }
    let e = open(&dir);
    let sid = e.create_session("after");
    assert_eq!(rows(&e, sid), [kv(1, 10)]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An explicit transaction that loses its row to a commit made after it
/// began is refused at `COMMIT` with `Conflict`, rolled back whole, and
/// leaves the session free to begin again; the winner's value stays.
#[test]
fn the_first_committer_wins_and_the_loser_gets_conflict() {
    let dir = temp_dir("conflict");
    let e = open(&dir);
    one_row(&e);
    let (a, b) = (e.create_session("a"), e.create_session("b"));
    e.execute(a, "BEGIN").unwrap();
    e.execute(a, "UPDATE t SET v = v + 1 WHERE k = 1").unwrap();
    e.execute(a, "INSERT INTO t VALUES (2, 20)").unwrap();
    e.execute(b, "BEGIN").unwrap();
    e.execute(b, "UPDATE t SET v = v + 100 WHERE k = 1")
        .unwrap();
    e.execute(b, "COMMIT").unwrap();
    let err = e.execute(a, "COMMIT").unwrap_err();
    assert_eq!(err.code, ErrorCode::Conflict, "{err}");
    assert_eq!(rows(&e, a), [kv(1, 110)], "none of A is committed");
    e.execute(a, "BEGIN").unwrap();
    e.execute(a, "ROLLBACK").unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Transactions that write different rows of one table both commit: the
/// later one is re-applied to the store the earlier one built, its
/// inserted rows taking fresh ids, and both survive a reopen.
#[test]
fn disjoint_writers_both_commit() {
    let dir = temp_dir("disjoint");
    {
        let e = open(&dir);
        one_row(&e);
        let (a, b) = (e.create_session("a"), e.create_session("b"));
        e.execute(a, "BEGIN").unwrap();
        e.execute(a, "INSERT INTO t VALUES (2, 20)").unwrap();
        e.execute(a, "UPDATE t SET v = 21 WHERE k = 2").unwrap();
        e.execute(b, "BEGIN").unwrap();
        e.execute(b, "INSERT INTO t VALUES (3, 30)").unwrap();
        e.execute(b, "UPDATE t SET v = 11 WHERE k = 1").unwrap();
        e.execute(b, "COMMIT").unwrap();
        e.execute(a, "DELETE FROM t WHERE k = 2").unwrap();
        e.execute(a, "INSERT INTO t VALUES (4, 40)").unwrap();
        e.execute(a, "COMMIT").unwrap();
        assert_eq!(rows(&e, a), [kv(1, 11), kv(3, 30), kv(4, 40)]);
    }
    let e = open(&dir);
    let sid = e.create_session("after");
    assert_eq!(rows(&e, sid), [kv(1, 11), kv(3, 30), kv(4, 40)]);
    e.verify_indexes().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
