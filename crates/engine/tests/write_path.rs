//! The write path, checked by count and by content rather than by clock:
//! a statement copies a number of map entries proportional to the rows it
//! touches (not to the table), publishes once, is never seen half-applied,
//! and — when the store refuses it — leaves nothing in the log.
//!
//! The counters are process-wide, so the tests of this file run one at a
//! time.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use phoenix_engine::engine::{Engine, EngineConfig};
use phoenix_storage::db::Durability;
use phoenix_storage::metrics::storage_metrics;
use phoenix_storage::types::Value;

static COUNTERS: Mutex<()> = Mutex::new(());

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "phoenix-write-path-{}-{tag}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn open(dir: &PathBuf) -> Engine {
    let config = EngineConfig {
        durability: Durability::Buffered,
        checkpoint_every: None,
        ..EngineConfig::default()
    };
    Engine::open(dir, config).unwrap()
}

fn int(e: &Engine, sid: u64, sql: &str) -> i64 {
    match e.execute(sid, sql).unwrap().rows()[0][0] {
        Value::Int(n) => n,
        ref other => panic!("{sql}: {other:?}"),
    }
}

/// The failure ROADMAP would call a lost database: a statement fails inside
/// a transaction that then commits, and the server never starts again.
#[test]
fn failed_statement_in_committed_txn_does_not_brick_the_database() {
    let _serial = COUNTERS.lock().unwrap();
    let dir = temp_dir("brick");
    {
        let e = open(&dir);
        let sid = e.create_session("app");
        e.execute(sid, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
            .unwrap();
        e.execute(sid, "INSERT INTO t VALUES (1, 1)").unwrap();
        e.execute(sid, "BEGIN").unwrap();
        e.execute(sid, "INSERT INTO t VALUES (1, 2)")
            .expect_err("duplicate key");
        e.execute(sid, "INSERT INTO t VALUES (2, 2)").unwrap();
        e.execute(sid, "COMMIT").unwrap();
    }
    let e = open(&dir);
    let sid = e.create_session("app");
    let r = e.execute(sid, "SELECT k, v FROM t ORDER BY k").unwrap();
    assert_eq!(
        r.rows(),
        &[
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Int(2), Value::Int(2)]
        ]
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// With a snapshot of the whole table held live (so nothing can be written
/// in place), a single-row UPDATE of a 200 000-row table with a primary key
/// and a 7-value secondary index copies a few tree paths, and a 100-row
/// DELETE a hundred times that at most — where a table-granular copy made
/// ~600 000 entry copies for the first and 100 × that for the second.
#[test]
fn dml_copies_paths_not_tables_and_publishes_once() {
    let _serial = COUNTERS.lock().unwrap();
    const ROWS: i64 = 200_000;
    let dir = temp_dir("scaling");
    let e = open(&dir);
    let sid = e.create_session("app");
    e.execute(sid, "CREATE TABLE big (k INT PRIMARY KEY, grp INT, v INT)")
        .unwrap();
    e.execute(sid, "CREATE INDEX big_grp ON big (grp)").unwrap();
    for base in (0..ROWS).step_by(1_000) {
        let tuples: Vec<String> = (base..base + 1_000)
            .map(|k| format!("({k}, {}, 0)", k % 7))
            .collect();
        e.execute(
            sid,
            &format!("INSERT INTO big VALUES {}", tuples.join(", ")),
        )
        .unwrap();
    }
    let m = storage_metrics();
    let copied = || m.cow_entries_copied.get();
    let publishes = || m.snapshot_publishes.get();

    // One column of one row, indexed column untouched.
    let held = e.snapshot();
    let (c0, p0) = (copied(), publishes());
    e.execute(sid, "UPDATE big SET v = 1 WHERE k = 123456")
        .unwrap();
    let update_cost = copied() - c0;
    assert_eq!(publishes() - p0, 1);
    assert!(
        (1..=1_000).contains(&update_cost),
        "single-row UPDATE copied {update_cost} entries"
    );

    // The indexed column of one row: two buckets of ~28 000 ids change, by
    // a path each.
    let (c0, p0) = (copied(), publishes());
    e.execute(sid, "UPDATE big SET grp = 3 WHERE k = 100000")
        .unwrap();
    let reindex_cost = copied() - c0;
    assert_eq!(publishes() - p0, 1);
    assert!(
        reindex_cost <= 2_000,
        "re-indexing one row copied {reindex_cost} entries"
    );

    // A hundred rows, one statement, one publish.
    let (c0, p0) = (copied(), publishes());
    let r = e
        .execute(sid, "DELETE FROM big WHERE k >= 50000 AND k < 50100")
        .unwrap();
    assert_eq!(r.affected(), 100);
    let delete_cost = copied() - c0;
    assert_eq!(publishes() - p0, 1, "one publish per statement");
    assert!(
        delete_cost <= 100 * update_cost.max(reindex_cost),
        "100-row DELETE copied {delete_cost} entries (single-row UPDATE: {update_cost})"
    );

    // The held snapshot still shows the table as it was; the engine shows
    // every change; the index agrees with the rows on both.
    let old = held.table("dbo.big").unwrap();
    assert_eq!(old.len() as i64, ROWS);
    assert_eq!(old.rows[&123_457][2], Value::Int(0));
    held.verify_indexes().unwrap();
    e.verify_indexes().unwrap();
    assert_eq!(int(&e, sid, "SELECT COUNT(*) FROM big"), ROWS - 100);
    assert_eq!(int(&e, sid, "SELECT v FROM big WHERE k = 123456"), 1);
    assert_eq!(
        int(&e, sid, "SELECT COUNT(*) FROM big WHERE grp = 3"),
        (0..ROWS)
            .filter(|k| !(50_000..50_100).contains(k))
            .filter(|k| k % 7 == 3 || *k == 100_000)
            .count() as i64
    );
    drop(held);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A reader that takes a snapshot while a multi-row statement is being
/// applied sees all of it or none of it.
#[test]
fn readers_never_see_a_partially_applied_statement() {
    let _serial = COUNTERS.lock().unwrap();
    let dir = temp_dir("atomic");
    let e = Arc::new(open(&dir));
    let sid = e.create_session("writer");
    e.execute(sid, "CREATE TABLE acct (k INT PRIMARY KEY, v INT)")
        .unwrap();
    let tuples: Vec<String> = (0..200).map(|k| format!("({k}, 0)")).collect();
    e.execute(
        sid,
        &format!("INSERT INTO acct VALUES {}", tuples.join(", ")),
    )
    .unwrap();

    let done = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(3));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let (e, done, start) = (Arc::clone(&e), Arc::clone(&done), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                let mut seen = 0u64;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let snap = e.snapshot();
                    let t = snap.table("dbo.acct").unwrap();
                    let mut values = t.rows.values().map(|r| &r[1]);
                    let first = values.next().unwrap();
                    assert!(
                        values.all(|v| v == first),
                        "a snapshot holds rows from both sides of one UPDATE"
                    );
                    assert!(
                        t.len() == 200 || t.len() == 100,
                        "half a DELETE: {}",
                        t.len()
                    );
                    seen += 1;
                    if finished {
                        return seen;
                    }
                }
            })
        })
        .collect();

    start.wait();
    let publishes = storage_metrics().snapshot_publishes.get();
    for _ in 0..300 {
        e.execute(sid, "UPDATE acct SET v = v + 1").unwrap();
    }
    e.execute(sid, "DELETE FROM acct WHERE k >= 100").unwrap();
    assert_eq!(
        storage_metrics().snapshot_publishes.get() - publishes,
        301,
        "301 statements, 301 publishes"
    );
    done.store(true, Ordering::Release);
    for r in readers {
        assert!(r.join().unwrap() > 0);
    }
    assert_eq!(int(&e, sid, "SELECT MIN(v) FROM acct"), 300);
    drop(e);
    std::fs::remove_dir_all(&dir).unwrap();
}
