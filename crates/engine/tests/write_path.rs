//! The write path, checked by count and by content rather than by clock:
//! a statement copies a number of map entries proportional to the rows it
//! touches (not to the table), a transaction publishes once, at commit, is
//! never seen half-applied, and a statement the store refuses leaves
//! nothing in the log, nor in a `#temp` table, which never reaches the
//! log.
//!
//! The counters are process-wide, so the tests of this file run one at a
//! time.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use phoenix_engine::engine::{Engine, EngineConfig};
use phoenix_engine::ErrorCode;
use phoenix_storage::db::Durability;
use phoenix_storage::metrics::storage_metrics;
use phoenix_storage::types::{Row, Value};

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
        e.execute(sid, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
            .expect_err("table exists");
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
    assert_eq!(publishes() - p0, 1, "one publish per autocommit statement");
    assert!(
        delete_cost <= 100 * update_cost.max(reindex_cost),
        "100-row DELETE copied {delete_cost} entries (single-row UPDATE: {update_cost})"
    );

    // An explicit transaction publishes nothing until its commit, and then
    // once, however many statements it ran.
    let p0 = publishes();
    e.execute(sid, "BEGIN").unwrap();
    e.execute(sid, "UPDATE big SET v = 2 WHERE k = 123456")
        .unwrap();
    e.execute(sid, "DELETE FROM big WHERE k = 7").unwrap();
    assert_eq!(publishes() - p0, 0, "nothing published before commit");
    e.execute(sid, "COMMIT").unwrap();
    assert_eq!(publishes() - p0, 1, "one publish per commit");
    e.execute(sid, "UPDATE big SET v = 1 WHERE k = 123456")
        .unwrap();
    e.execute(sid, "INSERT INTO big VALUES (7, 0, 0)").unwrap();

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
        "301 autocommit statements: 301 commits, 301 publishes"
    );
    done.store(true, Ordering::Release);
    for r in readers {
        assert!(r.join().unwrap() > 0);
    }
    assert_eq!(int(&e, sid, "SELECT MIN(v) FROM acct"), 300);
    drop(e);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An UPDATE's or DELETE's outcome: the affected count, or the error code.
fn outcome(e: &Engine, sid: u64, sql: &str) -> Result<u64, ErrorCode> {
    e.execute(sid, sql)
        .map(|r| r.affected())
        .map_err(|err| err.code)
}

fn rows_of(e: &Engine, sid: u64, table: &str) -> Vec<Row> {
    e.execute(sid, &format!("SELECT * FROM {table}"))
        .unwrap()
        .rows()
        .to_vec()
}

/// The access path EXPLAIN reports for a statement.
fn access_of(e: &Engine, sid: u64, sql: &str) -> String {
    match &e.execute(sid, &format!("EXPLAIN {sql}")).unwrap().rows()[0][3] {
        Value::Text(s) => s.clone(),
        other => panic!("{sql}: {other:?}"),
    }
}

/// An UPDATE or DELETE finds its rows by the access path its `SELECT *`
/// would take. Each statement runs against copies of one table: `heap`
/// (neither primary key nor index: a scan, the reference), `plain` (the
/// primary key only) and `ix` (the primary key and secondary indexes, on
/// the key column too). Every copy must report the same affected count or
/// error code and end with the same rows, in row-id order. Rows go in with
/// descending keys, so row-id order is the reverse of key order: a change
/// list applied in index order instead of row-id order shows up as another
/// outcome of a key-shifting UPDATE. Durable and `#temp` tables alike.
#[test]
fn dml_edge_cases_indexed_equals_unindexed() {
    let _serial = COUNTERS.lock().unwrap();
    let dir = temp_dir("dml-edges");
    let e = open(&dir);
    let sid = e.create_session("app");

    // (statement, the access path the `ix` copy must take, its outcome).
    // `{t}` is the one-column-key table, `{c}` the composite-key one.
    type Case = (&'static str, &'static str, Result<u64, ErrorCode>);
    const CASES: &[Case] = &[
        ("UPDATE {t} SET v = v + 1 WHERE id = 5", "pk-point", Ok(1)),
        ("UPDATE {t} SET v = v + 2 WHERE id = 5.0", "pk-point", Ok(1)),
        ("DELETE FROM {t} WHERE id = 5.5", "pk-point", Ok(0)),
        ("UPDATE {t} SET v = 0 WHERE id = NULL", "pk-point", Ok(0)),
        ("DELETE FROM {t} WHERE id = 31", "pk-point", Ok(0)),
        (
            "UPDATE {c} SET v = v + 1 WHERE a = 2 AND b = 3",
            "pk-point",
            Ok(1),
        ),
        ("DELETE FROM {c} WHERE b = 4 AND a = 1.0", "pk-point", Ok(1)),
        ("UPDATE {c} SET v = -v WHERE a = 3", "index-eq", Ok(6)),
        ("DELETE FROM {c} WHERE a = 4 AND v > 42", "index-eq", Ok(4)),
        ("UPDATE {t} SET v = -v WHERE g = 2", "index-eq", Ok(6)),
        ("DELETE FROM {t} WHERE g IN (3, 1, 3)", "index-eq", Ok(12)),
        (
            "UPDATE {t} SET v = v * 2 WHERE id BETWEEN 7 AND 12",
            "index-range",
            Ok(4),
        ),
        // No low bound, and no NULL key matches.
        ("UPDATE {t} SET v = 7 WHERE g < 3", "index-range", Ok(6)),
        // Changes the indexed column the rows were selected through.
        ("UPDATE {t} SET g = g + 10 WHERE g = 2", "index-eq", Ok(6)),
        ("UPDATE {t} SET g = 0 WHERE g >= 10", "index-range", Ok(6)),
        ("DELETE FROM {t} WHERE v > 1000", "scan", Ok(0)),
    ];
    // Key-shifting UPDATEs, which the key check judges row by row in
    // row-id order, so only the copies with a key run them. The cases
    // above leave the keys 2, 4, 5, 7, 9, 10, 12, … 29, 30. The first
    // succeeds only in descending key order, which row-id order is here;
    // the second collides at its first row in any order.
    const KEYED: &[Case] = &[
        (
            "UPDATE {t} SET id = id + 1 WHERE id BETWEEN 29 AND 30",
            "index-range",
            Ok(2),
        ),
        (
            "UPDATE {t} SET id = id + 2 WHERE id BETWEEN 12 AND 13",
            "index-range",
            Err(ErrorCode::Constraint),
        ),
        (
            "UPDATE {t} SET id = id + 100 WHERE id BETWEEN 3 AND 8",
            "index-range",
            Ok(3),
        ),
    ];

    for prefix in ["d", "#t"] {
        let name = |table: &str, copy: &str| format!("{prefix}{table}_{copy}");
        let tag = &prefix[prefix.len() - 1..];
        for copy in ["heap", "plain", "ix"] {
            let (t, c) = (name("t", copy), name("c", copy));
            let (tk, ck) = match copy {
                "heap" => ("", ""),
                _ => (", PRIMARY KEY (id)", ", PRIMARY KEY (a, b)"),
            };
            e.execute(
                sid,
                &format!("CREATE TABLE {t} (id INT NOT NULL, g INT, v INT{tk})"),
            )
            .unwrap();
            e.execute(
                sid,
                &format!("CREATE TABLE {c} (a INT NOT NULL, b INT NOT NULL, v INT{ck})"),
            )
            .unwrap();
            // Descending keys; `g` is NULL on every fifth row.
            let values: Vec<String> = (1..=30)
                .rev()
                .map(|id| match id % 5 {
                    0 => format!("({id}, NULL, {id})"),
                    g => format!("({id}, {g}, {id})"),
                })
                .collect();
            e.execute(
                sid,
                &format!("INSERT INTO {t} VALUES {}", values.join(", ")),
            )
            .unwrap();
            let values: Vec<String> = (1..=5)
                .rev()
                .flat_map(|a| (1..=6).map(move |b| format!("({a}, {b}, {})", a * 10 + b)))
                .collect();
            e.execute(
                sid,
                &format!("INSERT INTO {c} VALUES {}", values.join(", ")),
            )
            .unwrap();
            if copy == "ix" {
                for (table, col) in [(&t, "g"), (&t, "id"), (&c, "a")] {
                    let sql = format!("CREATE INDEX ix_{tag}_{col} ON {table}({col})");
                    e.execute(sid, &sql).unwrap();
                }
            }
        }

        let check = |&(sql, access, want): &Case, copies: &[&str]| {
            let on = |copy: &str| {
                sql.replace("{t}", &name("t", copy))
                    .replace("{c}", &name("c", copy))
            };
            assert_eq!(access_of(&e, sid, &on("ix")), access, "{}", on("ix"));
            for copy in copies {
                assert_eq!(outcome(&e, sid, &on(copy)), want, "{}", on(copy));
            }
            for table in ["t", "c"] {
                let reference = rows_of(&e, sid, &name(table, copies[0]));
                for copy in &copies[1..] {
                    let rows = rows_of(&e, sid, &name(table, copy));
                    assert_eq!(rows, reference, "{}", on(copy));
                }
            }
        };
        let all = &["heap", "plain", "ix"];
        for case in CASES {
            check(case, all);
        }
        // Inside a transaction that rolls back: the same rows, then none
        // of the change (a temp table is outside the transaction).
        let before = rows_of(&e, sid, &name("t", "ix"));
        e.execute(sid, "BEGIN").unwrap();
        check(
            &("UPDATE {t} SET v = 0 WHERE g = 4", "index-eq", Ok(6)),
            all,
        );
        e.execute(sid, "ROLLBACK").unwrap();
        if prefix == "d" {
            assert_eq!(rows_of(&e, sid, &name("t", "ix")), before);
        }
        for case in KEYED {
            check(case, &["plain", "ix"]);
        }
    }
    drop(e);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A statement's outcome with whatever it returns set aside: success, or
/// the error code.
fn code(e: &Engine, sid: u64, sql: &str) -> Result<(), ErrorCode> {
    e.execute(sid, sql).map(drop).map_err(|err| err.code)
}

/// A statement the store refuses leaves nothing behind, on a durable and on
/// a `#temp` table alike, and both refuse it with the same error code. Each
/// case starts from a fresh keyed table `{t}` holding its rows, runs its
/// statements, each with its expected outcome, and must leave `{t}` as it
/// was — outside a transaction and inside one that then rolls back. `{u}`
/// is a table no case leaves behind, `{i}`/`{j}` index names and `{p}` a
/// procedure name, each spelled for the durable or the temp store. The
/// key-shifting UPDATEs apply their rows in row-id order, so the first
/// rows move before a later one collides.
#[test]
fn refused_statement_leaves_nothing_and_temp_matches_durable() {
    // Every case writes, and the counter tests above measure exact deltas
    // of process-wide counters: run one at a time with them.
    let _serial = COUNTERS.lock().unwrap();
    let dir = temp_dir("refused");
    let e = open(&dir);
    let sid = e.create_session("app");

    type Case = (
        &'static str,
        &'static [(&'static str, Result<(), ErrorCode>)],
    );
    use ErrorCode::{AlreadyExists, Column, Constraint, NotFound};
    const CASES: &[Case] = &[
        // A key repeated inside the statement, at its third row.
        (
            "",
            &[(
                "INSERT INTO {t} VALUES (1, 1), (2, 2), (1, 3)",
                Err(Constraint),
            )],
        ),
        // 1 → 3 goes in, then 2 → 4 collides.
        (
            "(1, 1), (2, 2), (4, 4)",
            &[("UPDATE {t} SET id = id + 2 WHERE id <= 2", Err(Constraint))],
        ),
        // 1 → 11 and 2 → 12 go in, then 3 → 13 collides with the last row.
        (
            "(1, 1), (2, 2), (3, 3), (13, 13)",
            &[("UPDATE {t} SET id = id + 10", Err(Constraint))],
        ),
        (
            "(1, 1)",
            &[
                ("CREATE TABLE {t} (id INT)", Err(AlreadyExists)),
                ("CREATE TABLE {u} (a INT)", Ok(())),
                ("CREATE TABLE {u} (a INT)", Err(AlreadyExists)),
                ("DROP TABLE {u}", Ok(())),
                ("DROP TABLE {u}", Err(NotFound)),
                ("DROP TABLE IF EXISTS {u}", Ok(())),
            ],
        ),
        ("(1, 1)", &[("INSERT INTO {t} VALUES (2)", Err(Constraint))]),
        (
            "(1, 1)",
            &[("INSERT INTO {t} VALUES (2, 2), (NULL, 3)", Err(Constraint))],
        ),
        (
            "(1, 1), (2, 2)",
            &[
                ("CREATE INDEX {i} ON {t} (v)", Ok(())),
                ("CREATE INDEX {i} ON {t} (id)", Err(AlreadyExists)),
                ("CREATE INDEX {j} ON {t} (nope)", Err(Column)),
                ("DROP INDEX {i}", Ok(())),
                ("DROP INDEX {i}", Err(NotFound)),
                ("DROP INDEX {j}", Err(NotFound)),
            ],
        ),
        (
            "",
            &[
                ("CREATE PROCEDURE {p} AS SELECT 1", Ok(())),
                ("CREATE PROCEDURE {p} AS SELECT 2", Err(AlreadyExists)),
                ("DROP PROCEDURE {p}", Ok(())),
                ("DROP PROCEDURE {p}", Err(NotFound)),
            ],
        ),
        ("(1, 1)", &[("UPDATE {u} SET a = 1", Err(NotFound))]),
    ];

    for (rows, stmts) in CASES {
        let mut outcomes = Vec::new();
        for in_txn in [false, true] {
            for (t, u, i, j, p) in [
                ("dref", "dgone", "ix_dref", "jx_dref", "dproc"),
                ("#ref", "#gone", "ix_tref", "jx_tref", "#proc"),
            ] {
                let on = |sql: &str| {
                    sql.replace("{t}", t)
                        .replace("{u}", u)
                        .replace("{i}", i)
                        .replace("{j}", j)
                        .replace("{p}", p)
                };
                code(&e, sid, &on("DROP TABLE IF EXISTS {t}")).unwrap();
                code(
                    &e,
                    sid,
                    &on("CREATE TABLE {t} (id INT NOT NULL, v INT, PRIMARY KEY (id))"),
                )
                .unwrap();
                if !rows.is_empty() {
                    code(&e, sid, &on(&format!("INSERT INTO {{t}} VALUES {rows}"))).unwrap();
                }
                let before = rows_of(&e, sid, t);
                if in_txn {
                    e.execute(sid, "BEGIN").unwrap();
                }
                let got: Vec<_> = stmts
                    .iter()
                    .map(|(sql, _)| code(&e, sid, &on(sql)))
                    .collect();
                let want: Vec<_> = stmts.iter().map(|&(_, want)| want).collect();
                assert_eq!(got, want, "{t}, in a transaction: {in_txn}");
                assert_eq!(rows_of(&e, sid, t), before, "{t}: {}", on(stmts[0].0));
                if in_txn {
                    e.execute(sid, "ROLLBACK").unwrap();
                    assert_eq!(rows_of(&e, sid, t), before, "{t} after ROLLBACK");
                }
                outcomes.push(got);
            }
        }
        assert!(outcomes.windows(2).all(|w| w[0] == w[1]), "{outcomes:?}");
    }
    drop(e);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Temp objects stay outside transactions and out of the log: temp DML and
/// a `CREATE TABLE #x` inside a transaction that rolls back survive it, and
/// a thousand temp statements add no byte to the WAL.
#[test]
fn temp_writes_survive_rollback_and_log_nothing() {
    let _serial = COUNTERS.lock().unwrap();
    let dir = temp_dir("temp-volatile");
    let e = open(&dir);
    let sid = e.create_session("app");
    e.execute(sid, "CREATE TABLE #keep (k INT PRIMARY KEY, v INT)")
        .unwrap();
    e.execute(sid, "INSERT INTO #keep VALUES (1, 1), (2, 2)")
        .unwrap();

    e.execute(sid, "BEGIN").unwrap();
    e.execute(sid, "CREATE TABLE #made (a INT)").unwrap();
    e.execute(sid, "INSERT INTO #made VALUES (7)").unwrap();
    e.execute(sid, "UPDATE #keep SET v = 10 WHERE k = 1")
        .unwrap();
    e.execute(sid, "DELETE FROM #keep WHERE k = 2").unwrap();
    e.execute(sid, "INSERT INTO #keep VALUES (3, 3)").unwrap();
    e.execute(sid, "ROLLBACK").unwrap();
    assert_eq!(int(&e, sid, "SELECT a FROM #made"), 7);
    assert_eq!(
        rows_of(&e, sid, "#keep"),
        vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(3), Value::Int(3)],
        ]
    );

    let wal = dir.join("phoenix.wal");
    let size = || std::fs::metadata(&wal).unwrap().len();
    let before = size();
    for k in 0..250 {
        e.execute(sid, &format!("INSERT INTO #keep VALUES ({}, 0)", 100 + k))
            .unwrap();
        e.execute(
            sid,
            &format!("UPDATE #keep SET v = {k} WHERE k = {}", 100 + k),
        )
        .unwrap();
        e.execute(sid, &format!("CREATE INDEX ix_{k} ON #keep (v)"))
            .unwrap();
        e.execute(sid, &format!("DROP INDEX ix_{k}")).unwrap();
    }
    assert_eq!(size(), before, "1 000 temp statements wrote to the log");
    assert_eq!(int(&e, sid, "SELECT COUNT(*) FROM #keep"), 252);
    e.execute(sid, "CREATE TABLE logged (a INT)").unwrap();
    assert!(size() > before, "a durable statement reaches the log");
    drop(e);
    std::fs::remove_dir_all(&dir).unwrap();
}
