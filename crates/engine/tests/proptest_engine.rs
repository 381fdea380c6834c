// The offline build environment has no `proptest` crate available, so these
// property tests are compiled only when the `slow-proptests` feature is
// enabled (which requires supplying a real proptest dependency).
#![cfg(feature = "slow-proptests")]

//! Property tests of engine query-processing invariants.

use proptest::prelude::*;

use phoenix_engine::{Engine, EngineConfig};
use phoenix_storage::types::Value;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("phoenix-engine-prop-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Build an engine with a single table `t(k INT PK, grp INT, v INT)`
/// containing the given rows (keys deduplicated by construction).
fn engine_with(rows: &[(i64, i64)]) -> (Engine, u64, PathBuf) {
    let dir = temp_dir();
    let mut e = Engine::open(&dir, EngineConfig::default()).unwrap();
    let sid = e.create_session("prop");
    e.execute(sid, "CREATE TABLE t (k INT PRIMARY KEY, grp INT, v INT)")
        .unwrap();
    if !rows.is_empty() {
        let tuples: Vec<String> = rows
            .iter()
            .enumerate()
            .map(|(i, (g, v))| format!("({i}, {}, {})", g.rem_euclid(5), v))
            .collect();
        e.execute(sid, &format!("INSERT INTO t VALUES {}", tuples.join(", ")))
            .unwrap();
    }
    (e, sid, dir)
}

fn rows_strategy() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((any::<i64>(), -1000i64..1000), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ORDER BY really sorts, and is stable under re-execution.
    #[test]
    fn order_by_sorts(rows in rows_strategy()) {
        let (mut e, sid, dir) = engine_with(&rows);
        let r = e.execute(sid, "SELECT v FROM t ORDER BY v").unwrap();
        let vs: Vec<i64> = r.rows().iter().map(|r| r[0].as_i64().unwrap()).collect();
        let mut sorted = vs.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&vs, &sorted);
        let r2 = e.execute(sid, "SELECT v FROM t ORDER BY v").unwrap();
        prop_assert_eq!(r.rows(), r2.rows());
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// LIMIT/OFFSET slices the ordered result exactly.
    #[test]
    fn limit_offset_windows(rows in rows_strategy(), off in 0u64..50, lim in 0u64..50) {
        let (mut e, sid, dir) = engine_with(&rows);
        let full = e.execute(sid, "SELECT k FROM t ORDER BY k").unwrap().rows().to_vec();
        let windowed = e
            .execute(sid, &format!("SELECT k FROM t ORDER BY k LIMIT {lim} OFFSET {off}"))
            .unwrap()
            .rows()
            .to_vec();
        let lo = (off as usize).min(full.len());
        let hi = (lo + lim as usize).min(full.len());
        prop_assert_eq!(windowed, full[lo..hi].to_vec());
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Grouped aggregates are consistent with global aggregates.
    #[test]
    fn group_aggregates_sum_to_global(rows in rows_strategy()) {
        let (mut e, sid, dir) = engine_with(&rows);
        let grouped = e
            .execute(sid, "SELECT grp, COUNT(*), SUM(v) FROM t GROUP BY grp")
            .unwrap()
            .rows()
            .to_vec();
        let total_n: i64 = grouped.iter().map(|r| r[1].as_i64().unwrap()).sum();
        let total_v: i64 = grouped
            .iter()
            .map(|r| r[2].as_i64().unwrap_or(0))
            .sum();
        let global = e.execute(sid, "SELECT COUNT(*), SUM(v) FROM t").unwrap().rows().to_vec();
        prop_assert_eq!(global[0][0].as_i64().unwrap(), total_n);
        if total_n > 0 {
            prop_assert_eq!(global[0][1].as_i64().unwrap(), total_v);
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A keyset cursor drained without concurrent modification returns the
    /// same rows as a direct SELECT.
    #[test]
    fn keyset_cursor_equals_select(rows in rows_strategy(), block in 1usize..7) {
        let (mut e, sid, dir) = engine_with(&rows);
        let direct = e
            .execute(sid, "SELECT k, v FROM t WHERE v >= 0")
            .unwrap()
            .rows()
            .to_vec();
        let select = match phoenix_sql::parse_statement("SELECT k, v FROM t WHERE v >= 0").unwrap() {
            phoenix_sql::Statement::Select(s) => s,
            _ => unreachable!(),
        };
        let (cid, _, granted) = e
            .open_cursor(sid, &select, phoenix_engine::cursor::CursorKind::Keyset)
            .unwrap();
        prop_assert_eq!(granted, phoenix_engine::cursor::CursorKind::Keyset);
        let mut fetched = Vec::new();
        loop {
            let f = e.fetch(sid, cid, phoenix_engine::cursor::FetchDir::Next, block).unwrap();
            fetched.extend(f.rows);
            if f.at_end {
                break;
            }
        }
        prop_assert_eq!(fetched, direct);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Committed engine state survives an engine drop + reopen (the
    /// end-to-end durability contract Phoenix relies on).
    #[test]
    fn committed_state_survives_reopen(rows in rows_strategy(), delete_below in -500i64..500) {
        let dir = temp_dir();
        let expected = {
            let mut e = Engine::open(&dir, EngineConfig::default()).unwrap();
            let sid = e.create_session("prop");
            e.execute(sid, "CREATE TABLE t (k INT PRIMARY KEY, grp INT, v INT)").unwrap();
            if !rows.is_empty() {
                let tuples: Vec<String> = rows
                    .iter()
                    .enumerate()
                    .map(|(i, (g, v))| format!("({i}, {}, {})", g.rem_euclid(5), v))
                    .collect();
                e.execute(sid, &format!("INSERT INTO t VALUES {}", tuples.join(", "))).unwrap();
            }
            e.execute(sid, &format!("DELETE FROM t WHERE v < {delete_below}")).unwrap();
            // Uncommitted work that must die with the "crash":
            e.execute(sid, "BEGIN").unwrap();
            e.execute(sid, "DELETE FROM t").unwrap();
            e.execute(sid, "SELECT COUNT(*) FROM t").unwrap(); // dirty read inside txn
            // (no commit — drop = crash)
            let mut check = Engine::open(&temp_dir(), EngineConfig::default()).unwrap();
            let _ = check.create_session("x");
            rows.iter()
                .enumerate()
                .filter(|(_, (_, v))| *v >= delete_below)
                .map(|(i, (g, v))| (i as i64, g.rem_euclid(5), *v))
                .collect::<Vec<_>>()
        };
        let mut e = Engine::open(&dir, EngineConfig::default()).unwrap();
        let sid = e.create_session("prop");
        let r = e.execute(sid, "SELECT k, grp, v FROM t ORDER BY k").unwrap();
        let got: Vec<(i64, i64, i64)> = r
            .rows()
            .iter()
            .map(|row| {
                (
                    row[0].as_i64().unwrap(),
                    row[1].as_i64().unwrap(),
                    row[2].as_i64().unwrap(),
                )
            })
            .collect();
        prop_assert_eq!(got, expected);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Evaluation is total over arbitrary (valid-typed) predicates built
    /// from generated constants: no panics, only values or typed errors.
    #[test]
    fn where_never_panics(a in any::<i64>(), b in any::<i64>(), c in "[ -~]{0,8}") {
        let (mut e, sid, dir) = engine_with(&[(a.rem_euclid(7), b.rem_euclid(100))]);
        let escaped = c.replace('\'', "''");
        let _ = e.execute(
            sid,
            &format!("SELECT * FROM t WHERE v > {a} AND grp < {b} OR '{escaped}' = '{escaped}'"),
        );
        let _ = e.execute(sid, &format!("SELECT * FROM t WHERE v + {a} BETWEEN {b} AND {a}"));
        std::fs::remove_dir_all(dir).unwrap();
    }
}

mod auto_checkpoint {
    use super::*;
    use phoenix_storage::db::Durability;

    /// Auto-checkpoints firing mid-workload must never lose committed work
    /// across a crash, whatever the threshold.
    #[test]
    fn aggressive_auto_checkpoint_preserves_committed_state() {
        for every in [1u64, 3, 10, 50] {
            let dir = temp_dir();
            let config = EngineConfig {
                durability: Durability::Fsync,
                checkpoint_every: Some(every),
            };
            {
                let mut e = Engine::open(&dir, config.clone()).unwrap();
                let sid = e.create_session("ckpt");
                e.execute(sid, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
                    .unwrap();
                for i in 0..40 {
                    e.execute(sid, &format!("INSERT INTO t VALUES ({i}, {})", i * 2))
                        .unwrap();
                    if i % 7 == 0 {
                        e.execute(sid, &format!("UPDATE t SET v = v + 1 WHERE k = {i}"))
                            .unwrap();
                    }
                    if i % 11 == 0 && i > 0 {
                        e.execute(sid, &format!("DELETE FROM t WHERE k = {}", i - 1))
                            .unwrap();
                    }
                }
                // Crash (drop without graceful shutdown).
            }
            let mut e = Engine::open(&dir, config).unwrap();
            let sid = e.create_session("ckpt");
            let r = e.execute(sid, "SELECT COUNT(*), SUM(v) FROM t").unwrap();
            // 40 inserts, deletes at k ∈ {10, 21, 32} → 37 rows.
            assert_eq!(r.rows()[0][0], Value::Int(37), "checkpoint_every={every}");
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    /// The auto-checkpoint must not fire while a transaction is open (it
    /// would capture uncommitted effects); committed work still survives.
    #[test]
    fn auto_checkpoint_defers_around_open_transactions() {
        let dir = temp_dir();
        let config = EngineConfig {
            durability: Durability::Fsync,
            checkpoint_every: Some(2),
        };
        {
            let mut e = Engine::open(&dir, config.clone()).unwrap();
            let sid = e.create_session("x");
            e.execute(sid, "CREATE TABLE t (v INT)").unwrap();
            e.execute(sid, "BEGIN").unwrap();
            for i in 0..20 {
                e.execute(sid, &format!("INSERT INTO t VALUES ({i})"))
                    .unwrap();
            }
            // Threshold exceeded many times over, but the txn is open the
            // whole time. Crash without commit:
        }
        let mut e = Engine::open(&dir, config).unwrap();
        let sid = e.create_session("x");
        let r = e.execute(sid, "SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(
            r.rows()[0][0],
            Value::Int(0),
            "uncommitted work leaked through a checkpoint"
        );
        std::fs::remove_dir_all(dir).unwrap();
    }
}

mod null_ordering {
    use super::*;

    /// NULLs sort first (ascending) / last (descending), and aggregate
    /// functions skip them — the SQL semantics Phoenix's key tables depend
    /// on.
    #[test]
    fn nulls_order_first_and_are_skipped_by_aggregates() {
        let dir = temp_dir();
        let mut e = Engine::open(&dir, EngineConfig::default()).unwrap();
        let sid = e.create_session("nulls");
        e.execute(sid, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
            .unwrap();
        e.execute(
            sid,
            "INSERT INTO t VALUES (1, 5), (2, NULL), (3, 1), (4, NULL), (5, 9)",
        )
        .unwrap();

        let r = e.execute(sid, "SELECT v FROM t ORDER BY v").unwrap();
        let head: Vec<&Value> = r.rows().iter().map(|r| &r[0]).collect();
        assert_eq!(head[0], &Value::Null);
        assert_eq!(head[1], &Value::Null);
        assert_eq!(head[2], &Value::Int(1));

        let r = e.execute(sid, "SELECT v FROM t ORDER BY v DESC").unwrap();
        assert_eq!(r.rows()[0][0], Value::Int(9));
        assert_eq!(r.rows()[4][0], Value::Null);

        // Aggregates skip NULLs; COUNT(*) does not.
        let r = e
            .execute(
                sid,
                "SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM t",
            )
            .unwrap();
        assert_eq!(r.rows()[0][0], Value::Int(5));
        assert_eq!(r.rows()[0][1], Value::Int(3));
        assert_eq!(r.rows()[0][2], Value::Int(15));
        assert_eq!(r.rows()[0][3], Value::Float(5.0));
        assert_eq!(r.rows()[0][4], Value::Int(1));
        assert_eq!(r.rows()[0][5], Value::Int(9));

        // WHERE drops NULL predicate outcomes.
        let r = e
            .execute(sid, "SELECT COUNT(*) FROM t WHERE v > 0")
            .unwrap();
        assert_eq!(r.rows()[0][0], Value::Int(3));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
