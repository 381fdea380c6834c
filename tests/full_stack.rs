//! Workspace-level integration tests spanning every crate: SQL front end →
//! engine → WAL → wire protocol → server → driver → Phoenix, under crash
//! injection.
//!
//! The headline test is *crash-transparency equivalence*: the full TPC-H
//! query suite run through Phoenix with the server crashing repeatedly must
//! produce byte-identical results to a crash-free native run.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use phoenix_core::{PhoenixConfig, PhoenixConnection};
use phoenix_driver::Environment;
use phoenix_engine::{Engine, EngineConfig};
use phoenix_server::ServerHarness;
use phoenix_storage::types::{Row, Value};
use phoenix_tpch::{queries::QUERIES, Tpch, TpchConfig};

fn temp_dir() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("phoenix-fullstack-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Load the TPC-H workload directly into an engine at `dir`.
fn load_tpch(dir: &PathBuf, scale: f64) -> Tpch {
    let workload = Tpch::new(TpchConfig::default().with_scale(scale));
    let engine = Engine::open(dir, EngineConfig::default()).unwrap();
    let sid = engine.create_session("loader");
    for sql in workload.setup_sql() {
        engine.execute(sid, &sql).unwrap();
    }
    engine.close_session(sid).unwrap();
    engine.checkpoint().unwrap();
    workload
}

fn phoenix_config() -> PhoenixConfig {
    let mut c = PhoenixConfig::default();
    c.recovery.read_timeout = Some(Duration::from_millis(1000));
    c.recovery.ping_interval = Duration::from_millis(20);
    c.recovery.max_wait = Duration::from_secs(20);
    c
}

/// Through Phoenix every suite query answers exactly as natively: the same
/// schema (names, types, nullability) and rows, read whole through
/// `PhoenixConnection::execute` or block by block through a statement,
/// whose schema is known before its first fetch.
#[test]
fn phoenix_replies_carry_the_native_schema_and_rows() {
    let dir = temp_dir();
    load_tpch(&dir, 0.2);
    let harness = ServerHarness::start(&dir, EngineConfig::default()).unwrap();
    let addr = harness.addr();
    let mut native = Environment::new().connect(&addr, "ref", "tpch").unwrap();
    let mut pc =
        PhoenixConnection::connect(&Environment::new(), &addr, "app", "tpch", phoenix_config())
            .unwrap();
    for q in QUERIES {
        let want = native.execute(q.sql).unwrap();
        let got = pc.execute(q.sql).unwrap();
        assert_eq!(got.schema(), want.schema(), "{}", q.name);
        assert_eq!(got.rows(), want.rows(), "{}", q.name);
        let mut stmt = pc.statement();
        stmt.set_fetch_block(4);
        stmt.execute(q.sql).unwrap();
        assert_eq!(stmt.schema(), want.schema(), "{}", q.name);
        assert_eq!(stmt.fetch_all().unwrap(), want.rows(), "{}", q.name);
    }
    native.close();
    pc.close();
    drop(harness);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn query_suite_equivalent_under_crash_storm() {
    let dir = temp_dir();
    load_tpch(&dir, 0.2);
    let harness = ServerHarness::start(&dir, EngineConfig::default()).unwrap();
    let addr = harness.addr();

    // Reference: crash-free native run.
    let reference: Vec<Vec<Row>> = {
        let mut conn = Environment::new().connect(&addr, "ref", "tpch").unwrap();
        let out = QUERIES
            .iter()
            .map(|q| conn.execute(q.sql).unwrap().rows().to_vec())
            .collect();
        conn.close();
        out
    };

    // Phoenix run with the server crashing underneath.
    let stop = Arc::new(AtomicBool::new(false));
    let chaos_stop = Arc::clone(&stop);
    let chaos = std::thread::spawn(move || {
        let mut h = harness;
        while !chaos_stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(150));
            if chaos_stop.load(Ordering::SeqCst) {
                break;
            }
            h.crash().unwrap();
            std::thread::sleep(Duration::from_millis(80));
            h.restart().unwrap();
        }
        h
    });

    let mut pc =
        PhoenixConnection::connect(&Environment::new(), &addr, "phx", "tpch", phoenix_config())
            .unwrap();
    // Keep sweeping the suite until the storm has interfered at least once
    // (bounded so a pathological scheduler cannot hang the test).
    let mut sweeps = 0;
    while pc.stats().recoveries == 0 && sweeps < 25 {
        for (q, expected) in QUERIES.iter().zip(&reference) {
            let got = pc.execute(q.sql).unwrap();
            assert_eq!(
                got.rows(),
                &expected[..],
                "{} diverged under crash storm",
                q.name
            );
        }
        sweeps += 1;
    }
    let recoveries = pc.stats().recoveries;
    stop.store(true, Ordering::SeqCst);
    let harness = chaos.join().unwrap();
    pc.close();
    drop(harness);
    assert!(
        recoveries > 0,
        "crash storm never hit the session in {sweeps} sweeps"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn two_phoenix_sessions_survive_the_same_crash() {
    let dir = temp_dir();
    let mut harness = ServerHarness::start(&dir, EngineConfig::default()).unwrap();
    let addr = harness.addr();

    let mut a = PhoenixConnection::connect(&Environment::new(), &addr, "a", "db", phoenix_config())
        .unwrap();
    let mut b = PhoenixConnection::connect(&Environment::new(), &addr, "b", "db", phoenix_config())
        .unwrap();

    a.execute("CREATE TABLE shared (id INT PRIMARY KEY, who TEXT)")
        .unwrap();
    a.execute("INSERT INTO shared VALUES (1, 'a')").unwrap();
    b.execute("INSERT INTO shared VALUES (2, 'b')").unwrap();
    // Both sessions hold temp objects through their redirections.
    a.execute("CREATE TABLE #mine (v INT)").unwrap();
    b.execute("CREATE TABLE #mine (v INT)").unwrap();
    a.execute("INSERT INTO #mine VALUES (10)").unwrap();
    b.execute("INSERT INTO #mine VALUES (20)").unwrap();

    harness.crash().unwrap();
    let h = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        harness.restart().unwrap();
        harness
    });

    // Both sessions recover independently, and their redirected temp state
    // stays separate.
    let ra = a.execute("SELECT v FROM #mine").unwrap();
    let rb = b.execute("SELECT v FROM #mine").unwrap();
    assert_eq!(ra.rows(), &[vec![Value::Int(10)]]);
    assert_eq!(rb.rows(), &[vec![Value::Int(20)]]);
    let r = a.execute("SELECT COUNT(*) FROM shared").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int(2));

    let harness = h.join().unwrap();
    a.close();
    b.close();
    drop(harness);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn durable_state_survives_orderly_and_crash_restarts() {
    let dir = temp_dir();
    // Cycle 1: create data, graceful shutdown (checkpoint).
    {
        let mut h = ServerHarness::start(&dir, EngineConfig::default()).unwrap();
        let mut conn = Environment::new().connect(&h.addr(), "u", "db").unwrap();
        conn.execute("CREATE TABLE log (id INT PRIMARY KEY, note TEXT)")
            .unwrap();
        conn.execute("INSERT INTO log VALUES (1, 'cycle one')")
            .unwrap();
        conn.close();
        h.shutdown();
    }
    // Cycle 2: add data, crash.
    {
        let mut h = ServerHarness::start(&dir, EngineConfig::default()).unwrap();
        let mut conn = Environment::new()
            .with_read_timeout(Some(Duration::from_millis(500)))
            .connect(&h.addr(), "u", "db")
            .unwrap();
        conn.execute("INSERT INTO log VALUES (2, 'cycle two')")
            .unwrap();
        h.crash().unwrap();
        // Connection is dead — that's fine, durability is the point here.
        h.restart().unwrap();
        h.shutdown();
    }
    // Cycle 3: everything committed in both cycles is present.
    {
        let h = ServerHarness::start(&dir, EngineConfig::default()).unwrap();
        let mut conn = Environment::new().connect(&h.addr(), "u", "db").unwrap();
        let r = conn
            .execute("SELECT id, note FROM log ORDER BY id")
            .unwrap();
        assert_eq!(
            r.rows(),
            &[
                vec![Value::Int(1), Value::Text("cycle one".into())],
                vec![Value::Int(2), Value::Text("cycle two".into())],
            ]
        );
        conn.close();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn refresh_functions_exactly_once_through_phoenix_with_crashes() {
    let dir = temp_dir();
    let workload = load_tpch(&dir, 0.2);
    let harness = ServerHarness::start(&dir, EngineConfig::default()).unwrap();
    let addr = harness.addr();

    let mut pc =
        PhoenixConnection::connect(&Environment::new(), &addr, "rf", "tpch", phoenix_config())
            .unwrap();
    let before = pc.execute("SELECT COUNT(*) FROM orders").unwrap().rows()[0][0]
        .as_i64()
        .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let chaos_stop = Arc::clone(&stop);
    let chaos = std::thread::spawn(move || {
        let mut h = harness;
        while !chaos_stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(100));
            if chaos_stop.load(Ordering::SeqCst) {
                break;
            }
            h.crash().unwrap();
            std::thread::sleep(Duration::from_millis(60));
            h.restart().unwrap();
        }
        h
    });

    let (lo, hi) = workload.refresh_key_range();
    // Three full RF1+RF2 cycles under the storm: every cycle must leave the
    // database exactly where it started.
    for _ in 0..3 {
        for sql in phoenix_tpch::refresh::rf1(lo, hi) {
            pc.execute(&sql).unwrap();
        }
        for sql in phoenix_tpch::refresh::rf2(lo, hi) {
            pc.execute(&sql).unwrap();
        }
    }
    stop.store(true, Ordering::SeqCst);
    let harness = chaos.join().unwrap();

    let after = pc.execute("SELECT COUNT(*) FROM orders").unwrap().rows()[0][0]
        .as_i64()
        .unwrap();
    assert_eq!(before, after, "RF cycles not exactly-once under crashes");
    pc.close();
    drop(harness);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_sessions_exactly_once_under_chaos() {
    // Two Phoenix sessions hammer the same table from separate threads while
    // the server crashes repeatedly; every insert must land exactly once.
    let dir = temp_dir();
    let harness = ServerHarness::start(&dir, EngineConfig::default()).unwrap();
    let addr = harness.addr();

    {
        let mut seed =
            PhoenixConnection::connect(&Environment::new(), &addr, "seed", "db", phoenix_config())
                .unwrap();
        seed.execute("CREATE TABLE ledger (id INT PRIMARY KEY, who TEXT)")
            .unwrap();
        seed.close();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let chaos_stop = Arc::clone(&stop);
    let chaos = std::thread::spawn(move || {
        let mut h = harness;
        while !chaos_stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(90));
            if chaos_stop.load(Ordering::SeqCst) {
                break;
            }
            h.crash().unwrap();
            std::thread::sleep(Duration::from_millis(60));
            h.restart().unwrap();
        }
        h
    });

    const PER_WORKER: i64 = 25;
    let workers: Vec<_> = (0..2)
        .map(|w| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut pc = PhoenixConnection::connect(
                    &Environment::new(),
                    &addr,
                    &format!("worker{w}"),
                    "db",
                    phoenix_config(),
                )
                .unwrap();
                for i in 0..PER_WORKER {
                    let id = w * 1000 + i;
                    pc.execute(&format!("INSERT INTO ledger VALUES ({id}, 'w{w}')"))
                        .unwrap();
                    // Pace the workload so the crash storm lands inside it.
                    std::thread::sleep(Duration::from_millis(12));
                }
                let recoveries = pc.stats().recoveries;
                pc.close();
                recoveries
            })
        })
        .collect();

    let mut total_recoveries = 0;
    for w in workers {
        total_recoveries += w.join().unwrap();
    }
    stop.store(true, Ordering::SeqCst);
    let harness = chaos.join().unwrap();

    let mut check =
        PhoenixConnection::connect(&Environment::new(), &addr, "check", "db", phoenix_config())
            .unwrap();
    let r = check.execute("SELECT COUNT(*) FROM ledger").unwrap();
    assert_eq!(
        r.rows()[0][0],
        Value::Int(2 * PER_WORKER),
        "exactly-once violated across concurrent sessions ({total_recoveries} recoveries)"
    );
    assert!(total_recoveries > 0, "the storm never hit either session");
    check.close();
    drop(harness);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn long_session_soak_with_mixed_statements_under_chaos() {
    // A long-lived session exercising every interception path — wrapped DML,
    // materialized queries, application transactions, temp objects, stored
    // procedures, cursors — while the server crashes repeatedly. The final
    // state must be exactly what a crash-free execution would produce.
    let dir = temp_dir();
    let harness = ServerHarness::start(&dir, EngineConfig::default()).unwrap();
    let addr = harness.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let chaos_stop = Arc::clone(&stop);
    let chaos = std::thread::spawn(move || {
        let mut h = harness;
        while !chaos_stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(140));
            if chaos_stop.load(Ordering::SeqCst) {
                break;
            }
            h.crash().unwrap();
            std::thread::sleep(Duration::from_millis(70));
            h.restart().unwrap();
        }
        h
    });

    let mut pc =
        PhoenixConnection::connect(&Environment::new(), &addr, "soak", "db", phoenix_config())
            .unwrap();
    pc.execute("CREATE TABLE acc (id INT PRIMARY KEY, bal INT)")
        .unwrap();
    pc.execute("INSERT INTO acc VALUES (1, 0), (2, 0)").unwrap();
    pc.execute("CREATE TABLE #scratch (round INT, note TEXT)")
        .unwrap();
    pc.execute(
        "CREATE PROCEDURE transfer (@amt INT) AS BEGIN \
                UPDATE acc SET bal = bal - @amt WHERE id = 1; \
                UPDATE acc SET bal = bal + @amt WHERE id = 2 END",
    )
    .unwrap();

    const ROUNDS: i64 = 12;
    for round in 0..ROUNDS {
        // Wrapped DML.
        pc.execute("UPDATE acc SET bal = bal + 10 WHERE id = 1")
            .unwrap();
        // Procedure with side effects (wrapped like DML).
        pc.execute("EXEC transfer (3)").unwrap();
        // Application transaction with several statements.
        pc.execute("BEGIN").unwrap();
        pc.execute(&format!("INSERT INTO #scratch VALUES ({round}, 'in-txn')"))
            .unwrap();
        pc.execute("UPDATE acc SET bal = bal + 1 WHERE id = 2")
            .unwrap();
        pc.execute("COMMIT").unwrap();
        // Materialized query sanity mid-stream.
        let r = pc.execute("SELECT SUM(bal) FROM acc").unwrap();
        assert_eq!(
            r.rows()[0][0],
            Value::Int((round + 1) * 11),
            "invariant broken at round {round}"
        );
        // Cursor over the temp (redirected) table.
        let mut stmt = pc.statement();
        stmt.execute("SELECT round FROM #scratch").unwrap();
        assert_eq!(stmt.fetch_all().unwrap().len() as i64, round + 1);
        std::thread::sleep(Duration::from_millis(20));
    }
    stop.store(true, Ordering::SeqCst);
    let harness = chaos.join().unwrap();

    // Final audit: per-round +10 to acc1, transfer moves 3 from 1→2, +1 to
    // acc2 inside the transaction.
    let r = pc.execute("SELECT bal FROM acc ORDER BY id").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int(ROUNDS * 7)); // +10 -3 per round
    assert_eq!(r.rows()[1][0], Value::Int(ROUNDS * 4)); // +3 +1 per round
    let recoveries = pc.stats().recoveries;
    assert!(recoveries > 0, "storm never hit the soak session");

    pc.close();
    drop(harness);
    std::fs::remove_dir_all(&dir).unwrap();
}
