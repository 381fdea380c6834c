//! End-to-end tests of Phoenix persistent sessions against a real TCP
//! server with crash injection — each test exercises a mechanism from §3 of
//! the paper.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use phoenix_core::{PhoenixConfig, PhoenixConnection, PhoenixCursorKind};
use phoenix_driver::Environment;
use phoenix_engine::EngineConfig;
use phoenix_server::ServerHarness;
use phoenix_storage::types::Value;

fn temp_dir() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("phoenix-core-test-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn config() -> PhoenixConfig {
    let mut c = PhoenixConfig::default();
    c.recovery.read_timeout = Some(Duration::from_millis(800));
    c.recovery.ping_interval = Duration::from_millis(20);
    c.recovery.max_wait = Duration::from_secs(10);
    c
}

fn start() -> (ServerHarness, PathBuf) {
    let dir = temp_dir();
    let h = ServerHarness::start(&dir, EngineConfig::default()).unwrap();
    (h, dir)
}

fn connect(h: &ServerHarness) -> PhoenixConnection {
    PhoenixConnection::connect(&Environment::new(), &h.addr(), "app", "test", config()).unwrap()
}

fn seed(pc: &mut PhoenixConnection) {
    pc.execute("CREATE TABLE customer (id INT PRIMARY KEY, name TEXT, nation INT)")
        .unwrap();
    pc.execute("INSERT INTO customer VALUES (1, 'Smith', 10), (2, 'Jones', 10), (3, 'Smith', 20), (4, 'Brown', 30)")
        .unwrap();
}

#[test]
fn transparent_in_absence_of_failures() {
    let (h, dir) = start();
    let mut pc = connect(&h);
    seed(&mut pc);
    let r = pc
        .execute("SELECT name FROM customer WHERE nation = 10 ORDER BY id")
        .unwrap();
    assert_eq!(
        r.rows(),
        &[
            vec![Value::Text("Smith".into())],
            vec![Value::Text("Jones".into())]
        ]
    );
    assert_eq!(pc.stats().materialized_result_sets, 1);
    assert_eq!(pc.stats().recoveries, 0);
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn cleanup_drops_phoenix_objects() {
    let (h, dir) = start();
    let mut pc = connect(&h);
    seed(&mut pc);
    pc.execute("SELECT * FROM customer").unwrap();
    pc.execute("SELECT * FROM customer WHERE id = 1").unwrap();
    pc.close();

    // Inspect with a plain driver connection: no phoenix rs_/cap_ leftovers
    // and no status rows.
    let env = Environment::new();
    let mut raw = env.connect(&h.addr(), "inspect", "test").unwrap();
    let r = raw.execute("SELECT COUNT(*) FROM phoenix.status").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int(0));
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn query_resubmitted_after_crash_between_requests() {
    let (mut h, dir) = start();
    let mut pc = connect(&h);
    seed(&mut pc);

    h.crash().unwrap();
    let hh = std::thread::spawn({
        let mut h = h;
        move || {
            std::thread::sleep(Duration::from_millis(300));
            h.restart().unwrap();
            h
        }
    });

    // The very next request hits a dead server; Phoenix must mask it.
    let r = pc.execute("SELECT COUNT(*) FROM customer").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int(4));
    assert!(pc.stats().recoveries >= 1);

    let h = hh.join().unwrap();
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn seamless_delivery_across_crash_mid_fetch() {
    // The paper's recovery experiment (§4 / Figure 2): fetch most of a
    // result set, crash the server, and the next fetch — after recovery —
    // returns the next tuple as if nothing happened.
    let (mut h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE seq (id INT PRIMARY KEY, v TEXT)")
        .unwrap();
    for chunk in (0..200).collect::<Vec<i64>>().chunks(50) {
        let vals: Vec<String> = chunk.iter().map(|i| format!("({i}, 'row{i}')")).collect();
        pc.execute(&format!("INSERT INTO seq VALUES {}", vals.join(", ")))
            .unwrap();
    }

    let mut stmt = pc.statement();
    stmt.set_fetch_block(16);
    stmt.execute("SELECT id, v FROM seq").unwrap();
    let mut got = Vec::new();
    for _ in 0..150 {
        got.push(stmt.fetch().unwrap().unwrap());
    }
    assert_eq!(stmt.delivered(), 150);

    // Crash and restart in the background while the client keeps fetching.
    h.crash().unwrap();
    let hh = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        h.restart().unwrap();
        h
    });

    while let Some(row) = stmt.fetch().unwrap() {
        got.push(row);
    }
    assert_eq!(got.len(), 200);
    // Delivery is seamless: ids are 0..200 in order with no gaps or repeats.
    for (i, row) in got.iter().enumerate() {
        assert_eq!(row[0], Value::Int(i as i64), "row {i}");
    }
    assert!(pc.stats().recoveries >= 1);

    let h = hh.join().unwrap();
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn dml_applied_exactly_once_despite_crash() {
    let (mut h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE acc (id INT PRIMARY KEY, bal INT)")
        .unwrap();
    pc.execute("INSERT INTO acc VALUES (1, 100)").unwrap();

    h.crash().unwrap();
    let hh = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        h.restart().unwrap();
        h
    });

    // This update hits the dead server: Phoenix recovers, probes the status
    // table (nothing committed), resubmits — exactly once.
    let r = pc
        .execute("UPDATE acc SET bal = bal + 10 WHERE id = 1")
        .unwrap();
    assert_eq!(r.affected(), 1);
    let r = pc.execute("SELECT bal FROM acc").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int(110));
    assert!(pc.stats().status_probes >= 1);

    let h = hh.join().unwrap();
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn application_transaction_replayed_after_crash() {
    let (mut h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();

    pc.execute("BEGIN").unwrap();
    pc.execute("INSERT INTO t VALUES (1, 10)").unwrap();
    pc.execute("INSERT INTO t VALUES (2, 20)").unwrap();

    // Crash mid-transaction: the server loses the uncommitted work.
    h.crash().unwrap();
    let hh = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        h.restart().unwrap();
        h
    });

    // The application keeps going, oblivious. Phoenix replays the logged
    // transaction before executing the next statement.
    pc.execute("INSERT INTO t VALUES (3, 30)").unwrap();
    pc.execute("COMMIT").unwrap();

    let r = pc.execute("SELECT COUNT(*), SUM(v) FROM t").unwrap();
    assert_eq!(r.rows()[0], vec![Value::Int(3), Value::Int(60)]);
    assert!(pc.stats().replayed_txn_statements >= 2);

    let h = hh.join().unwrap();
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn rollback_during_outage_is_honored() {
    let (mut h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE t (v INT)").unwrap();
    pc.execute("BEGIN").unwrap();
    pc.execute("INSERT INTO t VALUES (1)").unwrap();

    h.crash().unwrap();
    let hh = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        h.restart().unwrap();
        h
    });

    // The crash already rolled the transaction back; ROLLBACK must succeed
    // from the application's perspective.
    pc.execute("ROLLBACK").unwrap();
    let r = pc.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int(0));

    let h = hh.join().unwrap();
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn temp_objects_survive_crash_via_redirection() {
    let (mut h, dir) = start();
    let mut pc = connect(&h);
    seed(&mut pc);
    pc.execute("CREATE TABLE #work (id INT, doubled INT)")
        .unwrap();
    pc.execute("INSERT INTO #work SELECT id, nation * 2 FROM customer")
        .unwrap();

    h.crash().unwrap();
    let hh = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        h.restart().unwrap();
        h
    });

    // A real temp table would be gone; the Phoenix stand-in persists.
    let r = pc.execute("SELECT COUNT(*) FROM #work").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int(4));

    // And it can still be dropped through its temp name.
    pc.execute("DROP TABLE #work").unwrap();
    let e = pc.execute("SELECT * FROM #work").unwrap_err();
    assert!(!e.is_comm());

    let h = hh.join().unwrap();
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn temp_procedures_are_redirected() {
    let (h, dir) = start();
    let mut pc = connect(&h);
    seed(&mut pc);
    pc.execute("CREATE PROCEDURE #smiths AS SELECT id FROM customer WHERE name = 'Smith'")
        .unwrap();
    let r = pc.execute("EXEC #smiths").unwrap();
    assert_eq!(r.rows().len(), 2);
    pc.execute("DROP PROCEDURE #smiths").unwrap();
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn keyset_cursor_survives_crash_and_sees_updates() {
    let (mut h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE orders (okey INT PRIMARY KEY, total FLOAT)")
        .unwrap();
    for i in 1..=20 {
        pc.execute(&format!("INSERT INTO orders VALUES ({i}, {i}.0)"))
            .unwrap();
    }

    let mut stmt = pc.statement();
    stmt.set_cursor_type(PhoenixCursorKind::Keyset);
    stmt.set_fetch_block(4);
    stmt.execute("SELECT okey, total FROM orders WHERE okey <= 10")
        .unwrap();
    assert_eq!(stmt.granted_cursor(), Some(PhoenixCursorKind::Keyset));
    let mut rows = Vec::new();
    for _ in 0..5 {
        rows.push(stmt.fetch().unwrap().unwrap());
    }

    // Update a not-yet-fetched row, delete another, then crash.
    {
        let env = Environment::new();
        let mut raw = env.connect(&h.addr(), "x", "test").unwrap();
        raw.execute("UPDATE orders SET total = 777.0 WHERE okey = 7")
            .unwrap();
        raw.execute("DELETE FROM orders WHERE okey = 8").unwrap();
        raw.close();
    }
    h.crash().unwrap();
    let hh = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        h.restart().unwrap();
        h
    });

    while let Some(row) = stmt.fetch().unwrap() {
        rows.push(row);
    }
    let keys: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(keys, vec![1, 2, 3, 4, 5, 6, 7, 9, 10]); // 8 deleted
    assert_eq!(rows[6][1], Value::Float(777.0)); // update visible

    let h = hh.join().unwrap();
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn dynamic_cursor_sees_inserts_and_survives_crash() {
    let (mut h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE ev (id INT PRIMARY KEY, kind TEXT)")
        .unwrap();
    for i in [10, 20, 30, 40, 50] {
        pc.execute(&format!("INSERT INTO ev VALUES ({i}, 'a')"))
            .unwrap();
    }

    let mut stmt = pc.statement();
    stmt.set_cursor_type(PhoenixCursorKind::Dynamic);
    stmt.execute("SELECT id FROM ev WHERE kind = 'a'").unwrap();
    assert_eq!(stmt.granted_cursor(), Some(PhoenixCursorKind::Dynamic));
    let first = stmt.fetch().unwrap().unwrap();
    assert_eq!(first[0], Value::Int(10));

    // Insert into the not-yet-visited key range, then crash.
    {
        let env = Environment::new();
        let mut raw = env.connect(&h.addr(), "x", "test").unwrap();
        raw.execute("INSERT INTO ev VALUES (25, 'a')").unwrap();
        raw.execute("INSERT INTO ev VALUES (60, 'a')").unwrap(); // beyond captured keys
        raw.close();
    }
    h.crash().unwrap();
    let hh = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        h.restart().unwrap();
        h
    });

    let mut keys = vec![10];
    while let Some(row) = stmt.fetch().unwrap() {
        keys.push(row[0].as_i64().unwrap());
    }
    // Dynamic semantics: 25 (inserted into the range) and 60 (inserted past
    // the captured keys) are both visible.
    assert_eq!(keys, vec![10, 20, 25, 30, 40, 50, 60]);

    let h = hh.join().unwrap();
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn cursor_downgrade_on_unsupported_shapes() {
    let (h, dir) = start();
    let mut pc = connect(&h);
    seed(&mut pc);
    // Aggregation cannot be keyset.
    let mut stmt = pc.statement();
    stmt.set_cursor_type(PhoenixCursorKind::Keyset);
    stmt.execute("SELECT COUNT(*) FROM customer").unwrap();
    assert_eq!(stmt.granted_cursor(), Some(PhoenixCursorKind::ForwardOnly));
    let rows = stmt.fetch_all().unwrap();
    assert_eq!(rows[0][0], Value::Int(4));
    assert!(pc.stats().cursor_downgrades >= 1);
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn set_options_replayed_on_recovery() {
    let (mut h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("SET lock_timeout 5000").unwrap();
    pc.execute("SET app_name 'report-runner'").unwrap();
    pc.execute("CREATE TABLE t (v INT)").unwrap();

    h.crash().unwrap();
    let hh = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        h.restart().unwrap();
        h
    });

    // Execution succeeding implies login + option replay worked.
    pc.execute("INSERT INTO t VALUES (1)").unwrap();
    assert!(pc.stats().recoveries >= 1);

    let h = hh.join().unwrap();
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

/// A second Phoenix session's state — a SET option and a `#temp` table
/// with rows — survives a crash and restart beside the first: both
/// sessions' next statements succeed, the temp table holds its rows and the
/// option is live in the restarted server's session.
#[test]
fn second_phoenix_session_keeps_its_state_across_crash() {
    let (mut h, dir) = start();
    let mut first = connect(&h);
    first.execute("CREATE TABLE s (id INT)").unwrap();
    first.execute("INSERT INTO s VALUES (1)").unwrap();
    let mut second =
        PhoenixConnection::connect(&Environment::new(), &h.addr(), "churn", "test", config())
            .unwrap();
    second.execute("SET app_name 'churn'").unwrap();
    second
        .execute("CREATE TABLE #churn (v INT PRIMARY KEY)")
        .unwrap();
    second
        .execute("INSERT INTO #churn VALUES (1), (2), (3)")
        .unwrap();

    h.crash().unwrap();
    let hh = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        h.restart().unwrap();
        h
    });

    let r = second.execute("SELECT COUNT(*) FROM #churn").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int(3));
    assert!(
        second.stats().recoveries >= 1,
        "the crash should be a recovery"
    );
    let r = first.execute("SELECT COUNT(*) FROM s").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int(1));
    // The replayed option lives in whichever session now serves the second
    // client; session ids start at 1 on the restarted server.
    let h = hh.join().unwrap();
    let churn = Value::Text("churn".into());
    let replayed = h
        .with_engine(|e| {
            (1..=64)
                .any(|sid| e.session_option(sid, "app_name").ok().flatten() == Some(churn.clone()))
        })
        .unwrap();
    assert!(replayed, "the second session's SET was not replayed");

    second.close();
    first.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn gives_up_when_server_stays_down() {
    let (mut h, dir) = start();
    let mut pc = PhoenixConnection::connect(&Environment::new(), &h.addr(), "app", "t", {
        let mut c = config();
        c.recovery.max_wait = Duration::from_millis(400);
        c
    })
    .unwrap();
    pc.execute("CREATE TABLE t (v INT)").unwrap();
    h.crash().unwrap();
    // No restart: Phoenix must eventually pass the comm error to the app.
    let e = pc.execute("SELECT * FROM t").unwrap_err();
    assert!(e.is_comm());
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn chaos_exactly_once_under_repeated_crashes() {
    // Invariant test: N wrapped DML inserts, with the server crashing and
    // restarting underneath, must each apply exactly once.
    let (h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE ledger (id INT PRIMARY KEY, v INT)")
        .unwrap();

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let chaos_stop = std::sync::Arc::clone(&stop);
    let chaos = std::thread::spawn(move || {
        let mut h = h;
        let mut crashes = 0;
        while !chaos_stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(70));
            if chaos_stop.load(Ordering::SeqCst) {
                break;
            }
            h.crash().unwrap();
            crashes += 1;
            std::thread::sleep(Duration::from_millis(60));
            h.restart().unwrap();
        }
        (h, crashes)
    });

    const N: i64 = 40;
    for i in 0..N {
        let r = pc
            .execute(&format!("INSERT INTO ledger VALUES ({i}, {i})"))
            .unwrap();
        assert_eq!(r.affected(), 1, "insert {i}");
    }
    stop.store(true, Ordering::SeqCst);
    let (h, crashes) = chaos.join().unwrap();

    let r = pc.execute("SELECT COUNT(*), SUM(v) FROM ledger").unwrap();
    assert_eq!(
        r.rows()[0][0],
        Value::Int(N),
        "exactly-once violated (crashes: {crashes})"
    );
    assert_eq!(r.rows()[0][1], Value::Int((N - 1) * N / 2));

    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

/// The two ways one capture is read agree with the native reply: whole, in
/// the capture's own request (`PhoenixConnection::execute`), and through a
/// forward-only statement, whose first block comes with the capture and
/// the rest through a server cursor.
#[test]
fn capture_strategies_agree() {
    let (h, dir) = start();
    let mut pc = connect(&h);
    seed(&mut pc);
    let sql = "SELECT id, name FROM customer WHERE nation = 10 ORDER BY id";
    let native = {
        let mut conn = Environment::new()
            .connect(&h.addr(), "native", "t")
            .unwrap();
        let r = conn.execute(sql).unwrap();
        conn.close();
        r
    };
    let r = pc.execute(sql).unwrap();
    assert_eq!(r.rows().len(), 2);
    assert_eq!(r.rows()[0][1], Value::Text("Smith".into()));
    assert_eq!(r.schema(), native.schema());
    assert_eq!(r.rows(), native.rows());
    for block in [1, 2, 3] {
        let mut stmt = pc.statement();
        stmt.set_fetch_block(block);
        stmt.execute(sql).unwrap();
        assert_eq!(stmt.schema(), native.schema(), "block {block}");
        assert_eq!(stmt.fetch_all().unwrap(), native.rows(), "block {block}");
    }
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

/// Delivery resumes in place after a crash wherever it stood: inside the
/// first block, which came with the capture and needs no server cursor,
/// and deep into the result, through a server cursor. Either way the
/// re-open is a server-side `OFFSET`.
#[test]
fn reposition_strategies_agree_across_crash() {
    for crash_after in [5, 60] {
        let (mut h, dir) = start();
        let mut pc = connect(&h);
        pc.execute("CREATE TABLE s (id INT PRIMARY KEY)").unwrap();
        let vals: Vec<String> = (0..100).map(|i| format!("({i})")).collect();
        pc.execute(&format!("INSERT INTO s VALUES {}", vals.join(", ")))
            .unwrap();

        let mut stmt = pc.statement();
        stmt.set_fetch_block(8);
        stmt.execute("SELECT id FROM s").unwrap();
        for _ in 0..crash_after {
            stmt.fetch().unwrap().unwrap();
        }
        h.crash().unwrap();
        let hh = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            h.restart().unwrap();
            h
        });
        let mut rest = Vec::new();
        while let Some(r) = stmt.fetch().unwrap() {
            rest.push(r[0].as_i64().unwrap());
        }
        assert_eq!(
            rest,
            (crash_after..100).collect::<Vec<i64>>(),
            "crash after {crash_after}"
        );
        drop(stmt);
        assert!(pc.stats().recoveries >= 1, "{:?}", pc.stats());
        assert!(pc.stats().last_reposition_us > 0, "{:?}", pc.stats());
        let h = hh.join().unwrap();
        pc.close();
        drop(h);
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// Forward-only delivery is one window per block, so a crash anywhere in
/// it costs one resent window at the delivery position: before the first
/// window (inside the block read back with the capture, and right at its
/// end), before a middle window, before the last one, and — on a result
/// that ends exactly on a block boundary — before the empty window that
/// finds the end. Delivery resumes at the right row each time.
#[test]
fn delivery_resumes_at_every_window_after_a_crash() {
    const BLOCK: usize = 8;
    for (rows, crash_after) in [(40, 3), (40, 8), (40, 20), (40, 32), (40, 40), (43, 40)] {
        let what = format!("{rows} rows, crash after {crash_after}");
        let (mut h, dir) = start();
        let mut pc = connect(&h);
        pc.execute("CREATE TABLE w (id INT PRIMARY KEY, v TEXT)")
            .unwrap();
        let vals: Vec<String> = (0..rows).map(|i| format!("({i}, 'v{i}')")).collect();
        pc.execute(&format!("INSERT INTO w VALUES {}", vals.join(", ")))
            .unwrap();

        let mut stmt = pc.statement();
        stmt.set_fetch_block(BLOCK);
        stmt.execute("SELECT id, v FROM w").unwrap();
        for i in 0..crash_after {
            let row = stmt.fetch().unwrap().unwrap();
            assert_eq!(row[0], Value::Int(i), "{what}");
        }
        assert_eq!(stmt.delivered(), crash_after as u64, "{what}");
        h.crash().unwrap();
        h.restart().unwrap();
        let rest: Vec<i64> = stmt
            .fetch_all()
            .unwrap()
            .iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect();
        assert_eq!(rest, (crash_after..rows).collect::<Vec<i64>>(), "{what}");
        assert_eq!(stmt.delivered(), rows as u64, "{what}");
        assert_eq!(stmt.fetch().unwrap(), None, "{what}: stays at the end");
        drop(stmt);
        let stats = pc.stats().clone();
        assert_eq!(stats.recoveries, 1, "{what}: {stats:?}");
        assert_eq!(stats.resubmissions, 1, "{what}: one window resent");
        assert!(stats.last_reposition_us > 0, "{what}: {stats:?}");
        assert_eq!(stats.reposition_us, stats.last_reposition_us, "{what}");
        pc.close();
        drop(h);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
