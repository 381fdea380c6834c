//! Feature-focused Phoenix tests: command batches, stored procedures,
//! message preservation, and interception edge cases.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use phoenix_core::{PhoenixConfig, PhoenixConnection, PhoenixCursorKind};
use phoenix_driver::Environment;
use phoenix_engine::EngineConfig;
use phoenix_server::ServerHarness;
use phoenix_storage::types::Value;
use phoenix_wire::message::Outcome;

fn temp_dir() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("phoenix-feat-{}-{n}", std::process::id()));
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

#[test]
fn command_batch_runs_each_statement_through_the_pipeline() {
    let (h, dir) = start();
    let mut pc = connect(&h);
    let results = pc
        .execute_batch(
            "CREATE TABLE b (id INT PRIMARY KEY, v INT); \
             INSERT INTO b VALUES (1, 10), (2, 20); \
             SELECT SUM(v) FROM b; \
             UPDATE b SET v = v + 1 WHERE id = 1",
        )
        .unwrap();
    assert_eq!(results.len(), 4);
    assert_eq!(results[1].affected(), 2);
    assert_eq!(results[2].rows()[0][0], Value::Int(30));
    assert_eq!(results[3].affected(), 1);
    // The SELECT inside the batch was materialized; the DMLs were wrapped.
    assert_eq!(pc.stats().materialized_result_sets, 1);
    assert_eq!(pc.stats().wrapped_dml, 2);
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn command_batch_survives_crash_between_statements() {
    let (mut h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE b (id INT PRIMARY KEY)").unwrap();

    h.crash().unwrap();
    let hh = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        h.restart().unwrap();
        h
    });

    let results = pc
        .execute_batch("INSERT INTO b VALUES (1); INSERT INTO b VALUES (2); SELECT COUNT(*) FROM b")
        .unwrap();
    assert_eq!(results[2].rows()[0][0], Value::Int(2));
    assert!(pc.stats().recoveries >= 1);

    let h = hh.join().unwrap();
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn batch_stops_at_first_error() {
    let (h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE b (id INT PRIMARY KEY)").unwrap();
    let err = pc
        .execute_batch(
            "INSERT INTO b VALUES (1); INSERT INTO missing VALUES (2); INSERT INTO b VALUES (3)",
        )
        .unwrap_err();
    assert!(!err.is_comm());
    // Only the first statement ran.
    let r = pc.execute("SELECT COUNT(*) FROM b").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int(1));
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn stored_procedures_survive_crash_and_keep_working() {
    let (mut h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE audit (id INT PRIMARY KEY, what TEXT)")
        .unwrap();
    pc.execute("CREATE PROCEDURE log_it (@id INT, @w TEXT) AS INSERT INTO audit VALUES (@id, @w)")
        .unwrap();
    pc.execute("EXEC log_it (1, 'before')").unwrap();

    h.crash().unwrap();
    let hh = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        h.restart().unwrap();
        h
    });

    // Durable procedures survive the crash; the EXEC is resubmitted
    // transparently after recovery.
    pc.execute("EXEC log_it (2, 'after')").unwrap();
    let r = pc.execute("SELECT COUNT(*) FROM audit").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int(2));

    let h = hh.join().unwrap();
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn print_messages_flow_through_phoenix() {
    let (h, dir) = start();
    let mut pc = connect(&h);
    let r = pc.execute("PRINT 'phase ' + '1'").unwrap();
    assert_eq!(r.messages, vec!["phase 1"]);
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn select_inside_transaction_is_still_recoverable() {
    let (mut h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    pc.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();

    pc.execute("BEGIN").unwrap();
    pc.execute("UPDATE t SET v = v + 1 WHERE id = 1").unwrap();
    // A query mid-transaction reads the transaction's own uncommitted
    // update.
    let r = pc.execute("SELECT v FROM t WHERE id = 1").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int(11));

    h.crash().unwrap();
    let hh = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        h.restart().unwrap();
        h
    });

    // The transaction replays; the update's effect is still visible…
    let r = pc.execute("SELECT v FROM t WHERE id = 1").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int(11));
    pc.execute("COMMIT").unwrap();
    // …and commits.
    let r = pc.execute("SELECT v FROM t WHERE id = 1").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int(11));

    let h = hh.join().unwrap();
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn schema_presented_to_app_keeps_original_names() {
    let (h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE t (v INT)").unwrap();
    pc.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    // The capture's table takes the query's column names verbatim,
    // `COUNT(*)` included, and the application sees them in its reply.
    let r = pc
        .execute("SELECT COUNT(*), SUM(v) AS total FROM t")
        .unwrap();
    match &r.outcome {
        Outcome::ResultSet { schema, rows } => {
            assert_eq!(schema.columns[0].name, "COUNT(*)");
            assert_eq!(schema.columns[1].name, "total");
            assert_eq!(rows[0], vec![Value::Int(2), Value::Int(3)]);
        }
        other => panic!("{other:?}"),
    }
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

/// A forward-only statement knows its schema before the first fetch — the
/// first block rides in the capture's reply — whether the result is shorter
/// than one block, exactly one block or longer. A shorter result is whole
/// in that reply: it is delivered with the server down.
#[test]
fn statement_schema_before_first_fetch_for_every_block_fit() {
    let (mut h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    pc.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40)")
        .unwrap();
    let sql = "SELECT a.id, b.id, a.v * 2 FROM t a, t b WHERE a.id = b.id ORDER BY a.id";
    let native = {
        let mut conn = Environment::new()
            .connect(&h.addr(), "native", "t")
            .unwrap();
        let r = conn.execute(sql).unwrap();
        conn.close();
        r
    };
    let names: Vec<&str> = native.schema().unwrap().names().collect();
    assert_eq!(names, ["id", "id", "(a.v * 2)"]);
    for block in [8, 4, 3] {
        let mut stmt = pc.statement();
        stmt.set_fetch_block(block);
        stmt.execute(sql).unwrap();
        assert_eq!(stmt.schema(), native.schema(), "block {block}");
        assert_eq!(stmt.fetch_all().unwrap(), native.rows(), "block {block}");
    }

    let mut stmt = pc.statement();
    stmt.set_fetch_block(8);
    stmt.execute(sql).unwrap();
    h.crash().unwrap();
    assert_eq!(stmt.schema(), native.schema());
    assert_eq!(stmt.fetch_all().unwrap(), native.rows());
    drop(stmt);
    assert_eq!(pc.stats().recoveries, 0, "{:?}", pc.stats());
    h.restart().unwrap();
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn unparseable_requests_are_forwarded_opaquely() {
    let (h, dir) = start();
    let mut pc = connect(&h);
    // Phoenix can't classify this; the server reports the parse error.
    let e = pc.execute("FROBNICATE THE DATABASE").unwrap_err();
    assert_eq!(e.server_code(), Some(phoenix_driver::error::codes::PARSE));
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn statement_after_statement_reuses_pipeline_objects_independently() {
    let (h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
    for i in 0..5 {
        pc.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    // Several overlapping statements on one connection: each materializes
    // into its own phoenix table; results never bleed across.
    let mut s1 = pc.statement();
    s1.execute("SELECT id FROM t WHERE id < 3").unwrap();
    let r1 = s1.fetch_all().unwrap();
    let mut s2 = pc.statement();
    s2.execute("SELECT id FROM t WHERE id >= 3").unwrap();
    let r2 = s2.fetch_all().unwrap();
    assert_eq!(r1.len(), 3);
    assert_eq!(r2.len(), 2);
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn dynamic_cursor_with_composite_key_downgrades_to_keyset() {
    let (h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE li (a INT NOT NULL, b INT NOT NULL, v INT, PRIMARY KEY (a, b))")
        .unwrap();
    pc.execute("INSERT INTO li VALUES (1, 1, 10), (1, 2, 20), (2, 1, 30)")
        .unwrap();
    let mut stmt = pc.statement();
    stmt.set_cursor_type(PhoenixCursorKind::Dynamic);
    stmt.execute("SELECT a, b, v FROM li").unwrap();
    assert_eq!(stmt.granted_cursor(), Some(PhoenixCursorKind::Keyset));
    assert_eq!(stmt.fetch_all().unwrap().len(), 3);
    assert!(pc.stats().cursor_downgrades >= 1);
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn keyset_cursor_over_temp_object_redirection() {
    let (h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE src (id INT PRIMARY KEY, v INT)")
        .unwrap();
    pc.execute("INSERT INTO src VALUES (1, 1), (2, 2), (3, 3)")
        .unwrap();
    pc.execute("CREATE TABLE #snap (id INT PRIMARY KEY, v INT)")
        .unwrap();
    pc.execute("INSERT INTO #snap SELECT id, v FROM src")
        .unwrap();
    // Cursor over a temp table: the redirection makes it a persistent
    // phoenix table, which even has a primary key — keyset works.
    let mut stmt = pc.statement();
    stmt.set_cursor_type(PhoenixCursorKind::Keyset);
    stmt.execute("SELECT id, v FROM #snap").unwrap();
    assert_eq!(stmt.granted_cursor(), Some(PhoenixCursorKind::Keyset));
    assert_eq!(stmt.fetch_all().unwrap().len(), 3);
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn double_crash_during_recovery_is_survived() {
    // A second crash landing while Phoenix is mid-recovery must not surface
    // to the application: the recovery sequence retries as a unit.
    let (mut h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
    pc.execute("INSERT INTO t VALUES (1)").unwrap();

    // Crash; restart briefly; crash again almost immediately (so the client
    // is very likely inside recovery when the second crash hits); then come
    // back for good.
    h.crash().unwrap();
    let hh = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(120));
        h.restart().unwrap();
        std::thread::sleep(Duration::from_millis(15));
        h.crash().unwrap();
        std::thread::sleep(Duration::from_millis(120));
        h.restart().unwrap();
        h
    });

    let r = pc.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int(1));
    assert!(pc.stats().recoveries >= 1);

    let h = hh.join().unwrap();
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn hung_server_detected_by_timeout_and_masked() {
    // Paper §2: "ODBC functions may simply hang when the server fails. The
    // user does not know whether the server is busy, the connection slow, or
    // if a database failure has occurred." Phoenix's detector treats a read
    // timeout like any other communication failure: ping, decide, recover.
    // Here the server never crashes — it just stops responding for a while —
    // and the application still gets its answer.
    //
    // The server starts inside a fault plan; once setup is done the plan
    // holds the next request the server dequeues — the UPDATE's batch —
    // well past the client's read timeout.
    let guard = phoenix_chaos::arm(phoenix_chaos::Schedule::new());
    let (h, dir) = start();
    let mut pc = PhoenixConnection::connect(&Environment::new(), &h.addr(), "app", "test", {
        let mut c = config();
        c.recovery.read_timeout = Some(Duration::from_millis(250));
        // Generous give-up window: under a fully parallel `cargo test
        // --workspace` the machine is saturated with other crash storms and
        // wall-clock margins stretch; this test is about detection and
        // masking, not the deadline.
        c.recovery.max_wait = Duration::from_secs(120);
        c
    })
    .unwrap();
    pc.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    pc.execute("INSERT INTO t VALUES (1, 10)").unwrap();

    guard.reset(phoenix_chaos::Schedule::new().delay_at("server.pipeline_dequeue", 1, 1200));

    // This update times out mid-flight, triggers recovery, probes the status
    // table, and applies the update exactly once: the held original, once
    // it runs, finds its status row taken and rolls back.
    let r = pc.execute("UPDATE t SET v = v + 5 WHERE id = 1").unwrap();
    assert_eq!(r.affected(), 1);
    let r = pc.execute("SELECT v FROM t").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int(15), "exactly-once under timeout");
    assert!(pc.stats().recoveries >= 1);

    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn exec_side_effects_exactly_once_under_crashes() {
    // A procedure that inserts must apply exactly once even when the server
    // crashes around the call — EXEC gets the same status-record wrapping
    // as bare DML.
    let (h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE counters (id INT PRIMARY KEY, v INT)")
        .unwrap();
    pc.execute("INSERT INTO counters VALUES (1, 0)").unwrap();
    pc.execute("CREATE PROCEDURE bump AS UPDATE counters SET v = v + 1 WHERE id = 1")
        .unwrap();

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let chaos_stop = std::sync::Arc::clone(&stop);
    let chaos = std::thread::spawn(move || {
        let mut h = h;
        while !chaos_stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(60));
            if chaos_stop.load(Ordering::SeqCst) {
                break;
            }
            h.crash().unwrap();
            std::thread::sleep(Duration::from_millis(50));
            h.restart().unwrap();
        }
        h
    });

    const CALLS: i64 = 30;
    for _ in 0..CALLS {
        pc.execute("EXEC bump").unwrap();
    }
    stop.store(true, Ordering::SeqCst);
    let h = chaos.join().unwrap();

    let r = pc.execute("SELECT v FROM counters").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int(CALLS), "EXEC not exactly-once");
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn exec_with_internal_transaction_falls_back_to_forwarding() {
    let (h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE t (v INT)").unwrap();
    pc.execute("CREATE PROC txn_proc AS BEGIN BEGIN TRAN; INSERT INTO t VALUES (1); COMMIT END")
        .unwrap();
    // The wrap attempt hits the nested-BEGIN error and falls back; the call
    // still succeeds.
    let r = pc.execute("EXEC txn_proc").unwrap();
    let _ = r;
    let r = pc.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int(1));
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn exec_returning_result_set_still_delivers_rows() {
    let (h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE t (v INT)").unwrap();
    pc.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    pc.execute("CREATE PROC all_rows AS SELECT v FROM t ORDER BY v")
        .unwrap();
    let r = pc.execute("EXEC all_rows").unwrap();
    assert_eq!(r.rows().len(), 3);
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn scrollable_persistent_result_set_across_crash() {
    use phoenix_core::PhoenixFetch;
    let (mut h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE s (id INT PRIMARY KEY)").unwrap();
    let vals: Vec<String> = (0..50).map(|i| format!("({i})")).collect();
    pc.execute(&format!("INSERT INTO s VALUES {}", vals.join(", ")))
        .unwrap();

    let mut stmt = pc.statement();
    stmt.execute("SELECT id FROM s").unwrap();

    let first = stmt.fetch_scroll(PhoenixFetch::Next, 5).unwrap();
    assert_eq!(
        first
            .iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect::<Vec<_>>(),
        vec![0, 1, 2, 3, 4]
    );

    let back = stmt.fetch_scroll(PhoenixFetch::Prior, 3).unwrap();
    assert_eq!(
        back.iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect::<Vec<_>>(),
        vec![2, 3, 4]
    );

    // Crash the server; the next scroll waits out recovery and still lands
    // on the right window.
    h.crash().unwrap();
    let hh = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        h.restart().unwrap();
        h
    });

    let abs = stmt.fetch_scroll(PhoenixFetch::Absolute(40), 20).unwrap();
    assert_eq!(abs.len(), 10);
    assert_eq!(abs[0][0], Value::Int(40));
    assert_eq!(abs[9][0], Value::Int(49));

    // Interleave with plain forward fetch: continues after the window.
    assert!(stmt.fetch().unwrap().is_none());

    let h = hh.join().unwrap();
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn scrollable_keyset_absolute() {
    use phoenix_core::PhoenixFetch;
    let (h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE s (id INT PRIMARY KEY, v TEXT)")
        .unwrap();
    for i in 0..20 {
        pc.execute(&format!("INSERT INTO s VALUES ({i}, 'r{i}')"))
            .unwrap();
    }
    let mut stmt = pc.statement();
    stmt.set_cursor_type(PhoenixCursorKind::Keyset);
    stmt.execute("SELECT id, v FROM s").unwrap();
    let w = stmt.fetch_scroll(PhoenixFetch::Absolute(15), 10).unwrap();
    assert_eq!(w.len(), 5);
    assert_eq!(w[0][0], Value::Int(15));
    // Keyset semantics persist: an update is visible on a re-scroll.
    pc.execute("UPDATE s SET v = 'CHANGED' WHERE id = 16")
        .unwrap();
    let mut stmt = pc.statement();
    stmt.set_cursor_type(PhoenixCursorKind::Keyset);
    stmt.execute("SELECT id, v FROM s").unwrap();
    let w = stmt.fetch_scroll(PhoenixFetch::Absolute(16), 1).unwrap();
    assert_eq!(w[0][1], Value::Text("CHANGED".into()));
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn dynamic_cursor_rejects_scroll() {
    use phoenix_core::PhoenixFetch;
    let (h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE s (id INT PRIMARY KEY)").unwrap();
    pc.execute("INSERT INTO s VALUES (1), (2)").unwrap();
    let mut stmt = pc.statement();
    stmt.set_cursor_type(PhoenixCursorKind::Dynamic);
    stmt.execute("SELECT id FROM s").unwrap();
    let e = stmt.fetch_scroll(PhoenixFetch::Absolute(1), 1).unwrap_err();
    assert_eq!(e.server_code(), Some(phoenix_driver::error::codes::CURSOR));
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn dropped_temp_object_does_not_fail_recovery_verification() {
    // Regression: an application-issued `DROP TABLE #x` removes the
    // persistent stand-in; a later crash must not make phase-2 verification
    // demand the (legitimately gone) table.
    let (mut h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE base (v INT)").unwrap();
    pc.execute("INSERT INTO base VALUES (7)").unwrap();
    pc.execute("CREATE TABLE #stage (v INT)").unwrap();
    pc.execute("INSERT INTO #stage SELECT v FROM base").unwrap();
    pc.execute("DROP TABLE #stage").unwrap();

    h.crash().unwrap();
    let hh = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        h.restart().unwrap();
        h
    });

    let r = pc.execute("SELECT v FROM base").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int(7));
    // And re-creating a temp with the same name works (fresh stand-in).
    pc.execute("CREATE TABLE #stage (v INT)").unwrap();
    pc.execute("INSERT INTO #stage VALUES (1)").unwrap();
    let r = pc.execute("SELECT COUNT(*) FROM #stage").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int(1));

    let h = hh.join().unwrap();
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn scrollable_keyset_prior() {
    use phoenix_core::PhoenixFetch;
    let (h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE s (id INT PRIMARY KEY)").unwrap();
    for i in 0..10 {
        pc.execute(&format!("INSERT INTO s VALUES ({i})")).unwrap();
    }
    let mut stmt = pc.statement();
    stmt.set_cursor_type(PhoenixCursorKind::Keyset);
    stmt.execute("SELECT id FROM s").unwrap();
    let fwd = stmt.fetch_scroll(PhoenixFetch::Next, 6).unwrap();
    assert_eq!(fwd.last().unwrap()[0], Value::Int(5));
    let back = stmt.fetch_scroll(PhoenixFetch::Prior, 3).unwrap();
    assert_eq!(
        back.iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect::<Vec<_>>(),
        vec![3, 4, 5]
    );
    // Position stays where the Prior window started: Next resumes at 3.
    let next = stmt.fetch_scroll(PhoenixFetch::Next, 2).unwrap();
    assert_eq!(
        next.iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect::<Vec<_>>(),
        vec![3, 4]
    );
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn dml_gives_up_when_server_stays_down() {
    // The give-up policy applies uniformly: a wrapped DML against a server
    // that never returns eventually surfaces the communication error.
    let (mut h, dir) = start();
    let mut pc = PhoenixConnection::connect(&Environment::new(), &h.addr(), "app", "t", {
        let mut c = config();
        c.recovery.max_wait = Duration::from_millis(400);
        c
    })
    .unwrap();
    pc.execute("CREATE TABLE t (v INT)").unwrap();
    h.crash().unwrap();
    let e = pc.execute("INSERT INTO t VALUES (1)").unwrap_err();
    assert!(e.is_comm());
    // After the server comes back, a NEW phoenix session works and the
    // failed insert was not half-applied.
    h.restart().unwrap();
    let mut pc2 = connect(&h);
    let r = pc2.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int(0));
    pc2.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

/// Two Phoenix sessions increment one row concurrently. Each increment is
/// a wrapped request whose `COMMIT` may lose the row to the other session;
/// the loser's status row is absent, so Phoenix runs it again. Every
/// increment is applied exactly once.
#[test]
fn concurrent_phoenix_increments_of_one_row_are_exact() {
    const EACH: i64 = 150;
    let (h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE hot (k INT PRIMARY KEY, v INT)")
        .unwrap();
    pc.execute("INSERT INTO hot VALUES (1, 0)").unwrap();
    let start = std::sync::Arc::new(std::sync::Barrier::new(2));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let mut pc = connect(&h);
            let start = std::sync::Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..EACH {
                    let r = pc.execute("UPDATE hot SET v = v + 1 WHERE k = 1").unwrap();
                    assert_eq!(r.affected(), 1);
                }
                pc.close();
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let r = pc.execute("SELECT v FROM hot WHERE k = 1").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int(2 * EACH));
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

/// A cursor opened inside an application transaction reads the
/// transaction's own writes: the result is read in that session and
/// delivered from the client's copy, forward and by scrolling.
#[test]
fn cursor_inside_transaction_reads_its_own_writes() {
    let (h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    pc.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        .unwrap();
    pc.execute("BEGIN").unwrap();
    pc.execute("UPDATE t SET v = 11 WHERE id = 1").unwrap();
    pc.execute("INSERT INTO t VALUES (4, 40)").unwrap();
    {
        let mut stmt = pc.statement();
        stmt.set_cursor_type(PhoenixCursorKind::Keyset);
        stmt.execute("SELECT id, v FROM t ORDER BY id").unwrap();
        assert_eq!(stmt.granted_cursor(), Some(PhoenixCursorKind::ForwardOnly));
        assert_eq!(
            stmt.fetch().unwrap(),
            Some(vec![Value::Int(1), Value::Int(11)])
        );
        let rest = stmt.fetch_all().unwrap();
        assert_eq!(rest.len(), 3);
        assert_eq!(rest[2], vec![Value::Int(4), Value::Int(40)]);
        let back = stmt
            .fetch_scroll(phoenix_core::PhoenixFetch::Absolute(1), 2)
            .unwrap();
        assert_eq!(back[0], vec![Value::Int(2), Value::Int(20)]);
    }
    pc.execute("COMMIT").unwrap();
    let r = pc.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int(4));
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}

/// Forward-only delivery, keyset delivery and delivery inside a
/// transaction (the client's copy) run one scroll script over one
/// unchanging primary-keyed result — `Next`, `Prior`, `Absolute` inside, at
/// and past the end, plain `fetch()` — and return the same rows and the
/// same `delivered()` after every step, whether a step fits in one block or
/// spans several.
#[test]
fn every_delivery_kind_scrolls_alike() {
    use phoenix_core::PhoenixFetch::{Absolute, Next, Prior};
    let (h, dir) = start();
    let mut pc = connect(&h);
    pc.execute("CREATE TABLE s (id INT PRIMARY KEY, v TEXT)")
        .unwrap();
    let vals: Vec<String> = (0..12).map(|i| format!("({i}, 'r{i}')")).collect();
    pc.execute(&format!("INSERT INTO s VALUES {}", vals.join(", ")))
        .unwrap();

    type Step = (Vec<Vec<Value>>, u64);
    let script = |pc: &mut PhoenixConnection, kind, block| -> Vec<Step> {
        let mut stmt = pc.statement();
        stmt.set_cursor_type(kind).set_fetch_block(block);
        stmt.execute("SELECT id, v FROM s").unwrap();
        let mut steps = Vec::new();
        for (dir, n) in [
            (Next, 5),
            (Prior, 3),
            (Absolute(7), 3),
            (Absolute(10), 4),
            (Absolute(12), 2),
            (Absolute(20), 2),
        ] {
            let rows = stmt.fetch_scroll(dir, n).unwrap();
            steps.push((rows, stmt.delivered()));
            if dir == Absolute(7) {
                let row = stmt.fetch().unwrap();
                steps.push((row.into_iter().collect(), stmt.delivered()));
            }
        }
        let row = stmt.fetch().unwrap();
        steps.push((row.into_iter().collect(), stmt.delivered()));
        steps
    };

    let ids = |steps: &[Step]| -> Vec<(Vec<i64>, u64)> {
        steps
            .iter()
            .map(|(rows, at)| (rows.iter().map(|r| r[0].as_i64().unwrap()).collect(), *at))
            .collect()
    };
    for block in [3, 64] {
        let forward = script(&mut pc, PhoenixCursorKind::ForwardOnly, block);
        assert_eq!(
            ids(&forward),
            vec![
                (vec![0, 1, 2, 3, 4], 5),
                (vec![2, 3, 4], 2),
                (vec![7, 8, 9], 10),
                (vec![10], 11),
                (vec![10, 11], 12),
                (vec![], 12),
                (vec![], 20),
                (vec![], 20),
            ],
            "block {block}"
        );
        let keyset = script(&mut pc, PhoenixCursorKind::Keyset, block);
        pc.execute("BEGIN").unwrap();
        let client = script(&mut pc, PhoenixCursorKind::ForwardOnly, block);
        pc.execute("ROLLBACK").unwrap();
        assert_eq!(keyset, forward, "keyset, block {block}");
        assert_eq!(client, forward, "in transaction, block {block}");
    }
    assert_eq!(pc.stats().cursor_downgrades, 0);
    pc.close();
    drop(h);
    std::fs::remove_dir_all(dir).unwrap();
}
