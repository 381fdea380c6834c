//! End-to-end driver tests against a real TCP server.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use phoenix_driver::{CursorKind, DriverError, Environment, FetchDir, StatementResult};
use phoenix_engine::EngineConfig;
use phoenix_server::ServerHarness;
use phoenix_storage::types::Value;

fn temp_dir() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("phoenix-driver-test-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn start() -> (ServerHarness, PathBuf) {
    let dir = temp_dir();
    let h = ServerHarness::start(&dir, EngineConfig::default()).unwrap();
    (h, dir)
}

#[test]
fn connect_execute_fetch() {
    let (h, dir) = start();
    let env = Environment::new();
    let mut conn = env.connect(&h.addr(), "app", "test").unwrap();
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        .unwrap();
    assert_eq!(
        conn.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
            .unwrap()
            .affected(),
        3
    );
    let r = conn.execute("SELECT v FROM t ORDER BY id DESC").unwrap();
    assert_eq!(r.rows().len(), 3);
    assert_eq!(r.rows()[0][0], Value::Text("c".into()));
    assert_eq!(r.schema().unwrap().columns[0].name, "v");
    conn.close();
    drop(h);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn statement_default_cursor_fetches_client_side() {
    let (h, dir) = start();
    let env = Environment::new();
    let mut conn = env.connect(&h.addr(), "app", "test").unwrap();
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
    conn.execute("INSERT INTO t VALUES (1), (2), (3), (4)")
        .unwrap();

    let mut stmt = conn.statement();
    assert_eq!(
        stmt.execute("SELECT id FROM t").unwrap(),
        StatementResult::ResultSet
    );
    let mut got = Vec::new();
    while let Some(row) = stmt.fetch().unwrap() {
        got.push(row[0].as_i64().unwrap());
    }
    assert_eq!(got, vec![1, 2, 3, 4]);
    drop(h);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn keyset_cursor_round_trips_blocks() {
    let (h, dir) = start();
    let env = Environment::new().with_fetch_block(2);
    let mut conn = env.connect(&h.addr(), "app", "test").unwrap();
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)")
        .unwrap();
    for i in 1..=7 {
        conn.execute(&format!("INSERT INTO t VALUES ({i}, {i}.5)"))
            .unwrap();
    }
    let mut stmt = conn.statement();
    stmt.set_cursor_type(CursorKind::Keyset);
    stmt.execute("SELECT id FROM t WHERE id <= 5").unwrap();
    assert_eq!(stmt.granted_cursor(), Some(CursorKind::Keyset));
    let mut got = Vec::new();
    while let Some(row) = stmt.fetch().unwrap() {
        got.push(row[0].as_i64().unwrap());
    }
    assert_eq!(got, vec![1, 2, 3, 4, 5]);
    stmt.close().unwrap();
    drop(h);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn dynamic_cursor_scrolls() {
    let (h, dir) = start();
    let env = Environment::new();
    let mut conn = env.connect(&h.addr(), "app", "test").unwrap();
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
    for i in 1..=6 {
        conn.execute(&format!("INSERT INTO t VALUES ({i})"))
            .unwrap();
    }
    let mut stmt = conn.statement();
    stmt.set_cursor_type(CursorKind::Dynamic);
    stmt.execute("SELECT id FROM t").unwrap();
    let rows = stmt.fetch_scroll(FetchDir::Next, 3).unwrap();
    assert_eq!(rows.len(), 3);
    let rows = stmt.fetch_scroll(FetchDir::Prior, 2).unwrap();
    assert_eq!(
        rows.iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect::<Vec<_>>(),
        vec![1, 2]
    );
    drop(h);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn server_errors_do_not_poison() {
    let (h, dir) = start();
    let env = Environment::new();
    let mut conn = env.connect(&h.addr(), "app", "test").unwrap();
    let e = conn.execute("SELECT * FROM missing").unwrap_err();
    assert!(!e.is_comm());
    assert!(matches!(e, DriverError::Sql { .. }));
    assert!(!conn.is_poisoned());
    // Connection still works.
    conn.execute("SELECT 1").unwrap();
    drop(h);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_surfaces_as_comm_error_and_poisons() {
    let (mut h, dir) = start();
    let env = Environment::new().with_read_timeout(Some(Duration::from_millis(500)));
    let mut conn = env.connect(&h.addr(), "app", "test").unwrap();
    conn.execute("CREATE TABLE t (v INT)").unwrap();
    h.crash().unwrap();
    let e = conn.execute("SELECT 1").unwrap_err();
    assert!(e.is_comm(), "expected comm error, got {e}");
    assert!(conn.is_poisoned());
    // Every further use fails fast.
    assert!(conn.execute("SELECT 1").unwrap_err().is_comm());

    // After restart a NEW connection works; the durable table is intact.
    h.restart().unwrap();
    let mut conn2 = env.connect(&h.addr(), "app", "test").unwrap();
    conn2.execute("SELECT COUNT(*) FROM t").unwrap();
    drop(h);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn session_liveness_probe_via_temp_table() {
    // The exact probe Phoenix uses: create a session temp table; after a
    // reconnect, its absence proves the old session (and server) died.
    let (mut h, dir) = start();
    let env = Environment::new().with_read_timeout(Some(Duration::from_millis(500)));
    let mut conn = env.connect(&h.addr(), "app", "test").unwrap();
    conn.execute("CREATE TABLE #phx_alive (v INT)").unwrap();
    conn.execute("SELECT * FROM #phx_alive").unwrap();

    h.crash().unwrap();
    h.restart().unwrap();

    let mut conn2 = env.connect(&h.addr(), "app", "test").unwrap();
    let e = conn2.execute("SELECT * FROM #phx_alive").unwrap_err();
    assert_eq!(
        e.server_code(),
        Some(phoenix_driver::error::codes::NOT_FOUND)
    );
    drop(h);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn messages_travel_with_results() {
    let (h, dir) = start();
    let env = Environment::new();
    let mut conn = env.connect(&h.addr(), "app", "test").unwrap();
    let r = conn.execute("PRINT 'hello from the server'").unwrap();
    assert_eq!(r.messages, vec!["hello from the server"]);
    drop(h);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn login_options_are_applied() {
    let (h, dir) = start();
    let env = Environment::new();
    let mut conn = env
        .connect_with_options(
            &h.addr(),
            "app",
            "test",
            vec![("lock_timeout".to_string(), Value::Int(1234))],
        )
        .unwrap();
    // No direct way to read options over the wire; at minimum the login must
    // succeed and the connection must work.
    conn.execute("SELECT 1").unwrap();
    drop(h);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn buffered_result_scrolls_client_side() {
    let (h, dir) = start();
    let env = Environment::new();
    let mut conn = env.connect(&h.addr(), "app", "test").unwrap();
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
    for i in 0..8 {
        conn.execute(&format!("INSERT INTO t VALUES ({i})"))
            .unwrap();
    }
    let mut stmt = conn.statement();
    stmt.execute("SELECT id FROM t ORDER BY id").unwrap();
    // Default result set: scrolling is served from the client buffer.
    let w = stmt.fetch_scroll(FetchDir::Next, 3).unwrap();
    assert_eq!(
        w.iter().map(|r| r[0].as_i64().unwrap()).collect::<Vec<_>>(),
        vec![0, 1, 2]
    );
    let w = stmt.fetch_scroll(FetchDir::Prior, 2).unwrap();
    assert_eq!(
        w.iter().map(|r| r[0].as_i64().unwrap()).collect::<Vec<_>>(),
        vec![1, 2]
    );
    let w = stmt.fetch_scroll(FetchDir::Absolute(6), 5).unwrap();
    assert_eq!(w.len(), 2);
    assert_eq!(w[0][0], Value::Int(6));
    drop(h);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The close accounting: a clean close and a poisoned one are both counted,
/// neither as a failed close, and the poisoned one leaves a breadcrumb in
/// the journal. The environment counts into the test thread's instance,
/// which no other test writes to, so the counts are exact.
#[test]
fn close_is_best_effort_and_counted() {
    use phoenix_driver::metrics::DriverMetrics;
    use phoenix_obs::EventKind;

    let (mut h, dir) = start();
    let env = Environment::new().with_read_timeout(Some(Duration::from_millis(300)));
    let m = DriverMetrics::new(env.obs());

    // Clean close: counted, not a failed close.
    let conn = env.connect(&h.addr(), "app", "test").unwrap();
    conn.close();
    assert_eq!((m.closes.get(), m.failed_closes.get()), (1, 0));

    // Poisoned close: the crash severs the socket mid-session; the next call
    // poisons the connection; close() must neither panic nor try Logout.
    let mut conn = env.connect(&h.addr(), "app", "test").unwrap();
    let session = conn.session_id();
    h.crash().unwrap();
    assert!(matches!(
        conn.execute("SELECT 1"),
        Err(DriverError::Comm(_))
    ));
    assert!(conn.is_poisoned());
    conn.close(); // must not panic
    assert_eq!((m.closes.get(), m.failed_closes.get()), (2, 0));
    assert_eq!(m.connects.get(), 2);

    // The poisoned close left a debug breadcrumb in the journal.
    let detail = format!("session {session} close: skipped (poisoned)");
    let closes = env.obs().journal().events_of(EventKind::ConnectionClose);
    assert_eq!(closes.len(), 2);
    assert!(
        closes
            .iter()
            .any(|e| e.component == "driver" && e.detail == detail),
        "expected journal event '{detail}'"
    );

    h.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A fetch count is the client's to choose, up to `u32::MAX`: the server
/// reserves room for the rows that can come back, not for the count, so a
/// keyset cursor (both directions) and a dynamic cursor asked for
/// `u32::MAX` rows return their rows, and the server keeps serving.
#[test]
fn a_fetch_of_u32_max_rows_returns_what_there_is() {
    let (h, dir) = start();
    let env = Environment::new();
    let mut conn = env.connect(&h.addr(), "app", "test").unwrap();
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
    conn.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    let all = u32::MAX as usize;
    let ids = |rows: Vec<Vec<Value>>| -> Vec<i64> {
        rows.iter().map(|r| r[0].as_i64().unwrap()).collect()
    };
    {
        let mut keyset = conn.cursor("SELECT id FROM t", CursorKind::Keyset).unwrap();
        assert_eq!(keyset.granted(), CursorKind::Keyset);
        let (rows, at_end) = keyset.fetch(FetchDir::Next, all).unwrap();
        assert_eq!((ids(rows), at_end), (vec![1, 2, 3], true));
        let (rows, at_end) = keyset.fetch(FetchDir::Prior, all).unwrap();
        assert_eq!((ids(rows), at_end), (vec![1, 2, 3], true));
        keyset.close().unwrap();
    }
    {
        let mut dynamic = conn
            .cursor("SELECT id FROM t", CursorKind::Dynamic)
            .unwrap();
        assert_eq!(dynamic.granted(), CursorKind::Dynamic);
        let (rows, at_end) = dynamic.fetch(FetchDir::Next, all).unwrap();
        assert_eq!((ids(rows), at_end), (vec![1, 2, 3], true));
        dynamic.close().unwrap();
    }
    // A count past u32::MAX saturates instead of wrapping to a small one.
    {
        let mut keyset = conn.cursor("SELECT id FROM t", CursorKind::Keyset).unwrap();
        let (rows, _) = keyset.fetch(FetchDir::Next, all + 2).unwrap();
        assert_eq!(ids(rows), vec![1, 2, 3]);
    }
    let n = conn.execute("SELECT COUNT(*) FROM t").unwrap().rows()[0][0].clone();
    assert_eq!(n, Value::Int(3));
    let mut other = env.connect(&h.addr(), "app", "test").unwrap();
    other.ping().unwrap();
    other.close();
    conn.close();
    drop(h);
    std::fs::remove_dir_all(&dir).unwrap();
}
