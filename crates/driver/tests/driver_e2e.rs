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
