//! The engine's session spill seen through the server and the driver: a
//! spilled session comes back on its next request, and a server at its
//! session cap with nothing spillable answers a login with the retryable
//! `Busy`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use phoenix_driver::error::codes;
use phoenix_driver::{CursorKind, Environment, FetchDir};
use phoenix_engine::EngineConfig;
use phoenix_server::ServerHarness;
use phoenix_storage::types::Value;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "phoenix-lifecycle-{tag}-{}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn spilled_session_is_restored_on_its_next_request() {
    let dir = temp_dir("spill");
    let mut h = ServerHarness::start(&dir, EngineConfig::default()).unwrap();
    let mut conn = Environment::new().connect(&h.addr(), "app", "db").unwrap();
    conn.execute("CREATE TABLE orders (k INT PRIMARY KEY, v INT)")
        .unwrap();
    conn.execute("INSERT INTO orders VALUES (1, 10), (2, 20), (3, 30), (4, 40)")
        .unwrap();
    conn.execute("SET app_name 'spilled'").unwrap();
    conn.execute("CREATE TABLE #scratch (v INT PRIMARY KEY)")
        .unwrap();
    conn.execute("INSERT INTO #scratch VALUES (1), (2), (3)")
        .unwrap();
    // No ORDER BY: a keyset grant needs a plain keyed scan.
    let (cur, _, granted) = conn
        .open_cursor_raw("SELECT k FROM orders", CursorKind::Keyset)
        .unwrap();
    assert_eq!(granted, CursorKind::Keyset);
    let (rows, _) = conn.fetch_cursor_raw(cur, FetchDir::Next, 2).unwrap();
    assert_eq!(rows.len(), 2);

    assert_eq!(
        h.with_engine(|e| e.spill_idle_sessions(Duration::ZERO)),
        Some(1)
    );
    assert_eq!(h.with_engine(|e| e.session_count()), Some(0));
    assert_eq!(h.with_engine(|e| e.spilled_session_count()), Some(1));

    // The same driver connection goes on: its next request restores the
    // session from the durable table — temp table, option and the
    // cursor's position included.
    let r = conn.execute("SELECT COUNT(*) FROM #scratch").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int(3));
    assert_eq!(h.with_engine(|e| e.spilled_session_count()), Some(0));
    let sid = conn.session_id();
    assert_eq!(
        h.with_engine(|e| e.session_option(sid, "app_name").unwrap()),
        Some(Some(Value::Text("spilled".into())))
    );
    let (rows, at_end) = conn.fetch_cursor_raw(cur, FetchDir::Next, 5).unwrap();
    assert_eq!(rows, vec![vec![Value::Int(3)], vec![Value::Int(4)]]);
    assert!(at_end);

    conn.close();
    h.shutdown();
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn login_at_the_session_cap_with_a_pinned_session_is_busy() {
    let dir = temp_dir("cap");
    let config = EngineConfig {
        max_sessions: Some(1),
        ..EngineConfig::default()
    };
    let mut h = ServerHarness::start(&dir, config).unwrap();
    let env = Environment::new();
    let mut pinned = env.connect(&h.addr(), "app", "db").unwrap();
    pinned.execute("CREATE TABLE t (v INT)").unwrap();
    // An open transaction pins the session: it cannot be spilled to make
    // room, so the next login must be refused.
    pinned.execute("BEGIN").unwrap();

    let err = match env.connect(&h.addr(), "other", "db") {
        Err(e) => e,
        Ok(_) => panic!("a login past the cap must be refused"),
    };
    assert_eq!(err.server_code(), Some(codes::BUSY), "{err}");
    assert!(err.is_retryable(), "a cap refusal must be retryable");

    // Without the pin, the next login spills the idle session instead, and
    // that session still works: its next request swaps it back in.
    pinned.execute("COMMIT").unwrap();
    let mut second = env.connect(&h.addr(), "other", "db").unwrap();
    assert_eq!(h.with_engine(|e| e.session_count()), Some(1));
    assert_eq!(h.with_engine(|e| e.spilled_session_count()), Some(1));
    let r = pinned.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int(0));
    second.execute("SELECT 1").unwrap();

    pinned.close();
    second.close();
    h.shutdown();
    std::fs::remove_dir_all(dir).unwrap();
}
