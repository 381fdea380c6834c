//! Protocol end-to-end tests: the login handshake and its window grant,
//! pipelining, batch execution, cursors and EXPLAIN over the wire.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use phoenix_driver::prelude::*;
use phoenix_engine::EngineConfig;
use phoenix_server::ServerHarness;
use phoenix_storage::types::Value;
use phoenix_wire::frame::{read_frame, write_frame};
use phoenix_wire::message::{Request, Response, DEFAULT_WINDOW, PROTOCOL_V2};

fn temp_dir() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("phoenix-proto2-test-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn start() -> (ServerHarness, PathBuf) {
    let dir = temp_dir();
    let h = ServerHarness::start(&dir, EngineConfig::default()).unwrap();
    (h, dir)
}

/// The window a raw `LoginV2` asking for `ask` is granted.
fn granted_window(addr: &str, ask: u32) -> u32 {
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    let login = Request::LoginV2 {
        user: "raw".into(),
        database: "test".into(),
        options: vec![],
        protocol: PROTOCOL_V2,
        window: ask,
    };
    write_frame(&mut s, &login.encode()).unwrap();
    match Response::decode(&read_frame(&mut s).unwrap()).unwrap() {
        Response::LoginAckV2 {
            protocol, window, ..
        } => {
            assert_eq!(protocol, PROTOCOL_V2);
            window
        }
        other => panic!("login failed: {other:?}"),
    }
}

#[test]
fn server_grants_the_asked_window_within_its_bounds() {
    let (h, dir) = start();
    assert_eq!(
        granted_window(&h.addr(), 1_000_000),
        DEFAULT_WINDOW,
        "server must cap an absurd window ask at its maximum"
    );
    assert_eq!(granted_window(&h.addr(), 8), 8);
    assert_eq!(
        granted_window(&h.addr(), 0),
        1,
        "a zero window makes no progress"
    );
    // The driver asks for the maximum.
    let conn = Environment::new()
        .connect(&h.addr(), "app", "test")
        .unwrap();
    assert_eq!(conn.window(), DEFAULT_WINDOW);
    conn.close();
    drop(h);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pipeline_keeps_to_a_smaller_grant() {
    // A scripted server that grants a window of 8.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let p = read_frame(&mut s).unwrap();
        assert!(matches!(
            Request::decode(&p),
            Ok(Request::LoginV2 {
                window: DEFAULT_WINDOW,
                ..
            })
        ));
        let ack = Response::LoginAckV2 {
            session: 42,
            protocol: PROTOCOL_V2,
            window: 8,
        };
        write_frame(&mut s, &ack.encode()).unwrap();
    });
    let mut conn = Environment::new().connect(&addr, "app", "test").unwrap();
    server.join().unwrap();
    assert_eq!(conn.session_id(), 42);
    assert_eq!(conn.pipeline().window(), 8);
}

#[test]
fn pipeline_submits_ahead_and_replies_in_order() {
    let (h, dir) = start();
    let mut conn = Environment::new()
        .connect(&h.addr(), "app", "test")
        .unwrap();
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();

    let mut pipe = conn.pipeline();
    assert_eq!(pipe.window(), DEFAULT_WINDOW);
    let tags: Vec<u64> = (0..80)
        .map(|i| pipe.submit(&format!("INSERT INTO t VALUES ({i}, {})", i * 10)))
        .collect::<Result<_>>()
        .unwrap();
    // 80 submissions through a window of 32: submission must have been
    // forced to drain some replies along the way, yet every tag resolves.
    for (i, tag) in tags.iter().enumerate() {
        assert_eq!(pipe.wait(*tag).unwrap().affected(), 1, "tag {i}");
    }

    // Interleave queries through the pipeline and check results by tag, out
    // of submission order.
    let q1 = pipe.submit("SELECT COUNT(*) FROM t").unwrap();
    let q2 = pipe.submit("SELECT v FROM t WHERE id = 7").unwrap();
    pipe.drain().unwrap();
    assert_eq!(pipe.wait(q2).unwrap().rows()[0][0], Value::Int(70));
    assert_eq!(pipe.wait(q1).unwrap().rows()[0][0], Value::Int(80));

    // A sql error surfaces on its own tag without killing the pipeline.
    let bad = pipe.submit("INSERT INTO t VALUES (7, 0)").unwrap(); // dup pk
    let good = pipe.submit("SELECT COUNT(*) FROM t").unwrap();
    let err = pipe.wait(bad).unwrap_err();
    assert_eq!(err.server_code(), Some(codes::CONSTRAINT));
    assert!(!err.is_retryable());
    assert_eq!(pipe.wait(good).unwrap().rows()[0][0], Value::Int(80));

    // Waiting on a never-submitted tag is a protocol (usage) error.
    assert!(matches!(pipe.wait(9999), Err(Error::Protocol(_))));

    drop(pipe);
    conn.close();
    drop(h);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn execute_batch_is_one_frame_and_stops_at_the_first_error() {
    let (h, dir) = start();
    let mut conn = Environment::new()
        .connect(&h.addr(), "app", "test")
        .unwrap();
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();

    let items = conn
        .execute_batch(&[
            "INSERT INTO t VALUES (1)".into(),
            "INSERT INTO t VALUES (2)".into(),
            "SELECT COUNT(*) FROM t".into(),
        ])
        .unwrap();
    assert_eq!(items.len(), 3);
    assert!(matches!(
        items[0],
        BatchItem::Ok {
            outcome: Outcome::RowsAffected(1),
            ..
        }
    ));
    match &items[2] {
        BatchItem::Ok {
            outcome: Outcome::ResultSet { rows, .. },
            ..
        } => assert_eq!(rows[0][0], Value::Int(2)),
        other => panic!("{other:?}"),
    }

    // Batch stops at the first error; the error is the last item.
    let items = conn
        .execute_batch(&[
            "INSERT INTO t VALUES (3)".into(),
            "INSERT INTO t VALUES (1)".into(), // dup pk
            "INSERT INTO t VALUES (4)".into(), // never attempted
        ])
        .unwrap();
    assert_eq!(items.len(), 2);
    assert!(matches!(items[1], BatchItem::Err { code, .. } if code == codes::CONSTRAINT));
    let r = conn.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(
        r.rows()[0][0],
        Value::Int(3),
        "statement after the failure must not have run"
    );

    conn.close();
    drop(h);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn raii_cursor_closes_on_drop() {
    let (h, dir) = start();
    let env = Environment::new();
    let mut conn = env.connect(&h.addr(), "app", "test").unwrap();
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
    for i in 1..=5 {
        conn.execute(&format!("INSERT INTO t VALUES ({i})"))
            .unwrap();
    }

    let id = {
        let mut cur = conn
            .cursor("SELECT id FROM t ORDER BY id", CursorKind::Keyset)
            .unwrap();
        assert_eq!(cur.schema().columns[0].name, "id");
        let (rows, _) = cur.fetch(FetchDir::Next, 3).unwrap();
        assert_eq!(rows.len(), 3);
        cur.id()
        // drop closes the server cursor
    };
    // The id is now stale: any further fetch on it must fail server-side.
    let err = conn.fetch_cursor_raw(id, FetchDir::Next, 1).unwrap_err();
    assert_eq!(err.server_code(), Some(codes::CURSOR));

    // Explicit close reports success (and is not a double close).
    let cur = conn
        .cursor("SELECT id FROM t", CursorKind::ForwardOnly)
        .unwrap();
    cur.close().unwrap();

    conn.close();
    drop(h);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn raw_cursor_api_round_trip() {
    let (h, dir) = start();
    let env = Environment::new();
    let mut conn = env.connect(&h.addr(), "app", "test").unwrap();
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
    conn.execute("INSERT INTO t VALUES (1), (2)").unwrap();

    let (id, schema, _granted) = conn
        .open_cursor_raw("SELECT id FROM t", CursorKind::ForwardOnly)
        .unwrap();
    assert_eq!(schema.columns.len(), 1);
    let (rows, at_end) = conn.fetch_cursor_raw(id, FetchDir::Next, 10).unwrap();
    assert_eq!(rows.len(), 2);
    assert!(at_end);
    conn.close_cursor_raw(id).unwrap();

    conn.close();
    drop(h);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn index_ddl_and_explain_over_the_wire() {
    let (h, dir) = start();
    let env = Environment::new();
    let mut conn = env.connect(&h.addr(), "app", "test").unwrap();
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT)")
        .unwrap();
    for i in 0..40 {
        conn.execute(&format!("INSERT INTO t VALUES ({i}, {})", i % 4))
            .unwrap();
    }

    // Before the index: equality on grp scans.
    let plan = conn.explain("SELECT id FROM t WHERE grp = 2").unwrap();
    assert_eq!(plan.rows()[0][3], Value::Text("scan".into()));

    conn.execute("CREATE INDEX ix_grp ON t(grp)").unwrap();
    let plan = conn.explain("SELECT id FROM t WHERE grp = 2").unwrap();
    assert_eq!(plan.rows()[0][3], Value::Text("index-eq".into()));
    assert_eq!(plan.rows()[0][4], Value::Text("ix_grp".into()));
    let schema = plan.schema().unwrap();
    assert_eq!(schema.columns[3].name, "access");

    let r = conn.execute("SELECT id FROM t WHERE grp = 2").unwrap();
    assert_eq!(r.rows().len(), 10);

    conn.execute("DROP INDEX ix_grp").unwrap();
    let plan = conn.explain("SELECT id FROM t WHERE grp = 2").unwrap();
    assert_eq!(plan.rows()[0][3], Value::Text("scan".into()));

    conn.close();
    drop(h);
    std::fs::remove_dir_all(&dir).unwrap();
}
