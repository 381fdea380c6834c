//! Protocol-robustness tests: a well-formed frame carrying a garbage payload
//! must produce a clean `Response::Err` and leave the connection usable —
//! killing the connection would also kill the session (temp tables, cursors),
//! which is far too high a price for one bad message.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};

use phoenix_engine::EngineConfig;
use phoenix_server::metrics::server_metrics;
use phoenix_server::ServerHarness;
use phoenix_storage::types::Value;
use phoenix_wire::frame::{read_frame, write_frame};
use phoenix_wire::message::{Outcome, Request, Response};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("phoenix-robust-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn call(s: &mut TcpStream, req: Request) -> Response {
    write_frame(s, &req.encode()).unwrap();
    let payload = read_frame(s).unwrap();
    Response::decode(&payload).unwrap()
}

/// Send raw bytes as a frame payload and read back the response.
fn call_raw(s: &mut TcpStream, payload: &[u8]) -> Response {
    write_frame(s, payload).unwrap();
    let payload = read_frame(s).unwrap();
    Response::decode(&payload).unwrap()
}

#[test]
fn garbage_payload_gets_error_and_connection_survives() {
    let dir = temp_dir("garbage");
    let mut h = ServerHarness::start(&dir, EngineConfig::default()).unwrap();
    let mut s = TcpStream::connect(h.addr()).unwrap();
    s.set_nodelay(true).unwrap();

    match call(
        &mut s,
        Request::Login {
            user: "t".into(),
            database: "d".into(),
            options: vec![],
        },
    ) {
        Response::LoginAck { .. } => {}
        other => panic!("login failed: {other:?}"),
    }
    match call(
        &mut s,
        Request::Exec {
            sql: "CREATE TABLE #scratch (x INT)".into(),
        },
    ) {
        Response::Result { .. } => {}
        other => panic!("create failed: {other:?}"),
    }

    let malformed_before = server_metrics().malformed_requests.get();

    // An unknown request tag, a truncated Login, and pure noise: all are
    // valid *frames*, none are valid *requests*. Each must be answered with
    // an error on the same, still-living connection.
    for garbage in [&[200u8][..], &[1, 0, 0][..], &[0xde, 0xad, 0xbe, 0xef][..]] {
        match call_raw(&mut s, garbage) {
            Response::Err { message, .. } => {
                assert!(message.contains("malformed request"), "{message}");
            }
            other => panic!("expected Err for {garbage:?}, got {other:?}"),
        }
    }

    assert_eq!(
        server_metrics().malformed_requests.get(),
        malformed_before + 3,
        "each garbage frame must be counted"
    );

    // The connection — and the session behind it — are still intact: the
    // temp table created before the garbage is still visible.
    match call(&mut s, Request::Ping) {
        Response::Pong => {}
        other => panic!("ping after garbage failed: {other:?}"),
    }
    match call(
        &mut s,
        Request::Exec {
            sql: "INSERT INTO #scratch VALUES (1)".into(),
        },
    ) {
        Response::Result {
            outcome: Outcome::RowsAffected(1),
            ..
        } => {}
        other => panic!("temp table lost after garbage: {other:?}"),
    }

    h.shutdown();
}

/// A grouped query over an empty input that names a column outside the
/// group key once panicked the connection thread (its first row did not
/// exist). Now the column reads NULL, and the session goes on serving.
#[test]
fn grouped_query_over_empty_input_keeps_the_connection() {
    let dir = temp_dir("empty-group");
    let mut h = ServerHarness::start(&dir, EngineConfig::default()).unwrap();
    let mut s = TcpStream::connect(h.addr()).unwrap();
    s.set_nodelay(true).unwrap();
    let login = Request::Login {
        user: "t".into(),
        database: "d".into(),
        options: vec![],
    };
    assert!(matches!(call(&mut s, login), Response::LoginAck { .. }));
    let mut exec = |sql: &str| call(&mut s, Request::Exec { sql: sql.into() });
    assert!(matches!(
        exec("CREATE TABLE #t (a INT, b INT)"),
        Response::Result { .. }
    ));

    for (sql, want) in [
        (
            "SELECT a, COUNT(*) FROM #t",
            vec![vec![Value::Null, Value::Int(0)]],
        ),
        ("SELECT COUNT(*) FROM #t HAVING a > 1", vec![]),
        ("SELECT SUM(b) FROM #t ORDER BY a", vec![vec![Value::Null]]),
    ] {
        match exec(sql) {
            Response::Result {
                outcome: Outcome::ResultSet { rows, .. },
                ..
            } => assert_eq!(rows, want, "{sql}"),
            other => panic!("{sql}: {other:?}"),
        }
    }
    // Same connection, same session: the temp table is still there.
    match exec("INSERT INTO #t VALUES (1, 2)") {
        Response::Result {
            outcome: Outcome::RowsAffected(1),
            ..
        } => {}
        other => panic!("session lost after the empty-group queries: {other:?}"),
    }

    h.shutdown();
}

/// A scripted stand-in for a dying server: answers the login handshake, then
/// hands the connection to `script` to misbehave with.
fn fake_server<F>(script: F) -> (String, std::thread::JoinHandle<()>)
where
    F: FnOnce(&mut TcpStream) + Send + 'static,
{
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        s.set_nodelay(true).unwrap();
        let _login = read_frame(&mut s).unwrap();
        write_frame(&mut s, &Response::LoginAck { session: 7 }.encode()).unwrap();
        script(&mut s);
    });
    (addr, handle)
}

#[test]
fn half_written_reply_is_clean_comm_error() {
    // The server dies mid-send: the client has the frame header (promising
    // 64 bytes) and 10 payload bytes when the socket closes. The driver must
    // surface a clean connection-lost error — the trigger for Phoenix's
    // reconnect loop — never a decode panic or a terminal protocol error.
    let (addr, server) = fake_server(|s| {
        let _req = read_frame(s).unwrap();
        use std::io::Write;
        s.write_all(&64u32.to_le_bytes()).unwrap();
        s.write_all(&[0xAA; 10]).unwrap();
        s.flush().unwrap();
        // Socket drops here: EOF mid-frame on the client.
    });

    let env = phoenix_driver::Environment::new().with_protocol(phoenix_wire::message::PROTOCOL_V1);
    let mut conn = env.connect(&addr, "app", "test").unwrap();
    let err = conn.execute("SELECT 1").unwrap_err();
    assert!(err.is_comm(), "half-written reply must be comm, got {err}");
    assert!(conn.is_poisoned(), "connection must be poisoned");
    assert!(conn.execute("SELECT 1").unwrap_err().is_comm());
    server.join().unwrap();
}

#[test]
fn undecodable_reply_frame_is_comm_and_poisons() {
    // A complete, well-formed frame whose payload is not a decodable
    // Response. Framing is lost for good (the stream can't be resynced), so
    // this too must classify as a communication failure that poisons the
    // connection — not a protocol error the application would treat as
    // terminal, and not a panic.
    let (addr, server) = fake_server(|s| {
        let _req = read_frame(s).unwrap();
        write_frame(s, &[0xde, 0xad, 0xbe, 0xef, 0xff]).unwrap();
        // Keep the socket open until the client gives up, so the failure the
        // driver sees is the bad payload, not EOF.
        let _ = read_frame(s);
    });

    let env = phoenix_driver::Environment::new().with_protocol(phoenix_wire::message::PROTOCOL_V1);
    let mut conn = env.connect(&addr, "app", "test").unwrap();
    let err = conn.execute("SELECT 1").unwrap_err();
    assert!(err.is_comm(), "undecodable reply must be comm, got {err}");
    assert!(conn.is_poisoned(), "connection must be poisoned");
    drop(conn);
    server.join().unwrap();
}

#[test]
fn oversized_reply_frame_is_comm_and_poisons() {
    // A length header past MAX_FRAME means the stream is desynchronized
    // (we are reading payload bytes as a header). Same classification.
    let (addr, server) = fake_server(|s| {
        let _req = read_frame(s).unwrap();
        use std::io::Write;
        s.write_all(&u32::MAX.to_le_bytes()).unwrap();
        s.flush().unwrap();
        let _ = read_frame(s);
    });

    let env = phoenix_driver::Environment::new().with_protocol(phoenix_wire::message::PROTOCOL_V1);
    let mut conn = env.connect(&addr, "app", "test").unwrap();
    let err = conn.execute("SELECT 1").unwrap_err();
    assert!(err.is_comm(), "oversized reply must be comm, got {err}");
    assert!(conn.is_poisoned());
    drop(conn);
    server.join().unwrap();
}

#[test]
fn stats_request_round_trips_without_login() {
    let dir = temp_dir("stats");
    let mut h = ServerHarness::start(&dir, EngineConfig::default()).unwrap();
    let mut s = TcpStream::connect(h.addr()).unwrap();

    // Stats is session-less, like Ping: no login required.
    let snapshot = match call(&mut s, Request::Stats) {
        Response::Stats { snapshot } => snapshot,
        other => panic!("expected stats, got {other:?}"),
    };
    let stats = phoenix_obs::StatsSnapshot::decode(&snapshot).unwrap();
    assert!(
        stats
            .counter("phoenix_connections_accepted_total")
            .is_some_and(|v| v >= 1),
        "server-side counters must appear in the wire snapshot"
    );

    h.shutdown();
}

/// The tentpole recovery test: crash the server with a whole pipelined
/// window of DML in flight. Every committed-and-unacknowledged tag must be
/// answered from the status table (never re-executed), every uncommitted
/// tag must be cleanly resubmitted, and the replies must come back in
/// submission order — the paper's exactly-once guarantee, per tag.
#[test]
fn pipelined_window_crash_replays_exactly_once() {
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    use phoenix_chaos as chaos;
    use phoenix_core::{PhoenixConfig, PhoenixConnection};

    let dir = temp_dir("pipewindow");
    let harness = Arc::new(Mutex::new(
        ServerHarness::start(&dir, EngineConfig::default()).unwrap(),
    ));

    let mut config = PhoenixConfig::default();
    config.recovery.read_timeout = Some(Duration::from_millis(500));
    config.recovery.ping_interval = Duration::from_millis(10);
    config.recovery.max_wait = Duration::from_secs(10);
    let mut pc = {
        let h = harness.lock().unwrap();
        PhoenixConnection::connect(
            &phoenix_driver::Environment::new(),
            &h.addr(),
            "app",
            "test",
            config,
        )
        .unwrap()
    };
    pc.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    pc.execute(
        "INSERT INTO t VALUES (1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (7, 0), (8, 0)",
    )
    .unwrap();

    // Statement i updates rows id <= i: every affected count is distinct
    // (proving reply order) and a double application would overshoot the
    // final increments (proving exactly-once).
    let stmts: Vec<String> = (1..=8)
        .map(|i| format!("UPDATE t SET v = v + 1 WHERE id <= {i}"))
        .collect();

    // Arm only now, so reply_send visit numbers start at the pipelined
    // window: the 6th reply is the 6th wrapper's — it has committed, and
    // killing its reply forces a status-table replay, while wrappers 7 and 8
    // die unexecuted and must be resubmitted.
    let guard = chaos::arm(chaos::Schedule::new().rule(
        chaos::Target::Point {
            point: "server.reply_send",
            nth: 6,
        },
        chaos::FaultSpec::CrashNow,
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let supervisor = {
        let harness = Arc::clone(&harness);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || loop {
            if chaos::crash_requested() {
                let mut h = harness.lock().unwrap();
                h.crash().expect("supervisor crash");
                chaos::acknowledge_crash();
                std::thread::sleep(Duration::from_millis(20));
                h.restart().expect("supervisor restart");
                return true;
            }
            if stop.load(std::sync::atomic::Ordering::Relaxed) {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        })
    };

    let results = pc
        .execute_pipelined(&stmts)
        .expect("window survives the crash");

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let crashed = supervisor.join().unwrap();
    assert!(guard.fired().iter().any(|f| f.point == "server.reply_send"));
    drop(guard);
    assert!(crashed, "the injected fault must have crashed the server");

    // Reply order preserved: result i carries statement i's distinct count.
    assert_eq!(results.len(), 8);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(
            r.affected(),
            (i + 1) as u64,
            "reply {i} out of order or wrong"
        );
    }

    // Exactly-once: row id gained exactly (9 - id) increments.
    let table = pc.execute("SELECT id, v FROM t ORDER BY id").unwrap();
    for row in table.rows() {
        let id = row[0].as_i64().unwrap();
        let v = row[1].as_i64().unwrap();
        assert_eq!(v, 9 - id, "row {id}: committed tag re-applied or lost");
    }

    let stats = pc.stats().clone();
    assert!(stats.recoveries >= 1, "{stats:?}");
    assert_eq!(stats.pipelined_dml, 8, "{stats:?}");
    assert!(
        stats.replied_from_status >= 1,
        "committed tag 6 must be answered from the status table: {stats:?}"
    );
    assert!(
        stats.resubmissions >= 1,
        "unexecuted tags must be resubmitted: {stats:?}"
    );

    pc.close();
    harness.lock().unwrap().shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
