//! Concurrency tests for the server: sessions must execute simultaneously,
//! the crash switch must fail every live connection atomically, and the two
//! session-leak fixes (connection registry, relogin) must hold.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use phoenix_engine::EngineConfig;
use phoenix_server::ServerHarness;
use phoenix_wire::frame::{read_frame, write_frame};
use phoenix_wire::message::{Outcome, Request, Response};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "phoenix-concurrent-{tag}-{}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn connect(h: &ServerHarness) -> TcpStream {
    let s = TcpStream::connect(h.addr()).unwrap();
    s.set_nodelay(true).unwrap();
    s
}

fn call(s: &mut TcpStream, req: Request) -> Response {
    try_call(s, req).unwrap()
}

fn try_call(s: &mut TcpStream, req: Request) -> std::io::Result<Response> {
    write_frame(s, &req.encode()).map_err(|e| std::io::Error::other(e.to_string()))?;
    let payload = read_frame(s).map_err(|e| std::io::Error::other(e.to_string()))?;
    Response::decode(&payload).map_err(|e| std::io::Error::other(e.to_string()))
}

fn login(s: &mut TcpStream) {
    match call(
        s,
        Request::Login {
            user: "t".into(),
            database: "d".into(),
            options: vec![],
        },
    ) {
        Response::LoginAck { .. } => {}
        other => panic!("login failed: {other:?}"),
    }
}

fn exec(s: &mut TcpStream, sql: &str) -> Response {
    call(s, Request::Exec { sql: sql.into() })
}

fn exec_ok(s: &mut TcpStream, sql: &str) {
    match exec(s, sql) {
        Response::Result { .. } => {}
        other => panic!("{sql}: {other:?}"),
    }
}

fn count(s: &mut TcpStream, sql: &str) -> i64 {
    match exec(s, sql) {
        Response::Result {
            outcome: Outcome::ResultSet { rows, .. },
            ..
        } => match rows[0][0] {
            phoenix_storage::types::Value::Int(n) => n,
            ref other => panic!("not an int: {other:?}"),
        },
        other => panic!("{sql}: {other:?}"),
    }
}

/// Seed `rows` rows into table `t` in batches.
fn seed_rows(s: &mut TcpStream, table: &str, rows: usize) {
    exec_ok(s, &format!("CREATE TABLE {table} (v INT)"));
    let mut batch = Vec::with_capacity(200);
    for i in 0..rows {
        batch.push(format!("({i})"));
        if batch.len() == 200 || i + 1 == rows {
            exec_ok(
                s,
                &format!("INSERT INTO {table} VALUES {}", batch.join(", ")),
            );
            batch.clear();
        }
    }
}

/// Acceptance: session B executes and completes while session A is inside a
/// long-running statement. A runs a self-join whose size is escalated until
/// the overlap is actually observed, so the test is robust on fast machines
/// without a fixed sleep.
#[test]
fn second_session_progresses_during_long_statement() {
    let dir = temp_dir("overlap");
    let h = ServerHarness::start(&dir, EngineConfig::default()).unwrap();

    let mut admin = connect(&h);
    login(&mut admin);
    exec_ok(&mut admin, "CREATE TABLE pings (v INT)");

    let mut overlap_seen = false;
    for (attempt, rows) in [600usize, 1200, 2400].into_iter().enumerate() {
        let table = format!("big{attempt}");
        seed_rows(&mut admin, &table, rows);

        // A: long statement on its own session/connection. A publishes the
        // instant its statement actually hits the wire so B's completions
        // can be compared against the real execution window (not against
        // A's connect/login time).
        let addr = h.addr();
        let sql = format!("SELECT COUNT(*) FROM {table} a, {table} b WHERE a.v = b.v");
        let a_started = Instant::now();
        let exec_start_ns = Arc::new(AtomicU64::new(0));
        let publish = Arc::clone(&exec_start_ns);
        let slow = std::thread::spawn(move || {
            let mut a = TcpStream::connect(addr).unwrap();
            a.set_nodelay(true).unwrap();
            login(&mut a);
            publish.store(a_started.elapsed().as_nanos() as u64, Ordering::SeqCst);
            let t0 = Instant::now();
            let resp = exec(&mut a, &sql);
            assert!(matches!(resp, Response::Result { .. }), "{resp:?}");
            t0.elapsed()
        });

        // B: quick inserts on a different session while A grinds.
        let mut b_done_at = Vec::new();
        for i in 0..30 {
            exec_ok(&mut admin, &format!("INSERT INTO pings VALUES ({i})"));
            b_done_at.push(a_started.elapsed());
        }
        let a_elapsed = slow.join().unwrap();
        let a_window_start = Duration::from_nanos(exec_start_ns.load(Ordering::SeqCst));
        let a_window_end = a_window_start + a_elapsed;

        // Overlap is proven if any of B's statements completed strictly
        // inside A's execution window.
        if b_done_at
            .iter()
            .any(|t| *t > a_window_start && *t < a_window_end)
        {
            overlap_seen = true;
            break;
        }
        // A finished before B even got going — escalate the join size.
    }
    assert!(
        overlap_seen,
        "session B never completed a statement while session A was executing"
    );

    drop(admin);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Smoke: many client threads, one session each, all inserting into a shared
/// table concurrently; nothing is lost and nothing deadlocks.
#[test]
fn concurrent_clients_smoke() {
    let dir = temp_dir("smoke");
    let h = ServerHarness::start(&dir, EngineConfig::default()).unwrap();

    let mut admin = connect(&h);
    login(&mut admin);
    exec_ok(
        &mut admin,
        "CREATE TABLE acc (k INT NOT NULL, PRIMARY KEY (k))",
    );

    const THREADS: usize = 8;
    const EACH: usize = 25;
    let addr = h.addr();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                s.set_nodelay(true).unwrap();
                login(&mut s);
                for i in 0..EACH {
                    let k = t * EACH + i;
                    exec_ok(&mut s, &format!("INSERT INTO acc VALUES ({k})"));
                }
                call(&mut s, Request::Logout);
            })
        })
        .collect();
    for hnd in handles {
        hnd.join().unwrap();
    }

    assert_eq!(
        count(&mut admin, "SELECT COUNT(*) FROM acc"),
        (THREADS * EACH) as i64
    );
    drop(admin);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Acceptance: a crash in the middle of concurrent write load (a) fails every
/// live connection, and (b) recovers to a consistent state — every
/// acknowledged insert survives, nothing beyond what was attempted appears,
/// and the count is stable across a second restart.
#[test]
fn crash_under_concurrent_load_recovers_consistently() {
    let dir = temp_dir("crashload");
    let mut h = ServerHarness::start(&dir, EngineConfig::default()).unwrap();

    let mut admin = connect(&h);
    login(&mut admin);
    exec_ok(
        &mut admin,
        "CREATE TABLE load (k INT NOT NULL, PRIMARY KEY (k))",
    );
    call(&mut admin, Request::Logout);
    drop(admin);

    const WRITERS: usize = 4;
    let acked = Arc::new(AtomicU64::new(0));
    let attempted = Arc::new(AtomicU64::new(0));
    let addr = h.addr();

    let handles: Vec<_> = (0..WRITERS)
        .map(|t| {
            let addr = addr.clone();
            let acked = Arc::clone(&acked);
            let attempted = Arc::clone(&attempted);
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                s.set_nodelay(true).unwrap();
                login(&mut s);
                // Insert distinct keys until the crash kills the connection.
                for i in 0u64.. {
                    let k = (t as u64) * 1_000_000 + i;
                    attempted.fetch_add(1, Ordering::SeqCst);
                    match try_call(
                        &mut s,
                        Request::Exec {
                            sql: format!("INSERT INTO load VALUES ({k})"),
                        },
                    ) {
                        Ok(Response::Result { .. }) => {
                            acked.fetch_add(1, Ordering::SeqCst);
                        }
                        // Server answered with an error (request raced the
                        // crash switch) or the socket died: either way this
                        // connection has observed the crash.
                        Ok(_) | Err(_) => return true,
                    }
                }
                unreachable!()
            })
        })
        .collect();

    // Let the writers build up some load, then pull the plug.
    while acked.load(Ordering::SeqCst) < 40 {
        std::thread::sleep(Duration::from_millis(1));
    }
    h.crash().unwrap();

    // Every live connection must observe the failure.
    for hnd in handles {
        assert!(hnd.join().unwrap(), "a writer never observed the crash");
    }
    let acked = acked.load(Ordering::SeqCst) as i64;
    let attempted = attempted.load(Ordering::SeqCst) as i64;

    // Recover and audit.
    h.restart().unwrap();
    let mut s = connect(&h);
    login(&mut s);
    let recovered = count(&mut s, "SELECT COUNT(*) FROM load");
    assert!(
        recovered >= acked,
        "recovered {recovered} rows but {acked} inserts were acknowledged"
    );
    assert!(
        recovered <= attempted,
        "recovered {recovered} rows but only {attempted} inserts were attempted"
    );
    call(&mut s, Request::Logout);
    drop(s);

    // A second crash/restart cycle must not change the count (consistency).
    h.crash().unwrap();
    h.restart().unwrap();
    let mut s = connect(&h);
    login(&mut s);
    assert_eq!(count(&mut s, "SELECT COUNT(*) FROM load"), recovered);
    drop(s);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Regression (connection-registry leak): the registry entry for a client
/// must disappear when the client goes away, not accumulate forever.
#[test]
fn connection_registry_prunes_dead_clients() {
    let dir = temp_dir("prune");
    let h = ServerHarness::start(&dir, EngineConfig::default()).unwrap();

    let mut keep = connect(&h);
    login(&mut keep);

    for _ in 0..5 {
        let mut s = connect(&h);
        login(&mut s);
        call(&mut s, Request::Logout);
        drop(s);
    }

    // The five dead clients must be pruned (poll — teardown is async).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let n = h.connection_count().unwrap();
        if n == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "registry still holds {n} entries"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The surviving connection still works.
    exec_ok(&mut keep, "CREATE TABLE still_here (v INT)");
    drop(keep);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Regression (relogin leak): a second `Login` on the same connection must
/// close the first session — its temp objects die and the engine's session
/// count stays at one.
#[test]
fn relogin_closes_previous_session() {
    let dir = temp_dir("relogin");
    let h = ServerHarness::start(&dir, EngineConfig::default()).unwrap();

    let mut s = connect(&h);
    login(&mut s);
    exec_ok(&mut s, "CREATE TABLE #scratch (v INT)");
    assert_eq!(h.with_engine(|e| e.session_count()), Some(1));

    // Relogin on the same connection.
    login(&mut s);
    assert_eq!(
        h.with_engine(|e| e.session_count()),
        Some(1),
        "old session leaked after relogin"
    );
    // The old session's temp table died with it.
    match exec(&mut s, "SELECT * FROM #scratch") {
        Response::Err { .. } => {}
        other => panic!("temp table survived relogin: {other:?}"),
    }

    call(&mut s, Request::Logout);
    drop(s);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The listener exists before the engine does: a client that connects (and
/// sends its login) between `bind` and `serve` is not refused — it waits in
/// the listen backlog and is answered the moment serving starts. And a
/// server whose accept thread is blocked in `accept()` with nobody
/// connecting still stops at once.
#[test]
fn login_sent_between_bind_and_serve_is_answered_and_stop_is_prompt() {
    use phoenix_engine::Engine;
    use phoenix_server::RunningServer;

    let dir = temp_dir("bind-serve");
    let bound = RunningServer::bind(0).unwrap();
    let mut early = TcpStream::connect(("127.0.0.1", bound.port)).unwrap();
    let hello = Request::Login {
        user: "early".into(),
        database: "d".into(),
        options: vec![],
    };
    write_frame(&mut early, &hello.encode()).unwrap();

    // "Recovery" happens here, with the client already queued.
    let engine = Engine::open(&dir, EngineConfig::default()).unwrap();
    let server = bound.serve(engine).unwrap();
    early
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let reply = Response::decode(&read_frame(&mut early).unwrap()).unwrap();
    assert!(matches!(reply, Response::LoginAck { .. }), "{reply:?}");
    exec_ok(&mut early, "CREATE TABLE t (x INT)");
    drop(early);

    // Nobody is connecting now: the accept thread is parked in accept().
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    let port = server.port;
    assert!(server.stop().is_some());
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "stop() waited {:?} on a blocked accept",
        t0.elapsed()
    );
    // And the port is free again at once.
    drop(RunningServer::bind(port).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
}
