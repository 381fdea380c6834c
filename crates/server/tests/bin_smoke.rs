//! Smoke test for the standalone `phoenix-server` binary: start it as a real
//! child process, talk to it over TCP, shut it down via stdin, and verify
//! the data survived (checkpoint on shutdown + recovery on start).

use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use phoenix_wire::frame::{read_frame, write_frame};
use phoenix_wire::message::{Outcome, Request, Response};

fn temp_dir() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("phoenix-binsmoke-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn spawn_server(data: &Path, port: u16) -> Child {
    spawn_server_logging(data, port, Stdio::null())
}

/// Start the server on a port of the kernel's choosing, its stderr in `log`
/// (truncated); returns once the port is announced. No two tests of this
/// file can end up on one port this way.
fn spawn_server_announced(data: &Path, log: &Path) -> (Child, u16) {
    let child = spawn_server_logging(data, 0, std::fs::File::create(log).unwrap());
    let line = wait_for_line(log, "listening on 127.0.0.1:");
    let port = line.rsplit(':').next().unwrap().trim().parse().unwrap();
    (child, port)
}

fn spawn_server_logging(data: &Path, port: u16, stderr: impl Into<Stdio>) -> Child {
    Command::new(env!("CARGO_BIN_EXE_phoenix-server"))
        .args([
            "--data",
            data.to_str().unwrap(),
            "--port",
            &port.to_string(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(stderr)
        .spawn()
        .expect("spawn phoenix-server")
}

fn login(s: &mut TcpStream) {
    match call(
        s,
        Request::Login {
            user: "smoke".into(),
            database: "d".into(),
            options: vec![],
        },
    ) {
        Response::LoginAck { .. } => {}
        other => panic!("{other:?}"),
    }
}

fn exec(s: &mut TcpStream, sql: &str) -> Outcome {
    match call(s, Request::Exec { sql: sql.into() }) {
        Response::Result { outcome, .. } => outcome,
        other => panic!("{sql}: {other:?}"),
    }
}

/// Poll the server's log until a complete line with `marker` is there; the
/// line. (Standard error is unbuffered: a line can be seen half-written.)
fn wait_for_line(log: &Path, marker: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let text = std::fs::read_to_string(log).unwrap_or_default();
        let complete = &text[..text.rfind('\n').map_or(0, |end| end + 1)];
        if let Some(line) = complete.lines().find(|l| l.contains(marker)) {
            return line.to_string();
        }
        assert!(Instant::now() < deadline, "no '{marker}' line in: {text}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn wait_for_port(port: u16) -> TcpStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect(("127.0.0.1", port)) {
            Ok(s) => return s,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(25)),
            Err(e) => panic!("server never came up on {port}: {e}"),
        }
    }
}

fn call(s: &mut TcpStream, req: Request) -> Response {
    write_frame(s, &req.encode()).unwrap();
    Response::decode(&read_frame(s).unwrap()).unwrap()
}

fn shutdown(mut child: Child) {
    // A newline on stdin triggers graceful shutdown (checkpoint).
    child.stdin.as_mut().unwrap().write_all(b"\n").unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match child.try_wait().unwrap() {
            Some(status) => {
                assert!(status.success(), "server exited with {status}");
                return;
            }
            None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(25)),
            None => {
                let _ = child.kill();
                panic!("server did not shut down");
            }
        }
    }
}

/// Pick a free port by binding an ephemeral listener and dropping it.
fn free_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

#[test]
fn server_binary_serves_and_persists_across_restarts() {
    let data = temp_dir();
    let port = free_port();

    // Incarnation 1: create data.
    let child = spawn_server(&data, port);
    {
        let mut s = wait_for_port(port);
        login(&mut s);
        call(
            &mut s,
            Request::Exec {
                sql: "CREATE TABLE t (v INT)".into(),
            },
        );
        call(
            &mut s,
            Request::Exec {
                sql: "INSERT INTO t VALUES (1), (2), (3)".into(),
            },
        );
        match call(&mut s, Request::Logout) {
            Response::Bye => {}
            other => panic!("{other:?}"),
        }
    }
    shutdown(child);

    // Incarnation 2: the data is still there after a full process restart.
    let child = spawn_server(&data, port);
    {
        let mut s = wait_for_port(port);
        login(&mut s);
        match call(
            &mut s,
            Request::Exec {
                sql: "SELECT COUNT(*) FROM t".into(),
            },
        ) {
            Response::Result {
                outcome: Outcome::ResultSet { rows, .. },
                ..
            } => assert_eq!(rows[0][0], phoenix_storage::types::Value::Int(3)),
            other => panic!("{other:?}"),
        }
    }
    shutdown(child);

    std::fs::remove_dir_all(&data).unwrap();
}

/// A restart costs the log tail, not the database: a checkpointed 50 000-row
/// table the tail does not write to is still in its segment when the server
/// reports `recovered:`, and a query on it — from a client that connected
/// the moment the port was announced, before recovery had run — is right.
/// Counts, not wall-clock.
#[test]
fn restart_defers_the_table_its_log_tail_does_not_write() {
    const ROWS: i64 = 50_000;
    let data = temp_dir();
    let log = data.with_extension("log");
    let connect = |port: u16| TcpStream::connect(("127.0.0.1", port)).expect("the port is bound");

    // Incarnation 1: the big table and a small one; shutdown checkpoints.
    let (child, port) = spawn_server_announced(&data, &log);
    {
        let mut s = connect(port);
        login(&mut s);
        exec(
            &mut s,
            "CREATE TABLE big (id INT NOT NULL, v TEXT, PRIMARY KEY (id))",
        );
        exec(
            &mut s,
            "CREATE TABLE tail (id INT NOT NULL, PRIMARY KEY (id))",
        );
        for batch in 0..ROWS / 1_000 {
            let values: Vec<String> = (batch * 1_000..(batch + 1) * 1_000)
                .map(|id| format!("({id}, 'row {id}')"))
                .collect();
            exec(
                &mut s,
                &format!("INSERT INTO big VALUES {}", values.join(", ")),
            );
        }
    }
    shutdown(child);

    // Incarnation 2: a log tail on the small table only, then SIGKILL.
    let (mut child, port) = spawn_server_announced(&data, &log);
    {
        let mut s = connect(port);
        login(&mut s);
        for id in 0..5 {
            exec(&mut s, &format!("INSERT INTO tail VALUES ({id})"));
        }
    }
    child.kill().unwrap();
    child.wait().unwrap();

    // Incarnation 3: connect as soon as the port is announced, which is
    // before recovery has run.
    let (mut child, port) = spawn_server_announced(&data, &log);
    let mut s = connect(port);
    login(&mut s);
    let recovered = wait_for_line(&log, "recovered:");
    let field = |name: &str| -> u64 {
        let at = recovered
            .find(&format!(" {name}="))
            .unwrap_or_else(|| panic!("no {name} in: {recovered}"));
        recovered[at + name.len() + 2..]
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    assert_eq!(field("segments_total"), 2, "{recovered}");
    assert_eq!(field("segments_loaded_at_open"), 1, "{recovered}");
    assert_eq!(field("records_applied"), 10, "{recovered}");
    match exec(&mut s, "SELECT COUNT(*) FROM big") {
        Outcome::ResultSet { rows, .. } => {
            assert_eq!(rows[0][0], phoenix_storage::types::Value::Int(ROWS))
        }
        other => panic!("{other:?}"),
    }
    match exec(&mut s, "SELECT COUNT(*) FROM tail") {
        Outcome::ResultSet { rows, .. } => {
            assert_eq!(rows[0][0], phoenix_storage::types::Value::Int(5))
        }
        other => panic!("{other:?}"),
    }
    let drained = wait_for_line(&log, "drained:");
    assert!(drained.contains("unreadable=[]"), "{drained}");
    child.kill().unwrap();
    child.wait().unwrap();
    std::fs::remove_dir_all(&data).unwrap();
    std::fs::remove_file(&log).unwrap();
}
