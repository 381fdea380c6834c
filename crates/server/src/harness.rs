//! The crash-injection server harness.
//!
//! Fault model (matching what a machine/process failure does to a real
//! database server):
//!
//! * [`ServerHarness::crash`] — stop accepting, **sever every client socket
//!   first**, then take the engine out of the shared handle and drop it
//!   without a checkpoint. Severing before dropping means a statement that
//!   committed an instant earlier can lose its reply in flight — the exact
//!   lost-message window §3's reply-buffer mechanism exists for. All
//!   volatile state (sessions, temp tables, open cursors, in-flight
//!   transactions) is gone; only the data directory remains. Statements
//!   already executing finish against their cloned engine handle, but their
//!   replies cannot reach the client and every *subsequent* request fails —
//!   indistinguishable, from the client's side, from a dead process.
//! * [`ServerHarness::restart`] — re-open the engine from the data directory
//!   (real WAL recovery) and listen on the *same port*, so clients that keep
//!   retrying the old address eventually get through — Phoenix's reconnect
//!   loop does exactly that.
//! * [`ServerHarness::shutdown`] — graceful stop (checkpoint, then drop).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use phoenix_chaos::FaultPlan;
use phoenix_engine::{Engine, EngineConfig};

use crate::server::RunningServer;

/// Test/bench harness around a [`RunningServer`].
pub struct ServerHarness {
    data_dir: PathBuf,
    engine_config: EngineConfig,
    port: u16,
    server: Option<RunningServer>,
    /// The fault plan the harness was started inside: every incarnation
    /// serves inside it, whichever thread restarts it.
    plan: Option<Arc<FaultPlan>>,
}

impl ServerHarness {
    /// Start a server over `data_dir` on an ephemeral port.
    pub fn start(
        data_dir: impl AsRef<Path>,
        engine_config: EngineConfig,
    ) -> io::Result<ServerHarness> {
        let data_dir = data_dir.as_ref().to_path_buf();
        let engine = Engine::open(&data_dir, engine_config.clone())
            .map_err(|e| io::Error::other(e.to_string()))?;
        let server = RunningServer::start(engine, 0)?;
        let port = server.port;
        Ok(ServerHarness {
            data_dir,
            engine_config,
            port,
            server: Some(server),
            plan: phoenix_chaos::current(),
        })
    }

    /// `host:port` the server listens on (stable across crash/restart).
    pub fn addr(&self) -> String {
        format!("127.0.0.1:{}", self.port)
    }

    /// The listen port (stable across crash/restart).
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The durable data directory.
    pub fn data_dir(&self) -> &Path {
        &self.data_dir
    }

    /// Is the server currently up (not crashed)?
    pub fn is_running(&self) -> bool {
        self.server.is_some()
    }

    /// Number of live client connections the server currently tracks.
    /// `None` while crashed.
    pub fn connection_count(&self) -> Option<usize> {
        self.server.as_ref().map(|s| s.connection_count())
    }

    /// Crash the server abruptly. See the module docs for the fault model.
    ///
    /// Errors with [`io::ErrorKind::NotConnected`] if the server is already
    /// down — callers decide whether a double-crash is a test bug.
    pub fn crash(&mut self) -> io::Result<()> {
        let server = self.server.take().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotConnected,
                "crash() on a server that is not running",
            )
        })?;
        // 1. Sever client sockets — in-flight replies are lost.
        server.sever_connections();
        // 2. Take the engine out of the shared handle and drop it with no
        //    checkpoint: all volatile state dies, and every request that
        //    arrives after this instant fails. (RunningServer::stop also
        //    stops accepting.)
        let engine = server.stop();
        // 3. Drain: request threads may still hold cloned engine handles.
        //    Wait (bounded) until ours is the last one so that when a new
        //    incarnation opens the same data directory, no thread of the
        //    dead one can still touch the WAL file.
        if let Some(engine) = engine {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
            while std::sync::Arc::strong_count(&engine) > 1 && std::time::Instant::now() < deadline
            {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            drop(engine);
        }
        Ok(())
    }

    /// Restart after a crash: recover from the data directory and listen on
    /// the same port.
    pub fn restart(&mut self) -> io::Result<()> {
        assert!(self.server.is_none(), "restart() while still running");
        let _plan = phoenix_chaos::enter(self.plan.clone());
        let engine = Engine::open(&self.data_dir, self.engine_config.clone())
            .map_err(|e| io::Error::other(e.to_string()))?;
        // The old listener is fully closed (accept thread joined in stop()),
        // so rebinding the same port succeeds immediately on Linux.
        let server = RunningServer::start(engine, self.port)?;
        debug_assert_eq!(server.port, self.port);
        self.server = Some(server);
        Ok(())
    }

    /// Graceful shutdown: checkpoint, then stop.
    pub fn shutdown(&mut self) {
        if let Some(server) = self.server.take() {
            if let Some(engine) = server.stop() {
                let _ = engine.checkpoint();
            }
        }
    }

    /// Direct engine access while running (test setup shortcuts). The engine
    /// is internally synchronized, so `f` gets a shared reference and runs
    /// concurrently with client requests.
    pub fn with_engine<R>(&self, f: impl FnOnce(&Engine) -> R) -> Option<R> {
        let server = self.server.as_ref()?;
        let engine = server.engine.read().clone();
        engine.map(|e| f(&e))
    }
}

impl Drop for ServerHarness {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_wire::frame::{read_frame, read_tagged_frame, write_frame, write_tagged_frame};
    use phoenix_wire::message::{Outcome, Request, Response, DEFAULT_WINDOW, PROTOCOL_V2};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn temp_dir() -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d =
            std::env::temp_dir().join(format!("phoenix-server-test-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn connect(h: &ServerHarness) -> TcpStream {
        let s = TcpStream::connect(h.addr()).unwrap();
        s.set_nodelay(true).unwrap();
        s
    }

    /// One round trip on a logged-in connection, in tagged frames.
    fn call(s: &mut TcpStream, req: Request) -> Response {
        write_tagged_frame(s, 1, &req.encode()).unwrap();
        let (tag, payload) = read_tagged_frame(s).unwrap();
        assert_eq!(tag, 1);
        Response::decode(&payload).unwrap()
    }

    /// The untagged `LoginV2` handshake.
    fn login(s: &mut TcpStream) {
        let login = Request::LoginV2 {
            user: "t".into(),
            database: "d".into(),
            options: vec![],
            protocol: PROTOCOL_V2,
            window: DEFAULT_WINDOW,
        };
        write_frame(s, &login.encode()).unwrap();
        match Response::decode(&read_frame(s).unwrap()).unwrap() {
            Response::LoginAckV2 { .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn end_to_end_over_tcp() {
        let dir = temp_dir();
        let h = ServerHarness::start(&dir, EngineConfig::default()).unwrap();
        let mut s = connect(&h);
        login(&mut s);
        call(
            &mut s,
            Request::Exec {
                sql: "CREATE TABLE t (v INT)".into(),
            },
        );
        match call(
            &mut s,
            Request::Exec {
                sql: "INSERT INTO t VALUES (1), (2)".into(),
            },
        ) {
            Response::Result {
                outcome: Outcome::RowsAffected(2),
                ..
            } => {}
            other => panic!("{other:?}"),
        }
        match call(
            &mut s,
            Request::Exec {
                sql: "SELECT COUNT(*) FROM t".into(),
            },
        ) {
            Response::Result {
                outcome: Outcome::ResultSet { rows, .. },
                ..
            } => {
                assert_eq!(rows[0][0], phoenix_storage::types::Value::Int(2));
            }
            other => panic!("{other:?}"),
        }
        match call(&mut s, Request::Ping) {
            Response::Pong => {}
            other => panic!("{other:?}"),
        }
        match call(&mut s, Request::Logout) {
            Response::Bye => {}
            other => panic!("{other:?}"),
        }
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_severs_connections_and_loses_volatile_state() {
        let dir = temp_dir();
        let mut h = ServerHarness::start(&dir, EngineConfig::default()).unwrap();
        let mut s = connect(&h);
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
                sql: "INSERT INTO t VALUES (7)".into(),
            },
        );
        call(
            &mut s,
            Request::Exec {
                sql: "CREATE TABLE #tmp (v INT)".into(),
            },
        );

        h.crash().unwrap();

        // The old connection is dead.
        s.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let dead = write_tagged_frame(&mut s, 1, &Request::Ping.encode()).is_err()
            || read_tagged_frame(&mut s).is_err();
        assert!(dead, "socket should be severed by crash");

        // A double-crash is reported, not a panic.
        assert!(h.crash().is_err());

        // And the port refuses / resets until restart.
        h.restart().unwrap();
        let mut s2 = connect(&h);
        login(&mut s2);
        // Durable data survived...
        match call(
            &mut s2,
            Request::Exec {
                sql: "SELECT COUNT(*) FROM t".into(),
            },
        ) {
            Response::Result {
                outcome: Outcome::ResultSet { rows, .. },
                ..
            } => {
                assert_eq!(rows[0][0], phoenix_storage::types::Value::Int(1));
            }
            other => panic!("{other:?}"),
        }
        // ...the temp table did not.
        match call(
            &mut s2,
            Request::Exec {
                sql: "SELECT * FROM #tmp".into(),
            },
        ) {
            Response::Err { .. } => {}
            other => panic!("{other:?}"),
        }
        drop(s2);
        h.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disconnect_closes_session_and_temp_objects() {
        let dir = temp_dir();
        let h = ServerHarness::start(&dir, EngineConfig::default()).unwrap();
        {
            let mut s = connect(&h);
            login(&mut s);
            call(
                &mut s,
                Request::Exec {
                    sql: "CREATE TABLE #mine (v INT)".into(),
                },
            );
            // Drop without logout — client vanished.
        }
        // Give the server a moment to notice the disconnect.
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(h.with_engine(|e| e.session_count()), Some(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_txn_dies_in_crash() {
        let dir = temp_dir();
        let mut h = ServerHarness::start(&dir, EngineConfig::default()).unwrap();
        let mut s = connect(&h);
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
                sql: "INSERT INTO t VALUES (1)".into(),
            },
        );
        call(
            &mut s,
            Request::Exec {
                sql: "BEGIN".into(),
            },
        );
        call(
            &mut s,
            Request::Exec {
                sql: "DELETE FROM t".into(),
            },
        );
        h.crash().unwrap();
        h.restart().unwrap();
        let mut s2 = connect(&h);
        login(&mut s2);
        match call(
            &mut s2,
            Request::Exec {
                sql: "SELECT COUNT(*) FROM t".into(),
            },
        ) {
            Response::Result {
                outcome: Outcome::ResultSet { rows, .. },
                ..
            } => {
                assert_eq!(rows[0][0], phoenix_storage::types::Value::Int(1));
            }
            other => panic!("{other:?}"),
        }
        drop(s2);
        h.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn multiple_concurrent_connections() {
        let dir = temp_dir();
        let h = ServerHarness::start(&dir, EngineConfig::default()).unwrap();
        let mut a = connect(&h);
        let mut b = connect(&h);
        login(&mut a);
        login(&mut b);
        call(
            &mut a,
            Request::Exec {
                sql: "CREATE TABLE shared (v INT)".into(),
            },
        );
        call(
            &mut a,
            Request::Exec {
                sql: "INSERT INTO shared VALUES (1)".into(),
            },
        );
        match call(
            &mut b,
            Request::Exec {
                sql: "SELECT COUNT(*) FROM shared".into(),
            },
        ) {
            Response::Result {
                outcome: Outcome::ResultSet { rows, .. },
                ..
            } => {
                assert_eq!(rows[0][0], phoenix_storage::types::Value::Int(1));
            }
            other => panic!("{other:?}"),
        }
        // Sessions are isolated for temp objects.
        call(
            &mut a,
            Request::Exec {
                sql: "CREATE TABLE #priv (v INT)".into(),
            },
        );
        match call(
            &mut b,
            Request::Exec {
                sql: "SELECT * FROM #priv".into(),
            },
        ) {
            Response::Err { .. } => {}
            other => panic!("{other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
