//! The TCP request/response server.
//!
//! One OS thread per client connection, one engine session per connection.
//! The engine itself is internally synchronized (per-session locks,
//! copy-on-write store snapshots for reads, group commit), so connections
//! execute **concurrently**: dispatch takes a short shared lock only to
//! clone the engine handle, then runs the request with no global lock held.
//! Reads execute against atomically published snapshots without locking the
//! store at all — session B makes progress while session A sits in a long
//! fetch, and a queued writer never stalls new readers.
//!
//! The `Option` inside [`SharedEngine`] is the crash switch:
//! [`crate::harness::ServerHarness::crash`] takes the engine out atomically,
//! after which every request on every connection fails exactly as if the
//! process had died. Requests already executing finish against their cloned
//! handle, but their replies are lost — the harness severs every socket
//! before throwing the switch, which is precisely the lost-reply window the
//! paper's reply-buffer mechanism exists for.

use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use phoenix_engine::{cursor, Engine, EngineError, ErrorCode, ExecOutcome, SessionId};
use phoenix_obs::StatsSnapshot;
use phoenix_wire::frame::{read_frame, read_tagged_frame, write_frame, FrameError};
use phoenix_wire::message::{
    BatchItem, CursorKind, FetchDir, Outcome, Request, Response, DEFAULT_WINDOW, PROTOCOL_V2,
};

use crate::metrics::server_metrics;

/// Shared handle to the (possibly crashed) engine. The outer lock is held
/// only long enough to clone the inner `Arc` (dispatch) or to `take()` it
/// (crash); request execution never holds it.
pub type SharedEngine = Arc<RwLock<Option<Arc<Engine>>>>;

/// Registry of live client streams, keyed by connection id so each
/// connection can prune its own entry when it exits. Public so alternate
/// front-ends (the sessiond reactor) can share the sever-on-crash and
/// reap-dead-connections machinery.
pub type ConnRegistry = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// Liveness-probe a registered stream without consuming data: a one-byte
/// `recv(MSG_PEEK | MSG_DONTWAIT)` returning 0 means the peer performed an
/// orderly shutdown; an error other than `WouldBlock`/`Interrupted` means the
/// socket is broken. Crucially this never toggles `set_nonblocking` on the
/// shared fd — that would poison the owning connection thread's blocking
/// read — and `MSG_PEEK` leaves any pending request bytes in place.
#[cfg(target_os = "linux")]
fn stream_is_dead(stream: &TcpStream) -> bool {
    use std::os::fd::AsRawFd;
    const MSG_PEEK: i32 = 2;
    const MSG_DONTWAIT: i32 = 0x40;
    extern "C" {
        fn recv(fd: i32, buf: *mut u8, len: usize, flags: i32) -> isize;
    }
    let mut byte = 0u8;
    let n = unsafe {
        recv(
            stream.as_raw_fd(),
            &mut byte as *mut u8,
            1,
            MSG_PEEK | MSG_DONTWAIT,
        )
    };
    match n {
        0 => true, // EOF: peer closed while we weren't reading
        n if n > 0 => false,
        _ => !matches!(
            io::Error::last_os_error().kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
        ),
    }
}

/// Portable fallback: without a non-destructive peek we cannot tell a quiet
/// peer from a dead one, so never reap (the connection thread still prunes
/// itself the moment its blocking read returns).
#[cfg(not(target_os = "linux"))]
fn stream_is_dead(_stream: &TcpStream) -> bool {
    false
}

/// Reap registry entries whose peer has vanished. Returns how many were
/// reaped. This is what lets a *quiet* listener notice dead clients: a
/// connection whose thread is parked inside a long dispatch (or whose
/// client died without a FIN reaching the blocking read) stays registered
/// until something probes it. The reaped stream is also shut down so the
/// owning thread's next read/write fails fast and it exits normally.
pub fn prune_dead(conns: &ConnRegistry) -> usize {
    let mut conns = conns.lock();
    let dead: Vec<u64> = conns
        .iter()
        .filter(|(_, s)| stream_is_dead(s))
        .map(|(id, _)| *id)
        .collect();
    for id in &dead {
        if let Some(s) = conns.remove(id) {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }
    if !dead.is_empty() {
        server_metrics().connections_reaped.add(dead.len() as u64);
    }
    dead.len()
}

/// A running server: listener thread + connection registry.
pub struct RunningServer {
    /// The engine behind the crash switch (None once crashed).
    pub engine: SharedEngine,
    /// The TCP port being listened on.
    pub port: u16,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    /// Clones of every live client stream so a crash can sever them.
    conns: ConnRegistry,
}

/// A listening socket with nobody accepting yet: what [`RunningServer::bind`]
/// returns and [`BoundServer::serve`] consumes.
///
/// The port is taken — and can be announced — *before* the engine is opened.
/// A client that connects in between completes its handshake in the kernel's
/// backlog and is served the moment recovery ends, where a client of a server
/// that binds last can only poll a refused port.
pub struct BoundServer {
    listener: TcpListener,
    /// The TCP port being listened on.
    pub port: u16,
}

impl BoundServer {
    /// Start accepting, every connection dispatching to `engine`.
    pub fn serve(self, engine: Engine) -> io::Result<RunningServer> {
        let BoundServer { listener, port } = self;
        let engine: SharedEngine = Arc::new(RwLock::new(Some(Arc::new(engine))));
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: ConnRegistry = Arc::new(Mutex::new(HashMap::new()));

        let accept_engine = Arc::clone(&engine);
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_conns = Arc::clone(&conns);
        let accept_thread = std::thread::Builder::new()
            .name(format!("phx-accept-{port}"))
            .spawn(move || {
                accept_loop(listener, accept_engine, accept_shutdown, accept_conns);
            })?;

        Ok(RunningServer {
            engine,
            port,
            shutdown,
            accept_thread: Some(accept_thread),
            conns,
        })
    }
}

impl RunningServer {
    /// Take 127.0.0.1:`port` (0 = ephemeral) without serving it yet.
    pub fn bind(port: u16) -> io::Result<BoundServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let port = listener.local_addr()?.port();
        Ok(BoundServer { listener, port })
    }

    /// [`RunningServer::bind`] then [`BoundServer::serve`], for a caller
    /// whose engine is already open (the harness owns open/recover).
    pub fn start(engine: Engine, port: u16) -> io::Result<RunningServer> {
        Self::bind(port)?.serve(engine)
    }

    /// Number of live client connections currently registered.
    pub fn connection_count(&self) -> usize {
        self.conns.lock().len()
    }

    /// Reap registry entries whose peer has vanished (see [`prune_dead`]).
    pub fn prune_dead_conns(&self) -> usize {
        prune_dead(&self.conns)
    }

    /// A clone of the connection-registry handle, for external probers
    /// (the sessiond cleanup job prunes through this).
    pub fn conns_handle(&self) -> ConnRegistry {
        Arc::clone(&self.conns)
    }

    /// Sever every client connection immediately.
    pub fn sever_connections(&self) {
        let mut conns = self.conns.lock();
        for (_, c) in conns.drain() {
            let _ = c.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Stop accepting, sever connections, and return the engine (if it has
    /// not already been crashed away).
    pub fn stop(mut self) -> Option<Arc<Engine>> {
        self.stop_accepting();
        self.sever_connections();
        self.engine.write().take()
    }

    /// Raise the flag, then get the accept thread to look at it: it is
    /// blocked in `accept()`, which only a connection ends, so make one.
    fn stop_accepting(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            // Under descriptor exhaustion the wake-up connect can itself
            // fail; the thread is then in its error backoff and sees the
            // flag on its own, or a later attempt gets through.
            while !t.is_finished() && TcpStream::connect(("127.0.0.1", self.port)).is_err() {
                std::thread::sleep(Duration::from_millis(1));
            }
            let _ = t.join();
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.stop_accepting();
        self.sever_connections();
    }
}

fn accept_loop(
    listener: TcpListener,
    engine: SharedEngine,
    shutdown: Arc<AtomicBool>,
    conns: ConnRegistry,
) {
    let mut next_conn: u64 = 1;
    // Backoff for accept failures (EMFILE/ENFILE/ENOBUFS, aborted
    // handshakes). These are transient resource conditions, not
    // reasons to stop listening: breaking out of the loop here would turn a
    // momentary fd-exhaustion spike into a permanently deaf server. Sleep
    // with bounded exponential backoff instead — long enough for the kernel
    // (or our own connection churn) to release resources, short enough that
    // service resumes promptly — and reset to the floor on any success.
    const BACKOFF_FLOOR: Duration = Duration::from_millis(1);
    const BACKOFF_CEIL: Duration = Duration::from_millis(100);
    let mut backoff = BACKOFF_FLOOR;
    while !shutdown.load(Ordering::SeqCst) {
        // Blocks until a client arrives: a login waits for nothing but the
        // kernel. `stop_accepting` ends the wait with a connection of its
        // own, which the flag check below turns away.
        match listener.accept() {
            Ok(_) if shutdown.load(Ordering::SeqCst) => break,
            Ok((stream, _)) => {
                backoff = BACKOFF_FLOOR;
                let _ = stream.set_nodelay(true);
                let conn_id = next_conn;
                next_conn += 1;
                if let Ok(clone) = stream.try_clone() {
                    conns.lock().insert(conn_id, clone);
                }
                let m = server_metrics();
                m.connections_accepted.inc();
                m.connections_active.inc();
                let engine = Arc::clone(&engine);
                let conns = Arc::clone(&conns);
                let _ = std::thread::Builder::new()
                    .name("phx-conn".into())
                    .spawn(move || {
                        serve_connection(stream, engine);
                        // Prune this connection's registry entry; after a
                        // sever the entry is already gone, which is fine.
                        conns.lock().remove(&conn_id);
                        let m = server_metrics();
                        m.connections_pruned.inc();
                        m.connections_active.dec();
                    });
            }
            Err(_) => {
                server_metrics().accept_errors.inc();
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(BACKOFF_CEIL);
            }
        }
    }
}

/// Serve one client connection until logout, client disconnect, or crash.
pub fn serve_connection(mut stream: TcpStream, engine: SharedEngine) {
    let mut session: Option<SessionId> = None;

    // (clippy suggests `while let`, but the explicit break keeps the
    // "client gone or socket severed" exit path annotated.)
    #[allow(clippy::while_let_loop)]
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(_) => break, // client gone or socket severed
        };
        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                // A garbage payload inside a well-formed frame is the
                // client's bug, not a transport failure: the frame layer has
                // preserved message boundaries, so the stream is still in
                // sync. Answer with a clean error and keep serving instead
                // of killing the connection (and with it the session's temp
                // tables and cursors).
                server_metrics().malformed_requests.inc();
                if send(
                    &mut stream,
                    &Response::Err {
                        code: ErrorCode::Parse as u16,
                        message: format!("malformed request: {e}"),
                    },
                )
                .is_err()
                {
                    break;
                }
                continue;
            }
        };

        let m = server_metrics();
        m.requests(&request).inc();

        // A LoginV2 upgrades this connection to pipelined v2 mode for the
        // rest of its lifetime. On a negotiation failure (e.g. the client
        // asked for a version this server cannot speak) the connection stays
        // in the v1 loop so the client can retry with a plain Login.
        if let Request::LoginV2 {
            user,
            database: _,
            options,
            protocol,
            window,
        } = request
        {
            match login_v2(&engine, &mut session, &user, options, protocol, window) {
                Ok((ack, granted)) => {
                    if send(&mut stream, &ack).is_err() {
                        break;
                    }
                    serve_pipelined(&mut stream, &engine, &mut session, granted);
                    break;
                }
                Err(rsp) => {
                    if send(&mut stream, &rsp).is_err() {
                        break;
                    }
                    continue;
                }
            }
        }

        let logout = matches!(request, Request::Logout);
        m.requests_inflight.inc();
        let response = dispatch(&engine, &mut session, request);
        m.requests_inflight.dec();
        if send(&mut stream, &response).is_err() {
            break; // reply lost — the paper's lost-message case
        }
        if logout {
            break;
        }
    }

    // Connection teardown kills the session (temp tables die with it). Clone
    // the handle out so the crash switch is never held across the close.
    if let Some(sid) = session {
        let eng = engine.read().clone();
        if let Some(eng) = eng {
            let _ = eng.close_session(sid);
        }
    }
}

/// Negotiate a v2 login. On success returns the ack to send (untagged — the
/// handshake itself is still v1-framed) and the granted window. Public so
/// the sessiond reactor's executors can run the identical negotiation.
pub fn login_v2(
    engine: &SharedEngine,
    session: &mut Option<SessionId>,
    user: &str,
    options: Vec<(String, phoenix_storage::types::Value)>,
    protocol: u32,
    window: u32,
) -> Result<(Response, u32), Response> {
    let eng = engine.read().clone().ok_or(Response::Err {
        code: ErrorCode::NoSession as u16,
        message: "server unavailable".into(),
    })?;
    if protocol < PROTOCOL_V2 {
        // A LoginV2 advertising v1 is contradictory; tell the client to use
        // the v1 handshake, which is what a fallback client does anyway.
        return Err(Response::Err {
            code: ErrorCode::Unsupported as u16,
            message: format!("protocol v{protocol} must use a v1 Login"),
        });
    }
    let sid = create_session_with_options(&eng, session, user, options)?;
    // The server never grants more than DEFAULT_WINDOW regardless of the ask,
    // and never less than 1 (a zero window could make no progress).
    let granted = window.clamp(1, DEFAULT_WINDOW);
    Ok((
        Response::LoginAckV2 {
            session: sid,
            protocol: PROTOCOL_V2,
            window: granted,
        },
        granted,
    ))
}

/// Serve a connection in pipelined v2 mode: tagged frames are read,
/// executed strictly in arrival order, and answered with tagged replies —
/// all on this thread.
///
/// There is deliberately no reader thread. With an empty window (the
/// sequential ping-pong shape) each request is dequeued straight off the
/// socket with zero cross-thread handoff — the handoff's two scheduler
/// wake-ups per request are exactly what made 1-client pipelined slower
/// than 1-client sequential. When the client keeps the window full, the
/// kernel socket buffer holds the in-flight tail of the window (the
/// negotiated window bounds how many small tagged frames a client puts in
/// flight, comfortably inside the receive buffer) and each loop iteration
/// drains one request from it with the same zero-handoff read.
fn serve_pipelined(
    stream: &mut TcpStream,
    engine: &SharedEngine,
    session: &mut Option<SessionId>,
    window: u32,
) {
    debug_assert!(window >= 1);
    let m = server_metrics();
    // The read error that ends the loop is the client hanging up or the
    // socket being severed.
    while let Ok((tag, payload)) = read_tagged_frame(stream) {
        let req = Request::decode(&payload).map_err(|e| e.to_string());
        m.pipeline_window_depth.inc();
        // The moment a queued request is picked up for execution. Crashing
        // here models dying with a full reply window: earlier tags may have
        // committed and replied, this tag and everything behind it is lost.
        match phoenix_chaos::fault("server.pipeline_dequeue") {
            phoenix_chaos::FaultAction::Continue | phoenix_chaos::FaultAction::Crash => {}
            phoenix_chaos::FaultAction::Delay(d) => std::thread::sleep(d),
            phoenix_chaos::FaultAction::IoError | phoenix_chaos::FaultAction::Torn(_) => {
                m.pipeline_window_depth.dec();
                break;
            }
        }
        let (response, logout) = match req {
            Ok(request) => {
                let logout = matches!(request, Request::Logout);
                m.requests(&request).inc();
                m.requests_inflight.inc();
                let r = dispatch(engine, session, request);
                m.requests_inflight.dec();
                (r, logout)
            }
            Err(e) => {
                // Same contract as the v1 loop: a malformed message inside a
                // well-formed frame gets an error reply, not a hangup.
                m.malformed_requests.inc();
                (
                    Response::Err {
                        code: ErrorCode::Parse as u16,
                        message: format!("malformed request: {e}"),
                    },
                    false,
                )
            }
        };
        m.pipeline_window_depth.dec();
        if send_tagged(stream, tag, &response).is_err() {
            break; // tagged reply lost mid-window
        }
        if logout {
            break;
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

fn send(stream: &mut TcpStream, response: &Response) -> Result<(), FrameError> {
    send_bytes(stream, &response.encode())
}

/// Send a tagged (v2) reply: the tag is part of the frame payload, so the
/// fault-injection path below tears tagged frames exactly like v1 frames.
fn send_tagged(stream: &mut TcpStream, tag: u64, response: &Response) -> Result<(), FrameError> {
    let body = response.encode();
    let mut payload = Vec::with_capacity(8 + body.len());
    payload.extend_from_slice(&tag.to_le_bytes());
    payload.extend_from_slice(&body);
    send_bytes(stream, &payload)
}

fn send_bytes(stream: &mut TcpStream, bytes: &[u8]) -> Result<(), FrameError> {
    // Once a fatal fault has fired, this server incarnation is "dead": no
    // reply may escape, not even an error reply from a request thread that
    // observed the injected failure — a crashed process emits nothing. One
    // relaxed load when chaos is disarmed.
    if phoenix_chaos::halted() {
        return Err(FrameError::Io(phoenix_chaos::injected_error(
            "server.reply_send",
        )));
    }
    match phoenix_chaos::fault("server.reply_send") {
        phoenix_chaos::FaultAction::Continue => {}
        phoenix_chaos::FaultAction::Delay(d) => std::thread::sleep(d),
        // The exactly-once window: the statement executed and committed,
        // but its reply never reaches the client.
        phoenix_chaos::FaultAction::Crash | phoenix_chaos::FaultAction::IoError => {
            return Err(FrameError::Io(phoenix_chaos::injected_error(
                "server.reply_send",
            )));
        }
        // Die mid-send: the client sees a half-written response frame.
        phoenix_chaos::FaultAction::Torn(n) => {
            use std::io::Write;
            let mut framed = Vec::with_capacity(bytes.len() + 4);
            framed.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            framed.extend_from_slice(bytes);
            let n = n.min(framed.len() - 1);
            let _ = stream.write_all(&framed[..n]);
            let _ = stream.flush();
            return Err(FrameError::Io(phoenix_chaos::injected_error(
                "server.reply_send",
            )));
        }
    }
    write_frame(stream, bytes)
}

/// Execute one request against the engine and produce its response. Public
/// so the sessiond reactor's executors share the exact request semantics of
/// the thread-per-connection server.
pub fn dispatch(
    engine: &SharedEngine,
    session: &mut Option<SessionId>,
    request: Request,
) -> Response {
    // Take a short shared lock to clone the engine handle, then execute with
    // no global lock held — other connections proceed concurrently.
    let eng = match engine.read().clone() {
        Some(e) => e,
        None => {
            // Crashed: every request fails. The socket will be severed by the
            // harness moments later; answering here keeps the failure mode
            // deterministic for requests that race the crash.
            return Response::Err {
                code: ErrorCode::NoSession as u16,
                message: "server unavailable".into(),
            };
        }
    };

    match request {
        // Ping is answered even without a session — it is the recovery probe.
        Request::Ping => Response::Pong,
        // Stats is likewise session-less: monitoring must not need a login.
        Request::Stats => Response::Stats {
            snapshot: StatsSnapshot::capture().encode(),
        },
        Request::Login {
            user,
            database: _,
            options,
        } => match create_session_with_options(&eng, session, &user, options) {
            Ok(sid) => Response::LoginAck { session: sid },
            Err(rsp) => rsp,
        },
        // The v2 handshake is handled at the connection layer (it changes the
        // framing mode); reaching dispatch means it arrived mid-pipeline.
        Request::LoginV2 { .. } => Response::Err {
            code: ErrorCode::Unsupported as u16,
            message: "connection is already in pipelined mode".into(),
        },
        Request::Logout => {
            if let Some(sid) = session.take() {
                let _ = eng.close_session(sid);
            }
            Response::Bye
        }
        Request::Exec { sql } => {
            let Some(sid) = *session else {
                return no_session();
            };
            match eng.execute(sid, &sql) {
                Ok(result) => Response::Result {
                    outcome: outcome_of(result.outcome),
                    messages: result.messages,
                },
                Err(e) => err_of(e),
            }
        }
        Request::ExecBatch { stmts } => {
            let Some(sid) = *session else {
                return no_session();
            };
            // Per-statement outcomes in one reply. Execution stops at the
            // first failing statement — its error is the last item, and the
            // item count tells the client exactly how far the batch got
            // (statements after it were never attempted).
            let m = server_metrics();
            let mut items = Vec::with_capacity(stmts.len());
            for sql in &stmts {
                m.batch_statements.inc();
                match eng.execute(sid, sql) {
                    Ok(result) => items.push(BatchItem::Ok {
                        outcome: outcome_of(result.outcome),
                        messages: result.messages,
                    }),
                    Err(e) => {
                        items.push(BatchItem::Err {
                            code: e.code as u16,
                            message: e.message,
                        });
                        break;
                    }
                }
            }
            Response::BatchResult { items }
        }
        Request::OpenCursor { sql, kind } => {
            let Some(sid) = *session else {
                return no_session();
            };
            let select = match phoenix_sql::parse_statement(&sql) {
                Ok(phoenix_sql::Statement::Select(s)) => s,
                Ok(_) => {
                    return Response::Err {
                        code: ErrorCode::Unsupported as u16,
                        message: "cursors require a SELECT statement".into(),
                    }
                }
                Err(e) => {
                    return Response::Err {
                        code: ErrorCode::Parse as u16,
                        message: e.to_string(),
                    }
                }
            };
            match eng.open_cursor(sid, &select, kind_to_engine(kind)) {
                Ok((cursor, schema, granted)) => Response::CursorOpened {
                    cursor,
                    schema,
                    granted: kind_from_engine(granted),
                },
                Err(e) => err_of(e),
            }
        }
        Request::Fetch { cursor, dir, n } => {
            let Some(sid) = *session else {
                return no_session();
            };
            match eng.fetch(sid, cursor, dir_to_engine(dir), n as usize) {
                Ok(f) => Response::Rows {
                    rows: f.rows,
                    at_end: f.at_end,
                },
                Err(e) => err_of(e),
            }
        }
        Request::Describe { table } => {
            let Some(sid) = *session else {
                return no_session();
            };
            let name = match phoenix_sql::parse_statement(&format!("SELECT * FROM {table}")) {
                Ok(phoenix_sql::Statement::Select(s)) if s.from.len() == 1 => {
                    s.from[0].table.clone()
                }
                _ => {
                    return Response::Err {
                        code: ErrorCode::Parse as u16,
                        message: format!("bad table name '{table}'"),
                    }
                }
            };
            match eng.describe(sid, &name) {
                Ok((schema, primary_key)) => Response::TableInfo {
                    schema,
                    primary_key,
                },
                Err(e) => err_of(e),
            }
        }
        Request::CloseCursor { cursor } => {
            let Some(sid) = *session else {
                return no_session();
            };
            match eng.close_cursor(sid, cursor) {
                Ok(()) => Response::Result {
                    outcome: Outcome::Done,
                    messages: Vec::new(),
                },
                Err(e) => err_of(e),
            }
        }
        // Replication streams terminate at a *standby* receiver, never at a
        // serving primary: a ReplHello here means someone pointed a shipper
        // at the wrong address.
        Request::ReplHello { .. } | Request::ReplFrames { .. } => Response::Err {
            code: ErrorCode::Unsupported as u16,
            message: "this server is a primary; replication frames go to a standby".into(),
        },
        // Promote sent to a live primary is the split-brain kill switch: an
        // operator (or the failover supervisor) telling this incarnation a
        // newer primary exists. Fence it — durably — so it refuses every
        // write and login from here on, even across a restart.
        Request::Promote { epoch } => {
            if eng.fence(epoch) {
                phoenix_obs::journal().record(
                    "server",
                    phoenix_obs::EventKind::ServerLifecycle,
                    format!("fenced by Promote(epoch {epoch})"),
                );
                Response::Promoted { epoch }
            } else {
                Response::Err {
                    code: ErrorCode::Unsupported as u16,
                    message: format!(
                        "promote epoch {epoch} does not outrank this primary's epoch {}",
                        eng.epoch()
                    ),
                }
            }
        }
    }
}

/// Create a session for `user` and apply initial options, replacing any
/// existing session on the connection. A relogin replaces the session: the
/// old one is closed first so its temp objects, cursors, and any open
/// transaction are torn down instead of leaking.
fn create_session_with_options(
    eng: &Arc<Engine>,
    session: &mut Option<SessionId>,
    user: &str,
    options: Vec<(String, phoenix_storage::types::Value)>,
) -> Result<SessionId, Response> {
    // A deposed primary must not hand out sessions: every statement the
    // client ran here would be refused at the WAL anyway, and the client's
    // recovery loop should rotate to the promoted server instead. Fenced is
    // retryable by the driver's taxonomy, exactly like Busy.
    if eng.is_fenced() {
        return Err(Response::Err {
            code: ErrorCode::Fenced as u16,
            message: "server fenced: a newer primary has been promoted".into(),
        });
    }
    if let Some(old) = session.take() {
        let _ = eng.close_session(old);
    }
    // The fallible path: when a `max_sessions` cap is configured and no
    // resident session can be spilled to make room, this surfaces the
    // engine's retryable `Busy` straight over the wire.
    let sid = eng.try_create_session(user).map_err(err_of)?;
    for (name, value) in options {
        // Initial options are ordinary SETs.
        let stmt = phoenix_sql::ast::Statement::Set {
            name,
            value: value_to_literal_expr(value),
        };
        if let Err(e) = eng.execute_stmt(sid, &stmt) {
            let _ = eng.close_session(sid);
            return Err(err_of(e));
        }
    }
    *session = Some(sid);
    Ok(sid)
}

fn outcome_of(o: ExecOutcome) -> Outcome {
    match o {
        ExecOutcome::ResultSet { schema, rows } => Outcome::ResultSet { schema, rows },
        ExecOutcome::RowsAffected(n) => Outcome::RowsAffected(n),
        ExecOutcome::Done => Outcome::Done,
    }
}

fn no_session() -> Response {
    Response::Err {
        code: ErrorCode::NoSession as u16,
        message: "not logged in".into(),
    }
}

fn err_of(e: EngineError) -> Response {
    Response::Err {
        code: e.code as u16,
        message: e.message,
    }
}

fn kind_to_engine(k: CursorKind) -> cursor::CursorKind {
    match k {
        CursorKind::ForwardOnly => cursor::CursorKind::ForwardOnly,
        CursorKind::Keyset => cursor::CursorKind::Keyset,
        CursorKind::Dynamic => cursor::CursorKind::Dynamic,
    }
}

fn kind_from_engine(k: cursor::CursorKind) -> CursorKind {
    match k {
        cursor::CursorKind::ForwardOnly => CursorKind::ForwardOnly,
        cursor::CursorKind::Keyset => CursorKind::Keyset,
        cursor::CursorKind::Dynamic => CursorKind::Dynamic,
    }
}

fn dir_to_engine(d: FetchDir) -> cursor::FetchDir {
    match d {
        FetchDir::Next => cursor::FetchDir::Next,
        FetchDir::Prior => cursor::FetchDir::Prior,
        FetchDir::Absolute(k) => cursor::FetchDir::Absolute(k),
    }
}

/// Convert a wire value into a literal expression for SET replay.
fn value_to_literal_expr(v: phoenix_storage::types::Value) -> phoenix_sql::ast::Expr {
    use phoenix_sql::ast::{Expr, Literal};
    use phoenix_storage::types::Value;
    Expr::Literal(match v {
        Value::Null => Literal::Null,
        Value::Int(i) => Literal::Int(i),
        Value::Float(f) => Literal::Float(f),
        Value::Text(s) => Literal::String(s),
        Value::Bool(b) => Literal::Bool(b),
        Value::Date(d) => Literal::Date(phoenix_storage::types::format_date(d)),
    })
}
