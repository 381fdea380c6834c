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
//!
//! The connection registry holds a clone of every live client stream so the
//! crash switch can sever them. A connection thread removes its own entry
//! when it exits; nothing else probes or reaps the sockets.

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
/// connection can prune its own entry when it exits.
type ConnRegistry = Arc<Mutex<HashMap<u64, TcpStream>>>;

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
        // A server started inside a fault plan serves inside it: the accept
        // thread enters the plan and hands it to every connection thread.
        let plan = phoenix_chaos::current();
        let accept_thread = std::thread::Builder::new()
            .name(format!("phx-accept-{port}"))
            .spawn(move || {
                let _plan = phoenix_chaos::enter(plan);
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
                let plan = phoenix_chaos::current();
                let _ = std::thread::Builder::new()
                    .name("phx-conn".into())
                    .spawn(move || {
                        let _plan = phoenix_chaos::enter(plan);
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
///
/// Until a `LoginV2` opens a session the connection speaks untagged frames
/// and is served only what needs none — `Ping` and `Stats`; a
/// session-bound request gets the `NoSession` error. A successful login switches the connection to tagged frames for
/// the rest of its life.
fn serve_connection(mut stream: TcpStream, engine: SharedEngine) {
    let mut session: Option<SessionId> = None;

    // The read error that ends the loop is the client hanging up or the
    // socket being severed.
    while let Ok(payload) = read_frame(&mut stream) {
        let m = server_metrics();
        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                // A garbage payload inside a well-formed frame is the
                // client's bug, not a transport failure: the frame layer has
                // preserved message boundaries, so the stream is still in
                // sync. Answer with a clean error and keep serving. (The
                // retired v1 `Login` lands here too; its decode error names
                // `LoginV2`.)
                m.malformed_requests.inc();
                if send(&mut stream, &malformed(e)).is_err() {
                    break;
                }
                continue;
            }
        };
        m.requests(&request).inc();

        if let Request::LoginV2 {
            user,
            database: _,
            options,
            protocol,
            window,
        } = request
        {
            match login_v2(&engine, &user, options, protocol, window) {
                Ok((sid, ack)) => {
                    session = Some(sid);
                    if send(&mut stream, &ack).is_ok() {
                        serve_pipelined(&mut stream, &engine, &mut session);
                    }
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
        if send(&mut stream, &response).is_err() || logout {
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

/// Open the session a `LoginV2` asks for. On success returns it with the
/// ack to send — untagged: the handshake is the connection's last untagged
/// exchange.
fn login_v2(
    engine: &SharedEngine,
    user: &str,
    options: Vec<(String, phoenix_storage::types::Value)>,
    protocol: u32,
    window: u32,
) -> Result<(SessionId, Response), Response> {
    let eng = engine.read().clone().ok_or_else(unavailable)?;
    if protocol < PROTOCOL_V2 {
        return Err(Response::Err {
            code: ErrorCode::Unsupported as u16,
            message: format!("protocol v{protocol} is retired: this server speaks v{PROTOCOL_V2}"),
        });
    }
    let sid = create_session_with_options(&eng, user, options)?;
    Ok((
        sid,
        Response::LoginAckV2 {
            session: sid,
            protocol: PROTOCOL_V2,
            // Never more than DEFAULT_WINDOW whatever the ask, and never
            // less than 1 (a zero window could make no progress).
            window: window.clamp(1, DEFAULT_WINDOW),
        },
    ))
}

/// Serve a logged-in connection: tagged frames are read,
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
fn serve_pipelined(stream: &mut TcpStream, engine: &SharedEngine, session: &mut Option<SessionId>) {
    let m = server_metrics();
    // The read error that ends the loop is the client hanging up or the
    // socket being severed.
    while let Ok((tag, payload)) = read_tagged_frame(stream) {
        let req = Request::decode(&payload);
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
                // Same contract as before login: a malformed message inside
                // a well-formed frame gets an error reply, not a hangup.
                m.malformed_requests.inc();
                (malformed(e), false)
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

/// Send a tagged reply: the tag is part of the frame payload, so the
/// fault-injection path below tears tagged frames exactly like untagged ones.
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
    // thread-local read outside every fault plan.
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

/// Execute one request against the engine and produce its response.
fn dispatch(engine: &SharedEngine, session: &mut Option<SessionId>, request: Request) -> Response {
    // Take a short shared lock to clone the engine handle, then execute with
    // no global lock held — other connections proceed concurrently.
    // Crashed: every request fails. The socket will be severed by the
    // harness moments later; answering here keeps the failure mode
    // deterministic for requests that race the crash.
    let Some(eng) = engine.read().clone() else {
        return unavailable();
    };

    match request {
        // Ping is answered even without a session — it is the recovery probe.
        Request::Ping => Response::Pong,
        // Stats is likewise session-less: monitoring must not need a login.
        Request::Stats => Response::Stats {
            snapshot: StatsSnapshot::capture().encode(),
        },
        // The login is handled at the connection layer (it changes the
        // framing); reaching dispatch means the connection has a session.
        Request::LoginV2 { .. } => Response::Err {
            code: ErrorCode::Unsupported as u16,
            message: "connection is already logged in".into(),
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
    }
}

/// Create a session for `user` and apply initial options.
fn create_session_with_options(
    eng: &Arc<Engine>,
    user: &str,
    options: Vec<(String, phoenix_storage::types::Value)>,
) -> Result<SessionId, Response> {
    // Admission control: at the `max_sessions` cap this surfaces the
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
    Ok(sid)
}

fn outcome_of(o: ExecOutcome) -> Outcome {
    match o {
        ExecOutcome::ResultSet { schema, rows } => Outcome::ResultSet { schema, rows },
        ExecOutcome::RowsAffected(n) => Outcome::RowsAffected(n),
        ExecOutcome::Done => Outcome::Done,
    }
}

fn unavailable() -> Response {
    Response::Err {
        code: ErrorCode::NoSession as u16,
        message: "server unavailable".into(),
    }
}

fn malformed(e: phoenix_storage::codec::DecodeError) -> Response {
    Response::Err {
        code: ErrorCode::Parse as u16,
        message: format!("malformed request: {e}"),
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
