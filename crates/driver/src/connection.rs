//! The connection handle: one TCP connection, one server session.
//!
//! A connection opens with one untagged `LoginV2` / `LoginAckV2` exchange
//! and speaks tagged frames from then on: every request carries a tag, up
//! to the granted window of them may be in flight ([`Pipeline`]), and the
//! server replies in tag order.

use std::collections::VecDeque;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use phoenix_storage::types::{Row, Schema, Value};
use phoenix_wire::frame::{read_frame, read_tagged_frame, write_frame, write_tagged_frame};
use phoenix_wire::message::{BatchItem, Outcome, Request, Response, DEFAULT_WINDOW, PROTOCOL_V2};
use phoenix_wire::FrameError;

use crate::cursor::Cursor;
use crate::environment::Environment;
use crate::error::{DriverError, Result};
use crate::pipeline::Pipeline;
use crate::statement::Statement;

/// Result of `Connection::execute` (a complete, default result set — the
/// server ships all rows at once, as with ODBC default result sets).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// What the statement produced.
    pub outcome: Outcome,
    /// Server messages delivered with the reply (PRINT output, notices) —
    /// the paper's "reply buffers".
    pub messages: Vec<String>,
}

impl QueryResult {
    /// The result rows; panics if the statement did not produce a result set
    /// (test/example convenience).
    pub fn rows(&self) -> &[Row] {
        match &self.outcome {
            Outcome::ResultSet { rows, .. } => rows,
            other => panic!("expected result set, got {other:?}"),
        }
    }

    /// Result metadata, when the outcome is a result set.
    pub fn schema(&self) -> Option<&Schema> {
        match &self.outcome {
            Outcome::ResultSet { schema, .. } => Some(schema),
            _ => None,
        }
    }

    /// Rows affected; panics otherwise (test/example convenience).
    pub fn affected(&self) -> u64 {
        match &self.outcome {
            Outcome::RowsAffected(n) => *n,
            other => panic!("expected rows-affected, got {other:?}"),
        }
    }
}

/// An open connection. After any [`DriverError::Comm`] the connection is
/// poisoned and every further call fails — reconnect by opening a new one
/// (which is what Phoenix does under the covers).
pub struct Connection {
    stream: TcpStream,
    session: u64,
    addr: String,
    user: String,
    database: String,
    env: Environment,
    poisoned: bool,
    /// Granted pipeline window (≥ 1).
    window: u32,
    /// Next client-assigned request tag. Tags are issued in submission
    /// order, which is also the order the server replies in.
    next_tag: u64,
    /// Replies received while waiting for a different tag.
    pub(crate) pending: VecDeque<(u64, Response)>,
}

impl Connection {
    pub(crate) fn open(
        env: &Environment,
        addr: &str,
        user: &str,
        database: &str,
        options: Vec<(String, Value)>,
    ) -> Result<Connection> {
        let sock_addr = addr
            .to_socket_addrs()
            .map_err(DriverError::from)?
            .next()
            .ok_or_else(|| DriverError::Protocol(format!("cannot resolve '{addr}'")))?;
        let mut stream = TcpStream::connect_timeout(&sock_addr, env.connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(env.read_timeout)?;

        // The handshake is the connection's one untagged exchange; tagged
        // framing starts with the ack.
        let login = Request::LoginV2 {
            user: user.to_string(),
            database: database.to_string(),
            options,
            protocol: PROTOCOL_V2,
            window: DEFAULT_WINDOW,
        };
        write_frame(&mut stream, &login.encode())?;
        let payload = read_frame(&mut stream).map_err(read_failure)?;
        let (session, window) = match Response::decode(&payload).map_err(|e| undecodable(&e))? {
            Response::LoginAckV2 {
                session, window, ..
            } => (session, window),
            Response::Err { code, message } => return Err(DriverError::Sql { code, message }),
            other => {
                return Err(DriverError::Protocol(format!(
                    "unexpected login response: {other:?}"
                )))
            }
        };
        env.metrics.connects.inc();
        Ok(Connection {
            stream,
            session,
            addr: addr.to_string(),
            user: user.to_string(),
            database: database.to_string(),
            env: env.clone(),
            poisoned: false,
            window: window.max(1),
            next_tag: 1,
            pending: VecDeque::new(),
        })
    }

    /// The pipeline window the server granted: how many requests a
    /// [`Pipeline`] keeps in flight at most.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// The server address this connection was opened against.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Login user name.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// Database name given at connect.
    pub fn database(&self) -> &str {
        &self.database
    }

    /// Server-assigned session id (diagnostics only).
    pub fn session_id(&self) -> u64 {
        self.session
    }

    /// The environment this connection was opened from.
    pub fn environment(&self) -> &Environment {
        &self.env
    }

    /// Has a communication failure poisoned this connection?
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Override the read timeout for subsequent requests.
    pub fn set_read_timeout(&mut self, t: Option<Duration>) -> Result<()> {
        self.stream.set_read_timeout(t)?;
        Ok(())
    }

    /// One request/response round trip: submit, then await this request's
    /// own tag, so it interleaves correctly with an outstanding
    /// [`Pipeline`]'s replies. Any transport failure poisons the
    /// connection.
    pub(crate) fn call(&mut self, request: Request) -> Result<Response> {
        let tag = self.submit_tagged(&request)?;
        self.wait_tagged(tag)
    }

    fn poisoned_error() -> DriverError {
        DriverError::Comm(std::io::Error::new(
            std::io::ErrorKind::NotConnected,
            "connection previously failed",
        ))
    }

    /// Submit a tagged request without waiting for its reply. Returns the
    /// client-assigned tag. A transport failure poisons the connection.
    pub(crate) fn submit_tagged(&mut self, request: &Request) -> Result<u64> {
        if self.poisoned {
            return Err(Self::poisoned_error());
        }
        let tag = self.next_tag;
        self.next_tag += 1;
        if let Err(e) = write_tagged_frame(&mut self.stream, tag, &request.encode()) {
            self.poisoned = true;
            return Err(e.into());
        }
        Ok(tag)
    }

    /// Receive one tagged reply. Every failure here is a communication
    /// failure that poisons the connection: a server that dies mid-send
    /// leaves a half-written frame behind, and once framing is lost the
    /// byte stream is unusable — header bytes read as lengths, payload
    /// bytes read as headers. An oversized or undecodable reply therefore
    /// triggers Phoenix's reconnect loop instead of surfacing a terminal
    /// `Protocol` error (or worse, a decode panic).
    pub(crate) fn read_tagged_reply(&mut self) -> Result<(u64, Response)> {
        if self.poisoned {
            return Err(Self::poisoned_error());
        }
        let result = read_tagged_frame(&mut self.stream)
            .map_err(read_failure)
            .and_then(|(tag, payload)| {
                let rsp = Response::decode(&payload).map_err(|e| undecodable(&e))?;
                Ok((tag, rsp))
            });
        if result.is_err() {
            self.poisoned = true;
        }
        result
    }

    /// Await the reply for `tag`, buffering replies to other tags (they
    /// belong to an outstanding [`Pipeline`]).
    pub(crate) fn wait_tagged(&mut self, tag: u64) -> Result<Response> {
        if let Some(pos) = self.pending.iter().position(|(t, _)| *t == tag) {
            return Ok(self.pending.remove(pos).expect("position exists").1);
        }
        loop {
            let (t, rsp) = self.read_tagged_reply()?;
            if t == tag {
                return Ok(rsp);
            }
            self.pending.push_back((t, rsp));
        }
    }

    /// Begin a pipelined submission scope: submit up to [`Self::window`]
    /// requests before awaiting their replies.
    pub fn pipeline(&mut self) -> Pipeline<'_> {
        Pipeline::new(self)
    }

    /// Execute several statements in one round trip, returning per-statement
    /// outcomes. Execution stops at the first failing statement — its error
    /// is the last item, and the item count tells how far the batch got.
    pub fn execute_batch(&mut self, stmts: &[String]) -> Result<Vec<BatchItem>> {
        match self.call(Request::ExecBatch {
            stmts: stmts.to_vec(),
        })? {
            Response::BatchResult { items } => Ok(items),
            Response::Err { code, message } => Err(DriverError::Sql { code, message }),
            other => Err(DriverError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Execute a statement with default result-set semantics: for a SELECT
    /// the server sends every row in the reply.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        match self.call(Request::Exec {
            sql: sql.to_string(),
        })? {
            Response::Result { outcome, messages } => Ok(QueryResult { outcome, messages }),
            Response::Err { code, message } => Err(DriverError::Sql { code, message }),
            other => Err(DriverError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Allocate a statement handle (ODBC `SQLAllocStmt` analogue).
    pub fn statement(&mut self) -> Statement<'_> {
        Statement::new(self)
    }

    /// Open a server cursor as an RAII handle: the cursor is closed on the
    /// server when the handle drops (or explicitly via [`Cursor::close`],
    /// which also reports errors).
    pub fn cursor(
        &mut self,
        sql: &str,
        kind: phoenix_wire::message::CursorKind,
    ) -> Result<Cursor<'_>> {
        let (id, schema, granted) = self.open_cursor_raw(sql, kind)?;
        Ok(Cursor::new(self, id, schema, granted))
    }

    /// Low-level: open a server cursor, returning `(cursor id, schema,
    /// granted kind)`. The one `OpenCursor` round trip: [`Cursor`] and
    /// [`Statement`] open theirs through it.
    pub fn open_cursor_raw(
        &mut self,
        sql: &str,
        kind: phoenix_wire::message::CursorKind,
    ) -> Result<(u64, Schema, phoenix_wire::message::CursorKind)> {
        match self.call(Request::OpenCursor {
            sql: sql.to_string(),
            kind,
        })? {
            Response::CursorOpened {
                cursor,
                schema,
                granted,
            } => Ok((cursor, schema, granted)),
            Response::Err { code, message } => Err(DriverError::Sql { code, message }),
            other => Err(DriverError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Low-level: fetch a block of up to `n` rows from an open server
    /// cursor (a count past `u32::MAX` asks for `u32::MAX`), returning the
    /// rows and whether the cursor is at the end.
    pub fn fetch_cursor_raw(
        &mut self,
        cursor: u64,
        dir: phoenix_wire::message::FetchDir,
        n: usize,
    ) -> Result<(Vec<Row>, bool)> {
        match self.call(Request::Fetch {
            cursor,
            dir,
            n: u32::try_from(n).unwrap_or(u32::MAX),
        })? {
            Response::Rows { rows, at_end } => Ok((rows, at_end)),
            Response::Err { code, message } => Err(DriverError::Sql { code, message }),
            other => Err(DriverError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Low-level: close a server cursor.
    pub fn close_cursor_raw(&mut self, cursor: u64) -> Result<()> {
        match self.call(Request::CloseCursor { cursor })? {
            Response::Result { .. } => Ok(()),
            Response::Err { code, message } => Err(DriverError::Sql { code, message }),
            other => Err(DriverError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Run `EXPLAIN <sql>` and return the plan as an ordinary result set:
    /// one row per plan step with `(step, table, join, access, index,
    /// est_rows)` columns, plus a trailing ORDER BY row when the statement
    /// sorts. The statement itself is planned but never executed.
    pub fn explain(&mut self, sql: &str) -> Result<QueryResult> {
        self.execute(&format!("EXPLAIN {sql}"))
    }

    /// Catalog call: schema and primary-key columns of a table (the ODBC
    /// `SQLColumns`/`SQLPrimaryKeys` analogue).
    pub fn describe(&mut self, table: &str) -> Result<(Schema, Vec<String>)> {
        match self.call(Request::Describe {
            table: table.to_string(),
        })? {
            Response::TableInfo {
                schema,
                primary_key,
            } => Ok((schema, primary_key)),
            Response::Err { code, message } => Err(DriverError::Sql { code, message }),
            other => Err(DriverError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Liveness probe: a Ping round trip. Succeeds even when the server has
    /// restarted (Ping is session-less); use a session-scoped request to
    /// test whether *this session* still exists.
    pub fn ping(&mut self) -> Result<()> {
        match self.call(Request::Ping)? {
            Response::Pong => Ok(()),
            Response::Err { code, message } => Err(DriverError::Sql { code, message }),
            other => Err(DriverError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Fetch the server's observability snapshot — every registered counter,
    /// gauge, and latency histogram plus the recovery event journal — over
    /// the wire. Session-less, like [`Connection::ping`].
    pub fn server_stats(&mut self) -> Result<phoenix_obs::StatsSnapshot> {
        match self.call(Request::Stats)? {
            Response::Stats { snapshot } => phoenix_obs::StatsSnapshot::decode(&snapshot)
                .map_err(|e| DriverError::Protocol(format!("bad stats snapshot: {e}"))),
            Response::Err { code, message } => Err(DriverError::Sql { code, message }),
            other => Err(DriverError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Graceful logout. Consumes the connection. Best effort: a Logout
    /// failure is not worth surfacing to the application (the server cleans
    /// the session up on disconnect anyway), but it is not silently dropped
    /// either — the outcome is counted and journalled so a rash of failed
    /// closes shows up in the stats. Closing a poisoned connection is a
    /// no-op, never a panic.
    pub fn close(mut self) {
        let outcome = if self.poisoned {
            "skipped (poisoned)"
        } else {
            match self.call(Request::Logout) {
                Ok(_) => "clean",
                Err(_) => {
                    self.env.metrics.failed_closes.inc();
                    "logout failed"
                }
            }
        };
        self.env.metrics.closes.inc();
        self.env.obs().journal().record(
            "driver",
            phoenix_obs::EventKind::ConnectionClose,
            format!("session {} close: {outcome}", self.session),
        );
    }
}

/// A failed reply read. A length past `MAX_FRAME` is a desynchronised
/// stream, not an oversized request of ours, so it is `Comm` like any other
/// read failure. (A *write*-side `TooLarge` — a request over the limit, of
/// which nothing was sent — stays a `Protocol` error via `From`.)
fn read_failure(e: FrameError) -> DriverError {
    match e {
        FrameError::Io(io) => DriverError::Comm(io),
        FrameError::TooLarge(n) => DriverError::Comm(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("response frame of {n} bytes exceeds limit — stream desynchronized"),
        )),
    }
}

fn undecodable(e: &phoenix_storage::codec::DecodeError) -> DriverError {
    DriverError::Comm(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("undecodable response frame ({e}) — stream desynchronized"),
    ))
}
