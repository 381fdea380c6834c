//! The protocol message set.
//!
//! Requests model the ODBC driver's interactions with the server: log in,
//! execute a statement (default result set — all rows shipped at once, the
//! server "assumes the application will fetch all the rows promptly"), open
//! a server cursor of a given kind, fetch blocks, ping, log out.
//!
//! Responses carry result sets (schema + rows), rows-affected counts, server
//! messages (the paper's *reply buffers*), cursor handles and errors.

use bytes::{Buf, BufMut, BytesMut};

use phoenix_storage::codec::{self, DecodeError};
use phoenix_storage::types::{Row, Schema, Value};

/// The protocol version: tagged frames, pipelined requests, batch
/// execution.
pub const PROTOCOL_V2: u32 = 2;
/// The pipeline window the server grants by default (and the maximum it
/// will grant regardless of what the client asks for).
pub const DEFAULT_WINDOW: u32 = 32;

/// Cursor kinds on the wire (mirrors the engine's taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CursorKind {
    /// Result materialized at open; forward block fetches.
    ForwardOnly,
    /// Key membership fixed at open; rows re-read by key.
    Keyset,
    /// Predicate re-evaluated per fetch over key order.
    Dynamic,
}

/// Fetch orientation on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchDir {
    /// The next block.
    Next,
    /// The previous block.
    Prior,
    /// Position to the 0-based row index before fetching.
    Absolute(u64),
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute a statement; the response is the complete result.
    Exec {
        /// The SQL text.
        sql: String,
    },
    /// Open a server cursor over a SELECT.
    OpenCursor {
        /// The SELECT text.
        sql: String,
        /// Requested cursor kind (the server may downgrade).
        kind: CursorKind,
    },
    /// Fetch up to `n` rows.
    Fetch {
        /// The cursor handle.
        cursor: u64,
        /// Fetch orientation.
        dir: FetchDir,
        /// Maximum rows to return.
        n: u32,
    },
    /// Close a server cursor.
    CloseCursor {
        /// The cursor handle.
        cursor: u64,
    },
    /// Liveness check; answered with `Pong` without touching any session
    /// state.
    Ping,
    /// Catalog introspection: schema and primary key of a table (the
    /// ODBC `SQLPrimaryKeys`/`SQLColumns` analogue; Phoenix uses it to
    /// build key tables for persistent cursors).
    Describe {
        /// Table name (optionally namespace-qualified).
        table: String,
    },
    /// Fetch the server's observability snapshot (metrics + recovery event
    /// journal). Session-less like `Ping`: answered even before login, so a
    /// monitoring client never needs a session.
    Stats,
    /// End the session gracefully.
    Logout,
    /// Open a session, advertising the client's protocol version and
    /// desired pipeline window; `options` are applied as initial SET
    /// options. Sent as the connection's first untagged frame; the server
    /// answers [`Response::LoginAckV2`] and both sides switch to tagged
    /// frames for the rest of the connection.
    LoginV2 {
        /// Login user name.
        user: String,
        /// Target database name (advisory in this engine).
        database: String,
        /// Initial session options, applied as SETs.
        options: Vec<(String, Value)>,
        /// Highest protocol version the client speaks.
        protocol: u32,
        /// Pipeline window the client wants (the server grants
        /// `min(window, DEFAULT_WINDOW)`, at least 1).
        window: u32,
    },
    /// Execute several statements in one round trip (v2). Statements run in
    /// order against the session; execution stops at the first error. The
    /// answer is one [`Response::BatchResult`] carrying per-statement
    /// outcomes.
    ExecBatch {
        /// The statements, in execution order.
        stmts: Vec<String>,
    },
}

/// What a statement produced (wire view of the engine's outcome).
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A complete result set.
    ResultSet {
        /// Result metadata.
        schema: Schema,
        /// All result rows.
        rows: Vec<Row>,
    },
    /// Rows modified by a DML statement.
    RowsAffected(u64),
    /// DDL / control statement completed.
    Done,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Statement result.
    Result {
        /// What the statement produced.
        outcome: Outcome,
        /// Server messages (PRINT output — the paper's reply buffers).
        messages: Vec<String>,
    },
    /// Cursor opened.
    CursorOpened {
        /// The cursor handle.
        cursor: u64,
        /// Result metadata.
        schema: Schema,
        /// The kind actually granted.
        granted: CursorKind,
    },
    /// A fetched block.
    Rows {
        /// The rows (possibly fewer than requested).
        rows: Vec<Row>,
        /// No more rows in this direction?
        at_end: bool,
    },
    /// Ping answer.
    Pong,
    /// Catalog answer for `Describe`.
    TableInfo {
        /// The table's schema.
        schema: Schema,
        /// Primary-key column names, in key order; empty when keyless.
        primary_key: Vec<String>,
    },
    /// Statement/session error. `code` is the engine's `ErrorCode` as u16.
    Err {
        /// The engine's `ErrorCode` as a number.
        code: u16,
        /// Human-readable message.
        message: String,
    },
    /// Observability snapshot answer for `Stats`. The payload is a
    /// `phoenix-obs` `StatsSnapshot` in its own versioned encoding, carried
    /// opaquely so the wire layer needs no knowledge of metric structure
    /// (and the obs format can evolve without a protocol bump).
    Stats {
        /// `StatsSnapshot::encode()` bytes; decode with
        /// `StatsSnapshot::decode`.
        snapshot: Vec<u8>,
    },
    /// Logout acknowledged.
    Bye,
    /// Login acknowledged. Sent as the last *untagged* frame; every
    /// subsequent frame in both directions is tagged.
    LoginAckV2 {
        /// Server-assigned session id.
        session: u64,
        /// Protocol version the server granted (≤ the client's advertised
        /// version).
        protocol: u32,
        /// Pipeline window the server granted (≥ 1).
        window: u32,
    },
    /// Per-statement outcomes of a [`Request::ExecBatch`]. Contains one
    /// item per executed statement; when a statement fails its `Err` item
    /// is last (the rest of the batch did not run).
    BatchResult {
        /// Outcomes in statement order.
        items: Vec<BatchItem>,
    },
}

/// One statement's outcome inside a [`Response::BatchResult`].
#[derive(Debug, Clone, PartialEq)]
pub enum BatchItem {
    /// The statement executed.
    Ok {
        /// What the statement produced.
        outcome: Outcome,
        /// Server messages delivered with this statement's reply.
        messages: Vec<String>,
    },
    /// The statement failed; batch execution stopped here.
    Err {
        /// The engine's `ErrorCode` as a number.
        code: u16,
        /// Human-readable message.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// The retired v1 `Login`; decoding it fails with a pointer to `LoginV2`.
const REQ_LOGIN_RETIRED: u8 = 1;
const REQ_EXEC: u8 = 2;
const REQ_OPEN_CURSOR: u8 = 3;
const REQ_FETCH: u8 = 4;
const REQ_CLOSE_CURSOR: u8 = 5;
const REQ_PING: u8 = 6;
const REQ_LOGOUT: u8 = 7;
const REQ_DESCRIBE: u8 = 8;
const REQ_STATS: u8 = 9;
const REQ_LOGIN_V2: u8 = 10;
const REQ_EXEC_BATCH: u8 = 11;
/// The retired replication requests — handshake (12), frame batch (13) and
/// promotion (14): decoding one fails with an error saying so, and the tags
/// are never reassigned.
const REQ_REPL_RETIRED_FIRST: u8 = 12;
const REQ_REPL_RETIRED_LAST: u8 = 14;

const RSP_RESULT: u8 = 102;
const RSP_CURSOR_OPENED: u8 = 103;
const RSP_ROWS: u8 = 104;
const RSP_PONG: u8 = 105;
const RSP_ERR: u8 = 106;
const RSP_BYE: u8 = 107;
const RSP_TABLE_INFO: u8 = 108;
const RSP_STATS: u8 = 109;
const RSP_LOGIN_ACK_V2: u8 = 110;
const RSP_BATCH_RESULT: u8 = 111;
/// The retired replication responses — handshake ack (112), frame ack (113)
/// and promoted (114) — kept unassigned like their requests.
const RSP_REPL_RETIRED_FIRST: u8 = 112;
const RSP_REPL_RETIRED_LAST: u8 = 114;

fn cursor_kind_tag(k: CursorKind) -> u8 {
    match k {
        CursorKind::ForwardOnly => 0,
        CursorKind::Keyset => 1,
        CursorKind::Dynamic => 2,
    }
}

fn cursor_kind_from(t: u8) -> Result<CursorKind, DecodeError> {
    Ok(match t {
        0 => CursorKind::ForwardOnly,
        1 => CursorKind::Keyset,
        2 => CursorKind::Dynamic,
        other => return Err(DecodeError(format!("bad cursor kind {other}"))),
    })
}

fn put_fetch_dir(buf: &mut impl BufMut, d: FetchDir) {
    match d {
        FetchDir::Next => buf.put_u8(0),
        FetchDir::Prior => buf.put_u8(1),
        FetchDir::Absolute(k) => {
            buf.put_u8(2);
            buf.put_u64_le(k);
        }
    }
}

fn get_fetch_dir(buf: &mut impl Buf) -> Result<FetchDir, DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError("truncated fetch dir".into()));
    }
    Ok(match buf.get_u8() {
        0 => FetchDir::Next,
        1 => FetchDir::Prior,
        2 => {
            if buf.remaining() < 8 {
                return Err(DecodeError("truncated absolute position".into()));
            }
            FetchDir::Absolute(buf.get_u64_le())
        }
        other => return Err(DecodeError(format!("bad fetch dir {other}"))),
    })
}

fn put_rows(buf: &mut impl BufMut, rows: &[Row]) {
    buf.put_u32_le(rows.len() as u32);
    for r in rows {
        codec::put_row(buf, r);
    }
}

fn get_rows(buf: &mut impl Buf) -> Result<Vec<Row>, DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError("truncated row count".into()));
    }
    let n = buf.get_u32_le() as usize;
    let mut rows = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        rows.push(codec::get_row(buf)?);
    }
    Ok(rows)
}

fn put_outcome(buf: &mut BytesMut, outcome: &Outcome) {
    match outcome {
        Outcome::ResultSet { schema, rows } => {
            buf.put_u8(0);
            codec::put_schema(buf, schema);
            put_rows(buf, rows);
        }
        Outcome::RowsAffected(n) => {
            buf.put_u8(1);
            buf.put_u64_le(*n);
        }
        Outcome::Done => buf.put_u8(2),
    }
}

fn get_outcome(buf: &mut &[u8]) -> Result<Outcome, DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError("truncated outcome tag".into()));
    }
    Ok(match buf.get_u8() {
        0 => {
            let schema = codec::get_schema(buf)?;
            let rows = get_rows(buf)?;
            Outcome::ResultSet { schema, rows }
        }
        1 => {
            if buf.remaining() < 8 {
                return Err(DecodeError("truncated count".into()));
            }
            Outcome::RowsAffected(buf.get_u64_le())
        }
        2 => Outcome::Done,
        other => return Err(DecodeError(format!("bad outcome tag {other}"))),
    })
}

fn put_messages(buf: &mut BytesMut, messages: &[String]) {
    buf.put_u16_le(messages.len() as u16);
    for m in messages {
        codec::put_str(buf, m);
    }
}

fn get_messages(buf: &mut &[u8]) -> Result<Vec<String>, DecodeError> {
    if buf.remaining() < 2 {
        return Err(DecodeError("truncated message count".into()));
    }
    let n = buf.get_u16_le() as usize;
    let mut messages = Vec::with_capacity(n);
    for _ in 0..n {
        messages.push(codec::get_str(buf)?);
    }
    Ok(messages)
}

impl Request {
    /// Serialize for framing.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        match self {
            Request::Exec { sql } => {
                buf.put_u8(REQ_EXEC);
                codec::put_str(&mut buf, sql);
            }
            Request::OpenCursor { sql, kind } => {
                buf.put_u8(REQ_OPEN_CURSOR);
                codec::put_str(&mut buf, sql);
                buf.put_u8(cursor_kind_tag(*kind));
            }
            Request::Fetch { cursor, dir, n } => {
                buf.put_u8(REQ_FETCH);
                buf.put_u64_le(*cursor);
                put_fetch_dir(&mut buf, *dir);
                buf.put_u32_le(*n);
            }
            Request::CloseCursor { cursor } => {
                buf.put_u8(REQ_CLOSE_CURSOR);
                buf.put_u64_le(*cursor);
            }
            Request::Ping => buf.put_u8(REQ_PING),
            Request::Describe { table } => {
                buf.put_u8(REQ_DESCRIBE);
                codec::put_str(&mut buf, table);
            }
            Request::Stats => buf.put_u8(REQ_STATS),
            Request::Logout => buf.put_u8(REQ_LOGOUT),
            Request::LoginV2 {
                user,
                database,
                options,
                protocol,
                window,
            } => {
                buf.put_u8(REQ_LOGIN_V2);
                codec::put_str(&mut buf, user);
                codec::put_str(&mut buf, database);
                buf.put_u16_le(options.len() as u16);
                for (k, v) in options {
                    codec::put_str(&mut buf, k);
                    codec::put_value(&mut buf, v);
                }
                buf.put_u32_le(*protocol);
                buf.put_u32_le(*window);
            }
            Request::ExecBatch { stmts } => {
                buf.put_u8(REQ_EXEC_BATCH);
                buf.put_u32_le(stmts.len() as u32);
                for s in stmts {
                    codec::put_str(&mut buf, s);
                }
            }
        }
        buf.to_vec()
    }

    /// Deserialize a frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Request, DecodeError> {
        let mut buf = bytes;
        if buf.remaining() < 1 {
            return Err(DecodeError("empty request".into()));
        }
        let tag = buf.get_u8();
        let req = match tag {
            REQ_LOGIN_RETIRED => {
                return Err(DecodeError(
                    "the v1 Login is retired: open the session with LoginV2".into(),
                ))
            }
            REQ_EXEC => Request::Exec {
                sql: codec::get_str(&mut buf)?,
            },
            REQ_OPEN_CURSOR => {
                let sql = codec::get_str(&mut buf)?;
                if buf.remaining() < 1 {
                    return Err(DecodeError("truncated cursor kind".into()));
                }
                let kind = cursor_kind_from(buf.get_u8())?;
                Request::OpenCursor { sql, kind }
            }
            REQ_FETCH => {
                if buf.remaining() < 8 {
                    return Err(DecodeError("truncated cursor id".into()));
                }
                let cursor = buf.get_u64_le();
                let dir = get_fetch_dir(&mut buf)?;
                if buf.remaining() < 4 {
                    return Err(DecodeError("truncated fetch size".into()));
                }
                let n = buf.get_u32_le();
                Request::Fetch { cursor, dir, n }
            }
            REQ_CLOSE_CURSOR => {
                if buf.remaining() < 8 {
                    return Err(DecodeError("truncated cursor id".into()));
                }
                Request::CloseCursor {
                    cursor: buf.get_u64_le(),
                }
            }
            REQ_PING => Request::Ping,
            REQ_DESCRIBE => Request::Describe {
                table: codec::get_str(&mut buf)?,
            },
            REQ_STATS => Request::Stats,
            REQ_LOGOUT => Request::Logout,
            REQ_LOGIN_V2 => {
                let user = codec::get_str(&mut buf)?;
                let database = codec::get_str(&mut buf)?;
                if buf.remaining() < 2 {
                    return Err(DecodeError("truncated option count".into()));
                }
                let n = buf.get_u16_le() as usize;
                let mut options = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = codec::get_str(&mut buf)?;
                    let v = codec::get_value(&mut buf)?;
                    options.push((k, v));
                }
                if buf.remaining() < 8 {
                    return Err(DecodeError("truncated protocol/window".into()));
                }
                let protocol = buf.get_u32_le();
                let window = buf.get_u32_le();
                Request::LoginV2 {
                    user,
                    database,
                    options,
                    protocol,
                    window,
                }
            }
            REQ_EXEC_BATCH => {
                if buf.remaining() < 4 {
                    return Err(DecodeError("truncated statement count".into()));
                }
                let n = buf.get_u32_le() as usize;
                let mut stmts = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    stmts.push(codec::get_str(&mut buf)?);
                }
                Request::ExecBatch { stmts }
            }
            tag @ REQ_REPL_RETIRED_FIRST..=REQ_REPL_RETIRED_LAST => {
                return Err(DecodeError(format!(
                    "request tag {tag} belongs to the retired replication channel"
                )))
            }
            other => return Err(DecodeError(format!("unknown request tag {other}"))),
        };
        if buf.remaining() != 0 {
            return Err(DecodeError("trailing bytes in request".into()));
        }
        Ok(req)
    }
}

impl Response {
    /// Serialize for framing.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        match self {
            Response::Result { outcome, messages } => {
                buf.put_u8(RSP_RESULT);
                put_outcome(&mut buf, outcome);
                put_messages(&mut buf, messages);
            }
            Response::CursorOpened {
                cursor,
                schema,
                granted,
            } => {
                buf.put_u8(RSP_CURSOR_OPENED);
                buf.put_u64_le(*cursor);
                codec::put_schema(&mut buf, schema);
                buf.put_u8(cursor_kind_tag(*granted));
            }
            Response::Rows { rows, at_end } => {
                buf.put_u8(RSP_ROWS);
                put_rows(&mut buf, rows);
                buf.put_u8(*at_end as u8);
            }
            Response::Pong => buf.put_u8(RSP_PONG),
            Response::TableInfo {
                schema,
                primary_key,
            } => {
                buf.put_u8(RSP_TABLE_INFO);
                codec::put_schema(&mut buf, schema);
                buf.put_u16_le(primary_key.len() as u16);
                for k in primary_key {
                    codec::put_str(&mut buf, k);
                }
            }
            Response::Err { code, message } => {
                buf.put_u8(RSP_ERR);
                buf.put_u16_le(*code);
                codec::put_str(&mut buf, message);
            }
            Response::Stats { snapshot } => {
                buf.put_u8(RSP_STATS);
                buf.put_u32_le(snapshot.len() as u32);
                buf.put_slice(snapshot);
            }
            Response::Bye => buf.put_u8(RSP_BYE),
            Response::LoginAckV2 {
                session,
                protocol,
                window,
            } => {
                buf.put_u8(RSP_LOGIN_ACK_V2);
                buf.put_u64_le(*session);
                buf.put_u32_le(*protocol);
                buf.put_u32_le(*window);
            }
            Response::BatchResult { items } => {
                buf.put_u8(RSP_BATCH_RESULT);
                buf.put_u32_le(items.len() as u32);
                for item in items {
                    match item {
                        BatchItem::Ok { outcome, messages } => {
                            buf.put_u8(0);
                            put_outcome(&mut buf, outcome);
                            put_messages(&mut buf, messages);
                        }
                        BatchItem::Err { code, message } => {
                            buf.put_u8(1);
                            buf.put_u16_le(*code);
                            codec::put_str(&mut buf, message);
                        }
                    }
                }
            }
        }
        buf.to_vec()
    }

    /// Deserialize a frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Response, DecodeError> {
        let mut buf = bytes;
        if buf.remaining() < 1 {
            return Err(DecodeError("empty response".into()));
        }
        let tag = buf.get_u8();
        let rsp = match tag {
            RSP_RESULT => {
                let outcome = get_outcome(&mut buf)?;
                let messages = get_messages(&mut buf)?;
                Response::Result { outcome, messages }
            }
            RSP_CURSOR_OPENED => {
                if buf.remaining() < 8 {
                    return Err(DecodeError("truncated cursor id".into()));
                }
                let cursor = buf.get_u64_le();
                let schema = codec::get_schema(&mut buf)?;
                if buf.remaining() < 1 {
                    return Err(DecodeError("truncated granted kind".into()));
                }
                let granted = cursor_kind_from(buf.get_u8())?;
                Response::CursorOpened {
                    cursor,
                    schema,
                    granted,
                }
            }
            RSP_ROWS => {
                let rows = get_rows(&mut buf)?;
                if buf.remaining() < 1 {
                    return Err(DecodeError("truncated at_end flag".into()));
                }
                Response::Rows {
                    rows,
                    at_end: buf.get_u8() != 0,
                }
            }
            RSP_PONG => Response::Pong,
            RSP_TABLE_INFO => {
                let schema = codec::get_schema(&mut buf)?;
                if buf.remaining() < 2 {
                    return Err(DecodeError("truncated pk count".into()));
                }
                let n = buf.get_u16_le() as usize;
                let mut primary_key = Vec::with_capacity(n);
                for _ in 0..n {
                    primary_key.push(codec::get_str(&mut buf)?);
                }
                Response::TableInfo {
                    schema,
                    primary_key,
                }
            }
            RSP_ERR => {
                if buf.remaining() < 2 {
                    return Err(DecodeError("truncated error code".into()));
                }
                let code = buf.get_u16_le();
                let message = codec::get_str(&mut buf)?;
                Response::Err { code, message }
            }
            RSP_STATS => {
                if buf.remaining() < 4 {
                    return Err(DecodeError("truncated stats length".into()));
                }
                let n = buf.get_u32_le() as usize;
                if buf.remaining() < n {
                    return Err(DecodeError("truncated stats payload".into()));
                }
                let mut snapshot = vec![0u8; n];
                buf.copy_to_slice(&mut snapshot);
                Response::Stats { snapshot }
            }
            RSP_BYE => Response::Bye,
            RSP_LOGIN_ACK_V2 => {
                if buf.remaining() < 16 {
                    return Err(DecodeError("truncated v2 login ack".into()));
                }
                let session = buf.get_u64_le();
                let protocol = buf.get_u32_le();
                let window = buf.get_u32_le();
                Response::LoginAckV2 {
                    session,
                    protocol,
                    window,
                }
            }
            RSP_BATCH_RESULT => {
                if buf.remaining() < 4 {
                    return Err(DecodeError("truncated batch item count".into()));
                }
                let n = buf.get_u32_le() as usize;
                let mut items = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    if buf.remaining() < 1 {
                        return Err(DecodeError("truncated batch item tag".into()));
                    }
                    items.push(match buf.get_u8() {
                        0 => {
                            let outcome = get_outcome(&mut buf)?;
                            let messages = get_messages(&mut buf)?;
                            BatchItem::Ok { outcome, messages }
                        }
                        1 => {
                            if buf.remaining() < 2 {
                                return Err(DecodeError("truncated batch error code".into()));
                            }
                            let code = buf.get_u16_le();
                            let message = codec::get_str(&mut buf)?;
                            BatchItem::Err { code, message }
                        }
                        other => return Err(DecodeError(format!("bad batch item tag {other}"))),
                    });
                }
                Response::BatchResult { items }
            }
            tag @ RSP_REPL_RETIRED_FIRST..=RSP_REPL_RETIRED_LAST => {
                return Err(DecodeError(format!(
                    "response tag {tag} belongs to the retired replication channel"
                )))
            }
            other => return Err(DecodeError(format!("unknown response tag {other}"))),
        };
        if buf.remaining() != 0 {
            return Err(DecodeError("trailing bytes in response".into()));
        }
        Ok(rsp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_storage::types::{Column, DataType};

    fn roundtrip_req(r: Request) {
        assert_eq!(Request::decode(&r.encode()).unwrap(), r);
    }

    fn roundtrip_rsp(r: Response) {
        assert_eq!(Response::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Exec {
            sql: "SELECT * FROM customer WHERE name = 'Smith'".into(),
        });
        roundtrip_req(Request::OpenCursor {
            sql: "SELECT * FROM orders".into(),
            kind: CursorKind::Dynamic,
        });
        roundtrip_req(Request::Fetch {
            cursor: 7,
            dir: FetchDir::Absolute(42),
            n: 100,
        });
        roundtrip_req(Request::Fetch {
            cursor: 7,
            dir: FetchDir::Prior,
            n: 1,
        });
        roundtrip_req(Request::CloseCursor { cursor: 7 });
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Describe {
            table: "dbo.orders".into(),
        });
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Logout);
        roundtrip_req(Request::LoginV2 {
            user: "alice".into(),
            database: "orders".into(),
            options: vec![("lock_timeout".into(), Value::Int(5))],
            protocol: PROTOCOL_V2,
            window: DEFAULT_WINDOW,
        });
        roundtrip_req(Request::ExecBatch { stmts: Vec::new() });
        roundtrip_req(Request::ExecBatch {
            stmts: vec![
                "BEGIN TRANSACTION".into(),
                "UPDATE t SET v = 1".into(),
                "COMMIT".into(),
            ],
        });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_rsp(Response::Result {
            outcome: Outcome::ResultSet {
                schema: Schema::new(vec![
                    Column::new("id", DataType::Int).not_null(),
                    Column::new("name", DataType::Text),
                ]),
                rows: vec![
                    vec![Value::Int(1), Value::Text("Smith".into())],
                    vec![Value::Int(2), Value::Null],
                ],
            },
            messages: vec!["1 row(s) affected".into()],
        });
        roundtrip_rsp(Response::Result {
            outcome: Outcome::RowsAffected(1500),
            messages: Vec::new(),
        });
        roundtrip_rsp(Response::Result {
            outcome: Outcome::Done,
            messages: Vec::new(),
        });
        roundtrip_rsp(Response::CursorOpened {
            cursor: 9,
            schema: Schema::new(vec![Column::new("k", DataType::Int)]),
            granted: CursorKind::Keyset,
        });
        roundtrip_rsp(Response::Rows {
            rows: vec![vec![Value::Float(1.5)]],
            at_end: true,
        });
        roundtrip_rsp(Response::Pong);
        roundtrip_rsp(Response::TableInfo {
            schema: Schema::new(vec![Column::new("id", DataType::Int).not_null()]),
            primary_key: vec!["id".into()],
        });
        roundtrip_rsp(Response::Err {
            code: 2,
            message: "no such table 'x'".into(),
        });
        roundtrip_rsp(Response::Stats {
            snapshot: Vec::new(),
        });
        roundtrip_rsp(Response::Stats {
            snapshot: vec![0x53, 0x58, 0x48, 0x50, 1, 0, 0, 0, 0],
        });
        roundtrip_rsp(Response::Bye);
        roundtrip_rsp(Response::LoginAckV2 {
            session: 12,
            protocol: PROTOCOL_V2,
            window: 8,
        });
        roundtrip_rsp(Response::BatchResult { items: Vec::new() });
        roundtrip_rsp(Response::BatchResult {
            items: vec![
                BatchItem::Ok {
                    outcome: Outcome::Done,
                    messages: Vec::new(),
                },
                BatchItem::Ok {
                    outcome: Outcome::RowsAffected(3),
                    messages: vec!["3 row(s) affected".into()],
                },
                BatchItem::Ok {
                    outcome: Outcome::ResultSet {
                        schema: Schema::new(vec![Column::new("n", DataType::Int)]),
                        rows: vec![vec![Value::Int(3)]],
                    },
                    messages: Vec::new(),
                },
                BatchItem::Err {
                    code: 6,
                    message: "duplicate primary key".into(),
                },
            ],
        });
    }

    #[test]
    fn truncated_v2_messages_rejected() {
        // Chop bytes off the end of each v2 encoding: every prefix must fail
        // to decode rather than yield a partial message.
        let encodings = [
            Request::LoginV2 {
                user: "u".into(),
                database: "d".into(),
                options: Vec::new(),
                protocol: PROTOCOL_V2,
                window: 4,
            }
            .encode(),
            Request::ExecBatch {
                stmts: vec!["SELECT 1".into()],
            }
            .encode(),
        ];
        for bytes in &encodings {
            for cut in 1..bytes.len() {
                assert!(Request::decode(&bytes[..cut]).is_err(), "cut at {cut}");
            }
        }
        let encodings = [
            Response::LoginAckV2 {
                session: 1,
                protocol: PROTOCOL_V2,
                window: 4,
            }
            .encode(),
            Response::BatchResult {
                items: vec![BatchItem::Err {
                    code: 1,
                    message: "x".into(),
                }],
            }
            .encode(),
        ];
        for bytes in &encodings {
            for cut in 1..bytes.len() {
                assert!(Response::decode(&bytes[..cut]).is_err(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[200]).is_err());
        assert!(Response::decode(&[200]).is_err());
        let mut bytes = Request::Ping.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());
    }

    #[test]
    fn unknown_tags_give_descriptive_errors() {
        // Every unassigned request tag decodes to a clean error naming the
        // tag — the server relies on this to answer `Response::Err` and keep
        // the connection alive instead of dropping it.
        for tag in [0u8, 15, 42, 100, 255] {
            let err = Request::decode(&[tag]).unwrap_err();
            assert!(
                err.0.contains("unknown request tag") && err.0.contains(&tag.to_string()),
                "tag {tag}: {err:?}"
            );
        }
        // Garbage *after* a valid tag is also an error, not a partial parse.
        let err = Request::decode(&[REQ_EXEC, 0xFF, 0xFF, 0xFF, 0xFF]).unwrap_err();
        assert!(!err.0.is_empty());
        // The retired v1 login tag says what replaced it.
        let err = Request::decode(&[REQ_LOGIN_RETIRED, 0, 0]).unwrap_err();
        assert!(err.0.contains("LoginV2"), "{err:?}");
    }

    /// The six tags of the retired replication channel decode to errors,
    /// whatever follows them: never a panic, never another message.
    #[test]
    fn retired_replication_tags_are_decode_errors() {
        let epoch = 3u64.to_le_bytes();
        let one_frame = [&epoch[..], &[1, 0, 0, 0], &[9; 8], &[1, 0, 0, 0], &[0xAB]].concat();
        for tail in [&[][..], &epoch[..], &one_frame[..], &[0xff; 3]] {
            for tag in [12u8, 13, 14] {
                let err = Request::decode(&[&[tag], tail].concat()).unwrap_err();
                assert!(err.0.contains("retired replication"), "tag {tag}: {err}");
            }
            for tag in [112u8, 113, 114] {
                let err = Response::decode(&[&[tag], tail].concat()).unwrap_err();
                assert!(err.0.contains("retired replication"), "tag {tag}: {err}");
            }
        }
    }

    #[test]
    fn stats_payload_truncations_rejected() {
        let full = Response::Stats {
            snapshot: vec![1, 2, 3, 4, 5, 6, 7, 8],
        }
        .encode();
        for cut in 0..full.len() {
            assert!(Response::decode(&full[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn truncations_rejected_not_panicking() {
        let full = Response::Result {
            outcome: Outcome::ResultSet {
                schema: Schema::new(vec![Column::new("a", DataType::Text)]),
                rows: vec![vec![Value::Text("x".into())]],
            },
            messages: vec!["m".into()],
        }
        .encode();
        for cut in 0..full.len() {
            assert!(Response::decode(&full[..cut]).is_err(), "cut {cut}");
        }
    }
}
