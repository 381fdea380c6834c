//! Statement handles: cursor options and fetching.
//!
//! Mirrors the ODBC statement model the paper's examples use: set cursor
//! attributes, execute, then issue fetch commands. With the default
//! (forward-only) options the result set arrives complete and fetches are
//! served client-side; with keyset/dynamic options a server cursor is opened
//! and each block fetch is a round trip.

use phoenix_storage::types::{Row, Schema};
use phoenix_wire::message::{CursorKind, FetchDir, Outcome, Request, Response};

use crate::connection::Connection;
use crate::error::{DriverError, Result};

/// What `Statement::execute` produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatementResult {
    /// A result set is open (buffered or via server cursor); fetch from it.
    ResultSet,
    /// A data-modification count.
    RowsAffected(u64),
    /// DDL / control statement.
    Done,
}

enum Source {
    /// Default result set: all rows buffered client-side.
    Buffered { rows: Vec<Row>, pos: usize },
    /// Server cursor: fetch blocks on demand.
    Cursor {
        id: u64,
        /// Read-ahead block buffer.
        buf: Vec<Row>,
        buf_pos: usize,
        at_end: bool,
    },
}

/// A statement handle borrowed from a connection.
pub struct Statement<'c> {
    conn: &'c mut Connection,
    cursor_kind: CursorKind,
    fetch_block: usize,
    schema: Option<Schema>,
    granted: Option<CursorKind>,
    source: Option<Source>,
    messages: Vec<String>,
    rows_affected: Option<u64>,
}

impl<'c> Statement<'c> {
    pub(crate) fn new(conn: &'c mut Connection) -> Statement<'c> {
        let fetch_block = conn.environment().fetch_block;
        Statement {
            conn,
            cursor_kind: CursorKind::ForwardOnly,
            fetch_block,
            schema: None,
            granted: None,
            source: None,
            messages: Vec::new(),
            rows_affected: None,
        }
    }

    /// Set the cursor type before `execute` (the ODBC statement attribute).
    pub fn set_cursor_type(&mut self, kind: CursorKind) -> &mut Self {
        self.cursor_kind = kind;
        self
    }

    /// Rows per block fetch on server cursors.
    pub fn set_fetch_block(&mut self, n: usize) -> &mut Self {
        self.fetch_block = n.max(1);
        self
    }

    /// Execute `sql` under the configured cursor options.
    pub fn execute(&mut self, sql: &str) -> Result<StatementResult> {
        self.schema = None;
        self.granted = None;
        self.source = None;
        self.messages.clear();
        self.rows_affected = None;

        let is_select = sql.trim_start().to_ascii_uppercase().starts_with("SELECT");
        if is_select && self.cursor_kind != CursorKind::ForwardOnly {
            // Server cursor path.
            match self.conn.call(Request::OpenCursor {
                sql: sql.to_string(),
                kind: self.cursor_kind,
            })? {
                Response::CursorOpened {
                    cursor,
                    schema,
                    granted,
                } => {
                    self.schema = Some(schema);
                    self.granted = Some(granted);
                    self.source = Some(Source::Cursor {
                        id: cursor,
                        buf: Vec::new(),
                        buf_pos: 0,
                        at_end: false,
                    });
                    Ok(StatementResult::ResultSet)
                }
                Response::Err { code, message } => Err(DriverError::Sql { code, message }),
                other => Err(DriverError::Protocol(format!(
                    "unexpected response {other:?}"
                ))),
            }
        } else {
            // Default result set / non-query statement.
            match self.conn.call(Request::Exec {
                sql: sql.to_string(),
            })? {
                Response::Result { outcome, messages } => {
                    self.messages = messages;
                    match outcome {
                        Outcome::ResultSet { schema, rows } => {
                            self.schema = Some(schema);
                            self.granted = Some(CursorKind::ForwardOnly);
                            self.source = Some(Source::Buffered { rows, pos: 0 });
                            Ok(StatementResult::ResultSet)
                        }
                        Outcome::RowsAffected(n) => {
                            self.rows_affected = Some(n);
                            Ok(StatementResult::RowsAffected(n))
                        }
                        Outcome::Done => Ok(StatementResult::Done),
                    }
                }
                Response::Err { code, message } => Err(DriverError::Sql { code, message }),
                other => Err(DriverError::Protocol(format!(
                    "unexpected response {other:?}"
                ))),
            }
        }
    }

    /// Result-set metadata of the open result.
    pub fn schema(&self) -> Option<&Schema> {
        self.schema.as_ref()
    }

    /// The cursor kind the server actually granted (it may downgrade).
    pub fn granted_cursor(&self) -> Option<CursorKind> {
        self.granted
    }

    /// Server messages from the last execute.
    pub fn messages(&self) -> &[String] {
        &self.messages
    }

    /// Rows affected by the last execute, for DML statements.
    pub fn rows_affected(&self) -> Option<u64> {
        self.rows_affected
    }

    /// Fetch the next row, or `None` at end of the result set.
    pub fn fetch(&mut self) -> Result<Option<Row>> {
        let block = self.fetch_block;
        match self.source.as_mut() {
            None => Err(DriverError::Protocol("no open result set".into())),
            Some(Source::Buffered { rows, pos }) => {
                if *pos < rows.len() {
                    let row = rows[*pos].clone();
                    *pos += 1;
                    Ok(Some(row))
                } else {
                    Ok(None)
                }
            }
            Some(Source::Cursor { .. }) => {
                // Refill from the server when the block buffer is drained.
                loop {
                    let (need_fill, done) = match self.source.as_ref() {
                        Some(Source::Cursor {
                            buf,
                            buf_pos,
                            at_end,
                            ..
                        }) => (*buf_pos >= buf.len(), *at_end),
                        _ => unreachable!(),
                    };
                    if !need_fill {
                        break;
                    }
                    if done {
                        return Ok(None);
                    }
                    self.fill_block(FetchDir::Next, block)?;
                }
                match self.source.as_mut() {
                    Some(Source::Cursor { buf, buf_pos, .. }) => {
                        let row = buf[*buf_pos].clone();
                        *buf_pos += 1;
                        Ok(Some(row))
                    }
                    _ => unreachable!(),
                }
            }
        }
    }

    /// Fetch up to `n` rows in an explicit direction (scrollable cursors).
    /// Bypasses the read-ahead buffer: issues one server fetch (or serves
    /// directly from the client buffer for default result sets).
    pub fn fetch_scroll(&mut self, dir: FetchDir, n: usize) -> Result<Vec<Row>> {
        match self.source.as_mut() {
            None => Err(DriverError::Protocol("no open result set".into())),
            Some(Source::Buffered { rows, pos }) => match dir {
                FetchDir::Next => {
                    let start = *pos;
                    let end = (start + n).min(rows.len());
                    *pos = end;
                    Ok(rows[start..end].to_vec())
                }
                FetchDir::Prior => {
                    let end = *pos;
                    let start = end.saturating_sub(n);
                    *pos = start;
                    Ok(rows[start..end].to_vec())
                }
                FetchDir::Absolute(k) => {
                    let start = (k as usize).min(rows.len());
                    let end = (start + n).min(rows.len());
                    *pos = end;
                    Ok(rows[start..end].to_vec())
                }
            },
            Some(Source::Cursor {
                id,
                buf,
                buf_pos,
                at_end: _,
            }) => {
                // Explicit scrolling invalidates the read-ahead buffer.
                buf.clear();
                *buf_pos = 0;
                let id = *id;
                let response = self.conn.call(Request::Fetch {
                    cursor: id,
                    dir,
                    n: n as u32,
                })?;
                match response {
                    Response::Rows { rows, at_end: end } => {
                        if let Some(Source::Cursor { at_end: ae, .. }) = self.source.as_mut() {
                            *ae = end && matches!(dir, FetchDir::Next);
                        }
                        Ok(rows)
                    }
                    Response::Err { code, message } => Err(DriverError::Sql { code, message }),
                    other => Err(DriverError::Protocol(format!(
                        "unexpected response {other:?}"
                    ))),
                }
            }
        }
    }

    fn fill_block(&mut self, dir: FetchDir, n: usize) -> Result<()> {
        let id = match self.source.as_ref() {
            Some(Source::Cursor { id, .. }) => *id,
            _ => return Err(DriverError::Protocol("not a cursor statement".into())),
        };
        match self.conn.call(Request::Fetch {
            cursor: id,
            dir,
            n: n as u32,
        })? {
            Response::Rows { rows, at_end } => {
                if let Some(Source::Cursor {
                    buf,
                    buf_pos,
                    at_end: ae,
                    ..
                }) = self.source.as_mut()
                {
                    *buf = rows;
                    *buf_pos = 0;
                    *ae = at_end;
                }
                Ok(())
            }
            Response::Err { code, message } => Err(DriverError::Sql { code, message }),
            other => Err(DriverError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Close the statement's server cursor, if any.
    pub fn close(&mut self) -> Result<()> {
        if let Some(Source::Cursor { id, .. }) = self.source.take() {
            match self.conn.call(Request::CloseCursor { cursor: id })? {
                Response::Result { .. } => Ok(()),
                Response::Err { code, message } => Err(DriverError::Sql { code, message }),
                other => Err(DriverError::Protocol(format!(
                    "unexpected response {other:?}"
                ))),
            }
        } else {
            Ok(())
        }
    }
}
