//! Pipelined request submission.
//!
//! A [`Pipeline`] borrows its [`Connection`] and lets the caller keep up to
//! the negotiated window of requests in flight: [`Pipeline::submit`] returns
//! a tag immediately, [`Pipeline::wait`] awaits a specific tag's reply, and
//! [`Pipeline::drain`] receives everything still outstanding. The server
//! executes and replies strictly in submission order, so one socket read
//! always completes the *oldest* in-flight request — the bookkeeping here
//! leans on that invariant.

use std::collections::VecDeque;

use phoenix_wire::message::{BatchItem, Request, Response};

use crate::connection::{Connection, QueryResult};
use crate::error::{DriverError, Result};

/// A pipelined submission scope. Obtain via [`Connection::pipeline`].
///
/// Dropping a pipeline with requests still in flight is safe: their replies
/// are buffered by the connection when they arrive and simply never
/// consumed.
pub struct Pipeline<'c> {
    conn: &'c mut Connection,
    /// Tags submitted but whose replies have not been received, oldest
    /// first.
    inflight: VecDeque<u64>,
}

impl<'c> Pipeline<'c> {
    pub(crate) fn new(conn: &'c mut Connection) -> Pipeline<'c> {
        Pipeline {
            conn,
            inflight: VecDeque::new(),
        }
    }

    /// The window: how many requests may be in flight at once.
    pub fn window(&self) -> u32 {
        self.conn.window()
    }

    /// Number of requests currently in flight.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Submit a statement for execution, returning its tag without waiting
    /// for the reply. Blocks only when the window is full (the oldest reply
    /// is received first to make room).
    pub fn submit(&mut self, sql: &str) -> Result<u64> {
        self.submit_req(Request::Exec {
            sql: sql.to_string(),
        })
    }

    /// Submit a whole batch as one pipelined request (see
    /// [`Connection::execute_batch`] for the batch semantics). Await it with
    /// [`Pipeline::wait_batch`].
    pub fn submit_batch(&mut self, stmts: &[String]) -> Result<u64> {
        self.submit_req(Request::ExecBatch {
            stmts: stmts.to_vec(),
        })
    }

    fn submit_req(&mut self, req: Request) -> Result<u64> {
        while self.inflight.len() >= self.conn.window() as usize {
            self.recv_oldest()?;
        }
        let tag = self.conn.submit_tagged(&req)?;
        self.inflight.push_back(tag);
        Ok(tag)
    }

    /// Receive one reply — by the in-order guarantee, the oldest in-flight
    /// tag's — and buffer it on the connection.
    fn recv_oldest(&mut self) -> Result<()> {
        let (tag, rsp) = self.conn.read_tagged_reply()?;
        // The reply may belong to an older, abandoned pipeline's tag; only
        // retire it from *our* bookkeeping if it is ours.
        if let Some(pos) = self.inflight.iter().position(|t| *t == tag) {
            self.inflight.remove(pos);
        }
        self.conn.pending.push_back((tag, rsp));
        Ok(())
    }

    fn wait_rsp(&mut self, tag: u64) -> Result<Response> {
        loop {
            if let Some(pos) = self.conn.pending.iter().position(|(t, _)| *t == tag) {
                return Ok(self.conn.pending.remove(pos).expect("position exists").1);
            }
            if !self.inflight.contains(&tag) {
                return Err(DriverError::Protocol(format!(
                    "tag {tag} was never submitted on this pipeline (or already consumed)"
                )));
            }
            self.recv_oldest()?;
        }
    }

    /// Await the reply for a tag returned by [`Pipeline::submit`].
    pub fn wait(&mut self, tag: u64) -> Result<QueryResult> {
        match self.wait_rsp(tag)? {
            Response::Result { outcome, messages } => Ok(QueryResult { outcome, messages }),
            Response::Err { code, message } => Err(DriverError::Sql { code, message }),
            other => Err(DriverError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Await the reply for a tag returned by [`Pipeline::submit_batch`].
    pub fn wait_batch(&mut self, tag: u64) -> Result<Vec<BatchItem>> {
        match self.wait_rsp(tag)? {
            Response::BatchResult { items } => Ok(items),
            Response::Err { code, message } => Err(DriverError::Sql { code, message }),
            other => Err(DriverError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Receive every outstanding reply into the connection's buffer. After a
    /// successful drain, `wait`/`wait_batch` for any submitted tag returns
    /// without touching the socket.
    pub fn drain(&mut self) -> Result<()> {
        while !self.inflight.is_empty() {
            self.recv_oldest()?;
        }
        Ok(())
    }
}
