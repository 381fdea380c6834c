#![warn(missing_docs)]

//! # phoenix-wire
//!
//! The framed binary client-server protocol for the Phoenix database stack —
//! the stand-in for the proprietary protocol between the paper's ODBC driver
//! and its commercial DBMS.
//!
//! * [`frame`] — length-prefixed frames over any `Read`/`Write` transport.
//! * [`message`] — the request/response message set and its binary codec
//!   (value encoding shared with the storage layer, so a row is encoded the
//!   same way on disk and on the wire).
//!
//! There is one protocol, version 2: *tagged pipelining*. A connection opens
//! with one untagged [`message::Request::LoginV2`] /
//! [`message::Response::LoginAckV2`] exchange, after which both sides speak
//! tagged frames (`tag: u64 LE` prefixed to every payload). The client may
//! keep up to the negotiated window of requests in flight; the server
//! executes them in arrival (= tag) order and streams tagged responses back
//! in the same order. [`message::Request::ExecBatch`] executes several
//! statements in one round trip and returns per-statement outcomes in a
//! single [`message::Response::BatchResult`] frame. Before login the server
//! also answers the session-less `Ping` and `Stats` untagged.
//!
//! Failure modes the Phoenix layer must handle — a dead socket mid-request,
//! a response that never arrives — surface here as ordinary `io::Error`s,
//! which the driver maps to its `Comm` error class.

pub mod frame;
pub mod message;

pub use frame::{read_frame, read_tagged_frame, write_frame, write_tagged_frame, FrameError};
pub use message::{
    BatchItem, CursorKind, FetchDir, Outcome, Request, Response, DEFAULT_WINDOW, PROTOCOL_V2,
};
