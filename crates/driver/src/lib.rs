#![warn(missing_docs)]

//! # phoenix-driver
//!
//! The native client driver — the stand-in for a vendor ODBC driver. Its
//! surface mirrors the CLI handle model the paper wraps:
//!
//! * [`Environment`] — driver defaults (timeouts, fetch block size);
//!   allocates connections.
//! * [`Connection`] — one TCP connection = one server session. Executes
//!   statements (default result sets arrive complete, as ODBC default
//!   result sets do), batches ([`Connection::execute_batch`]), and pings.
//! * [`Pipeline`] — request pipelining: submit up to the granted window of
//!   requests, await replies by tag.
//! * [`Cursor`] — RAII server cursor, closed on drop.
//! * [`Statement`] — per-statement cursor options (forward-only / keyset /
//!   dynamic) and block fetching with `next` / `prior` / `absolute`
//!   orientations.
//!
//! The driver speaks the one wire protocol (a `LoginV2` handshake, then
//! tagged frames, pipelining and batch execution) — see `phoenix_wire` for
//! the wire-level story.
//!
//! The error model is the part Phoenix cares most about: [`Error::Comm`]
//! (socket death, timeout — the session may be gone; the only
//! [`Error::is_retryable`] class) versus [`Error::Sql`] (the statement
//! failed; the session is fine), with [`Error::Protocol`] for bugs and
//! [`Error::Recovery`] reserved for Phoenix itself giving up. The paper's
//! failure detector is built on exactly the comm/non-comm distinction.
//!
//! The driver is intentionally *not* crash-aware: it surfaces failures and
//! does nothing else, like the native drivers the paper leaves unmodified.
//! All recovery intelligence lives in `phoenix-core`.

pub mod connection;
pub mod cursor;
pub mod environment;
pub mod error;
pub mod metrics;
pub mod pipeline;
pub mod statement;

pub use connection::{Connection, QueryResult};
pub use cursor::Cursor;
pub use environment::Environment;
pub use error::{DriverError, Error, Result};
pub use pipeline::Pipeline;
pub use statement::{Statement, StatementResult};

pub use phoenix_wire::message::{BatchItem, CursorKind, FetchDir};

/// Everything an application typically needs, importable in one line:
/// `use phoenix_driver::prelude::*;`.
pub mod prelude {
    pub use crate::connection::{Connection, QueryResult};
    pub use crate::cursor::Cursor;
    pub use crate::environment::Environment;
    pub use crate::error::{codes, Error, Result};
    pub use crate::pipeline::Pipeline;
    pub use crate::statement::{Statement, StatementResult};
    pub use phoenix_wire::message::{BatchItem, CursorKind, FetchDir, Outcome};
}
