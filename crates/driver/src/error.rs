//! Driver error model: the unified taxonomy every layer above the wire
//! dispatches on.
//!
//! Four classes, chosen by what the caller can *do* about the failure:
//!
//! * [`Error::Comm`] — the transport failed; the session may be gone. The
//!   only retryable class ([`Error::is_retryable`]); Phoenix's failure
//!   detector triggers on it.
//! * [`Error::Sql`] — the server executed (or refused) the statement and
//!   reported an error. The session is intact; retrying the identical
//!   statement would fail the identical way.
//! * [`Error::Protocol`] — one side misused the protocol or the API: bytes
//!   that don't decode, a reply of the wrong shape, a fetch without an open
//!   result. A bug, not an operational condition.
//! * [`Error::Recovery`] — Phoenix's masking machinery itself gave up (e.g.
//!   session state unrecoverable after a crash). The application must
//!   re-establish its session state by hand.

use std::fmt;
use std::io;

/// Error code mirrored from the engine (`phoenix_engine::ErrorCode` as u16);
/// kept as a raw number here so the driver does not depend on the engine
/// crate — clients link only driver + wire.
pub type ServerErrorCode = u16;

/// Well-known server error codes the Phoenix layer dispatches on.
pub mod codes {
    use super::ServerErrorCode;
    /// SQL did not parse.
    pub const PARSE: ServerErrorCode = 1;
    /// Table/procedure/cursor not found.
    pub const NOT_FOUND: ServerErrorCode = 2;
    /// Object already exists.
    pub const ALREADY_EXISTS: ServerErrorCode = 3;
    /// Unknown or ambiguous column.
    pub const COLUMN: ServerErrorCode = 4;
    /// Type error.
    pub const TYPE: ServerErrorCode = 5;
    /// Constraint violation.
    pub const CONSTRAINT: ServerErrorCode = 6;
    /// Transaction-state misuse.
    pub const TXN: ServerErrorCode = 7;
    /// Unsupported dialect feature.
    pub const UNSUPPORTED: ServerErrorCode = 8;
    /// Cursor misuse.
    pub const CURSOR: ServerErrorCode = 9;
    /// Unknown/stale session (all sessions die in a server crash).
    pub const NO_SESSION: ServerErrorCode = 10;
    /// Server-internal invariant failure.
    pub const INTERNAL: ServerErrorCode = 11;
    /// Server-side I/O or durability failure.
    pub const STORAGE: ServerErrorCode = 12;
    /// Server at capacity (session cap reached or admission queue full).
    /// Transient by contract: retrying can succeed.
    pub const BUSY: ServerErrorCode = 13;
    // 14 is reserved: a deposed replication primary's `Fenced`, retired
    // with replication and never reassigned.
    /// The transaction's commit lost to one that committed after it began
    /// and wrote what it wrote; it was rolled back and may be run again.
    pub const CONFLICT: ServerErrorCode = 15;
}

/// A driver error. See the module docs for the class semantics.
#[derive(Debug)]
pub enum Error {
    /// Communication failure: connect refused, socket died mid-request, or
    /// a read timed out. After a `Comm` error the connection is unusable and
    /// the server session may no longer exist — this is the signal Phoenix's
    /// failure detector triggers on.
    Comm(io::Error),
    /// The server executed (or refused) the request and reported a SQL-level
    /// error. The session itself is intact.
    Sql {
        /// The engine's error class.
        code: ServerErrorCode,
        /// Human-readable message.
        message: String,
    },
    /// Protocol or API misuse: bytes that don't decode, a reply of the
    /// wrong shape for the request, a fetch without an open result set.
    Protocol(String),
    /// Phoenix recovery failed: the crash could not be masked and session
    /// state was lost. Surfaced only by `phoenix-core`, never by the bare
    /// driver.
    Recovery(String),
}

/// Compatibility alias — the error type's original name. New code should
/// spell it [`Error`] (e.g. via `phoenix_driver::prelude`).
pub type DriverError = Error;

impl Error {
    /// Is this a communication failure (vs. a server-reported statement
    /// error)?
    pub fn is_comm(&self) -> bool {
        matches!(self, Error::Comm(_))
    }

    /// Can the operation be retried — possibly on a fresh connection —
    /// with a real chance of success? True for [`Error::Comm`] (covers
    /// connection refused/reset while the server restarts), and for the
    /// transient server code [`codes::BUSY`] (at capacity — back off and
    /// retry). Any other `Sql` error would recur, a `Protocol` error is a
    /// bug, and a `Recovery` error means retrying was already tried and
    /// lost.
    pub fn is_retryable(&self) -> bool {
        match self {
            Error::Comm(_) => true,
            Error::Sql { code, .. } => *code == codes::BUSY,
            _ => false,
        }
    }

    /// Did the read time out (possible slow server — not necessarily dead)?
    pub fn is_timeout(&self) -> bool {
        match self {
            Error::Comm(e) => {
                matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                )
            }
            _ => false,
        }
    }

    /// The server error class, when this is a [`Error::Sql`] error.
    pub fn server_code(&self) -> Option<ServerErrorCode> {
        match self {
            Error::Sql { code, .. } => Some(*code),
            _ => None,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Comm(e) => write!(f, "communication failure: {e}"),
            Error::Sql { code, message } => write!(f, "server error {code}: {message}"),
            Error::Protocol(m) => write!(f, "protocol error: {m}"),
            Error::Recovery(m) => write!(f, "recovery failure: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Comm(e)
    }
}

impl From<phoenix_wire::FrameError> for Error {
    fn from(e: phoenix_wire::FrameError) -> Self {
        match e {
            phoenix_wire::FrameError::Io(io) => Error::Comm(io),
            phoenix_wire::FrameError::TooLarge(n) => {
                Error::Protocol(format!("oversized frame ({n} bytes)"))
            }
        }
    }
}

/// Driver result alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let comm = Error::Comm(io::Error::new(io::ErrorKind::TimedOut, "t"));
        assert!(comm.is_comm());
        assert!(comm.is_timeout());
        assert!(comm.is_retryable());
        let comm2 = Error::Comm(io::Error::new(io::ErrorKind::ConnectionReset, "r"));
        assert!(comm2.is_comm());
        assert!(!comm2.is_timeout());
        let srv = Error::Sql {
            code: codes::NOT_FOUND,
            message: "x".into(),
        };
        assert!(!srv.is_comm());
        assert!(!srv.is_retryable());
        assert_eq!(srv.server_code(), Some(codes::NOT_FOUND));
        assert!(Error::Sql {
            code: codes::BUSY,
            message: "full".into(),
        }
        .is_retryable());
        // The reserved code 14 is nothing special.
        assert!(!Error::Sql {
            code: 14,
            message: "x".into(),
        }
        .is_retryable());
        assert!(!Error::Protocol("p".into()).is_retryable());
        assert!(!Error::Recovery("r".into()).is_retryable());
        // Each class renders with its own prefix — applications can log
        // without matching on strings.
        assert!(Error::Recovery("gone".into())
            .to_string()
            .starts_with("recovery failure"));
    }
}
