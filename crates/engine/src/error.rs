//! The engine error model.
//!
//! Errors carry a machine-readable [`ErrorCode`] (in the spirit of SQLSTATE
//! classes) plus a human-readable message. The code crosses the wire intact:
//! the driver re-materializes it, and Phoenix's failure detector keys off the
//! distinction between *server* errors (the statement failed; the session is
//! fine) and *communication* errors (the session may be gone) — the latter
//! are produced by the driver, never by the engine.

use std::fmt;

use phoenix_sql::ParseError;
use phoenix_storage::db::DbError;
use phoenix_storage::store::StoreError;

/// Machine-readable error class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// SQL could not be parsed.
    Parse = 1,
    /// Referenced table/procedure/cursor does not exist.
    NotFound = 2,
    /// Object already exists.
    AlreadyExists = 3,
    /// Unknown or ambiguous column.
    Column = 4,
    /// Type error in expression evaluation or coercion.
    Type = 5,
    /// Constraint violation (primary key, NOT NULL, arity).
    Constraint = 6,
    /// Transaction-state misuse (nested BEGIN, COMMIT without BEGIN, …).
    Txn = 7,
    /// Feature outside the supported dialect.
    Unsupported = 8,
    /// Cursor misuse (bad direction for kind, fetch after close, …).
    Cursor = 9,
    /// Unknown session (stale handle — after a server crash every session
    /// id from the previous incarnation dies; Phoenix relies on this).
    NoSession = 10,
    /// Internal invariant failure — always a bug.
    Internal = 11,
    /// I/O or durability failure.
    Storage = 12,
    /// Server is at capacity (session cap reached, admission queue full).
    /// Transient by contract: the client may retry after a backoff — the
    /// driver treats this code as retryable.
    Busy = 13,
    // 14 is reserved: it was `Fenced`, sent by a deposed replication
    // primary, and decodes as `Internal` so an old server's code is never
    // read as something else.
    /// The transaction's commit lost to one that committed after it began
    /// and wrote what it wrote (first committer wins); it was rolled back.
    /// Running it again may succeed. An autocommit statement is re-run by
    /// the engine and never reports this.
    Conflict = 15,
}

impl ErrorCode {
    /// Decode a wire error code (unknowns map to `Internal`).
    pub fn from_u16(v: u16) -> ErrorCode {
        match v {
            1 => ErrorCode::Parse,
            2 => ErrorCode::NotFound,
            3 => ErrorCode::AlreadyExists,
            4 => ErrorCode::Column,
            5 => ErrorCode::Type,
            6 => ErrorCode::Constraint,
            7 => ErrorCode::Txn,
            8 => ErrorCode::Unsupported,
            9 => ErrorCode::Cursor,
            10 => ErrorCode::NoSession,
            12 => ErrorCode::Storage,
            13 => ErrorCode::Busy,
            15 => ErrorCode::Conflict,
            _ => ErrorCode::Internal,
        }
    }
}

/// An engine error: code + message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    /// Machine-readable class.
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
}

impl EngineError {
    /// An error with the given class and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> EngineError {
        EngineError {
            code,
            message: message.into(),
        }
    }

    /// `NotFound` shorthand.
    pub fn not_found(what: impl fmt::Display) -> EngineError {
        EngineError::new(ErrorCode::NotFound, format!("{what}"))
    }

    /// `Column` (unknown/ambiguous column) shorthand.
    pub fn column(msg: impl Into<String>) -> EngineError {
        EngineError::new(ErrorCode::Column, msg)
    }

    /// `Type` error shorthand.
    pub fn type_err(msg: impl Into<String>) -> EngineError {
        EngineError::new(ErrorCode::Type, msg)
    }

    /// `Unsupported` feature shorthand.
    pub fn unsupported(msg: impl Into<String>) -> EngineError {
        EngineError::new(ErrorCode::Unsupported, msg)
    }

    /// `Internal` invariant-failure shorthand.
    pub fn internal(msg: impl Into<String>) -> EngineError {
        EngineError::new(ErrorCode::Internal, msg)
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:?}] {}", self.code, self.message)
    }
}

impl std::error::Error for EngineError {}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::new(ErrorCode::Parse, e.to_string())
    }
}

impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> Self {
        let code = match &e {
            StoreError::TableExists(_) | StoreError::ProcExists(_) | StoreError::IndexExists(_) => {
                ErrorCode::AlreadyExists
            }
            StoreError::NoSuchTable(_)
            | StoreError::NoSuchProc(_)
            | StoreError::NoSuchIndex(_)
            | StoreError::NoSuchRow { .. } => ErrorCode::NotFound,
            StoreError::DuplicateKey(_) | StoreError::ArityMismatch { .. } => ErrorCode::Constraint,
            StoreError::Segment { .. } | StoreError::RowIdOutOfRange { .. } => ErrorCode::Storage,
        };
        EngineError::new(code, e.to_string())
    }
}

impl From<DbError> for EngineError {
    fn from(e: DbError) -> Self {
        match e {
            DbError::Store(s) => s.into(),
            DbError::Io(io) => EngineError::new(ErrorCode::Storage, io.to_string()),
            DbError::Decode(d) => EngineError::new(ErrorCode::Storage, d.to_string()),
            e @ (DbError::PartitionedLog(_) | DbError::Fenced(_)) => {
                EngineError::new(ErrorCode::Storage, e.to_string())
            }
            e @ DbError::Conflict(_) => EngineError::new(ErrorCode::Conflict, e.to_string()),
        }
    }
}

/// Engine result alias.
pub type Result<T> = std::result::Result<T, EngineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_roundtrip() {
        for code in [
            ErrorCode::Parse,
            ErrorCode::NotFound,
            ErrorCode::AlreadyExists,
            ErrorCode::Column,
            ErrorCode::Type,
            ErrorCode::Constraint,
            ErrorCode::Txn,
            ErrorCode::Unsupported,
            ErrorCode::Cursor,
            ErrorCode::NoSession,
            ErrorCode::Internal,
            ErrorCode::Storage,
            ErrorCode::Busy,
            ErrorCode::Conflict,
        ] {
            assert_eq!(ErrorCode::from_u16(code as u16), code);
        }
        // The retired `Fenced` code stays unassigned.
        assert_eq!(ErrorCode::from_u16(14), ErrorCode::Internal);
    }

    #[test]
    fn store_error_mapping() {
        let e: EngineError = StoreError::NoSuchTable("t".into()).into();
        assert_eq!(e.code, ErrorCode::NotFound);
        let e: EngineError = StoreError::DuplicateKey("t".into()).into();
        assert_eq!(e.code, ErrorCode::Constraint);
    }
}
