//! Per-session volatile state.
//!
//! Everything in a [`SessionState`] lives only in server memory: the temp
//! objects (tables and procedures spelled `#name`, in a volatile
//! transaction that logs nothing), connection options set by the client,
//! the open explicit transaction, and open server cursors. A server crash
//! destroys all of it — which is precisely the loss the paper's Phoenix
//! layer exists to mask. The engine makes no attempt to persist any of
//! this; persistence of *session state* is Phoenix's job, performed by
//! materializing it as ordinary durable tables.

use std::collections::HashMap;

use phoenix_sql::ast::MESSAGE_SEPARATOR;
use phoenix_storage::db::Txn;
use phoenix_storage::types::Value;

use crate::cursor::{Cursor, CursorId};
use crate::engine::{ExecOutcome, ExecResult};
use crate::error::{EngineError, Result};

/// Session identifier. Monotone within one server incarnation; after a crash
/// all previous ids are invalid (`ErrorCode::NoSession`), which is how stale
/// handles surface.
pub type SessionId = u64;

/// Volatile per-session state.
pub struct SessionState {
    /// The session's id.
    pub id: SessionId,
    /// Login user name.
    pub user: String,
    /// Connection options set via `SET name value`, in application order.
    /// Order is kept because Phoenix replays them in order at recovery.
    pub options: Vec<(String, Value)>,
    /// Session-scoped temporary tables and procedures (`#name`), in a
    /// volatile [`Txn`]: each statement is checked on a copy and installed
    /// whole, as a durable one is, but nothing is logged or committed, and
    /// it stands outside the explicit transaction — it dies with the
    /// session or the process.
    pub temp: Txn,
    /// The open explicit transaction, if any: its own copy of the durable
    /// store, which the session's statements read and write. Dropping it is
    /// the rollback.
    pub txn: Option<Txn>,
    /// Open server cursors.
    pub cursors: HashMap<CursorId, Cursor>,
    /// What the previous statement left behind: `@@ROWCOUNT`, `@@MESSAGES`.
    pub sys: SysVars,
}

impl SessionState {
    /// A fresh session with empty volatile state.
    pub fn new(id: SessionId, user: impl Into<String>) -> SessionState {
        SessionState {
            id,
            user: user.into(),
            options: Vec::new(),
            temp: Txn::volatile(),
            txn: None,
            cursors: HashMap::new(),
            sys: SysVars::default(),
        }
    }

    /// Record a SET option (later settings of the same name override, but
    /// the history keeps only the latest value per name).
    pub fn set_option(&mut self, name: &str, value: Value) {
        if let Some(slot) = self
            .options
            .iter_mut()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
        {
            slot.1 = value;
        } else {
            self.options.push((name.to_string(), value));
        }
    }

    /// Current value of a SET option, if set.
    pub fn option(&self, name: &str) -> Option<&Value> {
        self.options
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }
}

/// A session's system variables, set by each statement that succeeds and
/// read by the next one's expressions (T-SQL-compatible enough for the
/// wrapped-request pattern, which reads them in the statement immediately
/// following the DML or `EXEC`).
#[derive(Debug, Clone, Default)]
pub struct SysVars {
    /// `@@ROWCOUNT`: DML sets it to the affected count, SELECT to the row
    /// count, everything else to 0.
    pub rowcount: u64,
    /// `@@MESSAGES`: the statement's messages (a PRINT's text, every PRINT
    /// of a procedure).
    pub messages: Vec<String>,
}

impl SysVars {
    /// What a successful statement leaves behind.
    pub fn after(result: &ExecResult) -> SysVars {
        SysVars {
            rowcount: match &result.outcome {
                ExecOutcome::RowsAffected(n) => *n,
                ExecOutcome::ResultSet { rows, .. } => rows.len() as u64,
                ExecOutcome::Done => 0,
            },
            messages: result.messages.clone(),
        }
    }

    /// The value of `@@name` (`name` upper-case, as the parser spells it).
    pub fn get(&self, name: &str) -> Result<Value> {
        match name {
            "ROWCOUNT" => Ok(Value::Int(self.rowcount as i64)),
            "MESSAGES" => Ok(Value::Text(self.messages.join(MESSAGE_SEPARATOR))),
            _ => Err(EngineError::unsupported(format!(
                "unknown system variable '@@{name}'"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_override_in_place() {
        let mut s = SessionState::new(1, "alice");
        s.set_option("lock_timeout", Value::Int(5));
        s.set_option("flag", Value::Bool(true));
        s.set_option("LOCK_TIMEOUT", Value::Int(9));
        assert_eq!(s.option("lock_timeout"), Some(&Value::Int(9)));
        assert_eq!(s.options.len(), 2);
        assert_eq!(s.options[0].0, "lock_timeout"); // order preserved
    }
}
