//! The exactly-once wrapper and the status table (paper §3, "Data
//! Modification Statements Results" and "Message Results").
//!
//! A data modification has no result set but it *does* have state: the
//! number of tuples affected, the messages it produced, and the fact of its
//! completion. Phoenix makes that state **testable** by committing it with
//! an outcome record in `phoenix.status`, and it does so in one way for
//! every statement it wraps — DML and `EXEC` alike — as **one** `ExecBatch`
//! request:
//!
//! ```text
//! [BEGIN; <stmt>; INSERT INTO phoenix.status VALUES (session, tag,
//!  @@ROWCOUNT, @@MESSAGES); COMMIT]
//! ```
//!
//! The server fills in the outcome: `@@ROWCOUNT` and `@@MESSAGES` are the
//! count and messages of the statement just before the insert, so the record
//! carries the true outcome although the client composed the batch before
//! seeing any reply. The application's own `COMMIT` of an open transaction
//! is the same insert followed by `COMMIT` (the paper's reply-buffer write).
//!
//! The table is keyed `(session, tag)`: the process-unique session tag plus
//! a per-session request counter, so a whole pipelined *window* of requests
//! is individually probe-able after a crash. Probing answers the only
//! question that matters: *did request `tag` complete?* Found → return the
//! logged outcome (the preserved reply buffer, messages included); absent →
//! the transaction aborted with the crash and the request is resubmitted —
//! exactly-once semantics for the application.
//!
//! `run_batches` is the one place Phoenix sends such a batch and reads its
//! reply; the result capture of [`crate::materialize`] travels through it
//! too.

use phoenix_driver::{error::codes, BatchItem, Connection, DriverError, QueryResult};
use phoenix_sql::ast::MESSAGE_SEPARATOR;
use phoenix_wire::message::Outcome;

use crate::naming::STATUS_TABLE;
use crate::Result;

/// Create the status table if this is the first Phoenix session against the
/// database. Racing sessions are fine: "already exists" is success.
pub fn ensure_status_table(conn: &mut Connection) -> Result<()> {
    let sql = format!(
        "CREATE TABLE {STATUS_TABLE} (session TEXT NOT NULL, tag INT NOT NULL, \
         affected INT, messages TEXT, PRIMARY KEY (session, tag))"
    );
    match conn.execute(&sql) {
        Ok(_) => Ok(()),
        Err(DriverError::Sql { code, .. }) if code == codes::ALREADY_EXISTS => Ok(()),
        Err(e) => Err(e),
    }
}

/// Escape a string for a SQL literal.
fn quote(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

/// The INSERT that records request `tag`'s outcome — the count and messages
/// of the statement before it; issued inside the transaction it describes.
fn status_insert(session: &str, tag: u64) -> String {
    format!(
        "INSERT INTO {STATUS_TABLE} VALUES ({}, {tag}, @@ROWCOUNT, @@MESSAGES)",
        quote(session)
    )
}

/// Where the application's reply sits in a wrapper's batch reply: the
/// statement's own item in [`wrapped`], the `COMMIT`'s in [`commit`].
pub(crate) const REPLY_ITEM: usize = 1;

/// One wrapped statement: its own transaction with its status record.
pub(crate) fn wrapped(session: &str, tag: u64, sql: &str) -> Vec<String> {
    vec![
        "BEGIN".to_string(),
        sql.to_string(),
        status_insert(session, tag),
        "COMMIT".to_string(),
    ]
}

/// The application's `COMMIT` of its open transaction, status record first.
pub(crate) fn commit(session: &str, tag: u64) -> Vec<String> {
    vec![status_insert(session, tag), "COMMIT".to_string()]
}

/// Send every batch whose reply is still `None` as one pipelined `ExecBatch`
/// on `conn`, and fill its reply with item `at` of the answer.
///
/// A wrapper's batch is a transaction ending in `COMMIT`, and the server
/// stops a batch at its first failing statement, so an `Err` item means
/// that transaction is still open: the window drains (batches behind it
/// fail their own `BEGIN` against it), it is rolled back, and the first
/// error surfaces. (A result capture is autocommit statements; its
/// `ROLLBACK` finds no transaction and is ignored.) A communication failure surfaces as is, leaving the
/// transaction to die with the session; replies already read stay filled in.
pub(crate) fn run_batches(
    conn: &mut Connection,
    batches: &[Vec<String>],
    at: usize,
    replies: &mut [Option<QueryResult>],
) -> Result<()> {
    let mut failure: Option<DriverError> = None;
    {
        let mut pipe = conn.pipeline();
        let mut sent = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            if replies[i].is_none() {
                sent.push((i, pipe.submit_batch(batch)?));
            }
        }
        for (i, ptag) in sent {
            match reply_item(pipe.wait_batch(ptag)?, batches[i].len(), at) {
                Ok(r) => replies[i] = Some(r),
                Err(e) => {
                    failure.get_or_insert(e);
                }
            }
        }
    }
    match failure {
        Some(e) => {
            let _ = conn.execute("ROLLBACK");
            Err(e)
        }
        None => Ok(()),
    }
}

/// Item `at` of a batch reply to `sent` statements, or its error item.
fn reply_item(items: Vec<BatchItem>, sent: usize, at: usize) -> Result<QueryResult> {
    let count = items.len();
    let mut reply = None;
    for (i, item) in items.into_iter().enumerate() {
        match item {
            BatchItem::Err { code, message } => return Err(DriverError::Sql { code, message }),
            BatchItem::Ok { outcome, messages } if i == at => {
                reply = Some(QueryResult { outcome, messages })
            }
            BatchItem::Ok { .. } => {}
        }
    }
    match reply {
        Some(r) if count == sent => Ok(r),
        _ => Err(DriverError::Protocol(format!(
            "batch of {sent} statements returned {count} item(s) without an error"
        ))),
    }
}

/// Probe the status table for a request. `Ok(Some(_))` means the wrapped
/// transaction committed before the crash; the logged outcome — the row
/// count and the messages — is the reply.
pub fn probe_status(conn: &mut Connection, session: &str, tag: u64) -> Result<Option<QueryResult>> {
    let sql = format!(
        "SELECT affected, messages FROM {STATUS_TABLE} WHERE session = {} AND tag = {tag}",
        quote(session)
    );
    let result = conn.execute(&sql)?;
    let rows = result.rows();
    if rows.is_empty() {
        return Ok(None);
    }
    let affected = rows[0][0].as_i64().unwrap_or(0) as u64;
    let messages = match rows[0][1].as_str() {
        Some("") | None => Vec::new(),
        Some(s) => s.split(MESSAGE_SEPARATOR).map(str::to_string).collect(),
    };
    Ok(Some(QueryResult {
        outcome: Outcome::RowsAffected(affected),
        messages,
    }))
}

/// Delete this session's status records (clean termination).
pub fn clear_status(conn: &mut Connection, session: &str) -> Result<()> {
    let sql = format!(
        "DELETE FROM {STATUS_TABLE} WHERE session = {}",
        quote(session)
    );
    conn.execute(&sql)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapper_batches_parse_and_escape() {
        let w = wrapped("it's", 9, "UPDATE t SET v = 1 WHERE id = 2");
        let c = commit("it's", 9);
        assert_eq!(w.len(), 4);
        assert_eq!(c.len(), 2);
        for sql in w.iter().chain(&c) {
            phoenix_sql::parse_statement(sql).unwrap();
        }
        assert_eq!(w[2], c[0]);
        assert!(w[2].contains("'it''s'"), "{}", w[2]);
        assert!(w[2].contains("@@ROWCOUNT, @@MESSAGES"), "{}", w[2]);
        assert_eq!(w[REPLY_ITEM], "UPDATE t SET v = 1 WHERE id = 2");
        assert_eq!(c[REPLY_ITEM], "COMMIT");
    }

    #[test]
    fn reply_item_takes_the_first_error_and_checks_the_count() {
        let ok = |n| BatchItem::Ok {
            outcome: Outcome::RowsAffected(n),
            messages: vec![format!("m{n}")],
        };
        let r = reply_item(vec![ok(0), ok(3), ok(1), ok(0)], 4, 1).unwrap();
        assert_eq!(r.affected(), 3);
        assert_eq!(r.messages, ["m3"]);
        let err = BatchItem::Err {
            code: 7,
            message: "boom".into(),
        };
        match reply_item(vec![ok(0), err], 4, 1) {
            Err(DriverError::Sql { code: 7, .. }) => {}
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            reply_item(vec![ok(0), ok(3)], 4, 1),
            Err(DriverError::Protocol(_))
        ));
    }
}
