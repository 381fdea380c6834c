//! Result-set materialization (paper §3, "Result Sets").
//!
//! Result-set capture is one statement. Phoenix wraps the application's
//! query as `CREATE TABLE phoenix.rs_… AS <select>`: the server runs the
//! query, takes the table's columns from the result's own schema (names,
//! types and nullability, verbatim) and inserts the rows, all in one
//! autocommit transaction. The data never leaves the server on its way into
//! the table — the paper's "all data is moved locally at the server" — and
//! there is no metadata probe and no capture procedure to create first.
//!
//! The read-back travels behind it in the same `ExecBatch` request,
//! `[CREATE TABLE t AS <select>; SELECT * FROM t <read>]`, sent and read by
//! the same `dml::run_batches` as every wrapped statement. The capture's
//! commit, fsync included, completes before the `SELECT` runs, so a result
//! is durable before any of it is delivered. The read-back's reply is the
//! application's result: the whole of it for
//! [`crate::PhoenixConnection::execute`], the first block for a
//! [`crate::PhoenixStatement`] cursor. Key tables of keyset and dynamic
//! cursors are the same capture with no read.
//!
//! A crash anywhere in the request leaves the table committed whole or
//! absent, and [`crate::PhoenixConnection`] re-runs the query under fresh
//! names; a table whose commit beat the crash is swept at session end.

use phoenix_driver::{Connection, QueryResult};
use phoenix_sql::ast::{ObjectName, SelectStmt, Statement};
use phoenix_sql::display::{render_expr, render_statement};
use phoenix_storage::types::{format_date, Value};

use crate::dml;
use crate::Result;

/// Outcome of materializing one result set.
#[derive(Debug, Clone)]
pub struct Materialized {
    /// The persistent table now holding the result.
    pub table: ObjectName,
    /// The reply to the request's last statement: the read-back (the
    /// result's schema and its first rows), or the capture's row count
    /// when nothing was read.
    pub reply: QueryResult,
}

/// The capture request: `CREATE TABLE table AS select`, then, when `read`
/// is given, `SELECT * FROM table<read>` (`read` is empty or a ` LIMIT …`
/// clause).
fn capture_batch(table: &ObjectName, select: &SelectStmt, read: Option<&str>) -> Vec<String> {
    let capture = Statement::CreateTableAs {
        name: table.clone(),
        query: Box::new(select.clone()),
    };
    let mut batch = vec![render_statement(&capture)];
    if let Some(read) = read {
        batch.push(format!("SELECT * FROM {table}{read}"));
    }
    batch
}

/// Materialize `select` into the fresh persistent table `table` on `conn`
/// (the paper's *private* connection) in one request, reading back with
/// `read` when given, and return the reply of the request's last
/// statement.
pub fn materialize(
    conn: &mut Connection,
    table: ObjectName,
    select: &SelectStmt,
    read: Option<&str>,
) -> Result<Materialized> {
    let batch = capture_batch(&table, select, read);
    let at = batch.len() - 1;
    let mut reply = [None];
    dml::run_batches(conn, &[batch], at, &mut reply)?;
    let reply = reply[0].take().expect("a completed batch is answered");
    Ok(Materialized { table, reply })
}

/// Render a runtime value as a SQL literal (for key lookups of keyset and
/// dynamic cursors).
pub fn value_literal(v: &Value) -> String {
    use phoenix_sql::ast::{Expr, Literal};
    let lit = match v {
        Value::Null => Literal::Null,
        Value::Int(i) => Literal::Int(*i),
        Value::Float(f) => Literal::Float(*f),
        Value::Text(s) => Literal::String(s.clone()),
        Value::Bool(b) => Literal::Bool(*b),
        Value::Date(d) => Literal::Date(format_date(*d)),
    };
    render_expr(&Expr::Literal(lit))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table_sql_renders_and_parses() {
        let select = match phoenix_sql::parse_statement(
            "SELECT a.id, b.id, COUNT(*) FROM t a, t b WHERE a.id = b.id GROUP BY a.id, b.id",
        )
        .unwrap()
        {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        let name = ObjectName::qualified("phoenix", "rs_1_1");
        let batch = capture_batch(&name, &select, Some(" LIMIT 64"));
        assert_eq!(batch.len(), 2);
        assert!(
            batch[0].starts_with("CREATE TABLE phoenix.rs_1_1 AS SELECT a.id, b.id"),
            "{}",
            batch[0]
        );
        assert_eq!(batch[1], "SELECT * FROM phoenix.rs_1_1 LIMIT 64");
        for sql in &batch {
            phoenix_sql::parse_statement(sql).unwrap();
        }
        assert_eq!(capture_batch(&name, &select, None).len(), 1);
        assert_eq!(
            capture_batch(&name, &select, Some(""))[1],
            "SELECT * FROM phoenix.rs_1_1"
        );
    }

    #[test]
    fn value_literals_are_parseable() {
        for v in [
            Value::Null,
            Value::Int(-7),
            Value::Float(2.5),
            Value::Text("O'Brien".into()),
            Value::Bool(true),
            Value::Date(9000),
        ] {
            let lit = value_literal(&v);
            phoenix_sql::parse_statement(&format!("SELECT {lit}")).unwrap();
        }
        assert_eq!(value_literal(&Value::Text("O'Brien".into())), "'O''Brien'");
    }
}
