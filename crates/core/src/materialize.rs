//! Result-set materialization (paper §3, "Result Sets").
//!
//! The four-step pipeline, verbatim from the paper:
//!
//! 1. **Metadata probe** — append `WHERE 0=1` to the SELECT and execute it.
//!    The server compiles the query and returns only the result metadata:
//!    one round trip, no rows, minimal server load.
//! 2. **Create the persistent table** — reformat the metadata into a
//!    `CREATE TABLE` in the `phoenix` namespace (a permanent table, not a
//!    temporary one).
//! 3. **Capture** — move the result into the table *at the server*:
//!    by default via a generated stored procedure
//!    (`CREATE PROCEDURE p AS INSERT INTO t <select>` + `EXEC p`), so the
//!    data never crosses the network and the action is a single atomic
//!    statement. Alternative strategies exist for the ablation benches.
//! 4. Delivery (the `SELECT * FROM t` and position tracking) is handled by
//!    [`crate::statement::PhoenixStatement`].
//!
//! Steps 2 and 3 travel as **one** `ExecBatch` frame on the private
//! connection, `[BEGIN; CREATE TABLE …; CREATE PROCEDURE …; EXEC …; COMMIT]`:
//! one request and one log flush instead of three of each. The engine undoes
//! DDL with the transaction, so a crash anywhere in the batch leaves the
//! table either committed with its rows or absent, and
//! [`crate::PhoenixConnection`] retries with fresh names.

use phoenix_driver::{BatchItem, Connection, DriverError};
use phoenix_sql::ast::{ColumnDef, CreateTableStmt, ObjectName, SelectStmt, Statement};
use phoenix_sql::display::{render_expr, render_statement};
use phoenix_sql::rewrite;
use phoenix_storage::types::{format_date, Row, Schema, Value};
use phoenix_wire::message::Outcome;

use crate::config::CaptureStrategy;
use crate::Result;

/// Outcome of materializing one result set.
#[derive(Debug, Clone)]
pub struct Materialized {
    /// The persistent table now holding the result.
    pub table: ObjectName,
    /// Result-set schema, as probed.
    pub schema: Schema,
    /// The capture procedure, when the `ServerProc` strategy created one
    /// (registered for cleanup by the caller).
    pub capture_proc: Option<ObjectName>,
    /// Number of rows captured.
    pub rows: u64,
}

/// Step 1: probe result metadata with the `WHERE 0=1` trick.
pub fn probe_metadata(conn: &mut Connection, select: &SelectStmt) -> Result<Schema> {
    let probe = rewrite::metadata_probe(select);
    let sql = render_statement(&Statement::Select(probe));
    let result = conn.execute(&sql)?;
    match result.schema() {
        Some(s) => Ok(s.clone()),
        None => Err(phoenix_driver::DriverError::Protocol(
            "metadata probe returned no schema".into(),
        )),
    }
}

/// Step 2: reformat metadata into a CREATE TABLE statement.
///
/// Result-set column names may be arbitrary rendered expressions
/// (`COUNT(*)`, `SUM(total) / COUNT(*)`) or duplicates; the persistent
/// table gets sanitized positional names where needed. Delivery reads the
/// table positionally (`SELECT *`), and the application always sees the
/// probed schema with the original names.
pub fn create_table_sql(name: &ObjectName, schema: &Schema) -> String {
    let mut seen: Vec<String> = Vec::new();
    let columns = schema
        .columns
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let clean = sanitize_column_name(&c.name, i, &seen);
            seen.push(clean.to_ascii_lowercase());
            ColumnDef {
                name: clean,
                type_name: c.dtype.sql_name().to_string(),
                not_null: false, // captured results may contain NULLs freely
            }
        })
        .collect();
    let stmt = Statement::CreateTable(CreateTableStmt {
        name: name.clone(),
        columns,
        primary_key: Vec::new(),
    });
    render_statement(&stmt)
}

/// Make a result-set column name storable: plain unique identifiers pass
/// through, anything else becomes `col_<i>`.
fn sanitize_column_name(name: &str, index: usize, seen: &[String]) -> String {
    let ok = !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !seen.contains(&name.to_ascii_lowercase());
    if ok {
        name.to_string()
    } else {
        format!("col_{index}")
    }
}

/// Render a runtime value as a SQL literal (for the client-round-trip
/// capture strategy and key lookups).
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

/// Steps 1–3: materialize `select` into a fresh persistent table.
///
/// `worker` is the connection Phoenix performs its masked activity on (the
/// paper's *private* connection); `mapped` is the application's connection,
/// used only by the `ClientRoundTrip` ablation strategy (which pulls the
/// rows as the application's query would have).
pub fn materialize(
    mapped: &mut Connection,
    worker: &mut Connection,
    table: ObjectName,
    capture_proc_name: ObjectName,
    select: &SelectStmt,
    strategy: CaptureStrategy,
) -> Result<Materialized> {
    // Step 1 — probe on the mapped connection (the modified query travels
    // the same path the application's query would).
    let schema = probe_metadata(mapped, select)?;

    // Steps 2 and 3 — create the persistent result table and capture.
    let create = create_table_sql(&table, &schema);
    let mut capture_proc = None;
    let rows = match strategy {
        CaptureStrategy::ServerProc => {
            let proc =
                rewrite::capture_proc(capture_proc_name.clone(), table.clone(), select.clone());
            let rows = capture_in_one_request(
                worker,
                vec![
                    create,
                    render_statement(&Statement::CreateProc(proc)),
                    format!("EXEC {capture_proc_name}"),
                ],
            )?;
            capture_proc = Some(capture_proc_name);
            rows
        }
        CaptureStrategy::ServerInsert => {
            let ins = rewrite::capture_into(table.clone(), select.clone());
            capture_in_one_request(
                worker,
                vec![create, render_statement(&Statement::Insert(ins))],
            )?
        }
        CaptureStrategy::ClientRoundTrip => {
            // Ablation baseline: ship every row to the client and back.
            worker.execute(&create)?;
            let sql = render_statement(&Statement::Select(select.clone()));
            let result = mapped.execute(&sql)?;
            let rows = result.rows().to_vec();
            insert_rows_back(worker, &table, &rows)?;
            rows.len() as u64
        }
    };

    Ok(Materialized {
        table,
        schema,
        capture_proc,
        rows,
    })
}

/// Run `stmts` as one transaction in one `ExecBatch` frame — `[BEGIN;
/// stmts…; COMMIT]` — and return the rows the last one affected. An error
/// item rolls the transaction back and surfaces; a communication failure
/// leaves it to die with the session (or the server).
fn capture_in_one_request(worker: &mut Connection, stmts: Vec<String>) -> Result<u64> {
    let mut batch = Vec::with_capacity(stmts.len() + 2);
    batch.push("BEGIN".to_string());
    batch.extend(stmts);
    batch.push("COMMIT".to_string());
    let items = worker.execute_batch(&batch)?;
    for item in &items {
        if let BatchItem::Err { code, message } = item {
            let _ = worker.execute("ROLLBACK");
            return Err(DriverError::Sql {
                code: *code,
                message: message.clone(),
            });
        }
    }
    match items.get(batch.len() - 2) {
        Some(BatchItem::Ok {
            outcome: Outcome::RowsAffected(n),
            ..
        }) if items.len() == batch.len() => Ok(*n),
        _ => Err(DriverError::Protocol(format!(
            "capture batch of {} statements returned {} item(s)",
            batch.len(),
            items.len()
        ))),
    }
}

/// Push client-held rows back to the server in batched INSERT statements.
fn insert_rows_back(conn: &mut Connection, table: &ObjectName, rows: &[Row]) -> Result<()> {
    const BATCH: usize = 128;
    for chunk in rows.chunks(BATCH) {
        let mut sql = format!("INSERT INTO {table} VALUES ");
        for (i, row) in chunk.iter().enumerate() {
            if i > 0 {
                sql.push_str(", ");
            }
            sql.push('(');
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    sql.push_str(", ");
                }
                sql.push_str(&value_literal(v));
            }
            sql.push(')');
        }
        conn.execute(&sql)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_storage::types::{Column, DataType};

    #[test]
    fn create_table_sql_renders_and_parses() {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int).not_null(),
            Column::new("name", DataType::Text),
            Column::new("total", DataType::Float),
            Column::new("due", DataType::Date),
            Column::new("flag", DataType::Bool),
        ]);
        let name = ObjectName::qualified("phoenix", "rs_1_1");
        let sql = create_table_sql(&name, &schema);
        assert!(sql.starts_with("CREATE TABLE phoenix.rs_1_1"), "{sql}");
        // All five types must round-trip through the parser.
        phoenix_sql::parse_statement(&sql).unwrap();
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
