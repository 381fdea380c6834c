//! [`PhoenixStatement`] — fetch-wise delivery of persistent result sets and
//! the persistent keyset/dynamic cursors of paper §3 ("Cursors").
//!
//! * **Forward-only** (default result set): the query is materialized into a
//!   persistent table, and the request that captures it also reads back the
//!   first block, so a result shorter than one block needs nothing more.
//!   Every later block is one window, `SELECT * FROM <table> LIMIT <block>
//!   OFFSET <delivered>`: Phoenix remembers the delivery position
//!   client-side, so the server holds no cursor, and a crash mid-delivery
//!   is recovered and the window resent like any idempotent read — the
//!   server skips to the position in one descent, no tuples shipped.
//! * **Keyset**: only the result's *primary keys* are materialized in a
//!   persistent key table; each fetch reads the next key(s) and SELECTs the
//!   current row by key. Deleted rows are skipped, updated rows show fresh
//!   data, and the cursor — unlike a native one — survives a crash.
//! * **Dynamic**: the same key table paces the cursor, but each fetch
//!   SELECTs a key *range* `(last delivered, next key]`, so rows inserted
//!   into the range appear — and again the cursor persists across failures.
//!
//! A cursor request the query shape can't support (no primary key, computed
//! projection, aggregation, multi-table) is downgraded, exactly as native
//! ODBC drivers downgrade cursor types.
//!
//! Every kind is delivered by one state — schema, client-side position,
//! current block, end flag — over a per-kind source (the result table, the
//! client copy read inside a transaction, the key table, the key range).
//! Forward-only, in-transaction and keyset delivery share one block refill
//! and one scroll; one windowed read serves all of them (and paces the
//! dynamic cursor). A window that waits out a recovery is that recovery's
//! reposition, timed in the stats and journaled.

use phoenix_driver::DriverError;
use phoenix_sql::ast::{Expr, ObjectName, SelectItem, SelectStmt, Statement};
use phoenix_sql::display::{render_expr, render_statement};
use phoenix_sql::parser::parse_statement;
use phoenix_sql::rewrite::with_projections;
use phoenix_storage::types::{Row, Schema, Value};
use phoenix_wire::message::Outcome;

use crate::connection::PhoenixConnection;
use crate::materialize::value_literal;
use crate::naming::STATUS_TABLE;
use crate::Result;

/// Fetch orientation for [`PhoenixStatement::fetch_scroll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhoenixFetch {
    /// The next `n` rows from the current position.
    Next,
    /// The `n` rows before the current position (position moves back).
    Prior,
    /// Rows starting at the 0-based index.
    Absolute(u64),
}

/// Cursor kinds the application can request on a Phoenix statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhoenixCursorKind {
    /// Persistent result table, forward delivery (default result set).
    ForwardOnly,
    /// Persistent key table; rows re-read by key.
    Keyset,
    /// Persistent key table; key-range SELECTs per fetch.
    Dynamic,
}

/// Where a cursor's blocks come from.
enum Source {
    /// Forward-only: the persistent result table; a block is a window of
    /// its rows.
    Result(ObjectName),
    /// The whole result, read inside an application transaction by the
    /// transaction's own session (the only one that sees its writes); a
    /// block is a slice of this copy. A crash loses the transaction, not
    /// the rows.
    Client(Vec<Row>),
    /// Keyset: the persistent key table; a block is a window of keys, and
    /// each key's current row is SELECTed as it is delivered.
    Keys {
        table: ObjectName,
        base: ObjectName,
        key_cols: Vec<String>,
        proj_cols: Vec<String>,
    },
    /// Dynamic: the key table paces the cursor; a block is the base-table
    /// rows in the key range `(last_key, next key]`, each carrying its key
    /// column last.
    Range {
        key_table: ObjectName,
        base: ObjectName,
        key_col: String,
        proj_cols: Vec<String>,
        pred_sql: Option<String>,
        /// Key of the last row delivered to the application.
        last_key: Option<Value>,
    },
}

/// The one delivery state every cursor kind shares.
struct Delivery {
    schema: Schema,
    /// The client-side position: entries of the source consumed so far
    /// (rows, keys, or — dynamic — key-table entries). Phoenix re-syncs
    /// from it after a crash.
    pos: u64,
    /// The current block's entries not yet consumed.
    block: std::vec::IntoIter<Row>,
    /// The current block is the last one.
    at_end: bool,
    source: Source,
}

/// A Phoenix statement handle.
pub struct PhoenixStatement<'c> {
    pc: &'c mut PhoenixConnection,
    kind: PhoenixCursorKind,
    fetch_block: usize,
    granted: Option<PhoenixCursorKind>,
    state: Option<Delivery>,
}

impl<'c> PhoenixStatement<'c> {
    pub(crate) fn new(pc: &'c mut PhoenixConnection) -> PhoenixStatement<'c> {
        let fetch_block = pc.config.fetch_block;
        PhoenixStatement {
            pc,
            kind: PhoenixCursorKind::ForwardOnly,
            fetch_block,
            granted: None,
            state: None,
        }
    }

    /// Close the open result. Its server-side objects stay until session
    /// termination sweeps them, as in the paper.
    pub fn close(&mut self) {
        self.state = None;
        self.granted = None;
    }

    /// Set the requested cursor type (before `execute`).
    pub fn set_cursor_type(&mut self, kind: PhoenixCursorKind) -> &mut Self {
        self.kind = kind;
        self
    }

    /// Rows per delivery block (min 1).
    pub fn set_fetch_block(&mut self, n: usize) -> &mut Self {
        self.fetch_block = n.max(1);
        self
    }

    /// The cursor kind actually granted after `execute` (downgrades happen
    /// exactly where a native driver would downgrade).
    pub fn granted_cursor(&self) -> Option<PhoenixCursorKind> {
        self.granted
    }

    /// Result schema of the open statement.
    pub fn schema(&self) -> Option<&Schema> {
        self.state.as_ref().map(|d| &d.schema)
    }

    /// Rows delivered so far (the client-side position Phoenix re-syncs
    /// from after a crash).
    pub fn delivered(&self) -> u64 {
        self.state.as_ref().map_or(0, |d| d.pos)
    }

    /// Execute a SELECT under the configured cursor type.
    pub fn execute(&mut self, sql: &str) -> Result<()> {
        self.close();
        let select = match parse_statement(sql) {
            Ok(Statement::Select(s)) => s,
            Ok(_) => {
                return Err(DriverError::Protocol(
                    "PhoenixStatement::execute takes a SELECT; use PhoenixConnection::execute for other statements".into(),
                ))
            }
            Err(e) => {
                return Err(DriverError::Sql {
                    code: phoenix_driver::error::codes::PARSE,
                    message: e.to_string(),
                })
            }
        };
        // Temp-object references go through the same redirection as the
        // connection-level pipeline.
        let select = match self.pc.redirect_temps(&Statement::Select(select)) {
            Statement::Select(s) => s,
            _ => unreachable!("redirect preserves statement kind"),
        };

        if self.pc.ctx.txn_open {
            return self.open_client(&select);
        }
        match self.kind {
            PhoenixCursorKind::ForwardOnly => self.open_result(&select),
            PhoenixCursorKind::Keyset | PhoenixCursorKind::Dynamic => {
                match self.cursor_plan(&select)? {
                    Some(plan) => {
                        if self.kind == PhoenixCursorKind::Keyset {
                            self.open_keyset(&select, plan)
                        } else {
                            self.open_dynamic(&select, plan)
                        }
                    }
                    None => {
                        self.pc.stats.cursor_downgrades += 1;
                        self.open_result(&select)
                    }
                }
            }
        }
    }

    /// Fetch the next row, or `None` at the end of the result set. A server
    /// crash at any point during delivery is masked: the fetch simply takes
    /// longer while Phoenix recovers and re-positions.
    pub fn fetch(&mut self) -> Result<Option<Row>> {
        let d = self.state.as_mut().ok_or_else(no_result_set)?;
        d.next(self.pc, self.fetch_block)
    }

    /// Scrollable fetch (forward-only, in-transaction and keyset delivery;
    /// dynamic cursors have no stable numbering, as in ODBC).
    ///
    /// Scrolling moves the client-side position and reads from there with
    /// the same windowed reads as forward delivery, so it is stateless on
    /// the server and trivially crash-proof: a scroll issued right after a
    /// server crash simply waits out the recovery like any other request.
    pub fn fetch_scroll(&mut self, dir: PhoenixFetch, n: usize) -> Result<Vec<Row>> {
        let d = self.state.as_mut().ok_or_else(no_result_set)?;
        let keyed = match d.source {
            Source::Range { .. } => {
                return Err(DriverError::Sql {
                    code: phoenix_driver::error::codes::CURSOR,
                    message: "dynamic cursors do not support scrolling".into(),
                })
            }
            Source::Keys { .. } => true,
            Source::Result(_) | Source::Client(_) => false,
        };
        let start = match dir {
            PhoenixFetch::Next => d.pos,
            PhoenixFetch::Prior => d.pos.saturating_sub(n as u64),
            PhoenixFetch::Absolute(k) => k,
        };
        d.seek(start);
        // Rows are read as one window of `n`; keys refill block by block
        // as their rows are resolved.
        if !keyed {
            d.refill(self.pc, n)?;
        }
        let mut out = Vec::new();
        while out.len() < n {
            match d.next(self.pc, self.fetch_block)? {
                Some(row) => out.push(row),
                None => break,
            }
        }
        // A Prior scroll leaves the position where it started reading; a
        // row window is not kept as the next block.
        if dir == PhoenixFetch::Prior {
            d.seek(start);
        } else if !keyed {
            d.seek(d.pos);
        }
        Ok(out)
    }

    /// Drain the remaining rows.
    pub fn fetch_all(&mut self) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        while let Some(row) = self.fetch()? {
            out.push(row);
        }
        Ok(out)
    }

    // -----------------------------------------------------------------------
    // Opening a result
    // -----------------------------------------------------------------------

    /// Read the whole result on the mapped connection, inside the open
    /// application transaction: a cursor of any kind is delivered from the
    /// client's copy.
    fn open_client(&mut self, select: &SelectStmt) -> Result<()> {
        let r = self
            .pc
            .run_mapped_retry(&render_statement(&Statement::Select(select.clone())))?;
        let schema = r.schema().cloned().unwrap_or_default();
        if self.kind != PhoenixCursorKind::ForwardOnly {
            self.pc.stats.cursor_downgrades += 1;
        }
        self.open(
            PhoenixCursorKind::ForwardOnly,
            Delivery::new(schema, Source::Client(r.rows().to_vec())),
        )
    }

    /// Capture the result and read back its first block in one request;
    /// the reply supplies the schema and the rows of that block.
    fn open_result(&mut self, select: &SelectStmt) -> Result<()> {
        let block = self.fetch_block;
        let m = self
            .pc
            .materialize(select, Some(&format!(" LIMIT {block}")))?;
        let (schema, rows) = match m.reply.outcome {
            Outcome::ResultSet { schema, rows } => (schema, rows),
            other => {
                return Err(DriverError::Protocol(format!(
                    "capture read-back answered {other:?}, not a result set"
                )))
            }
        };
        let mut d = Delivery::new(schema, Source::Result(m.table));
        // A short first block is the whole result.
        d.at_end = rows.len() < block;
        d.block = rows.into_iter();
        self.open(PhoenixCursorKind::ForwardOnly, d)
    }

    /// Decide whether the query shape supports a keyed Phoenix cursor:
    /// single base table with a primary key, plain column (or `*`)
    /// projection, no aggregation/ordering/limit. Returns the base table,
    /// its key columns, and the output projection column names.
    fn cursor_plan(&mut self, select: &SelectStmt) -> Result<Option<CursorPlan>> {
        if select.from.len() != 1
            || select.distinct
            || !select.group_by.is_empty()
            || select.having.is_some()
            || !select.order_by.is_empty()
            || select.limit.is_some()
            || select.offset.is_some()
        {
            return Ok(None);
        }
        let base = select.from[0].table.clone();
        let (schema, pk) = self
            .pc
            .with_recovery(false, |pc, _| pc.private.describe(&base.to_string()))?;
        if pk.is_empty() {
            return Ok(None);
        }
        let mut proj_cols = Vec::new();
        for item in &select.projections {
            match item {
                SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                    proj_cols.extend(schema.names().map(str::to_string));
                }
                SelectItem::Expr {
                    expr: Expr::Column { name, .. },
                    ..
                } => proj_cols.push(name.clone()),
                _ => return Ok(None), // computed projection → downgrade
            }
        }
        // Output schema from the base table's column metadata.
        let mut cols = Vec::new();
        for name in &proj_cols {
            match schema.index_of(name) {
                Some(i) => cols.push(schema.columns[i].clone()),
                None => return Ok(None),
            }
        }
        Ok(Some(CursorPlan {
            base,
            key_cols: pk,
            proj_cols,
            out_schema: Schema::new(cols),
        }))
    }

    /// Materialize the key table for a keyed cursor.
    fn materialize_keys(&mut self, select: &SelectStmt, plan: &CursorPlan) -> Result<ObjectName> {
        let key_select = with_projections(select.clone(), &plan.key_cols);
        Ok(self.pc.materialize(&key_select, None)?.table)
    }

    fn open_keyset(&mut self, select: &SelectStmt, plan: CursorPlan) -> Result<()> {
        let table = self.materialize_keys(select, &plan)?;
        let source = Source::Keys {
            table,
            base: plan.base,
            key_cols: plan.key_cols,
            proj_cols: plan.proj_cols,
        };
        self.open(
            PhoenixCursorKind::Keyset,
            Delivery::new(plan.out_schema, source),
        )
    }

    fn open_dynamic(&mut self, select: &SelectStmt, plan: CursorPlan) -> Result<()> {
        // Dynamic range pacing needs a single-column key; composite keys
        // downgrade to keyset (still persistent, slightly stricter
        // membership semantics).
        if plan.key_cols.len() != 1 {
            self.pc.stats.cursor_downgrades += 1;
            return self.open_keyset(select, plan);
        }
        let key_table = self.materialize_keys(select, &plan)?;
        // Internally the projection is extended with the key column so the
        // cursor can track `last_key`; it is stripped before delivery.
        let source = Source::Range {
            key_table,
            base: plan.base,
            key_col: plan.key_cols[0].clone(),
            proj_cols: plan.proj_cols,
            pred_sql: select.where_clause.as_ref().map(render_expr),
            last_key: None,
        };
        self.open(
            PhoenixCursorKind::Dynamic,
            Delivery::new(plan.out_schema, source),
        )
    }

    fn open(&mut self, granted: PhoenixCursorKind, d: Delivery) -> Result<()> {
        self.granted = Some(granted);
        self.state = Some(d);
        Ok(())
    }

    /// Expose the status-table name so examples can show the testable-state
    /// machinery without reaching into internals.
    pub fn status_table_name() -> &'static str {
        STATUS_TABLE
    }
}

impl Delivery {
    /// Positioned at the start with no block read yet.
    fn new(schema: Schema, source: Source) -> Delivery {
        Delivery {
            schema,
            pos: 0,
            block: Vec::new().into_iter(),
            at_end: false,
            source,
        }
    }

    /// Move the position to `pos`; the block is dropped and read afresh
    /// from there.
    fn seek(&mut self, pos: u64) {
        self.pos = pos;
        self.block = Vec::new().into_iter();
        self.at_end = false;
    }

    /// The next row, reading a block of `block` entries from the source
    /// whenever the current one is used up.
    fn next(&mut self, pc: &mut PhoenixConnection, block: usize) -> Result<Option<Row>> {
        loop {
            let Some(mut entry) = self.block.next() else {
                if self.at_end {
                    return Ok(None);
                }
                self.refill(pc, block)?;
                continue;
            };
            match &mut self.source {
                Source::Result(_) | Source::Client(_) => {
                    self.pos += 1;
                    return Ok(Some(entry));
                }
                Source::Keys {
                    base,
                    key_cols,
                    proj_cols,
                    ..
                } => {
                    self.pos += 1;
                    // SELECT the current row by key (paper: "reads the key
                    // from the table and SELECTs the record from the
                    // database using this key"). Deleted → skip to the next
                    // key; updated → fresh data.
                    let preds: Vec<String> = key_cols
                        .iter()
                        .zip(&entry)
                        .map(|(c, v)| format!("{c} = {}", value_literal(v)))
                        .collect();
                    let sql = format!(
                        "SELECT {} FROM {base} WHERE {}",
                        proj_cols.join(", "),
                        preds.join(" AND ")
                    );
                    if let Some(row) = pc.run_mapped_retry(&sql)?.rows().first() {
                        return Ok(Some(row.clone()));
                    }
                }
                Source::Range { last_key, .. } => {
                    *last_key = Some(entry.pop().expect("internal key column present"));
                    return Ok(Some(entry));
                }
            }
        }
    }

    /// Read the block of up to `n` entries at the position.
    fn refill(&mut self, pc: &mut PhoenixConnection, n: usize) -> Result<()> {
        let rows = match &mut self.source {
            Source::Result(table) | Source::Keys { table, .. } => {
                read_window(pc, table, self.pos, n)?
            }
            Source::Client(rows) => {
                let from = (self.pos as usize).min(rows.len());
                rows[from..(from + n).min(rows.len())].to_vec()
            }
            Source::Range {
                key_table,
                base,
                key_col,
                proj_cols,
                pred_sql,
                last_key,
            } => {
                // Paper: "a fetch causes Phoenix/ODBC to use the last
                // record key seen by the application and the next record
                // key from the table to SELECT a range of rows".
                let next_key = read_window(pc, key_table, self.pos, 1)?
                    .pop()
                    .map(|mut row| row.swap_remove(0));
                let mut preds = Vec::new();
                if let Some(p) = pred_sql {
                    preds.push(format!("({p})"));
                }
                if let Some(last) = last_key.as_ref() {
                    preds.push(format!("{key_col} > {}", value_literal(last)));
                }
                if let Some(k) = &next_key {
                    preds.push(format!("{key_col} <= {}", value_literal(k)));
                }
                let mut sql = format!(
                    "SELECT {}, {key_col} FROM {base}{} ORDER BY {key_col}",
                    proj_cols.join(", "),
                    where_clause(&preds)
                );
                if next_key.is_none() {
                    // Key table exhausted: the tail picks up rows inserted
                    // beyond the last captured key.
                    sql.push_str(&format!(" LIMIT {n}"));
                }
                let rows = pc.run_mapped_retry(&sql)?.rows().to_vec();
                if next_key.is_some() {
                    self.pos += 1;
                    if rows.is_empty() {
                        // Every row in (last, next_key] is gone; move the
                        // lower bound so the next range starts after it.
                        *last_key = next_key;
                    }
                } else {
                    self.at_end = rows.is_empty();
                }
                self.block = rows.into_iter();
                return Ok(());
            }
        };
        self.at_end = rows.len() < n;
        self.block = rows.into_iter();
        Ok(())
    }
}

/// Rows `start..start + n` of a Phoenix table: one idempotent request,
/// resent after a recovery. A window that waited out a recovery is that
/// recovery's reposition: timed from the recovery's end to the reply,
/// counted in the stats and journaled.
fn read_window(
    pc: &mut PhoenixConnection,
    table: &ObjectName,
    start: u64,
    n: usize,
) -> Result<Vec<Row>> {
    let recoveries = pc.stats.recoveries;
    let r = pc.run_mapped_retry(&format!("SELECT * FROM {table} LIMIT {n} OFFSET {start}"))?;
    if pc.stats.recoveries > recoveries {
        let us = pc.recovered_at.elapsed().as_micros() as u64;
        pc.stats.last_reposition_us = us;
        pc.stats.reposition_us += us;
        phoenix_obs::journal().record(
            "core",
            phoenix_obs::EventKind::CursorRestored,
            format!("delivery from {table} repositioned past {start} row(s) in {us} us"),
        );
    }
    match r.outcome {
        Outcome::ResultSet { rows, .. } => Ok(rows),
        other => Err(DriverError::Protocol(format!(
            "window read answered {other:?}, not a result set"
        ))),
    }
}

fn no_result_set() -> DriverError {
    DriverError::Protocol("no open result set".into())
}

struct CursorPlan {
    base: ObjectName,
    key_cols: Vec<String>,
    proj_cols: Vec<String>,
    out_schema: Schema,
}

fn where_clause(preds: &[String]) -> String {
    if preds.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", preds.join(" AND "))
    }
}
