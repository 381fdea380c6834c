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
//! One windowed read serves forward-only, scroll and keyset delivery (and
//! paces the dynamic cursor). A window that waits out a recovery is that
//! recovery's reposition, timed in the stats and journaled.

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

enum Delivery {
    /// Forward-only delivery from a persistent result table.
    Persistent {
        table: ObjectName,
        schema: Schema,
        /// Rows already handed to the application.
        delivered: u64,
        /// The current block's rows not yet delivered.
        buf: std::vec::IntoIter<Row>,
        /// The current block is the last one.
        at_end: bool,
    },
    /// Keyset cursor over a persistent key table.
    Keyset {
        key_table: ObjectName,
        base: ObjectName,
        key_cols: Vec<String>,
        proj_cols: Vec<String>,
        schema: Schema,
        /// Keys consumed so far (client-side position).
        pos: u64,
        key_buf: Vec<Row>,
        key_buf_pos: usize,
        keys_done: bool,
    },
    /// The whole result, read inside an application transaction by the
    /// transaction's own session (the only one that sees its writes) and
    /// delivered from here. A crash loses the transaction, not the rows.
    Buffered {
        schema: Schema,
        rows: Vec<Row>,
        /// Rows already handed to the application.
        delivered: u64,
    },
    /// Dynamic cursor: key table for pacing + range SELECTs.
    Dynamic {
        key_table: ObjectName,
        base: ObjectName,
        key_col: String,
        proj_cols: Vec<String>,
        schema: Schema,
        pred_sql: Option<String>,
        /// Key-table entries consumed (pacing).
        pos: u64,
        /// Key of the last row delivered to the application.
        last_key: Option<Value>,
        buf: Vec<Row>,
        buf_pos: usize,
        done: bool,
    },
}

/// A Phoenix statement handle.
pub struct PhoenixStatement<'c> {
    pc: &'c mut PhoenixConnection,
    kind: PhoenixCursorKind,
    fetch_block: usize,
    granted: Option<PhoenixCursorKind>,
    state: Option<Delivery>,
    /// The result or key table this statement's execution created —
    /// dropped eagerly on re-execute/close when `eager_cleanup` is
    /// configured.
    owned: Vec<ObjectName>,
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
            owned: Vec::new(),
        }
    }

    /// Release this statement's server-side objects now (no-op unless
    /// `eager_cleanup` is configured; otherwise everything is swept at
    /// session termination, as in the paper).
    pub fn close(&mut self) {
        self.state = None;
        self.granted = None;
        if self.pc.config.eager_cleanup {
            for name in std::mem::take(&mut self.owned) {
                self.pc.drop_phoenix_table(&name);
            }
        } else {
            self.owned.clear();
        }
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
        match &self.state {
            Some(Delivery::Persistent { schema, .. })
            | Some(Delivery::Keyset { schema, .. })
            | Some(Delivery::Buffered { schema, .. })
            | Some(Delivery::Dynamic { schema, .. }) => Some(schema),
            None => None,
        }
    }

    /// Rows delivered so far (the client-side position Phoenix re-syncs
    /// from after a crash).
    pub fn delivered(&self) -> u64 {
        match &self.state {
            Some(Delivery::Persistent { delivered, .. })
            | Some(Delivery::Buffered { delivered, .. }) => *delivered,
            Some(Delivery::Keyset { pos, .. }) => *pos,
            Some(Delivery::Dynamic { pos, .. }) => *pos,
            None => 0,
        }
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
            return self.open_buffered(&select);
        }
        match self.kind {
            PhoenixCursorKind::ForwardOnly => self.open_persistent(&select),
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
                        self.open_persistent(&select)
                    }
                }
            }
        }
    }

    /// Fetch the next row, or `None` at the end of the result set. A server
    /// crash at any point during delivery is masked: the fetch simply takes
    /// longer while Phoenix recovers and re-positions.
    pub fn fetch(&mut self) -> Result<Option<Row>> {
        match self.state.as_ref() {
            None => Err(DriverError::Protocol("no open result set".into())),
            Some(Delivery::Persistent { .. }) => self.fetch_persistent(),
            Some(Delivery::Buffered { .. }) => {
                Ok(self.scroll_buffered(PhoenixFetch::Next, 1).pop())
            }
            Some(Delivery::Keyset { .. }) => self.fetch_keyset(),
            Some(Delivery::Dynamic { .. }) => self.fetch_dynamic(),
        }
    }

    /// Scrollable fetch over the persistent result (forward-only and keyset
    /// deliveries; dynamic cursors have no stable numbering, as in ODBC).
    ///
    /// Scrolling reads the materialized table directly with windowed
    /// `LIMIT/OFFSET` queries, so it is stateless on the server and
    /// trivially crash-proof: a scroll issued right after a server crash
    /// simply waits out the recovery like any other request.
    pub fn fetch_scroll(&mut self, dir: PhoenixFetch, n: usize) -> Result<Vec<Row>> {
        match self.state.as_ref() {
            None => Err(DriverError::Protocol("no open result set".into())),
            Some(Delivery::Persistent { .. }) => self.scroll_persistent(dir, n),
            Some(Delivery::Buffered { .. }) => Ok(self.scroll_buffered(dir, n)),
            Some(Delivery::Keyset { .. }) => self.scroll_keyset(dir, n),
            Some(Delivery::Dynamic { .. }) => Err(DriverError::Sql {
                code: phoenix_driver::error::codes::CURSOR,
                message: "dynamic cursors do not support scrolling".into(),
            }),
        }
    }

    fn scroll_persistent(&mut self, dir: PhoenixFetch, n: usize) -> Result<Vec<Row>> {
        let (table, delivered) = match self.state.as_ref() {
            Some(Delivery::Persistent {
                table, delivered, ..
            }) => (table.clone(), *delivered),
            _ => unreachable!(),
        };
        let start = match dir {
            PhoenixFetch::Next => delivered,
            PhoenixFetch::Prior => delivered.saturating_sub(n as u64),
            PhoenixFetch::Absolute(k) => k,
        };
        let rows = self.read_window(&table, start, n)?;
        // Scrolling repositions the statement and drops the block buffer.
        if let Some(Delivery::Persistent {
            delivered,
            buf,
            at_end,
            ..
        }) = self.state.as_mut()
        {
            *delivered = match dir {
                PhoenixFetch::Prior => start,
                _ => start + rows.len() as u64,
            };
            *buf = Vec::new().into_iter();
            *at_end = false;
        }
        Ok(rows)
    }

    /// Read the whole result on the mapped connection, inside the open
    /// application transaction: a cursor of any kind is delivered from the
    /// client's copy.
    fn open_buffered(&mut self, select: &SelectStmt) -> Result<()> {
        let r = self
            .pc
            .run_mapped_retry(&render_statement(&Statement::Select(select.clone())))?;
        let schema = r.schema().cloned().unwrap_or_default();
        if self.kind != PhoenixCursorKind::ForwardOnly {
            self.pc.stats.cursor_downgrades += 1;
        }
        self.granted = Some(PhoenixCursorKind::ForwardOnly);
        self.state = Some(Delivery::Buffered {
            schema,
            rows: r.rows().to_vec(),
            delivered: 0,
        });
        Ok(())
    }

    fn scroll_buffered(&mut self, dir: PhoenixFetch, n: usize) -> Vec<Row> {
        let Some(Delivery::Buffered {
            rows, delivered, ..
        }) = self.state.as_mut()
        else {
            unreachable!()
        };
        let start = match dir {
            PhoenixFetch::Next => *delivered,
            PhoenixFetch::Prior => delivered.saturating_sub(n as u64),
            PhoenixFetch::Absolute(k) => k,
        };
        let from = (start as usize).min(rows.len());
        let out = rows[from..(from + n).min(rows.len())].to_vec();
        *delivered = match dir {
            PhoenixFetch::Prior => start,
            _ => start + out.len() as u64,
        };
        out
    }

    fn scroll_keyset(&mut self, dir: PhoenixFetch, n: usize) -> Result<Vec<Row>> {
        // Reposition the key-table position, then serve through the normal
        // keyset fetch path (current row data by key).
        let pos = match self.state.as_ref() {
            Some(Delivery::Keyset { pos, .. }) => *pos,
            _ => unreachable!(),
        };
        let new_pos = match dir {
            PhoenixFetch::Next => pos,
            PhoenixFetch::Prior => pos.saturating_sub(n as u64),
            PhoenixFetch::Absolute(k) => k,
        };
        if let Some(Delivery::Keyset {
            pos,
            key_buf,
            key_buf_pos,
            keys_done,
            ..
        }) = self.state.as_mut()
        {
            *pos = new_pos;
            key_buf.clear();
            *key_buf_pos = 0;
            *keys_done = false;
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            match self.fetch_keyset()? {
                Some(row) => out.push(row),
                None => break,
            }
        }
        if matches!(dir, PhoenixFetch::Prior) {
            // A Prior scroll leaves the position where it started reading.
            if let Some(Delivery::Keyset {
                pos,
                key_buf,
                key_buf_pos,
                keys_done,
                ..
            }) = self.state.as_mut()
            {
                *pos = new_pos;
                key_buf.clear();
                *key_buf_pos = 0;
                *keys_done = false;
            }
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
    // Forward-only persistent delivery
    // -----------------------------------------------------------------------

    /// Capture the result and read back its first block in one request;
    /// the reply supplies the schema and the rows of that block.
    fn open_persistent(&mut self, select: &SelectStmt) -> Result<()> {
        let block = self.fetch_block;
        let m = self
            .pc
            .materialize_with_retry(select, Some(&format!(" LIMIT {block}")))?;
        self.owned.push(m.table.clone());
        let (schema, buf) = match m.reply.outcome {
            Outcome::ResultSet { schema, rows } => (schema, rows),
            other => {
                return Err(DriverError::Protocol(format!(
                    "capture read-back answered {other:?}, not a result set"
                )))
            }
        };
        self.granted = Some(PhoenixCursorKind::ForwardOnly);
        self.state = Some(Delivery::Persistent {
            table: m.table,
            schema,
            delivered: 0,
            // A short first block is the whole result.
            at_end: buf.len() < block,
            buf: buf.into_iter(),
        });
        Ok(())
    }

    fn fetch_persistent(&mut self) -> Result<Option<Row>> {
        loop {
            let Some(Delivery::Persistent {
                table,
                delivered,
                buf,
                at_end,
                ..
            }) = self.state.as_mut()
            else {
                unreachable!()
            };
            if let Some(row) = buf.next() {
                *delivered += 1;
                return Ok(Some(row));
            }
            if *at_end {
                return Ok(None);
            }
            // The next block: one window at the delivery position.
            let (table, start, block) = (table.clone(), *delivered, self.fetch_block);
            let rows = self.read_window(&table, start, block)?;
            if let Some(Delivery::Persistent { buf, at_end, .. }) = self.state.as_mut() {
                *at_end = rows.len() < block;
                *buf = rows.into_iter();
            }
        }
    }

    /// Rows `start..start + n` of a Phoenix table: one idempotent request,
    /// resent after a recovery. A window that waited out a recovery is that
    /// recovery's reposition: timed from the recovery's end to the reply,
    /// counted in the stats and journaled.
    fn read_window(&mut self, table: &ObjectName, start: u64, n: usize) -> Result<Vec<Row>> {
        let recoveries = self.pc.stats.recoveries;
        let r = self
            .pc
            .run_mapped_retry(&format!("SELECT * FROM {table} LIMIT {n} OFFSET {start}"))?;
        if self.pc.stats.recoveries > recoveries {
            let us = self.pc.recovered_at.elapsed().as_micros() as u64;
            self.pc.stats.last_reposition_us = us;
            self.pc.stats.reposition_us += us;
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

    // -----------------------------------------------------------------------
    // Keyset / dynamic plumbing
    // -----------------------------------------------------------------------

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
        let (schema, pk) = loop {
            match self.pc.private.describe(&base.to_string()) {
                Ok(x) => break x,
                Err(e) if e.is_comm() => self.pc.recover()?,
                Err(e) => return Err(e),
            }
        };
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
        let m = self.pc.materialize_with_retry(&key_select, None)?;
        self.owned.push(m.table.clone());
        Ok(m.table)
    }

    fn open_keyset(&mut self, select: &SelectStmt, plan: CursorPlan) -> Result<()> {
        let key_table = self.materialize_keys(select, &plan)?;
        self.granted = Some(PhoenixCursorKind::Keyset);
        self.state = Some(Delivery::Keyset {
            key_table,
            base: plan.base,
            key_cols: plan.key_cols,
            proj_cols: plan.proj_cols,
            schema: plan.out_schema,
            pos: 0,
            key_buf: Vec::new(),
            key_buf_pos: 0,
            keys_done: false,
        });
        Ok(())
    }

    fn fetch_keyset(&mut self) -> Result<Option<Row>> {
        loop {
            // Next key from the buffered block, refilling as needed.
            let key = {
                let (need_refill, done) = match self.state.as_ref() {
                    Some(Delivery::Keyset {
                        key_buf,
                        key_buf_pos,
                        keys_done,
                        ..
                    }) => (*key_buf_pos >= key_buf.len(), *keys_done),
                    _ => unreachable!(),
                };
                if need_refill {
                    if done {
                        return Ok(None);
                    }
                    self.refill_key_buffer()?;
                    continue;
                }
                match self.state.as_mut() {
                    Some(Delivery::Keyset {
                        key_buf,
                        key_buf_pos,
                        pos,
                        ..
                    }) => {
                        let k = key_buf[*key_buf_pos].clone();
                        *key_buf_pos += 1;
                        *pos += 1;
                        k
                    }
                    _ => unreachable!(),
                }
            };

            // SELECT the current row by key (paper: "reads the key from the
            // table and SELECTs the record from the database using this
            // key"). Deleted → skip; updated → fresh data.
            let sql = {
                let (base, key_cols, proj_cols) = match self.state.as_ref() {
                    Some(Delivery::Keyset {
                        base,
                        key_cols,
                        proj_cols,
                        ..
                    }) => (base.clone(), key_cols.clone(), proj_cols.clone()),
                    _ => unreachable!(),
                };
                let preds: Vec<String> = key_cols
                    .iter()
                    .zip(&key)
                    .map(|(c, v)| format!("{c} = {}", value_literal(v)))
                    .collect();
                format!(
                    "SELECT {} FROM {base} WHERE {}",
                    proj_cols.join(", "),
                    preds.join(" AND ")
                )
            };
            let r = self.pc.run_mapped_retry(&sql)?;
            let rows = r.rows();
            if let Some(row) = rows.first() {
                return Ok(Some(row.clone()));
            }
            // Row deleted since the keyset was captured: skip to next key.
        }
    }

    fn refill_key_buffer(&mut self) -> Result<()> {
        let (key_table, pos) = match self.state.as_ref() {
            Some(Delivery::Keyset { key_table, pos, .. }) => (key_table.clone(), *pos),
            _ => unreachable!(),
        };
        let block = self.fetch_block;
        let rows = self.read_window(&key_table, pos, block)?;
        if let Some(Delivery::Keyset {
            key_buf,
            key_buf_pos,
            keys_done,
            ..
        }) = self.state.as_mut()
        {
            *keys_done = rows.len() < block;
            *key_buf = rows;
            *key_buf_pos = 0;
        }
        Ok(())
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
        // cursor can track `last_key`; it is stripped before delivery if the
        // application did not ask for it (see `fetch_dynamic`).
        self.granted = Some(PhoenixCursorKind::Dynamic);
        self.state = Some(Delivery::Dynamic {
            key_table,
            base: plan.base,
            key_col: plan.key_cols[0].clone(),
            proj_cols: plan.proj_cols,
            schema: plan.out_schema,
            pred_sql: select.where_clause.as_ref().map(render_expr),
            pos: 0,
            last_key: None,
            buf: Vec::new(),
            buf_pos: 0,
            done: false,
        });
        Ok(())
    }

    fn fetch_dynamic(&mut self) -> Result<Option<Row>> {
        loop {
            // Serve the buffered range, tracking last_key.
            if let Some(Delivery::Dynamic {
                buf,
                buf_pos,
                last_key,
                proj_cols,
                ..
            }) = self.state.as_mut()
            {
                if *buf_pos < buf.len() {
                    let mut row = buf[*buf_pos].clone();
                    *buf_pos += 1;
                    // Internal layout: proj cols then the key column.
                    let key = row.pop().expect("internal key column present");
                    *last_key = Some(key);
                    debug_assert_eq!(row.len(), proj_cols.len());
                    return Ok(Some(row));
                }
            }
            let done = match self.state.as_ref() {
                Some(Delivery::Dynamic { done, .. }) => *done,
                _ => unreachable!(),
            };
            if done {
                return Ok(None);
            }
            self.refill_dynamic_buffer()?;
        }
    }

    /// Fetch the next key range into the buffer (paper: "a fetch causes
    /// Phoenix/ODBC to use the last record key seen by the application and
    /// the next record key from the table to SELECT a range of rows").
    fn refill_dynamic_buffer(&mut self) -> Result<()> {
        let (key_table, base, key_col, proj_cols, pred_sql, pos, last_key) =
            match self.state.as_ref() {
                Some(Delivery::Dynamic {
                    key_table,
                    base,
                    key_col,
                    proj_cols,
                    pred_sql,
                    pos,
                    last_key,
                    ..
                }) => (
                    key_table.clone(),
                    base.clone(),
                    key_col.clone(),
                    proj_cols.clone(),
                    pred_sql.clone(),
                    *pos,
                    last_key.clone(),
                ),
                _ => unreachable!(),
            };

        // Next pacing key from the persistent key table.
        let next_key = self
            .read_window(&key_table, pos, 1)?
            .pop()
            .map(|mut row| row.swap_remove(0));

        let mut preds = Vec::new();
        if let Some(p) = &pred_sql {
            preds.push(format!("({p})"));
        }
        if let Some(last) = &last_key {
            preds.push(format!("{key_col} > {}", value_literal(last)));
        }
        let tail_block = self.fetch_block;
        let (sql, advance_pos, tail) = match &next_key {
            Some(k) => {
                preds.push(format!("{key_col} <= {}", value_literal(k)));
                (
                    format!(
                        "SELECT {}, {key_col} FROM {base}{} ORDER BY {key_col}",
                        proj_cols.join(", "),
                        where_clause(&preds)
                    ),
                    true,
                    false,
                )
            }
            None => (
                // Key table exhausted: tail query picks up rows inserted
                // beyond the last captured key.
                format!(
                    "SELECT {}, {key_col} FROM {base}{} ORDER BY {key_col} LIMIT {tail_block}",
                    proj_cols.join(", "),
                    where_clause(&preds)
                ),
                false,
                true,
            ),
        };

        let r = self.pc.run_mapped_retry(&sql)?;
        let rows = r.rows().to_vec();
        if let Some(Delivery::Dynamic {
            buf,
            buf_pos,
            pos,
            done,
            last_key,
            ..
        }) = self.state.as_mut()
        {
            if advance_pos {
                *pos += 1;
                if rows.is_empty() {
                    // Every row in (last, next_key] is gone; move the lower
                    // bound forward so the next range starts after it.
                    *last_key = next_key;
                }
            } else if tail && rows.is_empty() {
                *done = true;
            }
            *buf = rows;
            *buf_pos = 0;
        }
        Ok(())
    }

    /// Expose the status-table name so examples can show the testable-state
    /// machinery without reaching into internals.
    pub fn status_table_name() -> &'static str {
        STATUS_TABLE
    }
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
