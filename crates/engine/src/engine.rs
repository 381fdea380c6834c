//! The engine facade: sessions, statement execution, cursors, checkpoints.
//!
//! This is the object the server shares across connection threads. Its
//! lifecycle mirrors a real DBMS process:
//!
//! * [`Engine::open`] performs crash recovery (via the durability layer) and
//!   starts with **zero sessions** — all session state from a previous
//!   incarnation (temp tables, cursors, options, open transactions) is gone.
//! * Statements from a session run under that session's explicit transaction
//!   if one is open, otherwise autocommit; an autocommit statement whose
//!   commit loses a write conflict runs again.
//! * Dropping the engine without [`Engine::checkpoint`] loses nothing
//!   committed: the WAL replays on the next open.
//!
//! # Concurrency
//!
//! Every public method takes `&self`; the engine is shared as an `Arc` and
//! driven from many connection threads at once:
//!
//! * the session catalog is a `RwLock<HashMap>` of `Arc<Mutex<SessionState>>`
//!   entries — looking a session up takes a short shared lock, and only the
//!   *session's own* mutex is held while its statement runs, so different
//!   sessions execute concurrently;
//! * durable reads grab the storage layer's *published snapshot* — an O(1)
//!   `Arc` clone — and execute against it with no lock held, so a long scan
//!   never blocks writers and a queued writer never blocks new readers;
//!   each statement (and each cursor fetch) takes a fresh snapshot. Inside
//!   a transaction, reads and writes go to the transaction's own copy of the
//!   store instead, and only its commit serializes with other sessions'.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use phoenix_sql::ast::{ExecStmt, ObjectName, SelectStmt, Statement};
use phoenix_sql::display::render_statement;
use phoenix_sql::parser::{parse_statement, parse_statements};
use phoenix_storage::db::{CheckpointStats, DbError, Durability, Durable, RecoveryReport, Txn};
use phoenix_storage::store::Store;
use phoenix_storage::types::{Row, Schema, TableDef, Value};

use crate::cursor::{Cursor, CursorId, CursorKind, FetchDir, Fetched};
use crate::error::{EngineError, ErrorCode, Result};
use crate::eval::{eval_const, Params};
use crate::exec::{build_table_def, compute_insert_rows, compute_update, CatalogView};
use crate::metrics::EngineMetrics;
use crate::plan::{dml_rows, execute_select, Catalog};
use crate::session::{SessionId, SessionState, SysVars};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Commit durability for the WAL.
    pub durability: Durability,
    /// Take a checkpoint automatically once this many log records have
    /// accumulated. `None` disables.
    pub checkpoint_every: Option<u64>,
    /// Cap on concurrently open sessions: admission control. A login that
    /// would exceed the cap is refused with [`ErrorCode::Busy`] — a
    /// retryable error by the driver's taxonomy — until a session closes.
    /// `None` (the default) disables the cap.
    pub max_sessions: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            durability: Durability::Fsync,
            checkpoint_every: Some(100_000),
            max_sessions: None,
        }
    }
}

/// What a statement produced.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// A complete (default) result set.
    ResultSet {
        /// Result metadata.
        schema: Schema,
        /// All result rows.
        rows: Vec<Row>,
    },
    /// Rows affected by a data-modification statement.
    RowsAffected(u64),
    /// DDL / SET / transaction control.
    Done,
}

/// Statement result: outcome plus any server messages generated (PRINT).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecResult {
    /// What the statement produced.
    pub outcome: ExecOutcome,
    /// Server messages generated during execution (PRINT).
    pub messages: Vec<String>,
}

impl ExecResult {
    fn done() -> ExecResult {
        ExecResult {
            outcome: ExecOutcome::Done,
            messages: Vec::new(),
        }
    }

    fn rows_affected(n: u64) -> ExecResult {
        ExecResult {
            outcome: ExecOutcome::RowsAffected(n),
            messages: Vec::new(),
        }
    }

    /// Rows of a result set, panicking otherwise (test convenience).
    pub fn rows(&self) -> &[Row] {
        match &self.outcome {
            ExecOutcome::ResultSet { rows, .. } => rows,
            other => panic!("expected result set, got {other:?}"),
        }
    }

    /// Rows-affected count, panicking otherwise (test convenience).
    pub fn affected(&self) -> u64 {
        match &self.outcome {
            ExecOutcome::RowsAffected(n) => *n,
            other => panic!("expected rows-affected, got {other:?}"),
        }
    }
}

/// The database engine. Shared across connection threads (`&self` API).
pub struct Engine {
    durable: Durable,
    /// Session catalog. The outer lock is held only to look up / insert /
    /// remove entries; each session's statements serialize on its own mutex.
    sessions: RwLock<HashMap<SessionId, Arc<Mutex<SessionState>>>>,
    next_session: AtomicU64,
    next_cursor: AtomicU64,
    config: EngineConfig,
    /// The metrics of the instance the engine was opened in.
    metrics: EngineMetrics,
}

impl Engine {
    /// Open (and recover) the database in `dir`. A directory a promoted
    /// standby fenced is refused (`phoenix_storage::db::DbError::Fenced`).
    pub fn open(dir: impl AsRef<std::path::Path>, config: EngineConfig) -> Result<Engine> {
        Ok(Engine {
            durable: Durable::open(dir, config.durability)?,
            sessions: RwLock::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            next_cursor: AtomicU64::new(1),
            config,
            metrics: EngineMetrics::new(&phoenix_obs::current()),
        })
    }

    /// The durable store's current published snapshot (tests, tooling).
    /// O(1), lock-free to hold: the image is immutable and later mutations
    /// publish new snapshots without touching this one.
    pub fn snapshot(&self) -> Arc<Store> {
        self.durable.snapshot()
    }

    /// What recovery did when this engine opened (bench/tooling probe).
    pub fn recovery_report(&self) -> &RecoveryReport {
        self.durable.recovery_report()
    }

    /// Stats from the most recent checkpoint (bench/tooling probe).
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        self.durable.checkpoint_stats()
    }

    /// Number of `sync_data` calls the WAL has issued (group-commit probe).
    pub fn wal_sync_count(&self) -> u64 {
        self.durable.wal_sync_count()
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.read().len()
    }

    // -- session lifecycle ---------------------------------------------------

    /// Open a new session for `user`, unconditionally (no session cap).
    /// Servers that honor `max_sessions` go through
    /// [`Engine::try_create_session`] instead.
    pub fn create_session(&self, user: &str) -> SessionId {
        self.install_session(&mut self.sessions.write(), user)
    }

    /// Open a session for `user` unless `max_sessions` are already open, in
    /// which case the caller gets a retryable [`ErrorCode::Busy`]. The cap
    /// check and the insert happen under one catalog write lock, so
    /// concurrent logins cannot all pass a stale check.
    pub fn try_create_session(&self, user: &str) -> Result<SessionId> {
        let mut sessions = self.sessions.write();
        match self.config.max_sessions {
            Some(cap) if sessions.len() >= cap => {
                self.metrics.sessions_refused.inc();
                Err(EngineError::new(
                    ErrorCode::Busy,
                    format!("session limit {cap} reached; retry"),
                ))
            }
            _ => Ok(self.install_session(&mut sessions, user)),
        }
    }

    fn install_session(
        &self,
        sessions: &mut HashMap<SessionId, Arc<Mutex<SessionState>>>,
        user: &str,
    ) -> SessionId {
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        sessions.insert(id, Arc::new(Mutex::new(SessionState::new(id, user))));
        let m = &self.metrics;
        m.sessions_opened.inc();
        m.sessions_active.inc();
        id
    }

    /// Close a session: roll back any open transaction, drop cursors and temp
    /// objects. (Temporary tables "are deleted when a session terminates for
    /// any reason" — the property Phoenix's liveness probe relies on.)
    ///
    /// If a statement is in flight on the session, this waits for it to
    /// finish before tearing the session down.
    pub fn close_session(&self, sid: SessionId) -> Result<()> {
        let session = self
            .sessions
            .write()
            .remove(&sid)
            .ok_or_else(|| no_session(sid))?;
        // The open transaction, if any, rolls back as the session drops.
        let temp_tables = session.lock().temp.store().tables().count() as i64;
        let m = &self.metrics;
        m.sessions_active.dec();
        m.temp_tables.add(-temp_tables);
        Ok(())
    }

    /// Look up a session and run `f` with its state mutex held. The catalog
    /// lock is released before the session's own lock is taken, so a
    /// statement on one session never blocks a lookup of another.
    fn with_session_state<R>(
        &self,
        sid: SessionId,
        f: impl FnOnce(&mut SessionState) -> Result<R>,
    ) -> Result<R> {
        let entry = self
            .sessions
            .read()
            .get(&sid)
            .cloned()
            .ok_or_else(|| no_session(sid))?;
        let mut state = entry.lock();
        f(&mut state)
    }

    /// Current value of a session's SET option (observability/test hook; the
    /// engine has no `@@name` surface for arbitrary options).
    pub fn session_option(&self, sid: SessionId, name: &str) -> Result<Option<Value>> {
        self.with_session_state(sid, |s| Ok(s.option(name).cloned()))
    }

    // -- statement execution --------------------------------------------------

    /// Parse and execute a single statement.
    pub fn execute(&self, sid: SessionId, sql: &str) -> Result<ExecResult> {
        let stmt = parse_statement(sql)?;
        self.execute_stmt(sid, &stmt)
    }

    /// Execute a batch (semicolon-separated). Results are returned per
    /// statement; execution stops at the first error.
    pub fn execute_batch(&self, sid: SessionId, sql: &str) -> Result<Vec<ExecResult>> {
        let stmts = parse_statements(sql)?;
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in &stmts {
            out.push(self.execute_stmt(sid, stmt)?);
        }
        Ok(out)
    }

    /// Execute an already-parsed statement.
    pub fn execute_stmt(&self, sid: SessionId, stmt: &Statement) -> Result<ExecResult> {
        let result = self.with_session_state(sid, |session| {
            let _t = phoenix_obs::Timer::new(self.metrics.stmt_latency(stmt));
            self.exec_in(session, stmt, None, 0)
        });
        // Auto-checkpoint runs with no session lock held, so this session's
        // next statement never waits for it.
        if result.is_ok() {
            self.maybe_auto_checkpoint();
        }
        result
    }

    fn exec_in(
        &self,
        session: &mut SessionState,
        stmt: &Statement,
        args: Option<&HashMap<String, Value>>,
        depth: usize,
    ) -> Result<ExecResult> {
        // `@@NAME` binds to what the previous statement left in the session
        // (the copy lets this statement mutate the session while it binds).
        // That is what lets a batch record its own DML outcome server-side:
        // the wrapped-request pattern.
        let sys = session.sys.clone();
        let params = Params {
            args,
            sys: Some(&sys),
        };
        let result = self.exec_dispatch(session, stmt, params, depth);
        if let Ok(r) = &result {
            session.sys = SysVars::after(r);
        }
        result
    }

    fn exec_dispatch(
        &self,
        session: &mut SessionState,
        stmt: &Statement,
        params: Params<'_>,
        depth: usize,
    ) -> Result<ExecResult> {
        if depth > 8 {
            return Err(EngineError::unsupported("procedure call nesting too deep"));
        }
        match stmt {
            Statement::Begin => {
                if session.txn.is_some() {
                    return Err(EngineError::new(ErrorCode::Txn, "transaction already open"));
                }
                session.txn = Some(self.durable.begin_txn());
                Ok(ExecResult::done())
            }
            Statement::Commit => {
                let txn = session
                    .txn
                    .take()
                    .ok_or_else(|| EngineError::new(ErrorCode::Txn, "no open transaction"))?;
                self.durable.commit_txn(txn)?;
                Ok(ExecResult::done())
            }
            Statement::Rollback => {
                session
                    .txn
                    .take()
                    .ok_or_else(|| EngineError::new(ErrorCode::Txn, "no open transaction"))?;
                Ok(ExecResult::done())
            }
            Statement::Set { name, value } => {
                session.set_option(name, eval_const(value, params)?);
                Ok(ExecResult::done())
            }
            Statement::Print(e) => Ok(ExecResult {
                outcome: ExecOutcome::Done,
                messages: vec![eval_const(e, params)?.to_string()],
            }),
            Statement::Select(sel) => {
                let durable = self.durable_image(&session.txn);
                let view = CatalogView {
                    durable: &durable,
                    temp: session.temp.store(),
                };
                let rs = execute_select(sel, &view, params)?;
                Ok(ExecResult {
                    outcome: ExecOutcome::ResultSet {
                        schema: rs.schema,
                        rows: rs.rows,
                    },
                    messages: Vec::new(),
                })
            }
            Statement::Insert(ins) => {
                let temp = ins.table.is_temp();
                let n = self.with_txn(session, temp, |txn, other| {
                    let view = CatalogView::around(temp, txn.store(), other);
                    let def = view_def(&view, &ins.table)?;
                    let rows = compute_insert_rows(ins, &def, &view, params)?;
                    let n = rows.len() as u64;
                    // One record for the whole statement, however many rows
                    // it carries.
                    txn.insert_many(&ins.table.canonical(), rows)?;
                    Ok(n)
                })?;
                Ok(ExecResult::rows_affected(n))
            }
            Statement::Update(upd) => {
                let n = self.with_txn(session, upd.table.is_temp(), |txn, _| {
                    let changes = compute_update(upd, txn.store(), params)?;
                    let n = changes.len() as u64;
                    txn.update_many(&upd.table.canonical(), changes)?;
                    Ok(n)
                })?;
                Ok(ExecResult::rows_affected(n))
            }
            Statement::Delete(del) => {
                let n = self.with_txn(session, del.table.is_temp(), |txn, _| {
                    let ids = dml_rows(&del.table, del.where_clause.as_ref(), txn.store(), params)?;
                    txn.delete_many(&del.table.canonical(), &ids)?;
                    Ok(ids.len() as u64)
                })?;
                Ok(ExecResult::rows_affected(n))
            }
            Statement::CreateTable(c) => {
                let def = build_table_def(c)?;
                self.with_txn(session, c.name.is_temp(), |txn, _| {
                    Ok(txn.create_table(def.clone())?)
                })?;
                if c.name.is_temp() {
                    self.metrics.temp_tables.inc();
                }
                Ok(ExecResult::done())
            }
            Statement::CreateTableAs { name, query } => {
                if name.is_temp() {
                    return Err(EngineError::unsupported(
                        "CREATE TABLE … AS SELECT makes a permanent table, not a temporary one",
                    ));
                }
                // One statement: the query runs on the transaction's own
                // image, its result schema is the table's definition, and its
                // rows go in as one record — committed together or not at all.
                let key = name.canonical();
                let n = self.with_txn(session, false, |txn, temp| {
                    let view = CatalogView::around(false, txn.store(), temp);
                    let rs = execute_select(query, &view, params)?;
                    let n = rs.rows.len() as u64;
                    txn.create_table(TableDef::new(key.clone(), rs.schema))?;
                    txn.insert_many(&key, rs.rows)?;
                    Ok(n)
                })?;
                Ok(ExecResult::rows_affected(n))
            }
            Statement::DropTable { name, if_exists } => {
                let key = name.canonical();
                let dropped = self.with_txn(session, name.is_temp(), |txn, _| {
                    let exists = txn.store().has_table(&key);
                    if exists {
                        txn.drop_table(&key)?;
                    }
                    Ok(exists)
                })?;
                if !dropped && !*if_exists {
                    return Err(EngineError::not_found(format!("no such table '{name}'")));
                }
                if dropped && name.is_temp() {
                    self.metrics.temp_tables.dec();
                }
                Ok(ExecResult::done())
            }
            Statement::CreateProc(p) => {
                // Procedures are stored as their rendered CREATE text and
                // re-parsed at EXEC time.
                let sql = render_statement(stmt);
                self.with_txn(session, p.name.is_temp(), |txn, _| {
                    Ok(txn.create_proc(&p.name.canonical(), &sql)?)
                })?;
                Ok(ExecResult::done())
            }
            Statement::DropProc { name, if_exists } => {
                let key = name.canonical();
                let dropped = self.with_txn(session, name.is_temp(), |txn, _| {
                    let exists = txn.store().has_proc(&key);
                    if exists {
                        txn.drop_proc(&key)?;
                    }
                    Ok(exists)
                })?;
                if !dropped && !*if_exists {
                    return Err(EngineError::not_found(format!(
                        "no such procedure '{name}'"
                    )));
                }
                Ok(ExecResult::done())
            }
            Statement::CreateIndex {
                name,
                table,
                column,
            } => {
                self.with_txn(session, table.is_temp(), |txn, other| {
                    let data = Catalog::table(txn.store(), table)?;
                    let col = data.def.schema.index_of(column).ok_or_else(|| {
                        EngineError::column(format!("no column '{column}' in '{table}'"))
                    })?;
                    // Index names resolve across both stores at DROP time;
                    // enforce uniqueness across both here so that stays
                    // unambiguous.
                    if txn.store().find_index_owner(name).is_some()
                        || other.find_index_owner(name).is_some()
                    {
                        return Err(EngineError::new(
                            ErrorCode::AlreadyExists,
                            format!("index '{name}' already exists"),
                        ));
                    }
                    Ok(txn.create_index(&table.canonical(), name, col)?)
                })?;
                self.metrics.index_ddl.inc();
                Ok(ExecResult::done())
            }
            Statement::DropIndex { name, if_exists } => {
                // Index names are not table-qualified: resolve the owning
                // table, session temp store first.
                let temp = session.temp.store().find_index_owner(name).is_some();
                let dropped = self.with_txn(session, temp, |txn, _| {
                    let owner = txn.store().find_index_owner(name);
                    let Some(owner) = owner.map(|t| t.def.name.clone()) else {
                        return Ok(false);
                    };
                    txn.drop_index(&owner, name)?;
                    Ok(true)
                })?;
                if !dropped {
                    if *if_exists {
                        return Ok(ExecResult::done());
                    }
                    return Err(EngineError::not_found(format!("no such index '{name}'")));
                }
                self.metrics.index_ddl.inc();
                Ok(ExecResult::done())
            }
            Statement::Explain(inner) => {
                let durable = self.durable_image(&session.txn);
                let view = CatalogView {
                    durable: &durable,
                    temp: session.temp.store(),
                };
                let rs = crate::plan::explain_statement(inner, &view, params)?;
                Ok(ExecResult {
                    outcome: ExecOutcome::ResultSet {
                        schema: rs.schema,
                        rows: rs.rows,
                    },
                    messages: Vec::new(),
                })
            }
            Statement::Exec(e) => self.exec_proc(session, e, params, depth),
        }
    }

    /// The durable image a statement reads: the open transaction's own
    /// copy, its writes included, or else the published snapshot.
    fn durable_image<'t>(&self, txn: &'t Option<Txn>) -> Cow<'t, Store> {
        match txn {
            Some(txn) => Cow::Borrowed(txn.store()),
            None => Cow::Owned(Store::clone(&self.durable.snapshot())),
        }
    }

    /// Run `body` in the transaction a statement writes through. For a
    /// `#temp` object that is the session's volatile one, once: outside any
    /// explicit transaction, so a `ROLLBACK` keeps what it wrote. Otherwise
    /// it is the session's open transaction, or else an autocommit one of
    /// its own: committed when `body` succeeds, dropped when it fails, and
    /// run again from the start, on the store as it then stands, when the
    /// commit loses a write conflict. So an autocommit statement never
    /// surfaces [`ErrorCode::Conflict`]; a `COMMIT` of an explicit
    /// transaction does. `body` also gets the other store to read: the
    /// durable image for a temp write, the temp store for a durable one.
    fn with_txn<R>(
        &self,
        session: &mut SessionState,
        temp: bool,
        mut body: impl FnMut(&mut Txn, &Store) -> Result<R>,
    ) -> Result<R> {
        if temp {
            let durable = self.durable_image(&session.txn);
            return body(&mut session.temp, &durable);
        }
        if let Some(txn) = &mut session.txn {
            return body(txn, session.temp.store());
        }
        loop {
            let mut txn = self.durable.begin_txn();
            let result = body(&mut txn, session.temp.store())?;
            match self.durable.commit_txn(txn) {
                Ok(()) => return Ok(result),
                Err(DbError::Conflict(_)) => self.metrics.autocommit_reruns.inc(),
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn exec_proc(
        &self,
        session: &mut SessionState,
        call: &ExecStmt,
        outer_params: Params<'_>,
        depth: usize,
    ) -> Result<ExecResult> {
        let key = call.name.canonical();
        let sql = if call.name.is_temp() {
            session.temp.store().proc(&key).map(str::to_string)
        } else {
            self.durable_image(&session.txn)
                .proc(&key)
                .map(str::to_string)
        }
        .ok_or_else(|| EngineError::not_found(format!("no such procedure '{}'", call.name)))?;

        let parsed = parse_statement(&sql)?;
        let proc = match parsed {
            Statement::CreateProc(p) => p,
            other => {
                return Err(EngineError::internal(format!(
                    "stored procedure text is not CREATE PROCEDURE: {other:?}"
                )))
            }
        };
        if call.args.len() != proc.params.len() {
            return Err(EngineError::new(
                ErrorCode::Type,
                format!(
                    "procedure '{}' takes {} argument(s), got {}",
                    call.name,
                    proc.params.len(),
                    call.args.len()
                ),
            ));
        }
        // Bind arguments (evaluated in the caller's parameter scope).
        let mut params = HashMap::with_capacity(proc.params.len());
        for (p, arg) in proc.params.iter().zip(&call.args) {
            params.insert(p.name.clone(), eval_const(arg, outer_params)?);
        }

        let mut messages = Vec::new();
        let mut outcome = ExecOutcome::Done;
        for stmt in &proc.body {
            let r = self.exec_in(session, stmt, Some(&params), depth + 1)?;
            messages.extend(r.messages);
            match r.outcome {
                ExecOutcome::Done => {}
                other => outcome = other,
            }
        }
        Ok(ExecResult { outcome, messages })
    }

    // -- cursors ---------------------------------------------------------------

    /// Open a server cursor over a SELECT.
    pub fn open_cursor(
        &self,
        sid: SessionId,
        select: &SelectStmt,
        kind: CursorKind,
    ) -> Result<(CursorId, Schema, CursorKind)> {
        self.with_session_state(sid, |session| {
            let id = self.next_cursor.fetch_add(1, Ordering::Relaxed);
            let result = {
                let durable = self.durable_image(&session.txn);
                let view = CatalogView {
                    durable: &durable,
                    temp: session.temp.store(),
                };
                Cursor::open(id, select, kind, &view)
            };
            match result {
                Ok(cursor) => {
                    let schema = cursor.schema.clone();
                    let granted = cursor.kind;
                    session.cursors.insert(id, cursor);
                    self.metrics.cursor_opens.inc();
                    Ok((id, schema, granted))
                }
                Err(e) => Err(e),
            }
        })
    }

    /// Fetch from an open cursor.
    pub fn fetch(&self, sid: SessionId, cid: CursorId, dir: FetchDir, n: usize) -> Result<Fetched> {
        self.with_session_state(sid, |session| match session.cursors.remove(&cid) {
            None => Err(EngineError::new(
                ErrorCode::Cursor,
                format!("no such cursor {cid}"),
            )),
            Some(mut cursor) => {
                self.metrics.cursor_fetches.inc();
                let r = {
                    // A fresh image per fetch: keyset/dynamic cursors see
                    // data as of this fetch, and the scan holds no lock.
                    let durable = self.durable_image(&session.txn);
                    let view = CatalogView {
                        durable: &durable,
                        temp: session.temp.store(),
                    };
                    cursor.fetch(dir, n, &view)
                };
                session.cursors.insert(cid, cursor);
                r
            }
        })
    }

    /// Close an open cursor.
    pub fn close_cursor(&self, sid: SessionId, cid: CursorId) -> Result<()> {
        self.with_session_state(sid, |session| {
            session
                .cursors
                .remove(&cid)
                .map(|_| ())
                .ok_or_else(|| EngineError::new(ErrorCode::Cursor, format!("no such cursor {cid}")))
        })
    }

    /// Cross-check every durable secondary index against its table's row
    /// image. Chaos sweeps call this after crash recovery.
    pub fn verify_indexes(&self) -> std::result::Result<(), String> {
        self.durable.snapshot().verify_indexes()
    }

    /// Describe a table visible to the session: schema plus primary-key
    /// column names (the catalog call behind the wire `Describe` request).
    pub fn describe(&self, sid: SessionId, table: &ObjectName) -> Result<(Schema, Vec<String>)> {
        self.with_session_state(sid, |session| {
            let durable = self.durable_image(&session.txn);
            let view = CatalogView {
                durable: &durable,
                temp: session.temp.store(),
            };
            let data = view.table(table)?;
            let pk = data
                .def
                .primary_key
                .iter()
                .map(|&i| data.def.schema.columns[i].name.clone())
                .collect();
            Ok((data.def.schema.clone(), pk))
        })
    }

    // -- maintenance -------------------------------------------------------------

    /// Take a checkpoint now. Open transactions have logged nothing, so
    /// they do not hold it up.
    pub fn checkpoint(&self) -> Result<()> {
        Ok(self.durable.checkpoint()?)
    }

    /// Checkpoint once `checkpoint_every` log records have accumulated.
    /// Best effort: a failure surfaces on the next explicit
    /// [`Engine::checkpoint`].
    fn maybe_auto_checkpoint(&self) {
        if let Some(every) = self.config.checkpoint_every {
            if self.durable.log_records_since_checkpoint() >= every {
                let _ = self.durable.checkpoint();
            }
        }
    }
}

fn no_session(sid: SessionId) -> EngineError {
    EngineError::new(ErrorCode::NoSession, format!("no session {sid}"))
}

/// Look up a table definition through the view (shared out so the view's
/// borrow can end before mutation starts).
fn view_def(view: &CatalogView<'_>, name: &ObjectName) -> Result<Arc<TableDef>> {
    Ok(view.table(name)?.def.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_sql::ast::MESSAGE_SEPARATOR;
    use phoenix_storage::types::DataType;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir() -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d =
            std::env::temp_dir().join(format!("phoenix-engine-test-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn engine() -> (Engine, PathBuf) {
        let dir = temp_dir();
        (Engine::open(&dir, EngineConfig::default()).unwrap(), dir)
    }

    fn setup(e: &Engine, sid: SessionId) {
        e.execute(
            sid,
            "CREATE TABLE customer (id INT PRIMARY KEY, name TEXT, nation INT)",
        )
        .unwrap();
        e.execute(
            sid,
            "INSERT INTO customer VALUES (1, 'Smith', 10), (2, 'Jones', 10), (3, 'Smith', 20)",
        )
        .unwrap();
    }

    #[test]
    fn end_to_end_select() {
        let (e, dir) = engine();
        let sid = e.create_session("app");
        setup(&e, sid);
        let r = e
            .execute(sid, "SELECT name FROM customer WHERE id = 2")
            .unwrap();
        assert_eq!(r.rows(), &[vec![Value::Text("Jones".into())]]);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn rowcount_sysvar_tracks_previous_statement() {
        let (e, dir) = engine();
        let sid = e.create_session("app");
        setup(&e, sid);
        e.execute(sid, "CREATE TABLE audit (sid TEXT, n INT)")
            .unwrap();
        // The wrapped-request pattern: a batch whose status INSERT records
        // the preceding DML's affected count via @@ROWCOUNT.
        let results = e
            .execute_batch(
                sid,
                "BEGIN; UPDATE customer SET nation = 99 WHERE name = 'Smith'; \
                 INSERT INTO audit VALUES ('s1', @@ROWCOUNT); COMMIT",
            )
            .unwrap();
        assert_eq!(results[1].affected(), 2);
        let r = e
            .execute(sid, "SELECT n FROM audit WHERE sid = 's1'")
            .unwrap();
        assert_eq!(r.rows(), &[vec![Value::Int(2)]]);
        // A non-DML statement resets @@ROWCOUNT to 0.
        e.execute(sid, "BEGIN").unwrap();
        e.execute(sid, "INSERT INTO audit VALUES ('s2', @@ROWCOUNT)")
            .unwrap();
        e.execute(sid, "COMMIT").unwrap();
        let r = e
            .execute(sid, "SELECT n FROM audit WHERE sid = 's2'")
            .unwrap();
        assert_eq!(r.rows(), &[vec![Value::Int(0)]]);
        // @@ROWCOUNT is per-session: a fresh session starts at 0.
        let sid2 = e.create_session("app");
        e.execute(sid2, "INSERT INTO audit VALUES ('s3', @@ROWCOUNT)")
            .unwrap();
        let r = e
            .execute(sid, "SELECT n FROM audit WHERE sid = 's3'")
            .unwrap();
        assert_eq!(r.rows(), &[vec![Value::Int(0)]]);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn messages_sysvar_carries_the_previous_statements_messages() {
        let (e, dir) = engine();
        let sid = e.create_session("app");
        setup(&e, sid);
        e.execute(sid, "CREATE TABLE status (tag INT, n INT, m TEXT)")
            .unwrap();
        e.execute(
            sid,
            "CREATE PROCEDURE noisy AS BEGIN PRINT 'one'; \
             UPDATE customer SET nation = 7 WHERE name = 'Smith'; PRINT 'two' END",
        )
        .unwrap();
        // The wrapper's status insert sees the EXEC's count and every PRINT.
        let results = e
            .execute_batch(
                sid,
                "BEGIN; EXEC noisy; \
                 INSERT INTO status VALUES (1, @@ROWCOUNT, @@MESSAGES); COMMIT",
            )
            .unwrap();
        assert_eq!(results[1].messages, vec!["one", "two"]);
        let r = e.execute(sid, "SELECT n, m FROM status").unwrap();
        assert_eq!(
            r.rows(),
            &[vec![
                Value::Int(2),
                Value::Text(format!("one{MESSAGE_SEPARATOR}two"))
            ]]
        );
        // A plain DML has no messages.
        e.execute(sid, "UPDATE customer SET nation = 8 WHERE id = 1")
            .unwrap();
        e.execute(sid, "INSERT INTO status VALUES (2, @@ROWCOUNT, @@MESSAGES)")
            .unwrap();
        let r = e
            .execute(sid, "SELECT n, m FROM status WHERE tag = 2")
            .unwrap();
        assert_eq!(r.rows(), &[vec![Value::Int(1), Value::Text(String::new())]]);
        // Per session: another session's PRINT is not this one's message.
        let sid2 = e.create_session("app");
        e.execute(sid2, "PRINT 'elsewhere'").unwrap();
        e.execute(sid, "INSERT INTO status VALUES (3, @@ROWCOUNT, @@MESSAGES)")
            .unwrap();
        e.execute(
            sid2,
            "INSERT INTO status VALUES (4, @@ROWCOUNT, @@MESSAGES)",
        )
        .unwrap();
        let r = e
            .execute(sid, "SELECT tag, m FROM status WHERE tag >= 3 ORDER BY tag")
            .unwrap();
        assert_eq!(
            r.rows(),
            &[
                vec![Value::Int(3), Value::Text(String::new())],
                vec![Value::Int(4), Value::Text("elsewhere".into())],
            ]
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn sysvars_are_readable_in_a_select() {
        let (e, dir) = engine();
        let sid = e.create_session("app");
        setup(&e, sid);
        e.execute(sid, "UPDATE customer SET nation = 1 WHERE id <= 2")
            .unwrap();
        let r = e
            .execute(sid, "SELECT @@ROWCOUNT, @@MESSAGES, @@ROWCOUNT + 1")
            .unwrap();
        assert_eq!(
            r.rows(),
            &[vec![
                Value::Int(2),
                Value::Text(String::new()),
                Value::Int(3)
            ]]
        );
        let ExecOutcome::ResultSet { schema, .. } = &r.outcome else {
            panic!("{r:?}");
        };
        let types: Vec<DataType> = schema.columns.iter().map(|c| c.dtype).collect();
        assert_eq!(types, [DataType::Int, DataType::Text, DataType::Int]);
        // The SELECT itself returned one row.
        let r = e.execute(sid, "SELECT @@ROWCOUNT").unwrap();
        assert_eq!(r.rows(), &[vec![Value::Int(1)]]);
        assert!(e.execute(sid, "SELECT @@NO_SUCH_VAR").is_err());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn dml_counts() {
        let (e, dir) = engine();
        let sid = e.create_session("app");
        setup(&e, sid);
        assert_eq!(
            e.execute(sid, "UPDATE customer SET nation = 30 WHERE name = 'Smith'")
                .unwrap()
                .affected(),
            2
        );
        assert_eq!(
            e.execute(sid, "DELETE FROM customer WHERE nation = 30")
                .unwrap()
                .affected(),
            2
        );
        assert_eq!(
            e.execute(sid, "INSERT INTO customer (id, name) VALUES (9, 'New')")
                .unwrap()
                .affected(),
            1
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn explicit_txn_commit_and_rollback() {
        let (e, dir) = engine();
        let sid = e.create_session("app");
        setup(&e, sid);
        e.execute(sid, "BEGIN").unwrap();
        e.execute(sid, "DELETE FROM customer WHERE id = 1").unwrap();
        e.execute(sid, "ROLLBACK").unwrap();
        assert_eq!(
            e.execute(sid, "SELECT COUNT(*) FROM customer")
                .unwrap()
                .rows()[0][0],
            Value::Int(3)
        );

        e.execute(sid, "BEGIN").unwrap();
        e.execute(sid, "DELETE FROM customer WHERE id = 1").unwrap();
        e.execute(sid, "COMMIT").unwrap();
        assert_eq!(
            e.execute(sid, "SELECT COUNT(*) FROM customer")
                .unwrap()
                .rows()[0][0],
            Value::Int(2)
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn txn_misuse_errors() {
        let (e, dir) = engine();
        let sid = e.create_session("app");
        assert_eq!(e.execute(sid, "COMMIT").unwrap_err().code, ErrorCode::Txn);
        e.execute(sid, "BEGIN").unwrap();
        assert_eq!(e.execute(sid, "BEGIN").unwrap_err().code, ErrorCode::Txn);
        e.execute(sid, "ROLLBACK").unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn autocommit_failure_rolls_back() {
        let (e, dir) = engine();
        let sid = e.create_session("app");
        setup(&e, sid);
        // Second tuple violates the primary key; the whole statement must
        // roll back.
        let err = e
            .execute(
                sid,
                "INSERT INTO customer VALUES (50, 'A', 1), (1, 'Dup', 1)",
            )
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::Constraint);
        assert_eq!(
            e.execute(sid, "SELECT COUNT(*) FROM customer")
                .unwrap()
                .rows()[0][0],
            Value::Int(3)
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn temp_tables_are_session_scoped_and_volatile() {
        let (e, dir) = engine();
        let s1 = e.create_session("a");
        let s2 = e.create_session("b");
        e.execute(s1, "CREATE TABLE #w (v INT)").unwrap();
        e.execute(s1, "INSERT INTO #w VALUES (1), (2)").unwrap();
        assert_eq!(
            e.execute(s1, "SELECT COUNT(*) FROM #w").unwrap().rows()[0][0],
            Value::Int(2)
        );
        // Invisible to the other session.
        assert_eq!(
            e.execute(s2, "SELECT * FROM #w").unwrap_err().code,
            ErrorCode::NotFound
        );
        // Gone when the session closes.
        e.close_session(s1).unwrap();
        let s3 = e.create_session("a");
        assert_eq!(
            e.execute(s3, "SELECT * FROM #w").unwrap_err().code,
            ErrorCode::NotFound
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Regression (cap race): the `max_sessions` check and the catalog insert
    /// happen under one write-lock critical section, so a burst of concurrent
    /// logins can never push the open-session count past the cap.
    #[test]
    fn concurrent_logins_never_exceed_cap() {
        const CAP: usize = 4;
        const LOGINS: usize = 16;
        let dir = temp_dir();
        let config = EngineConfig {
            max_sessions: Some(CAP),
            ..EngineConfig::default()
        };
        let e = Arc::new(Engine::open(&dir, config).unwrap());
        let barrier = Arc::new(std::sync::Barrier::new(LOGINS));
        let peak = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..LOGINS)
            .map(|_| {
                let e = Arc::clone(&e);
                let barrier = Arc::clone(&barrier);
                let peak = Arc::clone(&peak);
                std::thread::spawn(move || {
                    barrier.wait();
                    // Busy is the expected outcome past the cap; open
                    // sessions above the cap are not.
                    let _ = e.try_create_session("storm");
                    peak.fetch_max(e.session_count() as u64, Ordering::Relaxed);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let peak = peak.load(Ordering::Relaxed);
        assert!(
            peak <= CAP as u64,
            "open sessions peaked at {peak} > cap {CAP}"
        );
        assert_eq!(e.session_count(), CAP);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn temp_insert_can_read_durable() {
        let (e, dir) = engine();
        let sid = e.create_session("app");
        setup(&e, sid);
        e.execute(sid, "CREATE TABLE #copy (id INT, name TEXT)")
            .unwrap();
        let n = e
            .execute(sid, "INSERT INTO #copy SELECT id, name FROM customer")
            .unwrap()
            .affected();
        assert_eq!(n, 3);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn procedures_with_params() {
        let (e, dir) = engine();
        let sid = e.create_session("app");
        setup(&e, sid);
        e.execute(
            sid,
            "CREATE PROCEDURE by_name (@n TEXT) AS SELECT id FROM customer WHERE name = @n",
        )
        .unwrap();
        let r = e.execute(sid, "EXEC by_name ('Smith')").unwrap();
        assert_eq!(r.rows().len(), 2);
        // Wrong arity.
        assert_eq!(
            e.execute(sid, "EXEC by_name").unwrap_err().code,
            ErrorCode::Type
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn capture_proc_shape_runs_atomically() {
        // The paper's capture: a procedure whose body is INSERT … SELECT.
        let (e, dir) = engine();
        let sid = e.create_session("app");
        setup(&e, sid);
        e.execute(sid, "CREATE TABLE phoenix.rs_1 (id INT, name TEXT)")
            .unwrap();
        e.execute(
            sid,
            "CREATE PROCEDURE phoenix.cap_1 AS INSERT INTO phoenix.rs_1 SELECT id, name FROM customer WHERE name = 'Smith'",
        )
        .unwrap();
        let r = e.execute(sid, "EXEC phoenix.cap_1").unwrap();
        assert_eq!(r.affected(), 2);
        let r = e.execute(sid, "SELECT * FROM phoenix.rs_1").unwrap();
        assert_eq!(r.rows().len(), 2);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// The schema and rows a statement's result set carries.
    fn result_set(r: ExecResult) -> (Schema, Vec<Row>) {
        match r.outcome {
            ExecOutcome::ResultSet { schema, rows } => (schema, rows),
            other => panic!("expected a result set, got {other:?}"),
        }
    }

    /// The kinds of the records in the live log, in log order.
    fn logged_kinds(dir: &std::path::Path) -> Vec<&'static str> {
        use phoenix_storage::record::LogRecord;
        phoenix_storage::wal::Wal::read_all(Durable::wal_path(dir))
            .unwrap()
            .iter()
            .map(|frame| match LogRecord::decode(&frame[8..]).unwrap() {
                LogRecord::CreateTable { .. } => "CreateTable",
                LogRecord::InsertMany { .. } => "InsertMany",
                LogRecord::Commit { .. } => "Commit",
                _ => "other",
            })
            .collect()
    }

    /// `CREATE TABLE … AS SELECT` is one statement: it logs the table and
    /// its rows in one commit, takes its definition from the query's
    /// result (expression and duplicate names included, read back by
    /// position), and survives a restart.
    #[test]
    fn create_table_as_select_logs_one_commit_and_survives_reopen() {
        let dir = temp_dir();
        let queries = [
            "SELECT id, name FROM customer WHERE name = 'Smith' ORDER BY id",
            "SELECT COUNT(*), SUM(nation) FROM customer",
            "SELECT a.id, b.id FROM customer a, customer b WHERE a.id = b.id",
            "SELECT id, name FROM customer WHERE id < 0",
        ];
        let mut expected = Vec::new();
        {
            let e = Engine::open(&dir, EngineConfig::default()).unwrap();
            let sid = e.create_session("app");
            setup(&e, sid);
            for (i, q) in queries.iter().enumerate() {
                let (schema, rows) = result_set(e.execute(sid, q).unwrap());
                let before = logged_kinds(&dir).len();
                let r = e
                    .execute(sid, &format!("CREATE TABLE phoenix.rs_{i} AS {q}"))
                    .unwrap();
                assert_eq!(r.affected(), rows.len() as u64, "{q}");
                let logged = logged_kinds(&dir)[before..].to_vec();
                let want: &[&str] = if rows.is_empty() {
                    &["CreateTable", "Commit"]
                } else {
                    &["CreateTable", "InsertMany", "Commit"]
                };
                assert_eq!(logged, want, "{q}");
                let read = e.execute(sid, &format!("SELECT * FROM phoenix.rs_{i}"));
                assert_eq!(
                    result_set(read.unwrap()),
                    (schema.clone(), rows.clone()),
                    "{q}"
                );
                expected.push((schema, rows));
            }
            // Dropped without a checkpoint: the log replays.
        }
        let e = Engine::open(&dir, EngineConfig::default()).unwrap();
        let sid = e.create_session("app");
        for (i, want) in expected.into_iter().enumerate() {
            let read = e.execute(sid, &format!("SELECT * FROM phoenix.rs_{i}"));
            assert_eq!(result_set(read.unwrap()), want, "{}", queries[i]);
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A `CREATE TABLE … AS SELECT` that fails, or whose transaction rolls
    /// back, leaves no table and logs nothing.
    #[test]
    fn create_table_as_select_is_all_or_nothing() {
        let dir = temp_dir();
        let e = Engine::open(&dir, EngineConfig::default()).unwrap();
        let sid = e.create_session("app");
        setup(&e, sid);
        let logged = logged_kinds(&dir).len();
        let missing = |name: &str| {
            e.execute(sid, &format!("SELECT * FROM {name}"))
                .unwrap_err()
                .code
                == ErrorCode::NotFound
        };

        // Rolled back: visible inside its transaction, gone after it.
        e.execute(sid, "BEGIN").unwrap();
        e.execute(sid, "CREATE TABLE phoenix.rs_1 AS SELECT id FROM customer")
            .unwrap();
        assert_eq!(
            e.execute(sid, "SELECT * FROM phoenix.rs_1")
                .unwrap()
                .rows()
                .len(),
            3
        );
        e.execute(sid, "ROLLBACK").unwrap();
        assert!(missing("phoenix.rs_1"));

        // A bind error creates nothing.
        let err = e
            .execute(
                sid,
                "CREATE TABLE phoenix.rs_2 AS SELECT nope FROM customer",
            )
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::Column, "{err}");
        assert!(missing("phoenix.rs_2"));

        // An existing target is refused, and keeps its rows.
        let err = e
            .execute(sid, "CREATE TABLE customer AS SELECT id FROM customer")
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::AlreadyExists, "{err}");
        assert_eq!(
            e.execute(sid, "SELECT * FROM customer")
                .unwrap()
                .rows()
                .len(),
            3
        );

        // A temporary target is refused.
        let err = e
            .execute(sid, "CREATE TABLE #copy AS SELECT id FROM customer")
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::Unsupported, "{err}");
        assert!(missing("#copy"));

        assert_eq!(logged_kinds(&dir).len(), logged, "nothing was logged");
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A grouped query over empty input reads a column outside the group
    /// key as NULL; it used to index the group's missing first row and
    /// panic the connection thread.
    #[test]
    fn grouped_query_over_empty_input_reads_null() {
        let (e, dir) = engine();
        let sid = e.create_session("app");
        e.execute(sid, "CREATE TABLE t (a INT, b INT)").unwrap();
        let rows = |sql: &str| e.execute(sid, sql).unwrap().rows().to_vec();
        assert_eq!(
            rows("SELECT a, COUNT(*) FROM t"),
            vec![vec![Value::Null, Value::Int(0)]]
        );
        assert!(rows("SELECT COUNT(*) FROM t HAVING a > 1").is_empty());
        assert_eq!(
            rows("SELECT SUM(b) FROM t ORDER BY a"),
            vec![vec![Value::Null]]
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// SUM over INT is exact (it used to sum through f64, so 2^53 + 1 came
    /// back as 2^53); a sum outside INT's range is a type error, not a
    /// wrapped or rounded value. AVG keeps its float semantics.
    #[test]
    fn int_sum_is_exact_and_overflow_is_an_error() {
        let (e, dir) = engine();
        let sid = e.create_session("app");
        e.execute(sid, "CREATE TABLE s (v INT)").unwrap();
        e.execute(sid, "INSERT INTO s VALUES (9007199254740993), (0)")
            .unwrap();
        let rows = |sql: &str| e.execute(sid, sql).unwrap().rows().to_vec();
        assert_eq!(
            rows("SELECT SUM(v) FROM s"),
            vec![vec![Value::Int(9_007_199_254_740_993)]]
        );
        assert_eq!(
            rows("SELECT AVG(v) FROM s"),
            vec![vec![Value::Float(9_007_199_254_740_992.0 / 2.0)]]
        );
        e.execute(sid, "INSERT INTO s VALUES (9223372036854775807)")
            .unwrap();
        let err = e.execute(sid, "SELECT SUM(v) FROM s").unwrap_err();
        assert_eq!(err.code, ErrorCode::Type, "{err}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn print_produces_message() {
        let (e, dir) = engine();
        let sid = e.create_session("app");
        let r = e.execute(sid, "PRINT 'batch ' + '7'").unwrap();
        assert_eq!(r.messages, vec!["batch 7"]);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn set_options_recorded() {
        let (e, dir) = engine();
        let sid = e.create_session("app");
        e.execute(sid, "SET lock_timeout 5000").unwrap();
        assert_eq!(
            e.session_option(sid, "lock_timeout").unwrap(),
            Some(Value::Int(5000))
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn committed_data_survives_engine_restart() {
        let dir = temp_dir();
        {
            let e = Engine::open(&dir, EngineConfig::default()).unwrap();
            let sid = e.create_session("app");
            setup(&e, sid);
            e.execute(sid, "CREATE TABLE #volatile (v INT)").unwrap();
            // Open a transaction with uncommitted work, then "crash".
            e.execute(sid, "BEGIN").unwrap();
            e.execute(sid, "DELETE FROM customer").unwrap();
            // no COMMIT — drop the engine
        }
        let e = Engine::open(&dir, EngineConfig::default()).unwrap();
        let sid = e.create_session("app");
        // Committed rows are back; uncommitted delete is not; temp is gone;
        // old session ids are dead.
        assert_eq!(
            e.execute(sid, "SELECT COUNT(*) FROM customer")
                .unwrap()
                .rows()[0][0],
            Value::Int(3)
        );
        assert_eq!(
            e.execute(sid, "SELECT * FROM #volatile").unwrap_err().code,
            ErrorCode::NotFound
        );
        assert_eq!(
            e.execute(99, "SELECT 1").unwrap_err().code,
            ErrorCode::NoSession
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn cursor_through_engine() {
        let (e, dir) = engine();
        let sid = e.create_session("app");
        setup(&e, sid);
        let sel = match parse_statement("SELECT id FROM customer").unwrap() {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        let (cid, schema, kind) = e.open_cursor(sid, &sel, CursorKind::Keyset).unwrap();
        assert_eq!(kind, CursorKind::Keyset);
        assert_eq!(schema.columns[0].name, "id");
        let f = e.fetch(sid, cid, FetchDir::Next, 2).unwrap();
        assert_eq!(f.rows.len(), 2);
        e.close_cursor(sid, cid).unwrap();
        assert_eq!(
            e.fetch(sid, cid, FetchDir::Next, 1).unwrap_err().code,
            ErrorCode::Cursor
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// An idle open transaction does not hold checkpoints up: with one
    /// `BEGIN` + insert left open and a checkpoint due every 1 000 log
    /// records, 20 000 autocommit inserts leave a log of at most one
    /// checkpoint interval (a build whose checkpoints waited for quiescence
    /// grew it to 1.82 MB). The open transaction then commits, and a
    /// reopen finds every row.
    #[test]
    fn checkpoints_run_beside_an_idle_open_txn() {
        let dir = temp_dir();
        let config = EngineConfig {
            durability: Durability::Buffered,
            checkpoint_every: Some(1_000),
            ..EngineConfig::default()
        };
        {
            let e = Engine::open(&dir, config.clone()).unwrap();
            let idle = e.create_session("idle");
            let busy = e.create_session("busy");
            e.execute(busy, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
                .unwrap();
            e.execute(idle, "BEGIN").unwrap();
            e.execute(idle, "INSERT INTO t VALUES (0, 0)").unwrap();
            let mut largest = 0;
            for k in 1..=20_000 {
                e.execute(busy, &format!("INSERT INTO t VALUES ({k}, {k})"))
                    .unwrap();
                largest = largest.max(std::fs::metadata(dir.join("phoenix.wal")).unwrap().len());
            }
            assert!(e.checkpoint_stats().total_us > 0, "checkpoints ran");
            // An insert and its commit record take under 100 bytes framed:
            // 500 such pairs are the interval, with room to spare.
            assert!(
                largest <= 100_000,
                "the log grew to {largest} bytes past its checkpoint interval"
            );
            e.execute(idle, "COMMIT").unwrap();
        }
        let e = Engine::open(&dir, config).unwrap();
        let sid = e.create_session("app");
        let count = e.execute(sid, "SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(count.rows()[0][0], Value::Int(20_001));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn close_session_aborts_open_txn() {
        let (e, dir) = engine();
        let sid = e.create_session("app");
        setup(&e, sid);
        e.execute(sid, "BEGIN").unwrap();
        e.execute(sid, "DELETE FROM customer").unwrap();
        e.close_session(sid).unwrap();
        let sid2 = e.create_session("app");
        assert_eq!(
            e.execute(sid2, "SELECT COUNT(*) FROM customer")
                .unwrap()
                .rows()[0][0],
            Value::Int(3)
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn batch_execution() {
        let (e, dir) = engine();
        let sid = e.create_session("app");
        let results = e
            .execute_batch(
                sid,
                "CREATE TABLE t (v INT); INSERT INTO t VALUES (1); SELECT * FROM t",
            )
            .unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[2].rows().len(), 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn drop_if_exists() {
        let (e, dir) = engine();
        let sid = e.create_session("app");
        e.execute(sid, "DROP TABLE IF EXISTS nothing").unwrap();
        assert_eq!(
            e.execute(sid, "DROP TABLE nothing").unwrap_err().code,
            ErrorCode::NotFound
        );
        e.execute(sid, "DROP PROCEDURE IF EXISTS nothing").unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Sessions on separate threads make progress against a shared engine —
    /// the `&self` API's basic exercise.
    #[test]
    fn sessions_execute_concurrently() {
        let (e, dir) = engine();
        let e = std::sync::Arc::new(e);
        let seed = e.create_session("seed");
        e.execute(seed, "CREATE TABLE acc (id INT PRIMARY KEY, v INT)")
            .unwrap();
        let handles: Vec<_> = (0..4)
            .map(|k: i64| {
                let e = std::sync::Arc::clone(&e);
                std::thread::spawn(move || {
                    let sid = e.create_session("worker");
                    for i in 0..25 {
                        e.execute(
                            sid,
                            &format!("INSERT INTO acc VALUES ({}, {i})", k * 25 + i),
                        )
                        .unwrap();
                        let r = e.execute(sid, "SELECT COUNT(*) FROM acc").unwrap();
                        assert!(matches!(r.rows()[0][0], Value::Int(n) if n >= 1));
                    }
                    e.close_session(sid).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            e.execute(seed, "SELECT COUNT(*) FROM acc").unwrap().rows()[0][0],
            Value::Int(100)
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn index_ddl_lifecycle_and_explain() {
        let (e, dir) = engine();
        let sid = e.create_session("app");
        setup(&e, sid);
        // Enough rows that a 2-row bucket beats scanning (probe is only
        // chosen when it reads at most half the table).
        for i in 100..120 {
            e.execute(
                sid,
                &format!("INSERT INTO customer VALUES ({i}, 'Fill', {i})"),
            )
            .unwrap();
        }
        e.execute(sid, "CREATE INDEX ix_nation ON customer(nation)")
            .unwrap();
        // Global name uniqueness (DROP INDEX resolves by name alone).
        let err = e
            .execute(sid, "CREATE INDEX ix_nation ON customer(nation)")
            .unwrap_err();
        assert_eq!(err.code, crate::error::ErrorCode::AlreadyExists);
        // The planner now serves equality on nation through the index.
        let ex = e
            .execute(sid, "EXPLAIN SELECT name FROM customer WHERE nation = 10")
            .unwrap();
        let row = &ex.rows()[0];
        assert_eq!(row[3], Value::Text("index-eq".into()));
        assert_eq!(row[4], Value::Text("ix_nation".into()));
        let r = e
            .execute(sid, "SELECT name FROM customer WHERE nation = 10")
            .unwrap();
        assert_eq!(r.rows().len(), 2);
        e.execute(sid, "DROP INDEX ix_nation").unwrap();
        let err = e.execute(sid, "DROP INDEX ix_nation").unwrap_err();
        assert_eq!(err.code, crate::error::ErrorCode::NotFound);
        e.execute(sid, "DROP INDEX IF EXISTS ix_nation").unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn index_survives_restart() {
        let dir = temp_dir();
        {
            let e = Engine::open(&dir, EngineConfig::default()).unwrap();
            let sid = e.create_session("app");
            setup(&e, sid);
            for i in 100..120 {
                e.execute(
                    sid,
                    &format!("INSERT INTO customer VALUES ({i}, 'Fill', {i})"),
                )
                .unwrap();
            }
            e.execute(sid, "CREATE INDEX ix_nation ON customer(nation)")
                .unwrap();
            // DML after the DDL so recovery must maintain the index.
            e.execute(sid, "INSERT INTO customer VALUES (7, 'Lee', 10)")
                .unwrap();
        }
        let e = Engine::open(&dir, EngineConfig::default()).unwrap();
        e.verify_indexes().unwrap();
        let sid = e.create_session("app");
        let ex = e
            .execute(sid, "EXPLAIN SELECT name FROM customer WHERE nation = 10")
            .unwrap();
        assert_eq!(ex.rows()[0][4], Value::Text("ix_nation".into()));
        let r = e
            .execute(sid, "SELECT name FROM customer WHERE nation = 10")
            .unwrap();
        assert_eq!(r.rows().len(), 3);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn index_on_temp_table_is_session_local() {
        let (e, dir) = engine();
        let sid = e.create_session("app");
        e.execute(sid, "CREATE TABLE #t (k INT, v INT)").unwrap();
        e.execute(sid, "INSERT INTO #t VALUES (1, 10), (2, 20), (1, 30)")
            .unwrap();
        e.execute(sid, "CREATE INDEX ix_tk ON #t(k)").unwrap();
        let r = e.execute(sid, "SELECT v FROM #t WHERE k = 1").unwrap();
        assert_eq!(r.rows().len(), 2);
        // Another session neither sees the temp table nor its index name.
        let sid2 = e.create_session("app");
        e.execute(sid2, "DROP INDEX ix_tk").unwrap_err();
        e.execute(sid, "DROP INDEX ix_tk").unwrap();
        // Index names are unique across the durable and the temp store, in
        // both directions, so one DROP INDEX finds exactly one index.
        e.execute(sid, "CREATE TABLE d (k INT, v INT)").unwrap();
        e.execute(sid, "CREATE INDEX ix ON d(k)").unwrap();
        let code = |r: Result<ExecResult>| r.unwrap_err().code;
        assert_eq!(
            code(e.execute(sid, "CREATE INDEX ix ON #t(k)")),
            ErrorCode::AlreadyExists
        );
        e.execute(sid, "CREATE INDEX ix_tv ON #t(v)").unwrap();
        assert_eq!(
            code(e.execute(sid, "CREATE INDEX ix_tv ON d(v)")),
            ErrorCode::AlreadyExists
        );
        e.execute(sid, "DROP INDEX ix").unwrap();
        assert_eq!(code(e.execute(sid, "DROP INDEX ix")), ErrorCode::NotFound);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn index_ddl_rolls_back() {
        let (e, dir) = engine();
        let sid = e.create_session("app");
        setup(&e, sid);
        e.execute(sid, "BEGIN").unwrap();
        e.execute(sid, "CREATE INDEX ix_nation ON customer(nation)")
            .unwrap();
        e.execute(sid, "ROLLBACK").unwrap();
        // Rolled back: the name is free again and plans fall back to scans.
        let ex = e
            .execute(sid, "EXPLAIN SELECT name FROM customer WHERE nation = 10")
            .unwrap();
        assert_eq!(ex.rows()[0][3], Value::Text("scan".into()));
        e.execute(sid, "CREATE INDEX ix_nation ON customer(nation)")
            .unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }
}
