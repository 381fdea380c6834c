//! The engine facade: sessions, statement execution, cursors, checkpoints.
//!
//! This is the object the server shares across connection threads. Its
//! lifecycle mirrors a real DBMS process:
//!
//! * [`Engine::open`] performs crash recovery (via the durability layer) and
//!   starts with **zero sessions** — all session state from a previous
//!   incarnation (temp tables, cursors, options, open transactions) is gone.
//! * Statements from a session run under that session's explicit transaction
//!   if one is open, otherwise autocommit.
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
//!   each statement (and each cursor fetch) takes a fresh snapshot, while
//!   mutations serialize on the writer lock and commits group-flush;
//! * the *stall gate* is a reader-writer lock every entry point acquires in
//!   shared mode; the test harness takes it exclusively to simulate a server
//!   that has stopped responding without dying.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use phoenix_sql::ast::{ExecStmt, ObjectName, SelectStmt, Statement};
use phoenix_sql::display::render_statement;
use phoenix_sql::parser::{parse_statement, parse_statements};
use phoenix_storage::db::{
    CheckpointStats, DrainReport, Durability, Durable, RecoveryOptions, RecoveryReport,
};
use phoenix_storage::store::StoreSnapshot;
use phoenix_storage::types::{Row, Schema, TxnId, Value};

use crate::cursor::{Cursor, CursorId, CursorKind, FetchDir, Fetched};
use crate::error::{EngineError, ErrorCode, Result};
use crate::eval::eval_const;
use crate::exec::{
    build_table_def, compute_delete, compute_insert_rows, compute_update, CatalogView,
};
use crate::metrics::engine_metrics;
use crate::plan::execute_select;
use crate::session::{SessionId, SessionState};

/// When a commit acknowledges, relative to replication.
///
/// The classic commit-latency / durability-scope tradeoff: `Async` loses
/// the unshipped tail of acknowledged commits if the primary host is
/// destroyed (crash-and-restart still loses nothing — the local WAL has
/// it); `SemiSync` holds each commit until the standby has acknowledged
/// receipt of its highest log record, so a promoted standby has every
/// acknowledged write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommitMode {
    /// Acknowledge on primary fsync (default). Lowest latency; replication
    /// lag bounds what a *lost* (not merely crashed) primary can forget.
    #[default]
    Async,
    /// Acknowledge when the standby has confirmed receipt of the commit's
    /// log record (or after a bounded degrade window if no standby is
    /// attached, so a dead standby cannot wedge the primary).
    SemiSync,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Commit durability for the WAL.
    pub durability: Durability,
    /// Take a checkpoint automatically once this many log records have
    /// accumulated and the engine is quiescent. `None` disables.
    pub checkpoint_every: Option<u64>,
    /// Write-path partitions (per-partition store shard + WAL stream +
    /// group committer). `None` picks `min(8, available cores)`; `Some(1)`
    /// forces the single-stream layout.
    pub partitions: Option<usize>,
    /// Bounded fsync delay for the group-commit leaders, in microseconds.
    /// `0` (the default) flushes immediately.
    pub group_commit_window_us: u64,
    /// Cap on concurrently *resident* (in-memory) sessions. When a new
    /// session would exceed the cap, the engine spills the least-recently
    /// active idle session to the durable spill table to make room; if no
    /// session is spillable the caller gets [`ErrorCode::Busy`] — a
    /// retryable error by the driver's taxonomy. `None` (the default)
    /// disables the cap.
    pub max_sessions: Option<usize>,
    /// Commit acknowledgement mode relative to replication. `Async` (the
    /// default) acknowledges on primary fsync; `SemiSync` waits for the
    /// standby's receive-ack (bounded by a degrade window). Ignored unless
    /// a replication shipper is attached.
    pub commit_mode: CommitMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            durability: Durability::Fsync,
            checkpoint_every: Some(100_000),
            partitions: None,
            group_commit_window_us: 0,
            max_sessions: None,
            commit_mode: CommitMode::default(),
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

/// A session catalog entry: the session's state behind its own mutex, plus
/// a lock-free last-activity stamp the lifecycle manager reads to pick
/// idle-spill and LRU-eviction victims without touching the state lock.
pub(crate) struct SessionEntry {
    /// The session's state; statements serialize on this mutex.
    pub(crate) state: Mutex<SessionState>,
    /// `phoenix_obs::now_us()` of the last engine call that touched this
    /// session.
    pub(crate) last_active: AtomicU64,
}

impl SessionEntry {
    pub(crate) fn new(state: SessionState) -> SessionEntry {
        SessionEntry {
            state: Mutex::new(state),
            last_active: AtomicU64::new(phoenix_obs::now_us()),
        }
    }

    pub(crate) fn touch(&self) {
        self.last_active
            .store(phoenix_obs::now_us(), Ordering::Relaxed);
    }
}

/// The database engine. Shared across connection threads (`&self` API).
pub struct Engine {
    pub(crate) durable: Durable,
    /// Session catalog. The outer lock is held only to look up / insert /
    /// remove entries; each session's statements serialize on its own mutex.
    pub(crate) sessions: RwLock<HashMap<SessionId, Arc<SessionEntry>>>,
    pub(crate) next_session: AtomicU64,
    next_cursor: AtomicU64,
    pub(crate) config: EngineConfig,
    /// Every entry point holds this in shared mode for the duration of the
    /// call; [`Engine::stall`] takes it exclusively so the test harness can
    /// freeze the server without killing it.
    pub(crate) stall_gate: RwLock<()>,
    /// Server-incarnation stamp baked into spill-table keys so rows written
    /// by a previous incarnation can never be mistaken for live spills after
    /// a crash (stale rows age out via the retention window instead).
    pub(crate) incarnation: u64,
    /// Index of sessions currently spilled to the durable spill table.
    /// A session id is in *either* `sessions` or here, never both; after a
    /// crash the index starts empty, which is what makes stale spill rows
    /// unrestorable. Lock order: `spilled` before `sessions`.
    pub(crate) spilled: Mutex<HashMap<SessionId, crate::spill::SpilledInfo>>,
    /// Data directory, kept for epoch/fence marker persistence.
    data_dir: std::path::PathBuf,
    /// Replication epoch this incarnation serves under, read from the
    /// `phoenix.epoch` file at open (1 if absent). A promotion bumps the
    /// file before the promoted engine opens, so the new primary always
    /// outranks every deposed one.
    epoch: u64,
}

/// Name of the replication-epoch file inside the data directory.
const EPOCH_FILE: &str = "phoenix.epoch";
/// Sticky fence marker: its presence means this data directory belongs to a
/// deposed incarnation and must never accept writes again.
const FENCED_FILE: &str = "phoenix.fenced";

/// Read the replication epoch recorded in `dir` (1 if none recorded).
pub fn read_epoch(dir: impl AsRef<std::path::Path>) -> u64 {
    std::fs::read_to_string(dir.as_ref().join(EPOCH_FILE))
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(1)
}

/// Durably record `epoch` in `dir`'s epoch file (write + fsync + rename).
pub fn write_epoch(dir: impl AsRef<std::path::Path>, epoch: u64) -> std::io::Result<()> {
    let dir = dir.as_ref();
    let tmp = dir.join("phoenix.epoch.tmp");
    std::fs::write(&tmp, format!("{epoch}\n"))?;
    std::fs::File::open(&tmp)?.sync_all()?;
    std::fs::rename(&tmp, dir.join(EPOCH_FILE))?;
    Ok(())
}

impl Engine {
    /// Open (and recover) the database in `dir`.
    pub fn open(dir: impl AsRef<std::path::Path>, config: EngineConfig) -> Result<Engine> {
        Self::open_with(dir, config, None)
    }

    /// Open the database in `dir` from the applier a standby loaded from it
    /// and has fed every shipped frame since — the promotion path. Only
    /// frames the applier has not seen are read back from the log.
    pub fn open_warm(
        dir: impl AsRef<std::path::Path>,
        config: EngineConfig,
        applier: phoenix_storage::Applier,
    ) -> Result<Engine> {
        Self::open_with(dir, config, Some(applier))
    }

    fn open_with(
        dir: impl AsRef<std::path::Path>,
        config: EngineConfig,
        applier: Option<phoenix_storage::Applier>,
    ) -> Result<Engine> {
        let dir = dir.as_ref();
        let partitions = config.partitions.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(1)
        });
        let opts = RecoveryOptions {
            partitions: Some(partitions),
            group_commit_window_us: config.group_commit_window_us,
        };
        let durable = match applier {
            None => Durable::open_opts(dir, config.durability, &opts)?,
            Some(applier) => Durable::open_warm(dir, config.durability, &opts, applier)?,
        };
        let epoch = read_epoch(dir);
        if dir.join(FENCED_FILE).exists() {
            // Sticky: a deposed primary stays deposed across restarts.
            durable.fence();
        }
        if config.commit_mode == CommitMode::SemiSync {
            durable.set_commit_wait(Some(std::time::Duration::from_secs(2)));
        }
        let incarnation = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(1)
            & (i64::MAX as u64);
        Ok(Engine {
            durable,
            sessions: RwLock::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            next_cursor: AtomicU64::new(1),
            config,
            stall_gate: RwLock::new(()),
            incarnation,
            spilled: Mutex::new(HashMap::new()),
            data_dir: dir.to_path_buf(),
            epoch,
        })
    }

    // -- replication ---------------------------------------------------------

    /// The replication epoch this incarnation serves under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether this incarnation has been fenced (deposed by a newer primary).
    pub fn is_fenced(&self) -> bool {
        self.durable.is_fenced()
    }

    /// Fence this incarnation if `new_epoch` outranks its own epoch.
    ///
    /// Returns `true` if the engine is fenced after the call (whether by
    /// this call or earlier). Fencing is durable — a marker file makes a
    /// restarted deposed primary come back fenced — and immediate: every
    /// in-flight and future `wal.append` on this incarnation is refused.
    pub fn fence(&self, new_epoch: u64) -> bool {
        if self.durable.is_fenced() {
            return true;
        }
        if new_epoch <= self.epoch {
            return false;
        }
        // Persist the marker *before* flipping the in-memory switch: if we
        // crash in between, the restart re-reads the marker and stays
        // fenced; the reverse order could lose the fence across a crash.
        if let Err(e) = std::fs::write(self.data_dir.join(FENCED_FILE), format!("{new_epoch}\n")) {
            phoenix_obs::journal().record(
                "engine",
                phoenix_obs::EventKind::Other,
                format!("failed to persist fence marker: {e}"),
            );
        }
        self.durable.fence();
        phoenix_obs::journal().record(
            "engine",
            phoenix_obs::EventKind::ServerLifecycle,
            format!("fenced by epoch {new_epoch} (own epoch {})", self.epoch),
        );
        true
    }

    /// Attach a replication shipper: enable the WAL tap and return every
    /// durable frame past `standby_last_gsn` as backlog.
    pub fn repl_attach(&self, standby_last_gsn: u64) -> Result<Vec<phoenix_storage::ShipFrame>> {
        Ok(self.durable.repl_attach(standby_last_gsn)?)
    }

    /// Drain up to `max` shippable frames, waiting up to `wait` for traffic.
    pub fn repl_poll(
        &self,
        max: usize,
        wait: std::time::Duration,
    ) -> Result<Vec<phoenix_storage::ShipFrame>> {
        Ok(self.durable.repl_poll(max, wait)?)
    }

    /// Record the standby's receive-ack high-water mark.
    pub fn repl_ack(&self, gsn: u64) {
        self.durable.repl_ack(gsn)
    }

    /// Detach the shipper and disable the WAL tap.
    pub fn repl_detach(&self) {
        self.durable.repl_detach()
    }

    /// Highest GSN ever allocated by this incarnation's log.
    pub fn last_gsn(&self) -> u64 {
        self.durable.last_gsn()
    }

    /// The standby's receive-ack high-water mark (0 until one attaches).
    pub fn repl_acked_gsn(&self) -> u64 {
        self.durable.repl_acked_gsn()
    }

    /// The durable store's current published snapshot (tests, tooling).
    /// O(1), lock-free to hold: the image is immutable and later mutations
    /// publish new snapshots without touching this one.
    pub fn snapshot(&self) -> Arc<StoreSnapshot> {
        self.durable.snapshot()
    }

    /// What recovery did when this engine opened (bench/tooling probe).
    pub fn recovery_report(&self) -> &RecoveryReport {
        self.durable.recovery_report()
    }

    /// Wait for the background load of the checkpointed tables recovery did
    /// not need, and say what it did (see `Durable::drain_report`).
    pub fn drain_report(&self) -> DrainReport {
        self.durable.drain_report()
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

    /// Block every engine entry point for `d`, simulating a server that has
    /// stopped responding without dying (test harness hook).
    pub fn stall(&self, d: std::time::Duration) {
        self.stall_with(d, || {});
    }

    /// Like [`Engine::stall`], but invokes `engaged` once the gate is
    /// actually held — a handshake for harnesses that must not return to
    /// the caller before the stall has taken effect.
    pub fn stall_with(&self, d: std::time::Duration, engaged: impl FnOnce()) {
        let _gate = self.stall_gate.write();
        engaged();
        std::thread::sleep(d);
    }

    // -- session lifecycle ---------------------------------------------------

    /// Open a new session for `user`, unconditionally (no session cap).
    /// Servers that honor `max_sessions` go through
    /// [`Engine::try_create_session`] instead.
    pub fn create_session(&self, user: &str) -> SessionId {
        let _gate = self.stall_gate.read();
        self.install_session(user)
    }

    pub(crate) fn install_session(&self, user: &str) -> SessionId {
        let mut sessions = self.sessions.write();
        self.install_session_locked(&mut sessions, user)
    }

    /// Install a session while the caller already holds the catalog write
    /// lock — lets `try_create_session` make its cap check and insert one
    /// atomic critical section.
    pub(crate) fn install_session_locked(
        &self,
        sessions: &mut HashMap<SessionId, Arc<SessionEntry>>,
        user: &str,
    ) -> SessionId {
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        sessions.insert(id, Arc::new(SessionEntry::new(SessionState::new(id, user))));
        let m = engine_metrics();
        m.sessions_opened.inc();
        m.sessions_active.inc();
        id
    }

    /// Close a session: abort any open transaction, drop cursors and temp
    /// objects. (Temporary tables "are deleted when a session terminates for
    /// any reason" — the property Phoenix's liveness probe relies on.)
    ///
    /// If a statement is in flight on the session, this waits for it to
    /// finish before tearing the session down.
    pub fn close_session(&self, sid: SessionId) -> Result<()> {
        let _gate = self.stall_gate.read();
        let session = match self.sessions.write().remove(&sid) {
            Some(s) => s,
            // Temp objects die when a session terminates for any reason, so
            // closing a *spilled* session discards its durable spill row.
            None => return self.close_spilled_session(sid),
        };
        let (txn, temp_tables) = {
            let mut s = session.state.lock();
            (s.txn.take(), s.temp.tables().count() as i64)
        };
        let m = engine_metrics();
        m.sessions_active.dec();
        m.temp_tables.add(-temp_tables);
        if let Some(txn) = txn {
            self.durable.abort(txn)?;
        }
        Ok(())
    }

    /// Look up a session's shared handle. A session that was spilled to the
    /// durable spill table is transparently restored — the caller can't tell
    /// the difference, which is the lifecycle manager's contract.
    pub(crate) fn session(&self, sid: SessionId) -> Result<Arc<SessionEntry>> {
        if let Some(entry) = self.sessions.read().get(&sid).cloned() {
            entry.touch();
            return Ok(entry);
        }
        self.restore_session(sid)
    }

    /// Look up a session and run `f` with its state mutex held, re-validating
    /// after the lock is acquired: the lifecycle manager may spill a session
    /// *between* the catalog lookup (which only clones the `Arc`) and the
    /// state-lock acquisition. Executing against such an orphaned entry would
    /// silently discard the statement's session-state effects when the
    /// session is later restored from the spill row, so on a tombstone we
    /// retry the lookup — which restores the durable copy.
    fn with_session_state<R>(
        &self,
        sid: SessionId,
        f: impl FnOnce(&mut SessionState) -> Result<R>,
    ) -> Result<R> {
        let mut f = Some(f);
        loop {
            let entry = self.session(sid)?;
            let mut state = entry.state.lock();
            if state.spilled_out {
                drop(state);
                continue;
            }
            let f = f.take().expect("validated-session closure runs once");
            return f(&mut state);
        }
    }

    /// Current value of a session's SET option (observability/test hook; the
    /// engine has no `@@name` surface for arbitrary options).
    pub fn session_option(&self, sid: SessionId, name: &str) -> Result<Option<Value>> {
        let _gate = self.stall_gate.read();
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
        let _gate = self.stall_gate.read();
        let result = self.with_session_state(sid, |session| {
            let _t = phoenix_obs::Timer::new(engine_metrics().stmt_latency(stmt));
            self.exec_in(session, stmt, None, 0)
        });
        // Auto-checkpoint runs with no session lock held (it needs the
        // engine quiescent, and must never deadlock with our own session).
        if result.is_ok() {
            self.maybe_auto_checkpoint();
        }
        result
    }

    fn exec_in(
        &self,
        session: &mut SessionState,
        stmt: &Statement,
        params: Option<&HashMap<String, Value>>,
        depth: usize,
    ) -> Result<ExecResult> {
        // `@@ROWCOUNT` is session state: substitute the previous statement's
        // count before execution so a batch can record its own DML outcome
        // server-side (the wrapped-request pattern).
        let substituted = phoenix_sql::rewrite::substitute_sysvar(
            stmt,
            "ROWCOUNT",
            &phoenix_sql::ast::Literal::Int(session.rowcount as i64),
        );
        let stmt = substituted.as_ref().unwrap_or(stmt);
        let result = self.exec_dispatch(session, stmt, params, depth);
        if let Ok(r) = &result {
            session.rowcount = match &r.outcome {
                ExecOutcome::RowsAffected(n) => *n,
                ExecOutcome::ResultSet { rows, .. } => rows.len() as u64,
                ExecOutcome::Done => 0,
            };
        }
        result
    }

    fn exec_dispatch(
        &self,
        session: &mut SessionState,
        stmt: &Statement,
        params: Option<&HashMap<String, Value>>,
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
                session.txn = Some(self.durable.begin()?);
                Ok(ExecResult::done())
            }
            Statement::Commit => {
                let txn = session
                    .txn
                    .take()
                    .ok_or_else(|| EngineError::new(ErrorCode::Txn, "no open transaction"))?;
                self.durable.commit(txn)?;
                Ok(ExecResult::done())
            }
            Statement::Rollback => {
                let txn = session
                    .txn
                    .take()
                    .ok_or_else(|| EngineError::new(ErrorCode::Txn, "no open transaction"))?;
                self.durable.abort(txn)?;
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
                let snap = self.durable.snapshot();
                let view = CatalogView {
                    durable: &snap,
                    temp: &session.temp,
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
                let rows = {
                    let snap = self.durable.snapshot();
                    let view = CatalogView {
                        durable: &snap,
                        temp: &session.temp,
                    };
                    let def = view_def(&view, &ins.table)?;
                    compute_insert_rows(ins, &def, &view, params)?
                };
                let n = rows.len() as u64;
                if ins.table.is_temp() {
                    let t = session.temp.table_mut(&ins.table.canonical())?;
                    for row in rows {
                        t.insert(row)?;
                    }
                } else {
                    // One WAL append (and one writer-lock round trip) for
                    // the whole statement, however many rows it carries.
                    let name = ins.table.canonical();
                    self.with_txn(session, |db, txn| {
                        db.insert_many(txn, &name, rows)?;
                        Ok(())
                    })?;
                }
                Ok(ExecResult {
                    outcome: ExecOutcome::RowsAffected(n),
                    messages: Vec::new(),
                })
            }
            Statement::Update(upd) => {
                if upd.table.is_temp() {
                    let data = session.temp.table(&upd.table.canonical())?;
                    let changes = compute_update(upd, data, params)?;
                    let n = changes.len() as u64;
                    let t = session.temp.table_mut(&upd.table.canonical())?;
                    for (rid, row) in changes {
                        t.update(rid, row)?;
                    }
                    Ok(ExecResult {
                        outcome: ExecOutcome::RowsAffected(n),
                        messages: Vec::new(),
                    })
                } else {
                    let name = upd.table.canonical();
                    let changes = {
                        let snap = self.durable.snapshot();
                        compute_update(upd, snap.table(&name)?, params)?
                    };
                    let n = changes.len() as u64;
                    self.with_txn(session, |db, txn| Ok(db.update_many(txn, &name, changes)?))?;
                    Ok(ExecResult {
                        outcome: ExecOutcome::RowsAffected(n),
                        messages: Vec::new(),
                    })
                }
            }
            Statement::Delete(del) => {
                if del.table.is_temp() {
                    let data = session.temp.table(&del.table.canonical())?;
                    let ids = compute_delete(del, data, params)?;
                    let n = ids.len() as u64;
                    let t = session.temp.table_mut(&del.table.canonical())?;
                    for rid in ids {
                        t.delete(rid)?;
                    }
                    Ok(ExecResult {
                        outcome: ExecOutcome::RowsAffected(n),
                        messages: Vec::new(),
                    })
                } else {
                    let name = del.table.canonical();
                    let ids = {
                        let snap = self.durable.snapshot();
                        compute_delete(del, snap.table(&name)?, params)?
                    };
                    let n = ids.len() as u64;
                    self.with_txn(session, |db, txn| Ok(db.delete_many(txn, &name, &ids)?))?;
                    Ok(ExecResult {
                        outcome: ExecOutcome::RowsAffected(n),
                        messages: Vec::new(),
                    })
                }
            }
            Statement::CreateTable(c) => {
                let def = build_table_def(c)?;
                if c.name.is_temp() {
                    session.temp.create_table(def)?;
                    engine_metrics().temp_tables.inc();
                } else {
                    self.with_txn(session, |db, txn| Ok(db.create_table(txn, def)?))?;
                }
                Ok(ExecResult::done())
            }
            Statement::DropTable { name, if_exists } => {
                let key = name.canonical();
                if name.is_temp() {
                    match session.temp.drop_table(&key) {
                        Ok(_) => engine_metrics().temp_tables.dec(),
                        Err(_) if *if_exists => {}
                        Err(e) => return Err(e.into()),
                    }
                } else {
                    let exists = self.durable.snapshot().has_table(&key);
                    if !exists {
                        if *if_exists {
                            return Ok(ExecResult::done());
                        }
                        return Err(EngineError::not_found(format!("no such table '{name}'")));
                    }
                    self.with_txn(session, |db, txn| Ok(db.drop_table(txn, &key)?))?;
                }
                Ok(ExecResult::done())
            }
            Statement::CreateProc(p) => {
                // Procedures are stored as their rendered CREATE text and
                // re-parsed at EXEC time.
                let sql = render_statement(stmt);
                let key = p.name.canonical();
                if p.name.is_temp() {
                    session.temp.create_proc(&key, &sql)?;
                } else {
                    if self.durable.snapshot().has_proc(&key) {
                        return Err(EngineError::new(
                            ErrorCode::AlreadyExists,
                            format!("procedure '{}' already exists", p.name),
                        ));
                    }
                    self.with_txn(session, |db, txn| Ok(db.create_proc(txn, &key, &sql)?))?;
                }
                Ok(ExecResult::done())
            }
            Statement::DropProc { name, if_exists } => {
                let key = name.canonical();
                if name.is_temp() {
                    match session.temp.drop_proc(&key) {
                        Ok(_) => {}
                        Err(_) if *if_exists => {}
                        Err(e) => return Err(e.into()),
                    }
                } else {
                    if !self.durable.snapshot().has_proc(&key) {
                        if *if_exists {
                            return Ok(ExecResult::done());
                        }
                        return Err(EngineError::not_found(format!(
                            "no such procedure '{name}'"
                        )));
                    }
                    self.with_txn(session, |db, txn| Ok(db.drop_proc(txn, &key)?))?;
                }
                Ok(ExecResult::done())
            }
            Statement::CreateIndex {
                name,
                table,
                column,
            } => {
                let key = table.canonical();
                if table.is_temp() {
                    let col = temp_column_index(&session.temp, &key, column)?;
                    if session.temp.find_index_owner(name).is_some() {
                        return Err(EngineError::new(
                            ErrorCode::AlreadyExists,
                            format!("index '{name}' already exists"),
                        ));
                    }
                    session.temp.table_mut(&key)?.create_index(name, col)?;
                } else {
                    let snap = self.durable.snapshot();
                    let data = snap
                        .table(&key)
                        .map_err(|_| EngineError::not_found(format!("no such table '{table}'")))?;
                    let col = data.def.schema.index_of(column).ok_or_else(|| {
                        EngineError::column(format!("no column '{column}' in '{table}'"))
                    })?;
                    // Index names resolve globally at DROP time; enforce
                    // global uniqueness here so that stays unambiguous.
                    if snap.find_index_owner(name).is_some() {
                        return Err(EngineError::new(
                            ErrorCode::AlreadyExists,
                            format!("index '{name}' already exists"),
                        ));
                    }
                    drop(snap);
                    self.with_txn(
                        session,
                        |db, txn| Ok(db.create_index(txn, &key, name, col)?),
                    )?;
                }
                engine_metrics().index_ddl.inc();
                Ok(ExecResult::done())
            }
            Statement::DropIndex { name, if_exists } => {
                // Index names are not table-qualified: resolve the owning
                // table, session temp store first.
                if let Some(owner) = session
                    .temp
                    .find_index_owner(name)
                    .map(|t| t.def.name.clone())
                {
                    session.temp.table_mut(&owner)?.drop_index(name)?;
                } else {
                    let owner = self
                        .durable
                        .snapshot()
                        .find_index_owner(name)
                        .map(|t| t.def.name.clone());
                    match owner {
                        Some(owner) => {
                            self.with_txn(
                                session,
                                |db, txn| Ok(db.drop_index(txn, &owner, name)?),
                            )?;
                        }
                        None if *if_exists => return Ok(ExecResult::done()),
                        None => {
                            return Err(EngineError::not_found(format!("no such index '{name}'")))
                        }
                    }
                }
                engine_metrics().index_ddl.inc();
                Ok(ExecResult::done())
            }
            Statement::Explain(inner) => {
                let snap = self.durable.snapshot();
                let view = CatalogView {
                    durable: &snap,
                    temp: &session.temp,
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

    /// Run `body` under the session's explicit transaction if one is open,
    /// otherwise under a fresh autocommit transaction (committed on success,
    /// aborted on error).
    fn with_txn<F>(&self, session: &mut SessionState, body: F) -> Result<()>
    where
        F: FnOnce(&Durable, TxnId) -> Result<()>,
    {
        match session.txn {
            Some(txn) => body(&self.durable, txn),
            None => {
                let txn = self.durable.begin()?;
                match body(&self.durable, txn) {
                    Ok(()) => {
                        self.durable.commit(txn)?;
                        Ok(())
                    }
                    Err(e) => {
                        self.durable.abort(txn)?;
                        Err(e)
                    }
                }
            }
        }
    }

    fn exec_proc(
        &self,
        session: &mut SessionState,
        call: &ExecStmt,
        outer_params: Option<&HashMap<String, Value>>,
        depth: usize,
    ) -> Result<ExecResult> {
        let key = call.name.canonical();
        let sql = if call.name.is_temp() {
            session.temp.proc(&key).map(str::to_string)
        } else {
            self.durable.snapshot().proc(&key).map(str::to_string)
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
        let _gate = self.stall_gate.read();
        self.with_session_state(sid, |session| {
            let id = self.next_cursor.fetch_add(1, Ordering::Relaxed);
            let result = {
                let snap = self.durable.snapshot();
                let view = CatalogView {
                    durable: &snap,
                    temp: &session.temp,
                };
                Cursor::open(id, select, kind, &view)
            };
            match result {
                Ok(cursor) => {
                    let schema = cursor.schema.clone();
                    let granted = cursor.kind;
                    session.cursors.insert(id, cursor);
                    engine_metrics().cursor_opens.inc();
                    Ok((id, schema, granted))
                }
                Err(e) => Err(e),
            }
        })
    }

    /// Fetch from an open cursor.
    pub fn fetch(&self, sid: SessionId, cid: CursorId, dir: FetchDir, n: usize) -> Result<Fetched> {
        let _gate = self.stall_gate.read();
        self.with_session_state(sid, |session| match session.cursors.remove(&cid) {
            None => Err(EngineError::new(
                ErrorCode::Cursor,
                format!("no such cursor {cid}"),
            )),
            Some(mut cursor) => {
                engine_metrics().cursor_fetches.inc();
                let r = {
                    // A fresh snapshot per fetch: keyset/dynamic cursors see
                    // data as of this fetch, and the scan holds no lock.
                    let snap = self.durable.snapshot();
                    let view = CatalogView {
                        durable: &snap,
                        temp: &session.temp,
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
        let _gate = self.stall_gate.read();
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
        let _gate = self.stall_gate.read();
        self.with_session_state(sid, |session| {
            let snap = self.durable.snapshot();
            let view = CatalogView {
                durable: &snap,
                temp: &session.temp,
            };
            use crate::plan::Catalog as _;
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

    /// Take a checkpoint now. Fails if any session has an open transaction.
    pub fn checkpoint(&self) -> Result<()> {
        // Name the offending session when we can see one; a session busy
        // executing (mutex held) is caught by the durability layer's own
        // active-transaction check below.
        {
            let sessions = self.sessions.read();
            for s in sessions.values() {
                if let Some(s) = s.state.try_lock() {
                    if s.txn.is_some() {
                        return Err(EngineError::new(
                            ErrorCode::Txn,
                            format!("session {} has an open transaction", s.id),
                        ));
                    }
                }
            }
        }
        self.durable.checkpoint()?;
        Ok(())
    }

    fn maybe_auto_checkpoint(&self) {
        if let Some(every) = self.config.checkpoint_every {
            if self.durable.log_records_since_checkpoint() >= every {
                // Quiescence probe: any session we cannot inspect (its lock
                // is held by an in-flight statement) counts as busy; skip
                // this round rather than block. The durability layer
                // re-checks under its own locks anyway.
                let quiescent = self
                    .sessions
                    .read()
                    .values()
                    .all(|s| s.state.try_lock().map(|g| g.txn.is_none()).unwrap_or(false));
                if quiescent {
                    // Best effort, and non-blocking: `try_checkpoint` skips
                    // the round when another writer holds the working store
                    // instead of queueing behind it. Readers are unaffected
                    // either way — they run on published snapshots. Failure
                    // surfaces on the next explicit `checkpoint()` call.
                    let _ = self.durable.try_checkpoint();
                }
            }
        }
    }
}

/// Look up a table definition through the view (shared out so the view's
/// borrow can end before mutation starts).
fn view_def(
    view: &CatalogView<'_>,
    name: &ObjectName,
) -> Result<Arc<phoenix_storage::types::TableDef>> {
    use crate::plan::Catalog as _;
    Ok(view.table(name)?.def.clone())
}

/// Resolve a column name within a session-temp table.
fn temp_column_index(
    temp: &phoenix_storage::store::Store,
    key: &str,
    column: &str,
) -> Result<usize> {
    let data = temp.table(key)?;
    data.def
        .schema
        .index_of(column)
        .ok_or_else(|| EngineError::column(format!("no column '{column}' in '{key}'")))
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // The exact pattern Phoenix generates for result-set capture.
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

    #[test]
    fn checkpoint_respects_open_txns() {
        let (e, dir) = engine();
        let sid = e.create_session("app");
        setup(&e, sid);
        e.execute(sid, "BEGIN").unwrap();
        assert_eq!(e.checkpoint().unwrap_err().code, ErrorCode::Txn);
        e.execute(sid, "COMMIT").unwrap();
        e.checkpoint().unwrap();
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

    /// A stalled engine blocks new statements until the stall ends.
    #[test]
    fn stall_blocks_execution() {
        use std::time::{Duration, Instant};
        let (e, dir) = engine();
        let e = std::sync::Arc::new(e);
        let sid = e.create_session("app");
        let e2 = std::sync::Arc::clone(&e);
        let t = std::thread::spawn(move || e2.stall(Duration::from_millis(300)));
        // Give the stall thread time to take the gate.
        std::thread::sleep(Duration::from_millis(50));
        let t0 = Instant::now();
        e.execute(sid, "SELECT 1").unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(150));
        t.join().unwrap();
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
