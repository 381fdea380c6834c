//! [`PhoenixConnection`] — the virtual database session (paper §3, "Virtual
//! ODBC Sessions").
//!
//! The application connects to Phoenix; Phoenix maps that virtual session
//! onto *two* real driver connections:
//!
//! * the **mapped** connection, which carries (possibly rewritten)
//!   application requests — "the mapped connection activity mimics the
//!   application's use of a normal ODBC connection";
//! * the **private** connection, on which Phoenix performs the activity it
//!   must mask from the application: creating persistent tables and capture
//!   procedures, pinging for server recovery, probing the status table, and
//!   re-creating session state.
//!
//! Should a crash occur, the virtual handles stay valid: Phoenix re-maps
//! them to fresh post-crash connections, replays the recorded session
//! context, verifies its materialized state, and resumes — the application
//! sees only a delayed response.

use phoenix_driver::{error::codes, Connection, DriverError, Environment, QueryResult};
use phoenix_sql::ast::{SelectStmt, Statement};
use phoenix_sql::classify::{
    classify, creates_temp_object, drops_temp_object, temp_object_refs, RequestKind,
};
use phoenix_sql::display::render_statement;
use phoenix_sql::parser::parse_statement;
use phoenix_sql::rewrite::rename_table_refs;
use phoenix_storage::types::Value;
use phoenix_wire::message::Outcome;

use phoenix_obs::{journal, EventKind};

use crate::config::PhoenixConfig;
use crate::context::{PhoenixObject, SessionContext};
use crate::dml::{self, DmlOutcome};
use crate::materialize::{self, Materialized};
use crate::metrics::core_metrics;
use crate::naming::{fresh_session_tag, Namer};
use crate::recovery;
use crate::statement::PhoenixStatement;
use crate::Result;

/// Observable Phoenix behaviour counters (used by tests, examples and the
/// benchmark harness; the application never needs them).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhoenixStats {
    /// Microseconds spent re-establishing the virtual session in the most
    /// recent recovery (reconnects + context replay + state verification) —
    /// the "Virtual Session" component of the paper's Figure 2.
    pub last_recovery_virtual_us: u64,
    /// Accumulated virtual-session recovery time, microseconds.
    pub recovery_virtual_us: u64,
    /// Microseconds spent reinstalling SQL state (re-opening and
    /// re-positioning result delivery) after the most recent recovery — the
    /// "SQL State" component of Figure 2.
    pub last_reposition_us: u64,
    /// Accumulated repositioning time, microseconds.
    pub reposition_us: u64,
    /// Completed recovery passes (crash or comm-blip).
    pub recoveries: u64,
    /// Reconnect attempts made inside ping loops.
    pub reconnect_attempts: u64,
    /// Result sets materialized into persistent tables.
    pub materialized_result_sets: u64,
    /// DML statements wrapped with status records.
    pub wrapped_dml: u64,
    /// DML statements submitted through the pipelined (ExecBatch) path.
    pub pipelined_dml: u64,
    /// Status-table probes performed after failures.
    pub status_probes: u64,
    /// Requests answered from the status table (logged outcome returned
    /// instead of re-execution).
    pub replied_from_status: u64,
    /// Requests resubmitted after a crash.
    pub resubmissions: u64,
    /// Application-transaction statements replayed.
    pub replayed_txn_statements: u64,
    /// Cursor downgrades (requested kind unsupported for the query shape).
    pub cursor_downgrades: u64,
}

/// A persistent client-server database session.
pub struct PhoenixConnection {
    pub(crate) env: Environment,
    /// The server list: the primary first, then any standbys. Recovery
    /// rotates through it, so a session survives the loss of the machine it
    /// was logged into as long as some listed server gets promoted.
    pub(crate) addrs: Vec<String>,
    /// Index into `addrs` of the server the session currently lives on.
    /// Both underlying connections always point at this one server — the
    /// status table, temp stand-ins, and liveness marker are only
    /// meaningful when probe and execution hit the same database.
    pub(crate) current: usize,
    pub(crate) user: String,
    pub(crate) database: String,
    pub(crate) config: PhoenixConfig,
    pub(crate) mapped: Connection,
    pub(crate) private: Connection,
    pub(crate) namer: Namer,
    pub(crate) ctx: SessionContext,
    pub(crate) stats: PhoenixStats,
}

impl PhoenixConnection {
    /// Open a persistent session. Applications call this exactly as they
    /// would a native driver connect; everything else is Phoenix's problem.
    pub fn connect(
        env: &Environment,
        addr: &str,
        user: &str,
        database: &str,
        config: PhoenixConfig,
    ) -> Result<PhoenixConnection> {
        Self::connect_multi(env, &[addr], user, database, config)
    }

    /// Open a persistent session against a *server list*: the primary
    /// first, then any hot standbys. The initial login goes to the first
    /// address; if the primary is later lost, recovery rotates through the
    /// whole list, so the session rides a standby promotion without the
    /// application ever seeing the failover.
    pub fn connect_multi(
        env: &Environment,
        addrs: &[&str],
        user: &str,
        database: &str,
        config: PhoenixConfig,
    ) -> Result<PhoenixConnection> {
        assert!(
            !addrs.is_empty(),
            "connect_multi needs at least one address"
        );
        let env = env.clone().with_read_timeout(config.recovery.read_timeout);
        // Try each listed server in order. A refused/reset dial or a fenced
        // login (an unpromoted standby) moves on to the next address; both
        // the mapped and the private connection must land on the SAME server
        // so the liveness marker and the status table live where the
        // statements run.
        let mut winner = 0usize;
        let mut mapped = None;
        let mut last_err = None;
        for (idx, addr) in addrs.iter().enumerate() {
            match env.connect(addr, user, database) {
                Ok(conn) => {
                    winner = idx;
                    mapped = Some(conn);
                    break;
                }
                Err(e) if e.is_retryable() && idx + 1 < addrs.len() => {
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        let mapped = match mapped {
            Some(c) => c,
            None => return Err(last_err.expect("no address attempted")),
        };
        let mut private = env.connect(addrs[winner], user, database)?;
        let namer = Namer::new(fresh_session_tag());
        if !config.passthrough {
            dml::ensure_status_table(&mut private)?;
            recovery::create_marker(&mut private, &namer.alive_marker())?;
        }
        Ok(PhoenixConnection {
            env,
            addrs: addrs.iter().map(|a| a.to_string()).collect(),
            current: winner,
            user: user.to_string(),
            database: database.to_string(),
            config,
            mapped,
            private,
            namer,
            ctx: SessionContext::new(),
            stats: PhoenixStats::default(),
        })
    }

    /// Grow the session's server list (e.g. when a standby comes online
    /// after the session was opened). Duplicates are ignored.
    pub fn add_server(&mut self, addr: &str) {
        if !self.addrs.iter().any(|a| a == addr) {
            self.addrs.push(addr.to_string());
        }
    }

    /// The address of the server this session currently lives on.
    pub fn current_server(&self) -> &str {
        &self.addrs[self.current]
    }

    /// Behaviour counters (recoveries, materializations, probes, …).
    pub fn stats(&self) -> &PhoenixStats {
        &self.stats
    }

    /// The active configuration.
    pub fn config(&self) -> &PhoenixConfig {
        &self.config
    }

    /// Allocate a statement handle for fetch-wise delivery and persistent
    /// cursors.
    pub fn statement(&mut self) -> PhoenixStatement<'_> {
        PhoenixStatement::new(self)
    }

    // -----------------------------------------------------------------------
    // The intercepted execute path
    // -----------------------------------------------------------------------

    /// Execute one statement through the full Phoenix pipeline, returning
    /// the complete result (queries are materialized and then read back in
    /// full; use [`PhoenixConnection::statement`] for incremental delivery).
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        if self.config.passthrough {
            return self.mapped.execute(sql);
        }
        // One-pass parse to determine request type. Unparseable requests are
        // forwarded opaquely — the server is the authority on errors.
        let stmt = match parse_statement(sql) {
            Ok(s) => s,
            Err(_) => return self.run_mapped_retry(sql),
        };
        let stmt = self.redirect_temps(&stmt);

        match classify(&stmt) {
            RequestKind::Query => match &stmt {
                Statement::Select(s) => {
                    let select = s.clone();
                    self.execute_query_complete(&select)
                }
                // EXPLAIN is read-only and idempotent: forward it directly
                // (with resubmission on comm failure). Materializing a plan
                // listing into a persistent table would be pure overhead.
                Statement::Explain(_) => self.run_mapped_retry(&render_statement(&stmt)),
                _ => unreachable!("classified Query"),
            },
            RequestKind::DataModification => self.execute_dml(&render_statement(&stmt)),
            RequestKind::Ddl => self.execute_ddl(&stmt),
            RequestKind::TxnBegin => self.execute_begin(),
            RequestKind::TxnEnd => match stmt {
                Statement::Commit => self.execute_commit(),
                _ => self.execute_rollback(),
            },
            RequestKind::SessionContext => {
                if let Statement::Set { name, value } = &stmt {
                    self.ctx.record_option(name, literal_to_value(value));
                }
                self.run_in_txn_context(&render_statement(&stmt))
            }
            RequestKind::Message => self.run_in_txn_context(&render_statement(&stmt)),
            RequestKind::Exec => self.execute_exec(&render_statement(&stmt)),
        }
    }

    /// Execute a SQL command batch (the paper lists command batches among
    /// the session-state elements Phoenix manages). Phoenix decomposes the
    /// batch client-side and runs every statement through the interception
    /// pipeline, so each piece gets the persistence treatment appropriate to
    /// its kind; execution stops at the first error, like a server batch.
    pub fn execute_batch(&mut self, sql: &str) -> Result<Vec<QueryResult>> {
        let stmts = match phoenix_sql::parse_statements(sql) {
            Ok(s) => s,
            Err(_) => {
                // Unparseable batch: forward opaquely as a single request.
                return Ok(vec![self.run_mapped_retry(sql)?]);
            }
        };
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in &stmts {
            out.push(self.execute(&render_statement(stmt))?);
        }
        Ok(out)
    }

    /// Graceful session termination: Phoenix "cleans up all persistent
    /// structures on the database server that were created to store database
    /// session state … dropping all tables and stored procedures".
    pub fn close(mut self) {
        if !self.config.passthrough {
            let mut sweep = self.ctx.debris.clone();
            sweep.extend(self.ctx.created.clone());
            for obj in sweep.iter().rev() {
                let sql = match obj.kind {
                    PhoenixObject::Table => format!("DROP TABLE IF EXISTS {}", obj.name),
                    PhoenixObject::Procedure => format!("DROP PROCEDURE IF EXISTS {}", obj.name),
                };
                let _ = self.private.execute(&sql);
            }
            let _ = dml::clear_status(&mut self.private, self.namer.tag());
        }
        self.mapped.close();
        self.private.close();
    }

    // -----------------------------------------------------------------------
    // Query path
    // -----------------------------------------------------------------------

    /// Materialize and read back a complete result set.
    fn execute_query_complete(&mut self, select: &SelectStmt) -> Result<QueryResult> {
        let m = self.materialize_with_retry(select)?;
        let sql = format!("SELECT * FROM {}", m.table);
        let mut r = self.run_mapped_retry(&sql)?;
        // Present the probed schema (it carries the query's own column
        // names and types).
        if let Outcome::ResultSet { schema, .. } = &mut r.outcome {
            *schema = m.schema.clone();
        }
        if self.config.eager_cleanup {
            // The application holds the complete result; the persistent
            // copy has served its purpose.
            self.drop_phoenix_table(&m.table);
            if let Some(p) = &m.capture_proc {
                self.drop_phoenix_proc(p);
            }
        }
        Ok(r)
    }

    /// Best-effort eager drop of a Phoenix table: demoted from verified
    /// session state first, so a failure (or crash) here can never make
    /// recovery think durable state was lost — the termination sweep will
    /// finish the job.
    pub(crate) fn drop_phoenix_table(&mut self, name: &phoenix_sql::ast::ObjectName) {
        self.ctx.demote(name);
        let _ = self
            .private
            .execute(&format!("DROP TABLE IF EXISTS {name}"));
    }

    /// Best-effort eager drop of a Phoenix procedure (see
    /// [`Self::drop_phoenix_table`]).
    pub(crate) fn drop_phoenix_proc(&mut self, name: &phoenix_sql::ast::ObjectName) {
        self.ctx.demote(name);
        let _ = self
            .private
            .execute(&format!("DROP PROCEDURE IF EXISTS {name}"));
    }

    /// Materialize a result set, retrying with fresh object names if a crash
    /// interrupts the pipeline (partially-created objects are swept at
    /// session cleanup).
    pub(crate) fn materialize_with_retry(&mut self, select: &SelectStmt) -> Result<Materialized> {
        loop {
            let table = self.namer.result_table();
            let proc = self.namer.capture_proc();
            // Reserve the names so cleanup sweeps partial runs; successful
            // materialization promotes them to verified session state.
            self.ctx.reserve(PhoenixObject::Table, table.clone());
            self.ctx.reserve(PhoenixObject::Procedure, proc.clone());
            match materialize::materialize(
                &mut self.mapped,
                &mut self.private,
                table,
                proc,
                select,
                self.config.capture,
            ) {
                Ok(m) => {
                    self.ctx.register(PhoenixObject::Table, m.table.clone());
                    if let Some(p) = &m.capture_proc {
                        self.ctx.register(PhoenixObject::Procedure, p.clone());
                    }
                    self.stats.materialized_result_sets += 1;
                    return Ok(m);
                }
                Err(e) if e.is_comm() => {
                    self.recover()?;
                    self.replay_open_txn()?;
                    self.stats.resubmissions += 1;
                    // Loop: fresh names, full re-run.
                }
                Err(e) => return Err(e),
            }
        }
    }

    // -----------------------------------------------------------------------
    // DML path
    // -----------------------------------------------------------------------

    fn execute_dml(&mut self, sql: &str) -> Result<QueryResult> {
        if self.ctx.txn_open {
            // Inside an application transaction Phoenix does not wrap — the
            // outcome becomes testable via the status record injected at
            // COMMIT, and the statement is logged for replay.
            let r = self.run_in_txn_context(sql)?;
            return Ok(r);
        }

        let session = self.namer.tag().to_string();
        let tag = self.namer.request_tag();
        self.stats.wrapped_dml += 1;
        loop {
            match dml::wrap_and_execute(&mut self.mapped, &session, tag, sql) {
                Ok(out) => return Ok(dml_reply(out)),
                Err(e) if e.is_comm() => {
                    self.recover()?;
                    self.stats.status_probes += 1;
                    if let Some(out) = self.probe_status_retry(tag)? {
                        // Committed before the crash: return the logged
                        // outcome (the preserved reply buffer).
                        self.note_replayed_reply(tag);
                        return Ok(dml_reply(out));
                    }
                    self.stats.resubmissions += 1;
                    // Not committed: resubmit the wrapped transaction.
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Execute a slate of independent DML statements with protocol v2
    /// pipelining: each statement travels as **one** `ExecBatch` frame
    /// (`BEGIN; dml; status insert via @@ROWCOUNT; COMMIT`) and up to the
    /// negotiated window of them is in flight at once. Results come back in
    /// submission order.
    ///
    /// This is the pipelined face of the paper's exactly-once DML treatment:
    /// a crash with `k` requests in flight leaves each one individually
    /// testable in `phoenix.status` under its `(session, tag)` key —
    /// committed requests replay their logged outcome, uncommitted ones are
    /// resubmitted. A server-reported statement error aborts that
    /// statement's wrapper and surfaces after the window drains; statements
    /// already submitted behind it fail their own `BEGIN` against the
    /// dangling transaction, so nothing beyond the failed statement applies.
    pub fn execute_pipelined(&mut self, stmts: &[String]) -> Result<Vec<QueryResult>> {
        if self.config.passthrough {
            let mut out = Vec::with_capacity(stmts.len());
            for sql in stmts {
                out.push(self.mapped.execute(sql)?);
            }
            return Ok(out);
        }
        if self.ctx.txn_open {
            // Inside an application transaction the wrappers cannot nest;
            // fall back to the interception pipeline statement by statement
            // (each is logged for transaction replay).
            let mut out = Vec::with_capacity(stmts.len());
            for sql in stmts {
                out.push(self.execute(sql)?);
            }
            return Ok(out);
        }
        let session = self.namer.tag().to_string();
        let jobs: Vec<(u64, String)> = stmts
            .iter()
            .map(|sql| (self.namer.request_tag(), sql.clone()))
            .collect();
        self.stats.wrapped_dml += jobs.len() as u64;
        self.stats.pipelined_dml += jobs.len() as u64;
        let mut results: Vec<Option<DmlOutcome>> = vec![None; jobs.len()];
        loop {
            match self.pipeline_round(&session, &jobs, &mut results) {
                Ok(()) => {
                    return Ok(results
                        .into_iter()
                        .map(|o| dml_reply(o.expect("completed round resolves every job")))
                        .collect());
                }
                Err(e) if e.is_comm() => {
                    self.recover()?;
                    // Probe the whole in-flight window: every unresolved tag
                    // is individually testable in the status table.
                    for (i, (tag, _)) in jobs.iter().enumerate() {
                        if results[i].is_none() {
                            self.stats.status_probes += 1;
                            if let Some(out) = self.probe_status_retry(*tag)? {
                                self.note_replayed_reply(*tag);
                                results[i] = Some(out);
                            } else {
                                self.stats.resubmissions += 1;
                            }
                        }
                    }
                    // Unresolved jobs never committed: resubmit them.
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One pipelined pass over the unresolved jobs. Fills `results` for
    /// every job whose wrapper committed and replied; a statement error
    /// drains the window, rolls the dangling wrapper back and surfaces.
    fn pipeline_round(
        &mut self,
        session: &str,
        jobs: &[(u64, String)],
        results: &mut [Option<DmlOutcome>],
    ) -> Result<()> {
        let mut failure: Option<DriverError> = None;
        {
            let mut pipe = self.mapped.pipeline();
            let mut pending: Vec<(usize, u64)> = Vec::new();
            for (i, (tag, sql)) in jobs.iter().enumerate() {
                if results[i].is_some() {
                    continue;
                }
                let ptag = pipe.submit_batch(&dml::pipelined_batch(session, *tag, sql))?;
                pending.push((i, ptag));
            }
            for (i, ptag) in pending {
                let items = pipe.wait_batch(ptag)?;
                match batch_outcome(&items) {
                    Ok(out) => results[i] = Some(out),
                    Err(e) => {
                        // First statement error wins; later wrappers hit the
                        // dangling transaction and report nested-BEGIN noise
                        // that the application never asked about.
                        failure.get_or_insert(e);
                    }
                }
            }
        }
        if let Some(e) = failure {
            // The failed wrapper's transaction is still open server-side.
            let _ = self.mapped.execute("ROLLBACK");
            return Err(e);
        }
        Ok(())
    }

    /// Execute a stored-procedure call. Procedures can modify data, so —
    /// like DML — the call is wrapped in a status-recording transaction and
    /// resubmitted only when the status probe proves it never committed
    /// (exactly-once). Procedures that manage their *own* transactions
    /// cannot be wrapped (the nested BEGIN errors out); those fall back to
    /// plain forwarding, where a crash in the commit-to-reply window gives
    /// at-least-once semantics (documented limitation; the paper's
    /// treatment of procedures with internal transactions is equally
    /// best-effort). A wrapped call that committed before a crash replays
    /// its logged rows-affected and messages; any result-set rows it
    /// produced are not reconstructable from the status record.
    fn execute_exec(&mut self, sql: &str) -> Result<QueryResult> {
        if self.ctx.txn_open {
            return self.run_in_txn_context(sql);
        }
        let session = self.namer.tag().to_string();
        let tag = self.namer.request_tag();
        self.stats.wrapped_dml += 1;
        loop {
            let attempt = (|| -> Result<QueryResult> {
                self.mapped.execute("BEGIN")?;
                let r = match self.mapped.execute(sql) {
                    Ok(r) => r,
                    Err(e) => {
                        if !e.is_comm() {
                            let _ = self.mapped.execute("ROLLBACK");
                        }
                        return Err(e);
                    }
                };
                let affected = match &r.outcome {
                    Outcome::RowsAffected(n) => *n,
                    _ => 0,
                };
                self.mapped.execute(&dml::status_insert_sql(
                    &session,
                    tag,
                    affected,
                    &r.messages,
                ))?;
                self.mapped.execute("COMMIT")?;
                Ok(r)
            })();
            match attempt {
                Ok(r) => return Ok(r),
                Err(DriverError::Sql { code, .. }) if code == codes::TXN => {
                    // The procedure opened (or closed) its own transaction:
                    // unwrappable. Forward plainly.
                    return self.run_mapped_retry(sql);
                }
                Err(e) if e.is_comm() => {
                    self.recover()?;
                    self.stats.status_probes += 1;
                    if let Some(out) = self.probe_status_retry(tag)? {
                        self.note_replayed_reply(tag);
                        return Ok(dml_reply(out));
                    }
                    self.stats.resubmissions += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Count and journal a reply-buffer hit: a request answered from its
    /// status record instead of being re-executed.
    fn note_replayed_reply(&mut self, tag: u64) {
        self.stats.replied_from_status += 1;
        core_metrics().replayed_replies.inc();
        journal().record(
            "core",
            EventKind::ReplyReplayed,
            format!(
                "request {}:{tag} answered from status table",
                self.namer.tag()
            ),
        );
    }

    fn probe_status_retry(&mut self, tag: u64) -> Result<Option<DmlOutcome>> {
        let session = self.namer.tag().to_string();
        loop {
            match dml::probe_status(&mut self.private, &session, tag) {
                Ok(r) => return Ok(r),
                Err(e) if e.is_comm() => self.recover()?,
                Err(e) => return Err(e),
            }
        }
    }

    // -----------------------------------------------------------------------
    // Application transactions
    // -----------------------------------------------------------------------

    fn execute_begin(&mut self) -> Result<QueryResult> {
        if self.ctx.txn_open {
            // Let the server report the nesting error.
            return self.mapped.execute("BEGIN");
        }
        let r = self.run_mapped_retry("BEGIN")?;
        let tag = self.namer.request_tag();
        self.ctx.txn_begin(tag);
        Ok(r)
    }

    fn execute_commit(&mut self) -> Result<QueryResult> {
        if !self.ctx.txn_open {
            return self.mapped.execute("COMMIT");
        }
        let session = self.namer.tag().to_string();
        let tag = self.ctx.txn_tag.expect("open txn always has a request tag");
        loop {
            // The paper's reply-buffer write: record the transaction outcome
            // in the status table *inside* the transaction, then commit.
            let attempt = (|| -> Result<QueryResult> {
                self.mapped
                    .execute(&dml::status_insert_sql(&session, tag, 0, &[]))?;
                self.mapped.execute("COMMIT")
            })();
            match attempt {
                Ok(r) => {
                    self.ctx.txn_end();
                    return Ok(r);
                }
                Err(e) if e.is_comm() => {
                    self.recover()?;
                    self.stats.status_probes += 1;
                    if self.probe_status_retry(tag)?.is_some() {
                        // The commit made it before the crash.
                        self.note_replayed_reply(tag);
                        self.ctx.txn_end();
                        return Ok(QueryResult {
                            outcome: Outcome::Done,
                            messages: Vec::new(),
                        });
                    }
                    // Transaction lost: replay it and retry the commit.
                    self.replay_open_txn()?;
                    self.stats.resubmissions += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn execute_rollback(&mut self) -> Result<QueryResult> {
        if !self.ctx.txn_open {
            return self.mapped.execute("ROLLBACK");
        }
        let result = self.mapped.execute("ROLLBACK");
        match result {
            Ok(r) => {
                self.ctx.txn_end();
                Ok(r)
            }
            Err(e) if e.is_comm() => {
                // The crash rolled the transaction back for us.
                self.recover()?;
                self.ctx.txn_end();
                Ok(QueryResult {
                    outcome: Outcome::Done,
                    messages: Vec::new(),
                })
            }
            Err(e) => Err(e),
        }
    }

    /// Re-establish a lost application transaction by replaying its logged
    /// statements (application message logging; assumes deterministic SQL,
    /// the paper's piecewise-determinism premise).
    pub(crate) fn replay_open_txn(&mut self) -> Result<()> {
        if !self.ctx.txn_open {
            return Ok(());
        }
        loop {
            let attempt = (|| -> Result<()> {
                self.mapped.execute("BEGIN")?;
                let log = self.ctx.txn_log.clone();
                for sql in &log {
                    self.mapped.execute(sql)?;
                    self.stats.replayed_txn_statements += 1;
                }
                Ok(())
            })();
            match attempt {
                Ok(()) => return Ok(()),
                Err(e) if e.is_comm() => self.recover()?,
                Err(e) => return Err(e),
            }
        }
    }

    // -----------------------------------------------------------------------
    // DDL / temp objects
    // -----------------------------------------------------------------------

    fn execute_ddl(&mut self, stmt: &Statement) -> Result<QueryResult> {
        // Temporary object creation → persistent stand-in (paper §3,
        // "Temporary Objects"). The liveness marker is exempt — it must stay
        // genuinely temporary.
        if let Some(temp) = creates_temp_object(stmt).cloned() {
            let kind = match stmt {
                Statement::CreateProc(_) => PhoenixObject::Procedure,
                _ => PhoenixObject::Table,
            };
            let stand_in = self.namer.temp_stand_in(&temp);
            let renamed = rename_table_refs(stmt, &temp, &stand_in);
            let r = self.run_ddl_reconciled(&render_statement(&renamed))?;
            self.ctx.map_temp(temp, kind, stand_in);
            return Ok(r);
        }
        if let Some(temp) = drops_temp_object(stmt).cloned() {
            if let Some(obj) = self.ctx.unmap_temp(&temp) {
                let renamed = rename_table_refs(stmt, &temp, &obj.name);
                let r = self.run_ddl_reconciled(&render_statement(&renamed))?;
                // The stand-in no longer exists: demote it from verified
                // session state (recovery must not require it) to debris
                // (the termination sweep stays harmless).
                self.ctx.demote(&obj.name);
                return Ok(r);
            }
            // Unknown temp object: let the server report it.
            return self.mapped.execute(&render_statement(stmt));
        }
        let sql = render_statement(stmt);
        if self.ctx.txn_open {
            return self.run_in_txn_context(&sql);
        }
        self.run_ddl_reconciled(&sql)
    }

    /// Run DDL with resubmission after recovery; an `AlreadyExists` (CREATE)
    /// or `NotFound` (DROP) on a *resubmitted* statement means the original
    /// execution succeeded and only its reply was lost.
    fn run_ddl_reconciled(&mut self, sql: &str) -> Result<QueryResult> {
        let mut resubmitted = false;
        loop {
            match self.mapped.execute(sql) {
                Ok(r) => return Ok(r),
                Err(e) if e.is_comm() => {
                    self.recover()?;
                    self.replay_open_txn()?;
                    self.stats.resubmissions += 1;
                    resubmitted = true;
                }
                Err(DriverError::Sql { code, .. })
                    if resubmitted
                        && (code == codes::ALREADY_EXISTS || code == codes::NOT_FOUND) =>
                {
                    return Ok(QueryResult {
                        outcome: Outcome::Done,
                        messages: Vec::new(),
                    });
                }
                Err(e) => return Err(e),
            }
        }
    }

    // -----------------------------------------------------------------------
    // Forwarding with recovery
    // -----------------------------------------------------------------------

    /// Forward an idempotent statement on the mapped connection, recovering
    /// and resubmitting on communication failure.
    pub(crate) fn run_mapped_retry(&mut self, sql: &str) -> Result<QueryResult> {
        loop {
            match self.mapped.execute(sql) {
                Ok(r) => return Ok(r),
                Err(e) if e.is_comm() => {
                    self.recover()?;
                    self.replay_open_txn()?;
                    self.stats.resubmissions += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Forward a statement, logging it in the open application transaction
    /// (so the transaction can be replayed).
    fn run_in_txn_context(&mut self, sql: &str) -> Result<QueryResult> {
        let r = self.run_mapped_retry(sql)?;
        self.ctx.txn_log_statement(sql);
        Ok(r)
    }

    // -----------------------------------------------------------------------
    // Recovery (paper §3, "Server and Session Crash Recovery")
    // -----------------------------------------------------------------------

    /// Recover the virtual session after a detected failure.
    ///
    /// Phase 0 — decide crash vs. blip with the liveness proxy on the
    /// private connection. Phase 1 — rebuild connections and replay the
    /// session context. Phase 2 — verify that every Phoenix-materialized
    /// table survived database recovery. (Statement-level reinstallation —
    /// repositioning result delivery, probing in-flight requests — is done
    /// by the call sites that know what was in flight.)
    pub(crate) fn recover(&mut self) -> Result<()> {
        self.stats.recoveries += 1;
        journal().record(
            "core",
            EventKind::CrashDetected,
            "communication failure intercepted; recovering virtual session",
        );
        let t0 = std::time::Instant::now();
        let deadline = t0 + self.config.recovery.max_wait;

        // The whole recovery sequence retries as a unit: a *second* crash
        // landing mid-recovery just sends us around again, until the
        // configured window is exhausted (then the communication error goes
        // to the application, per the paper's give-up policy).
        loop {
            match self.try_recover_once() {
                Ok(()) => {
                    let us = t0.elapsed().as_micros() as u64;
                    self.stats.last_recovery_virtual_us = us;
                    self.stats.recovery_virtual_us += us;
                    let m = core_metrics();
                    m.recoveries.inc();
                    m.recovery_us.record(us);
                    journal().record(
                        "core",
                        EventKind::RecoveryComplete,
                        format!("virtual session re-established in {us} us"),
                    );
                    return Ok(());
                }
                Err(e) if e.is_comm() && std::time::Instant::now() < deadline => {
                    std::thread::sleep(self.config.recovery.ping_interval);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One attempt at the full recovery sequence (see [`Self::recover`]).
    fn try_recover_once(&mut self) -> Result<()> {
        // Phase 0: if the private connection's session still exists, the
        // server never crashed — only the mapped link failed.
        let marker = self.namer.alive_marker();
        let blip = !self.private.is_poisoned()
            && recovery::session_alive(&mut self.private, &marker).unwrap_or(false);

        if !blip {
            // Full path: ping until *some* listed server answers a login —
            // rotating through the whole server list, so a promoted standby
            // is found as readily as a restarted primary — then rebuild the
            // private connection there and re-create the proxy marker.
            let (private, attempts) = recovery::reconnect_loop(
                &self.env,
                &self.addrs,
                &self.user,
                &self.database,
                Vec::new(),
                &self.config.recovery,
            )?;
            // Attempt k dialed addrs[(k-1) % len]: the session now lives on
            // the address the final (successful) attempt hit.
            self.current = (attempts as usize - 1) % self.addrs.len();
            self.stats.reconnect_attempts += attempts;
            self.private = private;
            recovery::create_marker(&mut self.private, &marker)?;
            dml::ensure_status_table(&mut self.private)?;
        }

        // Phase 1: rebuild the mapped connection, replaying the recorded
        // session context (login info + SET options). Pinned to the server
        // the private connection landed on — probe and execution must see
        // the same database. The pinned wait is clamped to a few ping
        // intervals: if this one server dies between the phases (a crash
        // can race phase 0 onto a half-dead primary whose listener closes
        // a moment later), retrying the single pinned address would burn
        // the whole recovery window on connection-refused. Failing fast
        // instead — with the private link poisoned so the blip shortcut
        // cannot re-trust a session on the dead server — sends the outer
        // loop around the full sequence, which rotates to the survivors.
        let pinned = std::slice::from_ref(&self.addrs[self.current]);
        let mut pinned_settings = self.config.recovery.clone();
        pinned_settings.max_wait = pinned_settings
            .max_wait
            .min((pinned_settings.ping_interval * 10).max(std::time::Duration::from_millis(200)));
        let (mapped, attempts) = match recovery::reconnect_loop(
            &self.env,
            pinned,
            &self.user,
            &self.database,
            self.ctx.options.clone(),
            &pinned_settings,
        ) {
            Ok(v) => v,
            Err(e) => {
                self.private.poison();
                return Err(e);
            }
        };
        self.stats.reconnect_attempts += attempts;
        self.mapped = mapped;
        journal().record(
            "core",
            EventKind::ContextReinstalled,
            format!(
                "mapped connection rebuilt; {} SET option(s) replayed",
                self.ctx.options.len()
            ),
        );

        if !blip {
            // Phase 2: verify materialized session state was recovered by
            // the database recovery mechanisms.
            let mut verified = 0u64;
            for obj in self.ctx.created.clone() {
                if obj.kind == PhoenixObject::Table {
                    if !recovery::verify_table(&mut self.private, &obj.name)? {
                        return Err(DriverError::Recovery(format!(
                            "phoenix session state lost: table {} missing after recovery",
                            obj.name
                        )));
                    }
                    verified += 1;
                }
            }
            journal().record(
                "core",
                EventKind::StateVerified,
                format!("{verified} materialized table(s) verified present"),
            );
        }
        Ok(())
    }

    // -----------------------------------------------------------------------
    // Temp-object redirection
    // -----------------------------------------------------------------------

    /// Rewrite references to known temp objects into their persistent
    /// stand-ins.
    pub(crate) fn redirect_temps(&self, stmt: &Statement) -> Statement {
        let mut current = stmt.clone();
        for temp in temp_object_refs(stmt) {
            // Skip the object being created or dropped by this very
            // statement — DDL handling resolves those names itself (and
            // must see the temp spelling to update the redirection map).
            if creates_temp_object(stmt).is_some_and(|c| c.same_as(&temp))
                || drops_temp_object(stmt).is_some_and(|d| d.same_as(&temp))
            {
                continue;
            }
            if let Some(obj) = self.ctx.temp_stand_in(&temp) {
                current = rename_table_refs(&current, &temp, &obj.name.clone());
            }
        }
        // EXEC of a redirected temp procedure.
        if let Statement::Exec(e) = &current {
            if e.name.is_temp() {
                if let Some(obj) = self.ctx.temp_stand_in(&e.name) {
                    current = rename_table_refs(&current, &e.name.clone(), &obj.name.clone());
                }
            }
        }
        current
    }
}

fn dml_reply(out: DmlOutcome) -> QueryResult {
    QueryResult {
        outcome: Outcome::RowsAffected(out.affected),
        messages: out.messages,
    }
}

/// Interpret a pipelined wrapper's batch reply: `[BEGIN; dml; status
/// insert; COMMIT]`. The DML's own item (index 1) carries the outcome; any
/// error item aborts the wrapper and surfaces as the statement's error.
fn batch_outcome(
    items: &[phoenix_wire::message::BatchItem],
) -> std::result::Result<DmlOutcome, DriverError> {
    use phoenix_wire::message::BatchItem;
    for item in items {
        if let BatchItem::Err { code, message } = item {
            return Err(DriverError::Sql {
                code: *code,
                message: message.clone(),
            });
        }
    }
    match items.get(1) {
        Some(BatchItem::Ok { outcome, messages }) => Ok(DmlOutcome {
            affected: match outcome {
                Outcome::RowsAffected(n) => *n,
                _ => 0,
            },
            messages: messages.clone(),
        }),
        _ => Err(DriverError::Protocol(format!(
            "pipelined DML wrapper returned {} item(s) without an error",
            items.len()
        ))),
    }
}

/// Extract a value from a SET literal (non-literals are stored rendered).
fn literal_to_value(e: &phoenix_sql::ast::Expr) -> Value {
    use phoenix_sql::ast::{Expr, Literal};
    match e {
        Expr::Literal(Literal::Null) => Value::Null,
        Expr::Literal(Literal::Int(i)) => Value::Int(*i),
        Expr::Literal(Literal::Float(f)) => Value::Float(*f),
        Expr::Literal(Literal::String(s)) => Value::Text(s.clone()),
        Expr::Literal(Literal::Bool(b)) => Value::Bool(*b),
        Expr::Literal(Literal::Date(d)) => phoenix_storage::types::parse_date(d)
            .map(Value::Date)
            .unwrap_or(Value::Null),
        other => Value::Text(phoenix_sql::display::render_expr(other)),
    }
}
