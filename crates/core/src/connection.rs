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
//!   must mask from the application: capturing result sets into persistent
//!   tables, pinging for server recovery, probing the status table, and
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
use crate::dml;
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
    /// Microseconds spent reinstalling SQL state after the most recent
    /// recovery that interrupted result delivery — from the recovery's end
    /// to the reply of the first window read at the delivery position; the
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
    /// DML and `EXEC` statements wrapped with status records (one
    /// `ExecBatch` request each).
    pub wrapped_dml: u64,
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
    /// The server the session lives on. Both underlying connections point
    /// at it, and recovery reconnects to it once it has restarted.
    pub(crate) addr: String,
    pub(crate) user: String,
    pub(crate) database: String,
    pub(crate) config: PhoenixConfig,
    pub(crate) mapped: Connection,
    pub(crate) private: Connection,
    pub(crate) namer: Namer,
    pub(crate) ctx: SessionContext,
    pub(crate) stats: PhoenixStats,
    /// When the most recent recovery finished (the connect, before any).
    pub(crate) recovered_at: std::time::Instant,
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
        let env = env.clone().with_read_timeout(config.recovery.read_timeout);
        let mapped = env.connect(addr, user, database)?;
        let mut private = env.connect(addr, user, database)?;
        let namer = Namer::new(fresh_session_tag());
        dml::ensure_status_table(&mut private)?;
        recovery::create_marker(&mut private, &namer.alive_marker())?;
        Ok(PhoenixConnection {
            env,
            addr: addr.to_string(),
            user: user.to_string(),
            database: database.to_string(),
            config,
            mapped,
            private,
            namer,
            ctx: SessionContext::new(),
            stats: PhoenixStats::default(),
            recovered_at: std::time::Instant::now(),
        })
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
        // One-pass parse to determine request type. Unparseable requests are
        // forwarded opaquely — the server is the authority on errors.
        let stmt = match parse_statement(sql) {
            Ok(s) => s,
            Err(_) => return self.run_mapped_retry(sql),
        };
        let stmt = self.redirect_temps(&stmt);

        match classify(&stmt) {
            RequestKind::Query => match &stmt {
                // Only the transaction's own session reads its uncommitted
                // writes, so a query inside an application transaction runs
                // there and its whole result comes back in the reply; after
                // a crash the transaction is replayed and the query resent.
                Statement::Select(_) if self.ctx.txn_open => {
                    self.run_mapped_retry(&render_statement(&stmt))
                }
                // Anywhere else it is materialized, and the read-back in
                // the capture's own request is the application's result.
                Statement::Select(s) => Ok(self.materialize(s, Some(""))?.reply),
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
        self.mapped.close();
        self.private.close();
    }

    // -----------------------------------------------------------------------
    // Query path
    // -----------------------------------------------------------------------

    /// Materialize a result set in one request (reading back with `read`,
    /// see [`materialize::materialize`]), re-running it under a fresh name
    /// if a crash interrupts it (a table whose commit beat the crash is
    /// swept at session cleanup).
    pub(crate) fn materialize(
        &mut self,
        select: &SelectStmt,
        read: Option<&str>,
    ) -> Result<Materialized> {
        let m = self.with_recovery(true, |pc, _| {
            let table = pc.namer.result_table();
            // Reserve the name so cleanup sweeps an interrupted run; a
            // successful one promotes it to verified session state.
            pc.ctx.reserve(PhoenixObject::Table, table.clone());
            materialize::materialize(&mut pc.private, table, select, read)
        })?;
        self.ctx.register(PhoenixObject::Table, m.table.clone());
        self.stats.materialized_result_sets += 1;
        Ok(m)
    }

    // -----------------------------------------------------------------------
    // The exactly-once wrapper (DML, EXEC, the application's COMMIT)
    // -----------------------------------------------------------------------

    fn execute_dml(&mut self, sql: &str) -> Result<QueryResult> {
        if self.ctx.txn_open {
            // Inside an application transaction Phoenix does not wrap — the
            // outcome becomes testable via the status record injected at
            // COMMIT, and the statement is logged for replay.
            return self.run_in_txn_context(sql);
        }
        Ok(self.wrap_each(&[sql])?.remove(0))
    }

    /// Execute a slate of independent DML statements with protocol v2
    /// pipelining: each statement travels as **one** `ExecBatch` frame (its
    /// own status-recording transaction) and up to the negotiated window of
    /// them is in flight at once. Results come back in submission order.
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
        self.wrap_each(stmts)
    }

    /// Execute a stored-procedure call. Procedures can modify data, so —
    /// like DML — the call is wrapped in a status-recording transaction and
    /// resubmitted only when the status probe proves it never committed
    /// (exactly-once). Procedures that manage their *own* transactions
    /// cannot be wrapped (the nested BEGIN errors out and the wrapper rolls
    /// back); those fall back to plain forwarding, where a crash in the
    /// commit-to-reply window gives at-least-once semantics (documented
    /// limitation; the paper's treatment of procedures with internal
    /// transactions is equally best-effort). A wrapped call that committed
    /// before a crash replays its logged row count and messages; any
    /// result-set rows it produced are not reconstructable from the status
    /// record.
    fn execute_exec(&mut self, sql: &str) -> Result<QueryResult> {
        if self.ctx.txn_open {
            return self.run_in_txn_context(sql);
        }
        match self.wrap_each(&[sql]) {
            Ok(mut r) => Ok(r.remove(0)),
            Err(DriverError::Sql { code, .. }) if code == codes::TXN => self.run_mapped_retry(sql),
            Err(e) => Err(e),
        }
    }

    /// Wrap each statement in its own status-recording transaction and run
    /// them, pipelined, through [`Self::run_wrapped`].
    fn wrap_each<S: AsRef<str>>(&mut self, stmts: &[S]) -> Result<Vec<QueryResult>> {
        let session = self.namer.tag().to_string();
        let tags: Vec<u64> = stmts.iter().map(|_| self.namer.request_tag()).collect();
        let batches: Vec<Vec<String>> = stmts
            .iter()
            .zip(&tags)
            .map(|(sql, tag)| dml::wrapped(&session, *tag, sql.as_ref()))
            .collect();
        self.stats.wrapped_dml += tags.len() as u64;
        self.run_wrapped(&tags, &batches)
    }

    /// The one recover → probe → resubmit loop: batch `i` carries the
    /// status record of request `tags[i]`. Every batch is sent as one
    /// `ExecBatch` (pipelined when there are several); after a
    /// communication failure every unanswered tag is probed in the status
    /// table — committed ones replay their logged outcome, the rest are
    /// resubmitted, inside the re-established application transaction when
    /// one is open.
    ///
    /// A batch whose `COMMIT` lost a write conflict is probed too: a status
    /// row means the winner was the request itself — an original still
    /// running when its resubmission went out — and its outcome is the
    /// reply; no row means another session won, and the request runs again,
    /// except the application's own `COMMIT`, whose transaction is gone and
    /// which reports the conflict. A resubmitted request that violates a
    /// constraint is probed the same way, since its original may have
    /// committed, status row and all, before it began.
    fn run_wrapped(&mut self, tags: &[u64], batches: &[Vec<String>]) -> Result<Vec<QueryResult>> {
        let mut replies: Vec<Option<QueryResult>> = vec![None; tags.len()];
        let mut resubmitted = false;
        loop {
            match dml::run_batches(&mut self.mapped, batches, dml::REPLY_ITEM, &mut replies) {
                Ok(()) => break,
                Err(e) if e.is_comm() => {
                    self.recover()?;
                    let unanswered = self.probe_unanswered(tags, &mut replies)?;
                    if unanswered > 0 {
                        self.stats.resubmissions += unanswered;
                        resubmitted = true;
                        self.replay_open_txn()?;
                    }
                }
                Err(DriverError::Sql { code, message })
                    if code == codes::CONFLICT || (resubmitted && code == codes::CONSTRAINT) =>
                {
                    let unanswered = self.probe_unanswered(tags, &mut replies)?;
                    if unanswered > 0 {
                        if code != codes::CONFLICT || self.ctx.txn_open {
                            return Err(DriverError::Sql { code, message });
                        }
                        self.stats.resubmissions += unanswered;
                        resubmitted = true;
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(replies
            .into_iter()
            .map(|r| r.expect("a completed round answers every request"))
            .collect())
    }

    /// Probe every unanswered request's status row: a committed request's
    /// logged outcome becomes its reply. Returns how many requests are
    /// still unanswered.
    fn probe_unanswered(
        &mut self,
        tags: &[u64],
        replies: &mut [Option<QueryResult>],
    ) -> Result<u64> {
        let session = self.namer.tag().to_string();
        let mut unanswered = 0;
        for (tag, reply) in tags.iter().zip(replies) {
            if reply.is_some() {
                continue;
            }
            self.stats.status_probes += 1;
            match self.with_recovery(false, |pc, _| {
                dml::probe_status(&mut pc.private, &session, *tag)
            })? {
                Some(out) => {
                    // Committed: the logged outcome is the preserved reply
                    // buffer.
                    self.note_replayed_reply(*tag);
                    *reply = Some(out);
                }
                None => unanswered += 1,
            }
        }
        Ok(unanswered)
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
        // The paper's reply-buffer write: the status record commits with the
        // transaction, in the same request as the COMMIT.
        let result = self.run_wrapped(&[tag], &[dml::commit(&session, tag)]);
        // Committed, or rolled back by the wrapper on a server error: either
        // way the transaction is over.
        if !matches!(&result, Err(e) if e.is_comm()) {
            self.ctx.txn_end();
        }
        result.map(|_| done())
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
                Ok(done())
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
        // `[BEGIN; log…]`, one request, left open for the application.
        let mut batch = Vec::with_capacity(self.ctx.txn_log.len() + 1);
        batch.push("BEGIN".to_string());
        batch.extend(self.ctx.txn_log.iter().cloned());
        self.with_recovery(false, |pc, _| {
            let batches = std::slice::from_ref(&batch);
            dml::run_batches(&mut pc.mapped, batches, 0, &mut [None])
        })?;
        self.stats.replayed_txn_statements += batch.len() as u64 - 1;
        Ok(())
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
        self.with_recovery(true, |pc, resubmitted| match pc.mapped.execute(sql) {
            Err(DriverError::Sql { code, .. })
                if resubmitted && (code == codes::ALREADY_EXISTS || code == codes::NOT_FOUND) =>
            {
                Ok(done())
            }
            r => r,
        })
    }

    // -----------------------------------------------------------------------
    // Forwarding with recovery
    // -----------------------------------------------------------------------

    /// Run `attempt` until it answers other than with a communication
    /// failure; after each such failure the session is recovered first. A
    /// `resubmit`ting caller sends the request again: the open application
    /// transaction is re-established before the attempt and the attempt
    /// counts as a resubmission. `attempt` is told whether it is a rerun.
    pub(crate) fn with_recovery<T>(
        &mut self,
        resubmit: bool,
        mut attempt: impl FnMut(&mut Self, bool) -> Result<T>,
    ) -> Result<T> {
        let mut rerun = false;
        loop {
            match attempt(self, rerun) {
                Err(e) if e.is_comm() => {
                    self.recover()?;
                    if resubmit {
                        self.replay_open_txn()?;
                        self.stats.resubmissions += 1;
                    }
                    rerun = true;
                }
                r => return r,
            }
        }
    }

    /// Forward an idempotent statement on the mapped connection, recovering
    /// and resubmitting on communication failure.
    pub(crate) fn run_mapped_retry(&mut self, sql: &str) -> Result<QueryResult> {
        self.with_recovery(true, |pc, _| pc.mapped.execute(sql))
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
                    self.recovered_at = std::time::Instant::now();
                    let us = self.recovered_at.duration_since(t0).as_micros() as u64;
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
            // Full path: ping until the server answers, then rebuild the
            // private connection and re-create the proxy marker.
            let (private, attempts) = recovery::reconnect_loop(
                &self.env,
                &self.addr,
                &self.user,
                &self.database,
                Vec::new(),
                &self.config.recovery,
            )?;
            self.stats.reconnect_attempts += attempts;
            self.private = private;
            recovery::create_marker(&mut self.private, &marker)?;
            dml::ensure_status_table(&mut self.private)?;
        }

        // Phase 1: rebuild the mapped connection, replaying the recorded
        // session context (login info + SET options).
        let (mapped, attempts) = recovery::reconnect_loop(
            &self.env,
            &self.addr,
            &self.user,
            &self.database,
            self.ctx.options.clone(),
            &self.config.recovery,
        )?;
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

fn done() -> QueryResult {
    QueryResult {
        outcome: Outcome::Done,
        messages: Vec::new(),
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
