//! Engine-layer metric handles, registered once and cached in a static.
//!
//! Statement latency is a labeled histogram family, one series per
//! statement class; the per-class `Arc`s are resolved at registration time
//! so classifying + recording on the execute path costs one match and one
//! atomic `fetch_add`.

use std::sync::{Arc, OnceLock};

use phoenix_obs::{registry, Counter, Gauge, Histogram};
use phoenix_sql::ast::Statement;

/// Cached handles for every engine metric.
pub struct EngineMetrics {
    /// Live sessions (`phoenix_sessions_active`).
    pub sessions_active: Arc<Gauge>,
    /// Sessions ever opened (`phoenix_sessions_opened_total`).
    pub sessions_opened: Arc<Counter>,
    /// Logins refused with a retryable `Busy` at the `max_sessions` cap
    /// (`phoenix_sessions_refused_total`).
    pub sessions_refused: Arc<Counter>,
    /// Server cursors opened (`phoenix_cursor_opens_total`).
    pub cursor_opens: Arc<Counter>,
    /// Cursor fetch calls served (`phoenix_cursor_fetches_total`).
    pub cursor_fetches: Arc<Counter>,
    /// Session temp tables currently alive (`phoenix_temp_tables`) — the
    /// paper's liveness-proxy objects.
    pub temp_tables: Arc<Gauge>,
    /// CREATE/DROP INDEX statements applied (`phoenix_index_ddl_total`).
    pub index_ddl: Arc<Counter>,
    /// Autocommit statements run again because their commit lost a write
    /// conflict (`phoenix_autocommit_reruns_total`).
    pub autocommit_reruns: Arc<Counter>,
    select: Arc<Histogram>,
    insert: Arc<Histogram>,
    update: Arc<Histogram>,
    delete: Arc<Histogram>,
    ddl: Arc<Histogram>,
    txn: Arc<Histogram>,
    proc: Arc<Histogram>,
    other: Arc<Histogram>,
}

impl EngineMetrics {
    /// The `phoenix_stmt_latency_us{class=...}` series for a statement.
    pub fn stmt_latency(&self, stmt: &Statement) -> &Histogram {
        match stmt {
            Statement::Select(_) => &self.select,
            Statement::Insert(_) => &self.insert,
            Statement::Update(_) => &self.update,
            Statement::Delete(_) => &self.delete,
            Statement::CreateTable(_)
            | Statement::CreateTableAs { .. }
            | Statement::DropTable { .. }
            | Statement::CreateProc(_)
            | Statement::DropProc { .. }
            | Statement::CreateIndex { .. }
            | Statement::DropIndex { .. } => &self.ddl,
            Statement::Begin | Statement::Commit | Statement::Rollback => &self.txn,
            Statement::Exec(_) => &self.proc,
            // EXPLAIN plans but never touches data; bill it with SELECT.
            Statement::Explain(_) => &self.select,
            Statement::Set { .. } | Statement::Print(_) => &self.other,
        }
    }
}

/// The engine metric set, registered on first use.
pub fn engine_metrics() -> &'static EngineMetrics {
    static M: OnceLock<EngineMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = registry();
        let lat = |class: &str| {
            r.histogram_with(
                "phoenix_stmt_latency_us",
                "statement execute latency by class in microseconds",
                &[("class", class)],
            )
        };
        EngineMetrics {
            sessions_active: r.gauge("phoenix_sessions_active", "live sessions"),
            sessions_opened: r.counter("phoenix_sessions_opened_total", "sessions ever opened"),
            sessions_refused: r.counter(
                "phoenix_sessions_refused_total",
                "logins refused with retryable Busy at the session cap",
            ),
            cursor_opens: r.counter("phoenix_cursor_opens_total", "server cursors opened"),
            cursor_fetches: r.counter("phoenix_cursor_fetches_total", "cursor fetches served"),
            temp_tables: r.gauge("phoenix_temp_tables", "session temp tables currently alive"),
            index_ddl: r.counter(
                "phoenix_index_ddl_total",
                "CREATE/DROP INDEX statements applied",
            ),
            autocommit_reruns: r.counter(
                "phoenix_autocommit_reruns_total",
                "autocommit statements re-run after their commit lost a write conflict",
            ),
            select: lat("select"),
            insert: lat("insert"),
            update: lat("update"),
            delete: lat("delete"),
            ddl: lat("ddl"),
            txn: lat("txn"),
            proc: lat("proc"),
            other: lat("other"),
        }
    })
}
