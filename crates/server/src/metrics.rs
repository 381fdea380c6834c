//! Server-layer metric handles, registered when a server starts serving.

use std::sync::Arc;

use phoenix_obs::{Counter, Gauge, Obs};
use phoenix_wire::message::Request;

/// The handles of every server metric, shared by the server's threads.
pub struct ServerMetrics {
    /// Client connections accepted (`phoenix_connections_accepted_total`).
    pub connections_accepted: Arc<Counter>,
    /// Connections pruned from the registry on exit
    /// (`phoenix_connections_pruned_total`).
    pub connections_pruned: Arc<Counter>,
    /// Accept-loop failures other than `WouldBlock`
    /// (`phoenix_accept_errors_total`). Each one cost a bounded backoff
    /// sleep; the listener never stops on them.
    pub accept_errors: Arc<Counter>,
    /// Live client connections (`phoenix_connections_active`).
    pub connections_active: Arc<Gauge>,
    /// Requests currently being dispatched (`phoenix_requests_inflight`).
    pub requests_inflight: Arc<Gauge>,
    /// Frames that failed `Request::decode`
    /// (`phoenix_malformed_requests_total`). The connection survives; the
    /// client gets a `Response::Err`.
    pub malformed_requests: Arc<Counter>,
    /// Requests currently inside some connection's pipeline window — queued
    /// or executing — across all logged-in connections
    /// (`phoenix_pipeline_window_depth`).
    pub pipeline_window_depth: Arc<Gauge>,
    /// Individual statements executed via `ExecBatch`
    /// (`phoenix_batch_statements_total`).
    pub batch_statements: Arc<Counter>,
    exec: Arc<Counter>,
    open_cursor: Arc<Counter>,
    fetch: Arc<Counter>,
    close_cursor: Arc<Counter>,
    ping: Arc<Counter>,
    describe: Arc<Counter>,
    stats: Arc<Counter>,
    logout: Arc<Counter>,
    login_v2: Arc<Counter>,
    exec_batch: Arc<Counter>,
}

impl ServerMetrics {
    /// The `phoenix_requests_total{type=...}` series for a request.
    pub fn requests(&self, request: &Request) -> &Counter {
        match request {
            Request::Exec { .. } => &self.exec,
            Request::OpenCursor { .. } => &self.open_cursor,
            Request::Fetch { .. } => &self.fetch,
            Request::CloseCursor { .. } => &self.close_cursor,
            Request::Ping => &self.ping,
            Request::Describe { .. } => &self.describe,
            Request::Stats => &self.stats,
            Request::Logout => &self.logout,
            Request::LoginV2 { .. } => &self.login_v2,
            Request::ExecBatch { .. } => &self.exec_batch,
        }
    }

    /// Register (or find) the server metrics in `obs`.
    pub fn new(obs: &Obs) -> ServerMetrics {
        let r = obs.registry();
        let req = |t: &str| {
            r.counter_with(
                "phoenix_requests_total",
                "requests dispatched by type",
                &[("type", t)],
            )
        };
        ServerMetrics {
            connections_accepted: r.counter(
                "phoenix_connections_accepted_total",
                "client connections accepted",
            ),
            connections_pruned: r.counter(
                "phoenix_connections_pruned_total",
                "client connections pruned from the registry on exit",
            ),
            accept_errors: r.counter(
                "phoenix_accept_errors_total",
                "accept-loop failures answered with bounded backoff",
            ),
            connections_active: r.gauge("phoenix_connections_active", "live client connections"),
            requests_inflight: r.gauge(
                "phoenix_requests_inflight",
                "requests currently being dispatched",
            ),
            malformed_requests: r.counter(
                "phoenix_malformed_requests_total",
                "frames that failed request decoding (connection kept alive)",
            ),
            pipeline_window_depth: r.gauge(
                "phoenix_pipeline_window_depth",
                "requests queued or executing inside pipeline windows",
            ),
            batch_statements: r.counter(
                "phoenix_batch_statements_total",
                "individual statements executed via ExecBatch",
            ),
            exec: req("exec"),
            open_cursor: req("open_cursor"),
            fetch: req("fetch"),
            close_cursor: req("close_cursor"),
            ping: req("ping"),
            describe: req("describe"),
            stats: req("stats"),
            logout: req("logout"),
            login_v2: req("login_v2"),
            exec_batch: req("exec_batch"),
        }
    }
}
