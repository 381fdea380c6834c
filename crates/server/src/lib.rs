#![warn(missing_docs)]

//! # phoenix-server
//!
//! The TCP database server over [`phoenix_engine`], plus the crash-injection
//! harness used by tests and benchmarks.
//!
//! * [`server`] — thread-per-connection request/response loop. A connection
//!   owns one engine session; losing the connection (for any reason) closes
//!   the session, destroying its temp tables — the property Phoenix's
//!   liveness probe tests.
//! * [`harness`] — [`harness::ServerHarness`]: `start()` / `crash()` /
//!   `restart()` / `shutdown()`. `crash()` is deliberately brutal: client
//!   sockets are severed *before* the engine is dropped, so a request that
//!   committed but had not yet been answered loses its reply — reproducing
//!   the paper's lost-message failure mode. Nothing survives a crash except
//!   the data directory; `restart()` runs real WAL recovery.
//! * [`metrics`] — server-layer counters and gauges (connections, requests
//!   by type, malformed frames), registered in the process-wide
//!   [`phoenix_obs`] registry.
//! * [`stats_http`] — [`stats_http::StatsListener`]: a minimal HTTP/1.0
//!   endpoint serving the registry's Prometheus-style text exposition,
//!   independent of the database protocol.

pub mod harness;
pub mod metrics;
pub mod server;
pub mod stats_http;

pub use harness::ServerHarness;
pub use server::{
    dispatch, login_v2, prune_dead, serve_connection, BoundServer, ConnRegistry, RunningServer,
};
pub use stats_http::StatsListener;
