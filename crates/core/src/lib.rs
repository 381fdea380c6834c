#![warn(missing_docs)]

//! # phoenix-core — Persistent Client-Server Database Sessions
//!
//! A faithful reproduction of **Phoenix/ODBC** (Barga, Lomet, Baby, Agrawal;
//! *Persistent Client-Server Database Sessions*, EDBT 2000): middleware that
//! gives client applications database sessions that **survive a database
//! server crash**, without the application taking any measures for its own
//! recoverability.
//!
//! ## How it works (paper §3)
//!
//! Phoenix wraps the native driver's call points. Every application request
//! is intercepted, classified with a one-pass parse, and — where it creates
//! volatile server state — rewritten so that state lands in **persistent
//! tables** in the `phoenix` namespace on the server:
//!
//! * **Result sets** — the query is captured server-side by one statement,
//!   `CREATE TABLE phoenix.rs_… AS <select>`, which takes the table's
//!   columns from the result's own schema, so no row crosses the network
//!   during capture. The read-back rides in the same request, and its reply
//!   is the application's result (or a cursor's first block); later blocks
//!   read from the persistent table, and Phoenix remembers the delivery
//!   position client-side. One request, and one commit, per query.
//! * **Keyset / dynamic cursors** — only the qualifying *keys* are
//!   materialized; fetches re-read current rows by key (keyset) or by
//!   key-range (dynamic), so updates/inserts remain visible with the
//!   paper's exact semantics — but now the cursor survives a crash.
//! * **Data modification** — each DML statement or `EXEC` travels as one
//!   request, `[BEGIN; stmt; status insert; COMMIT]`, whose insert into a
//!   Phoenix **status table** records the request id and the outcome the
//!   server fills in (`@@ROWCOUNT`, `@@MESSAGES`): *testable state*. After
//!   a crash, probing the status table decides "return logged outcome" vs.
//!   "resubmit".
//! * **Application transactions** — Phoenix sends the same status insert
//!   with the application's own COMMIT, in one request (the paper's
//!   reply-buffer write), and keeps a client-side log of the open
//!   transaction's statements so an uncommitted transaction can be
//!   transparently replayed.
//! * **Temporary objects** — `CREATE TABLE #x` / temp procedures are
//!   rewritten to persistent objects in the `phoenix` namespace and all
//!   later references are redirected; Phoenix drops them at clean session
//!   end.
//! * **Session context** — login information and `SET` options are recorded
//!   client-side and replayed when rebuilding a connection.
//!
//! The application talks to a **virtual session** ([`PhoenixConnection`]).
//! On a communication failure Phoenix pings until the server is back,
//! decides crash-vs-blip with a *liveness proxy* (a genuine session temp
//! table that exists only if the old session survived), then runs two-phase
//! recovery: (1) rebuild connections and replay session context, (2)
//! reinstall SQL state — verify the materialized tables, re-position result
//! delivery server-side, probe the status table for in-flight requests, and
//! resubmit or replay what was lost. The application just sees a slow
//! response.
//!
//! ## Module map
//!
//! * [`config`] — recovery tuning, block size, cleanup ([`PhoenixConfig`]).
//! * [`naming`] — generation of Phoenix object names (`phoenix.rs_*`, …).
//! * [`context`] — the client-side session context and request log.
//! * [`connection`] — [`PhoenixConnection`]: the virtual session.
//! * [`statement`] — [`PhoenixStatement`]: persistent result-set delivery
//!   and persistent keyset/dynamic cursors.
//! * [`materialize`] — the one-request result-set capture.
//! * [`dml`] — the exactly-once wrapper and the status table.
//! * [`recovery`] — failure detection, ping loop, two-phase reinstall.
//! * [`metrics`] — process-wide recovery counters and the recovery-latency
//!   histogram, registered in the [`phoenix_obs`] registry; recovery steps
//!   also leave an ordered timeline in the [`phoenix_obs::journal()`].

pub mod config;
pub mod connection;
pub mod context;
pub mod dml;
pub mod materialize;
pub mod metrics;
pub mod naming;
pub mod recovery;
pub mod statement;

pub use config::PhoenixConfig;
pub use connection::{PhoenixConnection, PhoenixStats};
pub use statement::{PhoenixCursorKind, PhoenixFetch, PhoenixStatement};

/// Crate-wide result alias (driver errors are the app-visible error type,
/// exactly as with a native driver).
pub type Result<T> = std::result::Result<T, phoenix_driver::DriverError>;
