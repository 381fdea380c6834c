#![warn(missing_docs)]

//! # phoenix-engine
//!
//! The SQL database server engine beneath Phoenix: the substrate the paper's
//! prototype ran against a commercial DBMS, rebuilt here from scratch.
//!
//! Architecture (bottom-up):
//!
//! * [`error`] — the engine error model (SQLSTATE-like codes that travel the
//!   wire to the driver).
//! * `eval` (crate-internal) — the binder and the evaluator: each statement binds its
//!   expressions once to column slots, constants and compiled `LIKE`
//!   patterns, then evaluates them over tuples of rows borrowed from the
//!   snapshot, with SQL three-valued logic; streaming aggregates; static
//!   type inference (which is what answers Phoenix's `WHERE 0=1` metadata
//!   probe with zero rows).
//! * [`plan`] — SELECT planning and execution: conjunct-driven access paths
//!   and join order over multi-table FROM lists, grouped aggregation,
//!   HAVING, ORDER BY, LIMIT/OFFSET, EXPLAIN.
//! * [`exec`] — DML and DDL execution against durable and session-temporary
//!   state.
//! * [`cursor`] — server cursors: materialized forward-only, *keyset* (key
//!   snapshot at open, rows re-fetched by key) and *dynamic* (predicate
//!   re-evaluated per fetch over primary-key ranges) — the two cursor kinds
//!   §3 of the paper treats specially.
//! * [`session`] — per-session volatile state: temp tables and procedures,
//!   connection options, the open transaction, open cursors. Everything in
//!   a session dies with the server process; that is the contract Phoenix is
//!   built to mask.
//! * [`engine`] — the facade the server exposes: create/close sessions,
//!   execute statements, open/fetch/close cursors, checkpoint.
//!
//! Durability is delegated to [`phoenix_storage`]: base-table mutations are
//! WAL-logged and commit-forced; recovery on restart replays committed work.
//! Scan order of a base table is insertion (row-id) order, which is the
//! documented substitute for the paper's reliance on stable result-table
//! ordering (see DESIGN.md §5).

pub mod cursor;
pub mod engine;
pub mod error;
pub(crate) mod eval;
pub mod exec;
pub mod metrics;
pub mod plan;
pub mod session;
pub mod spill;

pub use cursor::{CursorId, CursorKind, FetchDir};
pub use engine::{
    read_epoch, write_epoch, CommitMode, Engine, EngineConfig, ExecOutcome, ExecResult,
};
pub use error::{EngineError, ErrorCode};
pub use session::SessionId;
