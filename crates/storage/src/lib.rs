#![warn(missing_docs)]

//! # phoenix-storage
//!
//! Durable data substrate for the Phoenix database stack.
//!
//! This crate supplies everything below the SQL engine that must survive a
//! server crash:
//!
//! * [`types`] — the value model shared by the engine, the wire protocol and
//!   the log ([`types::Value`], [`types::DataType`], [`types::Schema`],
//!   [`types::TableDef`]).
//! * [`codec`] — a compact hand-rolled binary encoding for values, rows and
//!   schemas, shared by the WAL, snapshots and the wire protocol.
//! * [`crc`] — CRC-32 (IEEE) used to frame log records so torn tails are
//!   detected rather than replayed.
//! * [`wal`] — an append-only write-ahead log with length+CRC framing and an
//!   explicit fsync discipline.
//! * [`record`] — the logical log record set (`Begin`/`Commit`/`Abort` plus
//!   one record per engine mutation).
//! * [`pmap`] — the persistent (path-copying) ordered map every table
//!   image is built from, so a snapshot costs a pointer and a write costs
//!   the rows it touches.
//! * [`store`] — the in-memory materialized image of the durable state
//!   (tables, rows, stored procedures).
//! * [`snapshot`] — checkpointing: atomically written full-state snapshots
//!   that allow the log to be truncated.
//! * [`applier`] — [`applier::Applier`], the one routine that turns log
//!   records into table state: crash recovery, the warm standby and
//!   promotion all go through it.
//! * [`db`] — [`db::Durable`], the transactional binding of a [`store::Store`]
//!   to a WAL: every mutation is logged before it is applied, commits force
//!   the log, aborts roll back in memory, and [`db::Durable::open`] performs
//!   crash recovery (snapshot load + replay of committed transactions).
//! * [`metrics`] — the crate's phoenix-obs handles: WAL append/fsync
//!   latency, group-commit batch sizes, checkpoint duration, snapshot
//!   publish counts.
//!
//! The paper's central assumption about the database server — *durable tables
//! survive a crash; everything session-scoped does not* — is exactly the
//! contract this crate implements for the engine above it.

pub mod applier;
pub mod codec;
pub mod crc;
pub mod db;
pub mod metrics;
pub mod pmap;
pub mod record;
pub mod repl;
pub mod snapshot;
pub mod store;
pub mod types;
pub mod wal;

pub use applier::Applier;
pub use db::{Durability, Durable};
pub use pmap::{PMap, PSet};
pub use repl::ShipFrame;
pub use store::{Store, StoreSnapshot, TableData};
pub use types::{Column, DataType, Row, RowId, Schema, TableDef, TxnId, Value};
