#![warn(missing_docs)]

//! # phoenix-repl
//!
//! WAL-shipping hot standby for the Phoenix database stack — the subsystem
//! that extends the paper's "sessions survive a server *crash*" guarantee to
//! server *loss*.
//!
//! * [`ship`] — [`ship::Shipper`]: a primary-side thread that tails the WAL
//!   through the storage layer's replication tap (post-fsync, strict GSN
//!   order) and pushes `[gsn][record]` frames to a standby over the
//!   ordinary wire protocol
//!   (`ReplHello`/`ReplFrames`/`ReplAck`).
//! * [`standby`] — [`standby::Standby`]: a warm receiver that appends the
//!   shipped frames to its own log (so its data directory is
//!   a valid primary directory at every instant) and feeds them to the
//!   `phoenix_storage::Applier` crash recovery uses.
//!   [`standby::Standby::promote`] fences further frames, bumps the durable
//!   replication epoch, hands the applier to the engine, and starts a full [`phoenix_server::RunningServer`] on the same port — at
//!   which point the driver's multi-address reconnect loop re-installs
//!   sessions against it and the status-table replay machinery makes the
//!   handoff exactly-once.
//! * [`metrics`] — the `phoenix_repl_*` observability surface: frames and
//!   bytes shipped/applied, ack high-water marks, replication lag, and
//!   promotion counts.
//!
//! Fencing is the split-brain defense: every promotion writes a higher
//! epoch, and a deposed primary — told about the new epoch via `Promote` or
//! a standby's hello-ack — persists a sticky fence marker and refuses every
//! subsequent login and WAL append, even across its own restart.

pub mod metrics;
pub mod ship;
pub mod standby;

pub use metrics::repl_metrics;
pub use ship::Shipper;
pub use standby::{Standby, StandbyConfig};
