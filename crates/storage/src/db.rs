//! [`Durable`]: the transactional binding of a [`Store`] to a write-ahead log.
//!
//! Every mutation follows write-ahead discipline — the log record is appended
//! *before* the change becomes visible in the working store — and commit
//! forces the log. A DML statement is first validated against a scratch copy
//! of its table (an O(1) clone), so a statement the store would refuse never
//! reaches the log. An aborted transaction is rolled back in memory from a
//! per-transaction undo list (the log keeps the records; recovery ignores
//! them because no commit record follows).
//!
//! [`Durable::open`] is crash recovery, and all of it is the
//! [`crate::applier::Applier`]: load the latest snapshot's manifest (each
//! table stays in its segment file until something touches it), merge the
//! log streams by GSN, and apply the records
//! of committed transactions with `txn >` the snapshot's *high-water mark* —
//! records at or below the mark belong to transactions whose effects the
//! snapshot already materializes, and replaying them would apply mutations
//! twice. A process crash at *any* point — including mid-append, which
//! leaves a torn tail the WAL reader discards, and mid-checkpoint, which
//! leaves a rotated `phoenix.wal.old` the next open replays first —
//! recovers to a state containing exactly the committed transactions.
//!
//! # Concurrency
//!
//! All methods take `&self`; the layer is safe to share between sessions.
//! Reads and writes are decoupled by *copy-on-write snapshots*:
//!
//! * writers serialize on the `working` store mutex and hold it across
//!   their append+apply pair, so write-ahead ordering is atomic with
//!   respect to other threads;
//! * after every successful statement — once, however many rows it wrote —
//!   the writer *publishes* an immutable [`StoreSnapshot`] (a shallow,
//!   per-table-`Arc` clone of the working store) with a cheap pointer swap;
//!   [`Durable::snapshot`] hands that image out in O(1), and readers
//!   execute against it with **no lock held** — a long scan never blocks a
//!   writer, a queued writer never blocks new readers, and no reader sees
//!   half of a multi-row statement. Keeping the published image alive costs
//!   the next writer only the tree nodes on the path to the rows it
//!   touches (see [`crate::pmap`]), never a copy of the table;
//! * commits coalesce through a *group commit*: each committer appends its
//!   commit record, then one committer (the leader) issues a single
//!   `sync_data` covering every record appended so far while the rest wait
//!   on a condition variable. N threads committing together therefore cost
//!   far fewer than N syncs.
//!
//! # Partitioned write path
//!
//! The store is sharded by table name hash into N *partitions* (see
//! [`partition_of`]). Each partition owns its own working-store mutex, its
//! own WAL stream (`phoenix.wal` for partition 0, `phoenix.wal.p<k>` above)
//! and its own group committer, so transactions touching disjoint
//! partitions append, fsync and apply fully concurrently. Every WAL frame
//! payload is prefixed with a *global sequence number* (GSN) drawn from one
//! process-wide atomic; recovery merges the N streams by GSN back into the
//! single total order they were appended in. A transaction that
//! wrote to several partitions commits with a [`LogRecord::CommitMulti`]
//! record — one copy appended to *every* touched stream, carrying the full
//! participant set — and recovery treats it as committed iff the record is
//! present in each participant's stream (two-phase commit within the
//! process: a crash between the per-stream appends rolls the whole
//! transaction back).
//!
//! Lock order (outer to inner): `checkpoint_state` → `working[k]`
//! (ascending k) → `wal[k]` (ascending k) → {`group[k].state`, `active`},
//! and `working[k]` → `published[k]`. `published` is never held with `wal`
//! or `active`.
//!
//! # Checkpoint / commit / abort interlock
//!
//! The snapshot's high-water mark is `last_finished` — the largest txn id
//! that has *finished* (commit record appended, or abort rolled back).
//! Three ordering rules make the mark sound:
//!
//! * `commit` appends the commit record and advances `last_finished` under
//!   the WAL lock **before** leaving the `active` set, so a transaction the
//!   checkpoint's quiescence check no longer sees is always covered by the
//!   mark (and its effects, applied under the working lock, are in the
//!   captured image);
//! * `abort` takes the working lock **before** leaving the `active` set, so
//!   a checkpoint can never capture un-rolled-back effects of a transaction
//!   that is mid-abort;
//! * the checkpoint reads the mark and rotates the log inside one WAL
//!   critical section, so no commit record can land between the two.
//!
//! Freshly begun transactions always carry ids greater than any finished
//! one (`next_txn` is allocation-monotone), their mutations serialize after
//! the capture on the working lock, and their records land in the
//! post-rotation log — so `txn > mark` records are exactly the ones the
//! snapshot does not contain.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use phoenix_obs::Histogram;

use crate::applier::{for_each_frame, frame_payload, Applier, Recovered};
use crate::codec::DecodeError;
use crate::metrics::{partition_batch_histogram, storage_metrics};
use crate::record::LogRecord;
use crate::repl::{FrameState, ReplTap, ShipFrame, TapFrame, TAP_CAP};
use crate::snapshot::{self, SegmentBase};
use crate::store::{
    normalize_name, partition_of, Segment, Slot, Store, StoreError, StoreSnapshot, TableData,
};
use crate::types::{Row, RowId, TableDef, TxnId};
use crate::wal::{Wal, WalPoints, MAX_FRAME};

/// Upper bound on the partition count. Recovery always scans the streams of
/// all `MAX_PARTITIONS` possible partitions so a database can be re-opened
/// with a *different* partition count than it was written with: leftover
/// higher-numbered streams are replayed (merged by GSN like any other) and
/// deleted by the next checkpoint.
pub const MAX_PARTITIONS: usize = 8;

/// Chaos fault-point names per partition. Partition 0 keeps the legacy
/// unsuffixed names so existing crash schedules keep working; partitions
/// `k ≥ 1` get `.p<k>`-suffixed points that chaos-explore enumerates for
/// partial cross-partition commit windows.
static WAL_POINTS: [WalPoints; MAX_PARTITIONS] = [
    WalPoints {
        append: "wal.append",
        fsync: "wal.fsync",
        truncate: "wal.truncate",
        rotate: "wal.rotate",
    },
    WalPoints {
        append: "wal.append.p1",
        fsync: "wal.fsync.p1",
        truncate: "wal.truncate.p1",
        rotate: "wal.rotate.p1",
    },
    WalPoints {
        append: "wal.append.p2",
        fsync: "wal.fsync.p2",
        truncate: "wal.truncate.p2",
        rotate: "wal.rotate.p2",
    },
    WalPoints {
        append: "wal.append.p3",
        fsync: "wal.fsync.p3",
        truncate: "wal.truncate.p3",
        rotate: "wal.rotate.p3",
    },
    WalPoints {
        append: "wal.append.p4",
        fsync: "wal.fsync.p4",
        truncate: "wal.truncate.p4",
        rotate: "wal.rotate.p4",
    },
    WalPoints {
        append: "wal.append.p5",
        fsync: "wal.fsync.p5",
        truncate: "wal.truncate.p5",
        rotate: "wal.rotate.p5",
    },
    WalPoints {
        append: "wal.append.p6",
        fsync: "wal.fsync.p6",
        truncate: "wal.truncate.p6",
        rotate: "wal.rotate.p6",
    },
    WalPoints {
        append: "wal.append.p7",
        fsync: "wal.fsync.p7",
        truncate: "wal.truncate.p7",
        rotate: "wal.rotate.p7",
    },
];

/// When to force the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// fsync on every commit (full crash safety; the default).
    Fsync,
    /// Leave flushing to the OS. Used by benchmarks that want to isolate
    /// protocol/execution costs from disk costs; noted in EXPERIMENTS.md
    /// whenever it is in effect.
    Buffered,
}

/// Errors from the durability layer.
#[derive(Debug)]
pub enum DbError {
    /// Filesystem failure (WAL append, snapshot write, …).
    Io(io::Error),
    /// In-memory store rejected the operation.
    Store(StoreError),
    /// Log or snapshot bytes did not decode (corruption).
    Decode(DecodeError),
    /// Operation named a transaction that is not active.
    NoSuchTxn(TxnId),
    /// Operation requires quiescence but a transaction is active.
    TxnActive(TxnId),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "io error: {e}"),
            DbError::Store(e) => write!(f, "{e}"),
            DbError::Decode(e) => write!(f, "{e}"),
            DbError::NoSuchTxn(t) => write!(f, "no such transaction {t}"),
            DbError::TxnActive(t) => write!(f, "transaction {t} still active"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<io::Error> for DbError {
    fn from(e: io::Error) -> Self {
        DbError::Io(e)
    }
}
impl From<StoreError> for DbError {
    fn from(e: StoreError) -> Self {
        DbError::Store(e)
    }
}
impl From<DecodeError> for DbError {
    fn from(e: DecodeError) -> Self {
        DbError::Decode(e)
    }
}

/// Inverse operations recorded per transaction for in-memory rollback.
enum UndoOp {
    RemoveRow {
        table: String,
        row_id: RowId,
    },
    ReinsertRow {
        table: String,
        row_id: RowId,
        row: Row,
    },
    RestoreRow {
        table: String,
        row_id: RowId,
        row: Row,
    },
    DropCreatedTable {
        name: String,
    },
    RestoreDroppedTable {
        data: TableData,
    },
    DropCreatedProc {
        name: String,
    },
    RestoreDroppedProc {
        name: String,
        sql: String,
    },
    DropCreatedIndex {
        table: String,
        name: String,
    },
    RestoreDroppedIndex {
        table: String,
        name: String,
        column: usize,
    },
}

/// Group-commit rendezvous. Committers take a monotonically increasing
/// sequence number when they append their commit record; the first committer
/// to find no leader flushes on everyone's behalf.
struct GroupState {
    /// Sequence number of the most recently appended commit record.
    appended: u64,
    /// All commit records with sequence ≤ `flushed` are on stable storage.
    flushed: u64,
    /// A leader is currently inside `sync_data`.
    leader: bool,
}

struct GroupCommit {
    state: Mutex<GroupState>,
    /// Signalled whenever `flushed` advances or the leader seat frees up.
    flushed_cv: Condvar,
}

/// Layout tuning for [`Durable::open_opts`].
#[derive(Debug, Clone, Default)]
pub struct RecoveryOptions {
    /// Write-path partitions (clamped to `1..=MAX_PARTITIONS`). `None`
    /// means 1 — the single-stream layout. The count is a property of the
    /// *handle*, not the directory: recovery always merges the streams of
    /// every possible partition, so a database may be re-opened with any
    /// partition count.
    pub partitions: Option<usize>,
    /// Bounded fsync delay for the per-partition group committers, in
    /// microseconds. `0` (the default) syncs immediately; a small window
    /// lets more committers pile onto one `sync_data` at the cost of that
    /// much commit latency.
    pub group_commit_window_us: u64,
}

/// What recovery did, exposed for benches and observability.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Valid WAL frames read (rotated log + live log).
    pub wal_frames: usize,
    /// Records applied to the store (committed, past the snapshot mark).
    pub records_applied: u64,
    /// Records skipped: uncommitted, or `txn ≤` the snapshot mark.
    pub records_skipped: u64,
    /// Wall time of reading the log, decoding and applying it, in
    /// microseconds: `wal_read_us + apply_us`.
    pub replay_us: u64,
    /// Reading the manifest and finding every segment it names.
    pub manifest_us: u64,
    /// Tables in the snapshot.
    pub segments_total: usize,
    /// Of those, the ones read before the handle opened, because the log
    /// tail writes to them. The rest load on first touch or in the
    /// background (see [`Durable::drain_report`]).
    pub segments_loaded_at_open: usize,
    /// Reading, checksumming and decoding those segments and building their
    /// indexes. Not part of `replay_us`.
    pub segment_load_us: u64,
    /// Reading the logs off disk, decoding and merging them.
    pub wal_read_us: u64,
    /// Deciding fates and applying the winners.
    pub apply_us: u64,
    /// The whole open, start to usable handle. The four stages above account
    /// for it; the remainder is opening the logs for append.
    pub open_us: u64,
}

/// One `key=value` line, stages first: what `phoenix-server` logs as
/// `recovered:` and `recovery_storm` prints.
impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "open_us={} manifest_us={} segments_total={} segments_loaded_at_open={} \
             segment_load_us={} wal_read_us={} apply_us={} replay_us={} wal_frames={} \
             records_applied={} records_skipped={}",
            self.open_us,
            self.manifest_us,
            self.segments_total,
            self.segments_loaded_at_open,
            self.segment_load_us,
            self.wal_read_us,
            self.apply_us,
            self.replay_us,
            self.wal_frames,
            self.records_applied,
            self.records_skipped,
        )
    }
}

/// What the background load of the tables nothing had touched yet did (see
/// [`Durable::drain_report`]).
#[derive(Debug, Clone, Default)]
pub struct DrainReport {
    /// Segments the drain read (those a statement got to first not counted).
    pub tables: usize,
    /// Their size on disk.
    pub bytes: u64,
    /// Wall time of the pass, in microseconds.
    pub us: u64,
    /// One line per table whose segment does not read back, whoever found
    /// out. Statements on those tables fail with the same message.
    pub unreadable: Vec<String>,
}

impl fmt::Display for DrainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tables={} bytes={} ms={:.1} unreadable={:?}",
            self.tables,
            self.bytes,
            self.us as f64 / 1e3,
            self.unreadable,
        )
    }
}

/// The background segment load: its thread until somebody asks for the
/// report, the report from then on.
struct Drain {
    running: Option<std::thread::JoinHandle<DrainReport>>,
    report: DrainReport,
}

/// Timing/shape of the most recent checkpoint (bench + test probe).
#[derive(Debug, Clone, Default)]
pub struct CheckpointStats {
    /// How long the writer lock was held (capture + log rotation) — the
    /// only phase that blocks mutations — in microseconds.
    pub pause_us: u64,
    /// Full checkpoint duration in microseconds.
    pub total_us: u64,
    /// Table segments serialized by this checkpoint.
    pub segments_written: usize,
    /// Table segments reused (data unchanged since the last checkpoint).
    pub segments_reused: usize,
}

/// Serializes checkpoints and carries the previous checkpoint's identity
/// map so the next one can diff against it.
struct CheckpointState {
    /// Generation of the last durable manifest (0 = none yet).
    gen: u64,
    /// The segments of the last durable manifest, by table.
    base: SegmentBase,
    /// Stats of the most recent completed checkpoint.
    stats: CheckpointStats,
}

/// Per-transaction bookkeeping: the undo list plus the set of partitions
/// the transaction has written to (its commit-record participant set).
#[derive(Default)]
struct TxnState {
    undo: Vec<UndoOp>,
    touched: BTreeSet<usize>,
}

/// One write-path shard: a store partition, its WAL stream, and its group
/// committer.
struct Partition {
    /// The writers' image of this shard. Mutations lock it, append+apply,
    /// then publish.
    working: Mutex<Store>,
    /// The readers' epoch of this shard: re-captured by the latest mutation
    /// *of this partition only*. [`Durable::snapshot`] stitches the N
    /// epochs into one [`StoreSnapshot`]. The lock is held only for the
    /// pointer swap / `Arc` clone, never across query execution.
    published: RwLock<Arc<Store>>,
    wal: Mutex<Wal>,
    group: GroupCommit,
    /// Largest txn id that has finished (committed or aborted) *in this
    /// partition*. Updated under the partition's WAL lock at commit-append
    /// time; the checkpoint takes the max across partitions as its snapshot
    /// mark. Recovery seeds every partition with the recovered high-water
    /// mark.
    last_finished: AtomicU64,
    /// Largest GSN appended to this partition's stream. Written under the
    /// partition's WAL lock (so it is append-order monotone); the
    /// group-commit leader reads it under the same lock right before
    /// syncing, making it the replication tap's durable watermark source.
    last_gsn: AtomicU64,
    /// `phoenix_group_commit_batch{partition="p<k>"}`.
    batch_hist: Arc<Histogram>,
}

/// A durable, transactional store, shareable across threads (`&self` API).
pub struct Durable {
    /// The write-path shards. Tables route by [`partition_of`] their name.
    parts: Vec<Partition>,
    dir: PathBuf,
    durability: Durability,
    next_txn: AtomicU64,
    /// Global sequence number for the next WAL frame, shared by all
    /// streams. Allocated under the owning partition's WAL lock, so each
    /// stream is GSN-monotone and recovery's merge-by-GSN reconstructs one
    /// total append order.
    next_gsn: AtomicU64,
    active: Mutex<HashMap<TxnId, TxnState>>,
    /// Records appended since the last checkpoint, across all streams
    /// (drives auto-checkpoint policy in the engine; the layer itself never
    /// checkpoints implicitly).
    records_since_checkpoint: AtomicU64,
    /// Checkpoint serialization + the previous checkpoint's segment images.
    checkpoint_state: Mutex<CheckpointState>,
    /// What recovery did when this handle was opened.
    recovery: RecoveryReport,
    /// Bounded fsync delay the group-commit leaders apply before flushing.
    group_commit_window: Duration,
    /// The replication tap (dormant until a shipper attaches).
    tap: ReplTap,
    /// Sticky fencing flag: once set, every WAL append is refused. A deposed
    /// primary is fenced when a newer incarnation is known to exist; the
    /// engine layer persists the decision across restarts.
    fenced: AtomicBool,
    /// Oldest GSN still reconstructible from this directory's logs: raised
    /// to the GSN high-water inside every checkpoint's rotation critical
    /// section (the checkpoint folds older frames into the snapshot and
    /// deletes them). A standby behind the floor must be re-seeded.
    ship_floor: AtomicU64,
    /// Semi-sync commit: how long a committer waits for the standby ack
    /// watermark to cover its commit record before degrading to async.
    /// `None` (the default) is fully asynchronous replication.
    commit_wait: Mutex<Option<Duration>>,
    /// Loads the snapshot tables recovery did not need, so that steady state
    /// is reached without a client paying for it.
    drain: Mutex<Drain>,
}

impl Durable {
    /// Partition `k`'s live log. Partition 0 keeps the legacy unsuffixed
    /// name so single-partition directories are unchanged on disk. Public
    /// because the replication standby appends shipped frames to the same
    /// per-partition layout, keeping its directory recoverable at every
    /// instant.
    pub fn wal_path(dir: &Path, k: usize) -> PathBuf {
        if k == 0 {
            dir.join("phoenix.wal")
        } else {
            dir.join(format!("phoenix.wal.p{k}"))
        }
    }

    /// The rotated-aside log of an in-progress (or crashed) checkpoint.
    /// Replayed *before* the live log; deleted when the checkpoint's
    /// manifest is durable.
    pub(crate) fn wal_old_path(dir: &Path, k: usize) -> PathBuf {
        if k == 0 {
            dir.join("phoenix.wal.old")
        } else {
            dir.join(format!("phoenix.wal.p{k}.old"))
        }
    }

    pub(crate) fn snapshot_path(dir: &Path) -> PathBuf {
        dir.join("phoenix.snapshot")
    }

    /// Open the database in `dir`, performing crash recovery with default
    /// [`RecoveryOptions`].
    pub fn open(dir: impl AsRef<Path>, durability: Durability) -> Result<Durable, DbError> {
        Self::open_opts(dir, durability, &RecoveryOptions::default())
    }

    /// Open the database in `dir`, performing crash recovery: the snapshot
    /// plus every committed log record newer than its mark (see
    /// [`crate::applier`]).
    pub fn open_opts(
        dir: impl AsRef<Path>,
        durability: Durability,
        opts: &RecoveryOptions,
    ) -> Result<Durable, DbError> {
        let start = Instant::now();
        std::fs::create_dir_all(&dir)?;
        let recovered = Applier::load(dir.as_ref())?.finish()?;
        Self::from_recovered(dir.as_ref(), durability, opts, recovered, start)
    }

    /// Open a directory whose log a warm standby has been applying as it
    /// arrived: `applier` was loaded from `dir` and fed every frame since.
    /// This is promotion's fast path — only frames the applier has not
    /// seen are read back, so the cost is bounded by the standby's lag, not
    /// the log size — and the result is bit-identical to a cold `open_opts`
    /// of the same directory.
    pub fn open_warm(
        dir: impl AsRef<Path>,
        durability: Durability,
        opts: &RecoveryOptions,
        mut applier: Applier,
    ) -> Result<Durable, DbError> {
        let start = Instant::now();
        applier.catch_up(dir.as_ref())?;
        let recovered = applier.finish()?;
        Self::from_recovered(dir.as_ref(), durability, opts, recovered, start)
    }

    fn from_recovered(
        dir: &Path,
        durability: Durability,
        opts: &RecoveryOptions,
        recovered: Recovered,
        start: Instant,
    ) -> Result<Durable, DbError> {
        let Recovered {
            store,
            last_txn,
            max_gsn,
            min_gsn,
            frames,
            applied,
            stages,
            gen,
            base,
            live_valid,
        } = recovered;
        let n = opts.partitions.unwrap_or(1).clamp(1, MAX_PARTITIONS);

        let parts = store
            .into_parts(n)
            .into_iter()
            .enumerate()
            .map(|(k, shard)| -> Result<Partition, DbError> {
                Ok(Partition {
                    published: RwLock::new(Arc::new(shard.clone())),
                    working: Mutex::new(shard),
                    // The applier has just scanned this log: resume it at
                    // the valid prefix it found instead of scanning again.
                    wal: Mutex::new(Wal::open_at(
                        Self::wal_path(dir, k),
                        WAL_POINTS[k],
                        live_valid[k],
                    )?),
                    group: GroupCommit {
                        state: Mutex::new(GroupState {
                            appended: 0,
                            flushed: 0,
                            leader: false,
                        }),
                        flushed_cv: Condvar::new(),
                    },
                    last_finished: AtomicU64::new(last_txn),
                    last_gsn: AtomicU64::new(max_gsn),
                    batch_hist: partition_batch_histogram(k),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;

        let us = |d: Duration| d.as_micros() as u64;
        let report = RecoveryReport {
            wal_frames: frames as usize,
            records_applied: applied,
            records_skipped: frames - applied,
            replay_us: us(stages.wal_read) + us(stages.apply),
            manifest_us: us(stages.manifest),
            segments_total: stages.segments_total,
            segments_loaded_at_open: stages.segments_loaded,
            segment_load_us: us(stages.segment_load),
            wal_read_us: us(stages.wal_read),
            apply_us: us(stages.apply),
            open_us: us(start.elapsed()),
        };
        storage_metrics()
            .recovery_replay_us
            .record(report.replay_us);
        let drain = Mutex::new(start_drain(&base)?);

        Ok(Durable {
            parts,
            dir: dir.to_path_buf(),
            durability,
            next_txn: AtomicU64::new(last_txn + 1),
            next_gsn: AtomicU64::new(max_gsn + 1),
            active: Mutex::new(HashMap::new()),
            records_since_checkpoint: AtomicU64::new(frames),
            checkpoint_state: Mutex::new(CheckpointState {
                gen,
                base,
                stats: CheckpointStats::default(),
            }),
            recovery: report,
            group_commit_window: Duration::from_micros(opts.group_commit_window_us),
            tap: ReplTap::new(),
            fenced: AtomicBool::new(false),
            // With a snapshot on disk, frames it folded in are gone: the
            // oldest shippable GSN is the oldest one still in the logs (or
            // just past the high-water if the logs are empty). Without one,
            // the entire history is reconstructible from GSN 1.
            ship_floor: AtomicU64::new(if gen > 0 {
                min_gsn.unwrap_or(max_gsn + 1)
            } else {
                1
            }),
            commit_wait: Mutex::new(None),
            drain,
        })
    }

    /// Wait for the background load of the snapshot tables recovery did not
    /// need, and say what it did. Nothing depends on the wait — a statement
    /// that touches a table first simply loads it itself — so this is for
    /// whoever wants the report: the server's log line, benches, tests.
    pub fn drain_report(&self) -> DrainReport {
        let mut drain = self.drain.lock();
        if let Some(thread) = drain.running.take() {
            // The thread only reads files into cells; a panic in it is a
            // bug, and reporting an empty drain would hide it.
            drain.report = thread.join().expect("segment drain panicked");
        }
        drain.report.clone()
    }

    /// The number of write-path partitions this handle was opened with.
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// The partition `name`'s table (or procedure) routes to.
    fn part_of(&self, name: &str) -> usize {
        partition_of(name, self.parts.len())
    }

    /// Home partition for transaction-scoped records of a transaction that
    /// touched nothing (or whose commit needs a deterministic single
    /// stream): spreads empty-txn traffic instead of serializing it all on
    /// partition 0.
    fn home_of(&self, txn: TxnId) -> usize {
        (txn % self.parts.len() as u64) as usize
    }

    /// What recovery did when this handle was opened.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Timing/shape of the most recent checkpoint taken by this handle.
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        self.checkpoint_state.lock().stats.clone()
    }

    /// The current published image: the N per-partition epochs stitched
    /// into one [`StoreSnapshot`]. O(partitions) `Arc` clones, each under a
    /// lock held only for the clone itself. The caller then reads with no
    /// lock at all — long scans never block writers, and writers never
    /// block new readers. The snapshot keeps showing each partition's state
    /// as of its last publication; take a fresh one per statement (or per
    /// cursor fetch) for current data.
    pub fn snapshot(&self) -> Arc<StoreSnapshot> {
        Arc::new(StoreSnapshot::from_parts(
            self.parts
                .iter()
                .map(|p| p.published.read().clone())
                .collect(),
        ))
    }

    /// Publish partition `k`'s working image for readers. Called with that
    /// partition's working lock held so publication order matches mutation
    /// order. Only the mutated shard is re-captured; with N partitions each
    /// publish therefore *saves* N−1 of the whole-store captures the
    /// un-partitioned design paid, which
    /// `phoenix_snapshot_publishes_coalesced` counts.
    fn publish(&self, k: usize, working: &Store) {
        match phoenix_chaos::fault("store.publish") {
            phoenix_chaos::FaultAction::Continue => {}
            phoenix_chaos::FaultAction::Delay(d) => std::thread::sleep(d),
            // Process death between mutation and publish: readers keep the
            // previous snapshot, exactly as a crashed server would leave it.
            _ => return,
        }
        *self.parts[k].published.write() = Arc::new(working.clone());
        let m = storage_metrics();
        m.snapshot_publishes.inc();
        if self.parts.len() > 1 {
            m.snapshot_publishes_coalesced
                .add(self.parts.len() as u64 - 1);
        }
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured commit durability.
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// Number of log records appended since the last checkpoint.
    pub fn log_records_since_checkpoint(&self) -> u64 {
        self.records_since_checkpoint.load(Ordering::Relaxed)
    }

    /// Number of `sync_data` calls issued across all WAL streams
    /// (group-commit probe).
    pub fn wal_sync_count(&self) -> u64 {
        self.parts.iter().map(|p| p.wal.lock().sync_count()).sum()
    }

    /// Append one record to partition `k`'s stream, whose WAL lock the
    /// caller already holds, prefixing it with a freshly allocated GSN.
    /// Allocating *under* the stream's lock keeps each stream GSN-monotone,
    /// which is what lets recovery merge the streams by GSN into one total
    /// order. Returns the frame's GSN.
    ///
    /// Refused outright on a fenced handle: a deposed primary must never
    /// extend its log, however the write reached this layer.
    fn append_locked(&self, k: usize, wal: &mut Wal, encoded: &[u8]) -> Result<u64, DbError> {
        if self.fenced.load(Ordering::Relaxed) {
            return Err(DbError::Io(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "wal.append refused: this incarnation was fenced by a newer primary",
            )));
        }
        // With a shipper attached, GSN allocation and frame staging are one
        // atomic step under the tap lock, so the staged queue is strictly
        // GSN-ordered across all partition streams. Unattached, allocation
        // stays a bare fetch_add.
        let gsn = if self.tap.enabled.load(Ordering::Acquire) {
            let mut t = self.tap.state.lock();
            let gsn = self.next_gsn.fetch_add(1, Ordering::Relaxed);
            if !t.lost {
                if t.frames.len() >= TAP_CAP {
                    // The shipper fell too far behind the write rate: drop
                    // the queue (bounding memory, not throughput); the
                    // shipper must re-attach with a disk catch-up.
                    t.frames.clear();
                    t.lost = true;
                } else {
                    t.frames.push_back(TapFrame {
                        gsn,
                        partition: k as u8,
                        record: encoded.to_vec(),
                        state: FrameState::Staged,
                    });
                }
            }
            gsn
        } else {
            self.next_gsn.fetch_add(1, Ordering::Relaxed)
        };
        let appended = wal.append(&frame_payload(gsn, encoded));
        if self.tap.enabled.load(Ordering::Acquire) {
            self.tap_mark(gsn, appended.is_ok());
        }
        appended?;
        self.parts[k].last_gsn.store(gsn, Ordering::Release);
        self.records_since_checkpoint
            .fetch_add(1, Ordering::Relaxed);
        Ok(gsn)
    }

    /// Resolve a staged frame's fate once its append outcome is known: a
    /// successful append makes it shippable (subject to the durable
    /// watermark), a failed one leaves a `Dead` tombstone preserving the
    /// queue's GSN contiguity.
    fn tap_mark(&self, gsn: u64, ok: bool) {
        let mut t = self.tap.state.lock();
        // The frame is near the back (staged moments ago under this lock).
        if let Some(f) = t.frames.iter_mut().rev().find(|f| f.gsn == gsn) {
            f.state = if ok {
                FrameState::Appended
            } else {
                FrameState::Dead
            };
        }
        drop(t);
        self.tap.cv.notify_all();
    }

    /// Append one record to partition `k`'s stream. Callers that need
    /// write-ahead atomicity with a store mutation must already hold that
    /// partition's working-store lock.
    fn log_to(&self, k: usize, rec: &LogRecord) -> Result<(), DbError> {
        self.append_locked(k, &mut self.parts[k].wal.lock(), &rec.encode())
            .map(|_gsn| ())
    }

    /// Begin a new transaction. Nothing is logged — a transaction exists in
    /// the log only through the records of its mutations (and its final
    /// commit/abort marker), so an empty transaction costs no I/O until
    /// commit.
    pub fn begin(&self) -> Result<TxnId, DbError> {
        let txn = self.next_txn.fetch_add(1, Ordering::Relaxed);
        self.active.lock().insert(txn, TxnState::default());
        Ok(txn)
    }

    /// Commit: log the commit record and force the log (under `Fsync`).
    ///
    /// Concurrent committers coalesce: each appends its record and takes a
    /// group sequence number; one of them (the leader) syncs the file once
    /// for every record appended so far, the rest wait until the flushed
    /// watermark covers their own sequence number.
    pub fn commit(&self, txn: TxnId) -> Result<(), DbError> {
        // The participant set decides the record shape: a transaction that
        // wrote to at most one partition commits with a plain `Commit`
        // (complete in itself wherever recovery finds it); one that wrote
        // to several commits with a `CommitMulti` carrying the full
        // participant set, appended to *every* touched stream — recovery
        // commits it iff all copies landed (two-phase within the process).
        let targets: Vec<usize> = {
            let active = self.active.lock();
            let state = active.get(&txn).ok_or(DbError::NoSuchTxn(txn))?;
            if state.touched.is_empty() {
                vec![self.home_of(txn)]
            } else {
                state.touched.iter().copied().collect()
            }
        };
        let rec = if targets.len() <= 1 {
            LogRecord::Commit { txn }
        } else {
            LogRecord::CommitMulti {
                txn,
                participants: targets.iter().map(|&k| k as u32).collect(),
            }
        };
        let encoded = rec.encode();

        // Per target partition: append the commit record, advance the
        // finished-txn high-water mark, and claim a group sequence number —
        // all under that partition's WAL lock (so sequence order matches
        // append order) and all *before* leaving the `active` set. A
        // checkpoint that observes this transaction as inactive is thereby
        // guaranteed to capture a mark covering it: its commit records can
        // never land after the snapshot's log rotation while its effects
        // sit inside the snapshot image (the double-apply window). The
        // quiescence check also means a checkpoint can never rotate between
        // two of a cross-partition commit's appends.
        let mut seqs = Vec::with_capacity(targets.len());
        let mut commit_gsn = 0u64;
        for &k in &targets {
            let p = &self.parts[k];
            let mut wal = p.wal.lock();
            let gsn = self.append_locked(k, &mut wal, &encoded)?;
            // The commit record's GSN dominates every record of the
            // transaction (they were all allocated earlier), so the standby
            // ack watermark covering it covers the whole transaction.
            commit_gsn = commit_gsn.max(gsn);
            p.last_finished.fetch_max(txn, Ordering::Relaxed);
            let mut st = p.group.state.lock();
            st.appended += 1;
            seqs.push((k, st.appended));
        }
        self.active.lock().remove(&txn);
        if self.durability == Durability::Fsync {
            for (k, seq) in seqs {
                self.group_sync(k, seq)?;
            }
        }
        self.semi_sync_wait(commit_gsn);
        Ok(())
    }

    /// Under semi-sync replication, hold the committer until the standby
    /// ack watermark covers `gsn` — the reply does not leave the server
    /// before the standby holds the transaction. Bounded: past the
    /// configured timeout the commit *degrades* to async (counted by
    /// `phoenix_repl_semisync_degraded_total`) rather than stalling the
    /// session behind a dead standby. No-op when async (the default) or
    /// when no shipper is attached.
    fn semi_sync_wait(&self, gsn: u64) {
        let Some(timeout) = *self.commit_wait.lock() else {
            return;
        };
        if !self.tap.enabled.load(Ordering::Acquire) {
            return;
        }
        let deadline = Instant::now() + timeout;
        let mut acked = self.tap.acked.lock();
        while *acked < gsn {
            // Re-check the exit conditions at a bounded cadence: the
            // shipper may detach, and a chaos-halted process must never
            // leave committers parked (the harness drains them on crash).
            if !self.tap.enabled.load(Ordering::Acquire) || phoenix_chaos::halted() {
                return;
            }
            let now = Instant::now();
            if now >= deadline {
                phoenix_obs::registry()
                    .counter(
                        "phoenix_repl_semisync_degraded_total",
                        "semi-sync commits that timed out waiting for a standby ack \
                         and degraded to async",
                    )
                    .inc();
                return;
            }
            let wait = (deadline - now).min(Duration::from_millis(10));
            self.tap.acked_cv.wait_for(&mut acked, wait);
        }
    }

    /// Wait until partition `k`'s commit record with group sequence `seq`
    /// is durable, taking that partition's leader role if nobody else is
    /// flushing.
    fn group_sync(&self, k: usize, seq: u64) -> Result<(), DbError> {
        let p = &self.parts[k];
        let mut st = p.group.state.lock();
        loop {
            if st.flushed >= seq {
                return Ok(());
            }
            if st.leader {
                // A flush is in flight; it may or may not cover us. Wait for
                // the watermark to move and re-check.
                p.group.flushed_cv.wait(&mut st);
                continue;
            }
            st.leader = true;
            drop(st);
            // Leader: optionally dwell for the configured window so more
            // committers can append behind us, then one sync covers every
            // record appended so far — including those of the committers
            // now parked on the condvar.
            if !self.group_commit_window.is_zero() {
                std::thread::sleep(self.group_commit_window);
            }
            let flush = {
                let mut wal = p.wal.lock();
                let upto = p.group.state.lock().appended;
                // Captured under the WAL lock: every frame of this
                // partition with gsn ≤ gsn_upto is covered by the sync
                // below — the replication tap's durable watermark.
                let gsn_upto = p.last_gsn.load(Ordering::Acquire);
                wal.sync().map(|()| (upto, gsn_upto))
            };
            st = p.group.state.lock();
            st.leader = false;
            match flush {
                Ok((upto, gsn_upto)) => {
                    if upto > st.flushed {
                        let m = storage_metrics();
                        m.group_commit_records.add(upto - st.flushed);
                        m.group_commit_syncs.inc();
                        m.group_commit_batch.record(upto - st.flushed);
                        p.batch_hist.record(upto - st.flushed);
                    }
                    st.flushed = st.flushed.max(upto);
                    p.group.flushed_cv.notify_all();
                    if self.tap.enabled.load(Ordering::Acquire) {
                        self.tap.durable[k].fetch_max(gsn_upto, Ordering::AcqRel);
                        self.tap.cv.notify_all();
                    }
                    // `upto` ≥ our `seq` (we appended before flushing), so
                    // the next loop iteration returns Ok.
                }
                Err(e) => {
                    // Wake waiters so one of them can retry as leader.
                    p.group.flushed_cv.notify_all();
                    return Err(DbError::Io(e));
                }
            }
        }
    }

    /// Abort: undo in memory (reverse order) and log the abort record to
    /// every touched stream.
    ///
    /// The touched partitions' working locks are taken *before* the
    /// transaction leaves the `active` set: a checkpoint serializes its
    /// capture on the same locks (and refuses while the transaction is
    /// still in `active`), so it can never see the transaction as finished
    /// while its effects are still un-rolled-back in the store.
    pub fn abort(&self, txn: TxnId) -> Result<(), DbError> {
        // Snapshot the undo list and participant set, leaving the entry in
        // `active` so the checkpoint quiescence check keeps failing until
        // the rollback is complete.
        let (undo, touched) = {
            let mut active = self.active.lock();
            let state = active.get_mut(&txn).ok_or(DbError::NoSuchTxn(txn))?;
            (std::mem::take(&mut state.undo), state.touched.clone())
        };
        // Lock every touched shard in ascending order (the global lock
        // order), then roll back: each op routes to its table's shard.
        let mut guards: BTreeMap<usize, MutexGuard<'_, Store>> = touched
            .iter()
            .map(|&k| (k, self.parts[k].working.lock()))
            .collect();
        let result = (|| -> Result<(), DbError> {
            for op in undo.into_iter().rev() {
                match op {
                    UndoOp::RemoveRow { table, row_id } => {
                        let store = guards.get_mut(&self.part_of(&table)).expect("touched");
                        store.table_mut(&table)?.delete(row_id)?;
                    }
                    UndoOp::ReinsertRow { table, row_id, row } => {
                        let store = guards.get_mut(&self.part_of(&table)).expect("touched");
                        store.table_mut(&table)?.insert_with_id(row_id, row)?;
                    }
                    UndoOp::RestoreRow { table, row_id, row } => {
                        let store = guards.get_mut(&self.part_of(&table)).expect("touched");
                        store.table_mut(&table)?.update(row_id, row)?;
                    }
                    UndoOp::DropCreatedTable { name } => {
                        let store = guards.get_mut(&self.part_of(&name)).expect("touched");
                        store.drop_table(&name)?;
                    }
                    UndoOp::RestoreDroppedTable { data } => {
                        let store = guards
                            .get_mut(&self.part_of(&data.def.name))
                            .expect("touched");
                        store.install_table(data);
                    }
                    UndoOp::DropCreatedProc { name } => {
                        let store = guards.get_mut(&self.part_of(&name)).expect("touched");
                        store.drop_proc(&name)?;
                    }
                    UndoOp::RestoreDroppedProc { name, sql } => {
                        let store = guards.get_mut(&self.part_of(&name)).expect("touched");
                        store.create_proc(&name, &sql)?;
                    }
                    UndoOp::DropCreatedIndex { table, name } => {
                        let store = guards.get_mut(&self.part_of(&table)).expect("touched");
                        store.table_mut(&table)?.drop_index(&name)?;
                    }
                    UndoOp::RestoreDroppedIndex {
                        table,
                        name,
                        column,
                    } => {
                        let store = guards.get_mut(&self.part_of(&table)).expect("touched");
                        store.table_mut(&table)?.create_index(&name, column)?;
                    }
                }
            }
            // Aborted ids count as finished too: the mark also seeds
            // `next_txn` after a post-checkpoint recovery, and ids must stay
            // monotone even when the highest allocated one never committed.
            let targets: Vec<usize> = if touched.is_empty() {
                vec![self.home_of(txn)]
            } else {
                touched.iter().copied().collect()
            };
            for k in targets {
                self.log_to(k, &LogRecord::Abort { txn })?;
                self.parts[k]
                    .last_finished
                    .fetch_max(txn, Ordering::Relaxed);
            }
            Ok(())
        })();
        // Leave `active` only now, with the shard locks still held (or the
        // rollback incomplete and the error propagating — either way the
        // transaction is finished).
        self.active.lock().remove(&txn);
        if result.is_ok() {
            for (&k, store) in &guards {
                self.publish(k, store);
            }
        }
        result
    }

    /// Is `txn` currently active?
    pub fn is_active(&self, txn: TxnId) -> bool {
        self.active.lock().contains_key(&txn)
    }

    /// Error unless `txn` is active.
    fn check_active(&self, txn: TxnId) -> Result<(), DbError> {
        if self.active.lock().contains_key(&txn) {
            Ok(())
        } else {
            Err(DbError::NoSuchTxn(txn))
        }
    }

    /// Record an undo entry for `txn` and mark partition `k` as touched —
    /// the commit record's participant set (the caller verified the txn is
    /// active; tolerate a concurrent removal by dropping the entry — the
    /// txn is gone and its undo list with it).
    fn push_undo(&self, txn: TxnId, k: usize, op: UndoOp) {
        if let Some(state) = self.active.lock().get_mut(&txn) {
            state.undo.push(op);
            state.touched.insert(k);
        }
    }

    // -- row mutations: one write routine, one publish per statement -----

    /// The one DML write path: apply a statement's records to one table.
    ///
    /// Under the owning partition's working lock, `build` turns the table
    /// as it stands into the statement's log records. They are then
    /// *validated by applying them to a scratch copy* of the table — an
    /// O(1) clone that shares every tree node, so the copy costs what the
    /// write itself would — and only when the whole batch applies (table
    /// exists, arity, key uniqueness against the table and within the
    /// batch, every row id present) are the records appended, the copy
    /// installed as the working table, and the partition published, once.
    /// A refused statement therefore writes zero log bytes and leaves the
    /// working image untouched; a logged one is in memory exactly as
    /// recovery will replay it.
    fn write_rows(
        &self,
        txn: TxnId,
        table: &str,
        build: impl FnOnce(&TableData) -> Vec<LogRecord>,
    ) -> Result<(), DbError> {
        self.check_active(txn)?;
        let k = self.part_of(table);
        let mut store = self.parts[k].working.lock();
        let current = store.table(table)?;
        // Encode once, up front. The 8-byte GSN prefix rides in the same
        // frame, so the cap accounts for it; an `InsertMany` over the cap
        // is halved until each piece fits (ids stay consecutive because the
        // front half is taken first), anything else over it is refused
        // here, before a byte is logged.
        let mut pending: VecDeque<LogRecord> = build(current).into();
        let (mut recs, mut encoded) = (Vec::new(), Vec::new());
        while let Some(rec) = pending.pop_front() {
            let bytes = rec.encode();
            if bytes.len() <= MAX_FRAME as usize - 8 {
                recs.push(rec);
                encoded.push(bytes);
                continue;
            }
            match rec {
                LogRecord::InsertMany {
                    txn,
                    table,
                    first_row_id,
                    mut rows,
                } if rows.len() > 1 => {
                    let tail = rows.split_off(rows.len() / 2);
                    pending.push_front(LogRecord::InsertMany {
                        txn,
                        table: table.clone(),
                        first_row_id: first_row_id + rows.len() as RowId,
                        rows: tail,
                    });
                    pending.push_front(LogRecord::InsertMany {
                        txn,
                        table,
                        first_row_id,
                        rows,
                    });
                }
                _ => {
                    return Err(DbError::Io(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!(
                            "log record of {} bytes exceeds the {MAX_FRAME}-byte WAL frame cap",
                            bytes.len()
                        ),
                    )))
                }
            }
        }
        if recs.is_empty() {
            return Ok(());
        }
        let apply = |recs: Vec<LogRecord>| -> Result<(TableData, Vec<UndoOp>), StoreError> {
            let mut scratch = current.clone();
            let undo = apply_with_undo(&mut scratch, recs)?;
            Ok((scratch, undo))
        };
        let mut applied = apply(recs)?;

        let mut failure = None;
        let mut appended = 0;
        {
            let mut wal = self.parts[k].wal.lock();
            for e in &encoded {
                match self.append_locked(k, &mut wal, e) {
                    Ok(_gsn) => appended += 1,
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
        }
        match failure {
            Some(e) if appended == 0 => return Err(e),
            Some(_) => {
                // The log took a prefix of the statement before failing:
                // memory must hold exactly what the log holds, so the
                // transaction's fate (commit or abort) means the same thing
                // in both.
                let prefix = encoded[..appended]
                    .iter()
                    .map(|e| LogRecord::decode(e))
                    .collect::<Result<Vec<_>, _>>()?;
                applied = apply(prefix)?;
            }
            None => {}
        }
        let (scratch, undo) = applied;
        store.install_table(scratch);
        self.publish(k, &store);
        if let Some(state) = self.active.lock().get_mut(&txn) {
            state.touched.insert(k);
            state.undo.extend(undo);
        }
        failure.map_or(Ok(()), Err)
    }

    /// Insert a row (logged, undoable), returning its stable id.
    pub fn insert(&self, txn: TxnId, table: &str, row: Row) -> Result<RowId, DbError> {
        let mut row_id = 0;
        self.write_rows(txn, table, |t| {
            row_id = t.next_row_id;
            vec![LogRecord::Insert {
                txn,
                table: table.to_string(),
                row_id,
                row,
            }]
        })?;
        Ok(row_id)
    }

    /// Insert a batch of rows with consecutive stable ids, taking **one**
    /// WAL append (and one lock round trip) for the whole batch instead of
    /// one per row — the `INSERT … SELECT` materialization hot path.
    ///
    /// A batch whose encoding would exceed the WAL frame cap is split into
    /// the minimum number of conforming chunk records; a single row too big
    /// for a frame is refused with the same `InvalidInput` error as
    /// [`Durable::insert`].
    pub fn insert_many(
        &self,
        txn: TxnId,
        table: &str,
        rows: Vec<Row>,
    ) -> Result<Vec<RowId>, DbError> {
        let mut ids = 0..0;
        self.write_rows(txn, table, |t| {
            ids = t.next_row_id..t.next_row_id + rows.len() as RowId;
            if rows.is_empty() {
                return Vec::new();
            }
            vec![LogRecord::InsertMany {
                txn,
                table: table.to_string(),
                first_row_id: ids.start,
                rows,
            }]
        })?;
        Ok(ids.collect())
    }

    /// Delete a row by id (logged, undoable).
    pub fn delete(&self, txn: TxnId, table: &str, row_id: RowId) -> Result<(), DbError> {
        self.delete_many(txn, table, &[row_id])
    }

    /// Delete a statement's rows by id: one `Delete` record per row (the
    /// log format recovery already replays), one publish for the lot.
    pub fn delete_many(&self, txn: TxnId, table: &str, row_ids: &[RowId]) -> Result<(), DbError> {
        self.write_rows(txn, table, |_| {
            row_ids
                .iter()
                .map(|&row_id| LogRecord::Delete {
                    txn,
                    table: table.to_string(),
                    row_id,
                })
                .collect()
        })
    }

    /// Replace a row in place (logged, undoable).
    pub fn update(&self, txn: TxnId, table: &str, row_id: RowId, row: Row) -> Result<(), DbError> {
        self.update_many(txn, table, vec![(row_id, row)])
    }

    /// Replace a statement's rows in place: one `Update` record per row,
    /// applied in order, one publish for the lot.
    pub fn update_many(
        &self,
        txn: TxnId,
        table: &str,
        changes: Vec<(RowId, Row)>,
    ) -> Result<(), DbError> {
        self.write_rows(txn, table, |_| {
            changes
                .into_iter()
                .map(|(row_id, row)| LogRecord::Update {
                    txn,
                    table: table.to_string(),
                    row_id,
                    row,
                })
                .collect()
        })
    }

    // -- catalog mutations (log first, then apply; the owning partition's
    //    working-store mutex makes the pair atomic with respect to other
    //    sessions, and every successful mutation publishes that partition's
    //    fresh epoch before releasing it) ----------------------------------

    /// Create a table (logged, undoable).
    pub fn create_table(&self, txn: TxnId, def: TableDef) -> Result<(), DbError> {
        self.check_active(txn)?;
        let k = self.part_of(&def.name);
        let mut store = self.parts[k].working.lock();
        self.log_to(
            k,
            &LogRecord::CreateTable {
                txn,
                def: def.clone(),
            },
        )?;
        let name = def.name.clone();
        store.create_table(def)?;
        self.publish(k, &store);
        self.push_undo(txn, k, UndoOp::DropCreatedTable { name });
        Ok(())
    }

    /// Drop a table (logged; abort restores it with its rows).
    pub fn drop_table(&self, txn: TxnId, name: &str) -> Result<(), DbError> {
        self.check_active(txn)?;
        let k = self.part_of(name);
        let mut store = self.parts[k].working.lock();
        // Touch the table before anything is logged: undo needs the rows,
        // so a table whose segment does not read back cannot be dropped.
        store.table(name)?;
        self.log_to(
            k,
            &LogRecord::DropTable {
                txn,
                name: name.to_string(),
            },
        )?;
        let data = store.drop_table(name)?;
        self.publish(k, &store);
        self.push_undo(txn, k, UndoOp::RestoreDroppedTable { data });
        Ok(())
    }

    /// Register a stored procedure (logged, undoable).
    pub fn create_proc(&self, txn: TxnId, name: &str, sql: &str) -> Result<(), DbError> {
        self.check_active(txn)?;
        let k = self.part_of(name);
        let mut store = self.parts[k].working.lock();
        self.log_to(
            k,
            &LogRecord::CreateProc {
                txn,
                name: name.to_string(),
                sql: sql.to_string(),
            },
        )?;
        store.create_proc(name, sql)?;
        self.publish(k, &store);
        self.push_undo(
            txn,
            k,
            UndoOp::DropCreatedProc {
                name: name.to_string(),
            },
        );
        Ok(())
    }

    /// Drop a stored procedure (logged; abort restores it).
    pub fn drop_proc(&self, txn: TxnId, name: &str) -> Result<(), DbError> {
        self.check_active(txn)?;
        let k = self.part_of(name);
        let mut store = self.parts[k].working.lock();
        self.log_to(
            k,
            &LogRecord::DropProc {
                txn,
                name: name.to_string(),
            },
        )?;
        let sql = store.drop_proc(name)?;
        self.publish(k, &store);
        self.push_undo(
            txn,
            k,
            UndoOp::RestoreDroppedProc {
                name: name.to_string(),
                sql,
            },
        );
        Ok(())
    }

    /// Create a secondary index on `table` (logged, undoable). The index is
    /// backfilled from the table's current rows; no index pages are logged.
    pub fn create_index(
        &self,
        txn: TxnId,
        table: &str,
        name: &str,
        column: usize,
    ) -> Result<(), DbError> {
        self.check_active(txn)?;
        let k = self.part_of(table);
        let mut store = self.parts[k].working.lock();
        // Touch the table before anything is logged: if its segment does
        // not read back, the statement is refused with an empty log.
        store.table(table)?;
        self.log_to(
            k,
            &LogRecord::CreateIndex {
                txn,
                table: table.to_string(),
                name: name.to_string(),
                column,
            },
        )?;
        store.table_mut(table)?.create_index(name, column)?;
        self.publish(k, &store);
        self.push_undo(
            txn,
            k,
            UndoOp::DropCreatedIndex {
                table: table.to_string(),
                name: name.to_string(),
            },
        );
        Ok(())
    }

    /// Drop a secondary index from `table` (logged; abort rebuilds it).
    pub fn drop_index(&self, txn: TxnId, table: &str, name: &str) -> Result<(), DbError> {
        self.check_active(txn)?;
        let k = self.part_of(table);
        let mut store = self.parts[k].working.lock();
        store.table(table)?;
        self.log_to(
            k,
            &LogRecord::DropIndex {
                txn,
                table: table.to_string(),
                name: name.to_string(),
            },
        )?;
        let dropped = store.table_mut(table)?.drop_index(name)?;
        self.publish(k, &store);
        self.push_undo(
            txn,
            k,
            UndoOp::RestoreDroppedIndex {
                table: table.to_string(),
                name: dropped.name,
                column: dropped.column,
            },
        );
        Ok(())
    }

    /// Take a checkpoint: capture the current *committed* image, rotate the
    /// log aside, serialize the tables whose data changed since the last
    /// checkpoint, commit the new manifest, and discard the rotated log.
    ///
    /// Requires no active transactions (the engine quiesces first); a
    /// snapshot with an in-flight transaction would otherwise capture its
    /// uncommitted effects without the log records needed to decide its
    /// fate. The writer lock is held only for the **pause phase** — an
    /// O(tables) pointer-clone of the store plus the log rotation — and is
    /// released before any serialization happens; concurrent writers append
    /// to the fresh log while the segments are written. Snapshot readers
    /// are unaffected throughout: they keep executing against the last
    /// published image.
    pub fn checkpoint(&self) -> Result<(), DbError> {
        let cp = self.checkpoint_state.lock();
        let guards: Vec<_> = self.parts.iter().map(|p| p.working.lock()).collect();
        self.run_checkpoint(cp, guards)
    }

    /// Non-blocking [`Self::checkpoint`]: returns `Ok(false)` without doing
    /// anything if a checkpoint is already running or another writer
    /// currently holds the working store.
    ///
    /// Background/best-effort callers use this rather than `checkpoint()`
    /// so an opportunistic checkpoint never queues behind a long write —
    /// readers are already immune (they run on published snapshots and
    /// never touch the writer lock).
    pub fn try_checkpoint(&self) -> Result<bool, DbError> {
        let Some(cp) = self.checkpoint_state.try_lock() else {
            return Ok(false);
        };
        let mut guards = Vec::with_capacity(self.parts.len());
        for p in &self.parts {
            match p.working.try_lock() {
                Some(g) => guards.push(g),
                None => return Ok(false),
            }
        }
        self.run_checkpoint(cp, guards).map(|()| true)
    }

    fn run_checkpoint(
        &self,
        mut cp: MutexGuard<'_, CheckpointState>,
        guards: Vec<MutexGuard<'_, Store>>,
    ) -> Result<(), DbError> {
        let start = Instant::now();
        if let Some(txn) = self.active.lock().keys().next().copied() {
            return Err(DbError::TxnActive(txn));
        }
        let m = storage_metrics();
        let _t = phoenix_obs::Timer::new(&m.checkpoint_us);

        // ---- pause phase (all writer locks held) ---------------------------
        // A shallow image of every shard, merged: per-table `Arc` clones
        // only. Any later mutation copies-on-write away from these
        // pointers, so the image is frozen.
        let mut image = Store::new();
        for g in &guards {
            image.merge_from(g);
        }
        // Mark + rotation inside one critical section over *all* WAL locks
        // (taken in ascending order): `last_finished` advances under a WAL
        // lock (commit) or a working lock (abort — and we hold them all),
        // so no transaction can finish between reading the mark and
        // rotating the logs; with `active` empty, the max across partitions
        // is a true global high-water mark, and `txn ≤ mark` is *exactly*
        // "records whose effects the image materializes". No commit can be
        // mid-flight across streams either (it would still be in `active`),
        // so the N rotations cut every stream at the same transaction
        // boundary.
        let mark = {
            let mut wals: Vec<_> = self.parts.iter().map(|p| p.wal.lock()).collect();
            let mark = self
                .parts
                .iter()
                .map(|p| p.last_finished.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0);
            for (k, wal) in wals.iter_mut().enumerate() {
                wal.rotate_to(&Self::wal_old_path(&self.dir, k))?;
            }
            // Everything below the current GSN high-water is being folded
            // into the snapshot; once the manifest commits, those frames
            // are deleted. Raise the shipping floor now, conservatively —
            // a standby catch-up between rotation and deletion refuses
            // rather than racing the unlink.
            self.ship_floor
                .fetch_max(self.next_gsn.load(Ordering::Relaxed), Ordering::Relaxed);
            mark
        };
        self.records_since_checkpoint.store(0, Ordering::Relaxed);
        drop(guards);
        let pause_us = start.elapsed().as_micros() as u64;
        m.checkpoint_pause_us.record(pause_us);

        // ---- write phase (writers run concurrently) ------------------------
        phoenix_chaos::check_durable("checkpoint.write")?;
        let gen = cp.gen + 1;
        let mut tables = Vec::new();
        let mut base = SegmentBase::new();
        let mut written = 0usize;
        let mut reused = 0usize;
        for (idx, name) in image.table_names().iter().enumerate() {
            let key = normalize_name(name);
            let slot = image.slot(&key)?;
            let file = match cp.base.get(&key) {
                // The very image the segment on disk holds: reuse it. For a
                // table nothing has touched since recovery this compares
                // two pointers to its `Segment` and reads no file.
                Some((file, old)) if old.same(slot) => {
                    reused += 1;
                    file.clone()
                }
                _ => {
                    let file = snapshot::segment_file_name(gen, idx);
                    snapshot::write_segment(&self.dir.join(&file), image.table(&key)?)?;
                    written += 1;
                    file
                }
            };
            tables.push((name.clone(), file.clone()));
            base.insert(key, (file, slot.clone()));
        }
        let procs = image
            .proc_names()
            .iter()
            .map(|n| (n.clone(), image.proc(n).expect("proc listed").to_string()))
            .collect();
        snapshot::write_manifest(
            &Self::snapshot_path(&self.dir),
            &snapshot::Manifest {
                mark,
                gen,
                tables,
                procs,
            },
        )?;

        // The manifest rename is the commit point: the rotated log and any
        // segments this generation superseded are now dead. A crash here
        // (the `checkpoint.truncate` fault point) must leave a recoverable
        // image — recovery replays the rotated log with the mark filter, so
        // nothing is applied twice.
        phoenix_chaos::check_durable("checkpoint.truncate")?;
        let remove_ok = |path: PathBuf| -> Result<(), DbError> {
            match std::fs::remove_file(path) {
                Ok(()) => Ok(()),
                Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
                Err(e) => Err(e.into()),
            }
        };
        for k in 0..MAX_PARTITIONS {
            remove_ok(Self::wal_old_path(&self.dir, k))?;
            // A stream left behind by a previous, wider layout is fully
            // materialized in this snapshot now — delete it so it is not
            // replayed (harmlessly, but wastefully) forever.
            if k >= self.parts.len() {
                remove_ok(Self::wal_path(&self.dir, k))?;
            }
        }
        let keep: HashSet<String> = base.values().map(|(f, _)| f.clone()).collect();
        snapshot::remove_orphan_segments(&self.dir, &keep)?;

        cp.gen = gen;
        cp.base = base;
        cp.stats = CheckpointStats {
            pause_us,
            total_us: start.elapsed().as_micros() as u64,
            segments_written: written,
            segments_reused: reused,
        };
        m.checkpoints.inc();
        Ok(())
    }

    // -- replication tap (see `crate::repl` for the frame/queue types) ----

    /// Permanently fence this handle: every subsequent WAL append is
    /// refused with `PermissionDenied`. Called when a newer incarnation (a
    /// promoted standby) is known to exist; the engine layer persists the
    /// decision so it sticks across restarts.
    pub fn fence(&self) {
        self.fenced.store(true, Ordering::SeqCst);
        // Wake any semi-sync committers; they re-check and bail on timeout
        // or detach, never completing a write on a fenced primary anyway.
        self.tap.acked_cv.notify_all();
    }

    /// Has [`Durable::fence`] been called on this handle?
    pub fn is_fenced(&self) -> bool {
        self.fenced.load(Ordering::SeqCst)
    }

    /// Highest GSN allocated so far (0 = none yet): the shipper's lag
    /// reference point.
    pub fn last_gsn(&self) -> u64 {
        self.next_gsn.load(Ordering::Relaxed).saturating_sub(1)
    }

    /// Oldest GSN still reconstructible from this directory (frames below
    /// it were folded into a snapshot). A standby whose log ends before
    /// `floor - 1` cannot catch up over the wire and must be re-seeded from
    /// a copy of the primary's data directory.
    pub fn ship_floor(&self) -> u64 {
        self.ship_floor.load(Ordering::Relaxed)
    }

    /// Configure the semi-sync commit wait: `Some(timeout)` holds each
    /// commit until the standby ack watermark covers it (degrading to async
    /// past the timeout), `None` (the default) replicates asynchronously.
    pub fn set_commit_wait(&self, wait: Option<Duration>) {
        *self.commit_wait.lock() = wait;
        self.tap.acked_cv.notify_all();
    }

    /// Attach a shipper whose standby has every frame up to and including
    /// `standby_last_gsn`: arm the live tap and return the disk backlog —
    /// every on-disk frame past that GSN, sorted by GSN.
    ///
    /// Holding **all** WAL locks (ascending, per the global lock order)
    /// blocks every append for the duration, so the returned backlog and
    /// the armed queue partition the GSN space exactly: no frame is missed,
    /// none is delivered twice.
    pub fn repl_attach(&self, standby_last_gsn: u64) -> Result<Vec<ShipFrame>, DbError> {
        let _wals: Vec<_> = self.parts.iter().map(|p| p.wal.lock()).collect();
        let floor = self.ship_floor.load(Ordering::Relaxed);
        if standby_last_gsn + 1 < floor {
            return Err(DbError::Io(io::Error::other(format!(
                "standby is at gsn {standby_last_gsn} but the oldest shippable frame is \
                 {floor} (a checkpoint folded the gap into the snapshot); re-seed the \
                 standby from a copy of the primary's data directory"
            ))));
        }
        if standby_last_gsn > self.last_gsn() {
            return Err(DbError::Io(io::Error::other(format!(
                "standby is at gsn {standby_last_gsn}, ahead of this primary's high-water \
                 {} — it was seeded from a different log history; re-seed it",
                self.last_gsn()
            ))));
        }
        {
            let mut t = self.tap.state.lock();
            t.frames.clear();
            t.lost = false;
        }
        *self.tap.acked.lock() = standby_last_gsn;
        self.tap.enabled.store(true, Ordering::SeqCst);
        let mut backlog: Vec<ShipFrame> = Vec::new();
        for_each_frame(&self.dir, |stream, gsn, record| {
            if gsn > standby_last_gsn {
                backlog.push((stream as u8, gsn, record.to_vec()));
            }
            Ok(())
        })?;
        backlog.sort_unstable_by_key(|&(_, gsn, _)| gsn);
        Ok(backlog)
    }

    /// Drain up to `max` shippable frames in GSN order, blocking up to
    /// `wait` for the first one. A frame is shippable once its append
    /// succeeded **and** (under `Fsync`) the partition's durable watermark
    /// covers it — the shipper only ever sees post-fsync data. Returns an
    /// error if the tap overflowed its bounded queue: the caller
    /// must detach and re-attach with a disk catch-up.
    pub fn repl_poll(&self, max: usize, wait: Duration) -> Result<Vec<ShipFrame>, DbError> {
        let deadline = Instant::now() + wait;
        let mut t = self.tap.state.lock();
        loop {
            if t.lost {
                return Err(DbError::Io(io::Error::other(
                    "replication tap overflowed; re-attach with a disk catch-up",
                )));
            }
            let mut out = Vec::new();
            while out.len() < max {
                let ship = match t.frames.front() {
                    None => break,
                    Some(f) => match f.state {
                        FrameState::Staged => false,
                        FrameState::Dead => true, // tombstone: pop, never ship
                        FrameState::Appended => {
                            self.durability == Durability::Buffered
                                || f.gsn
                                    <= self.tap.durable[f.partition as usize]
                                        .load(Ordering::Acquire)
                        }
                    },
                };
                if !ship {
                    break;
                }
                let f = t.frames.pop_front().expect("front checked");
                if matches!(f.state, FrameState::Appended) {
                    out.push((f.partition, f.gsn, f.record));
                }
            }
            if !out.is_empty() {
                return Ok(out);
            }
            if Instant::now() >= deadline {
                return Ok(Vec::new());
            }
            // Bounded wait: notifications cover the common paths (append,
            // sync), the timeout covers the rest.
            self.tap.cv.wait_for(&mut t, Duration::from_millis(2));
        }
    }

    /// Record the standby's ack watermark: every frame with `gsn ≤` the
    /// watermark is received and persisted on the standby. Unblocks
    /// semi-sync committers.
    pub fn repl_ack(&self, gsn: u64) {
        let mut acked = self.tap.acked.lock();
        if gsn > *acked {
            *acked = gsn;
        }
        drop(acked);
        self.tap.acked_cv.notify_all();
    }

    /// The standby ack watermark (for lag accounting).
    pub fn repl_acked_gsn(&self) -> u64 {
        *self.tap.acked.lock()
    }

    /// Detach the shipper: disarm the tap, drop staged frames, and release
    /// any semi-sync committers (their standby is gone; holding commits
    /// hostage would not make it less gone).
    pub fn repl_detach(&self) {
        self.tap.enabled.store(false, Ordering::SeqCst);
        let mut t = self.tap.state.lock();
        t.frames.clear();
        t.lost = false;
        drop(t);
        self.tap.acked_cv.notify_all();
    }
}

/// Start the one background pass over the snapshot tables recovery left on
/// disk, in manifest (name) order. The thread owns nothing but `Arc`s to the
/// segments: it fills their cells, which every store image shares, and takes
/// no lock a statement could wait on.
fn start_drain(base: &SegmentBase) -> io::Result<Drain> {
    let mut segments: Vec<Arc<Segment>> = base
        .values()
        .filter_map(|(_, slot)| match slot {
            Slot::OnDisk(seg) => Some(Arc::clone(seg)),
            Slot::Loaded(_) => None,
        })
        .collect();
    if segments.iter().all(|seg| seg.loaded().is_some()) {
        // Replay read them all (and would have failed on a bad one).
        return Ok(Drain {
            running: None,
            report: DrainReport::default(),
        });
    }
    segments.sort_by(|a, b| a.name.cmp(&b.name));
    let thread = std::thread::Builder::new()
        .name("phx-drain".into())
        .spawn(move || {
            let start = Instant::now();
            let mut report = DrainReport::default();
            for seg in &segments {
                if seg.loaded().is_none() {
                    let _ = seg.load();
                    report.tables += 1;
                    report.bytes += seg.bytes;
                }
            }
            report.us = start.elapsed().as_micros() as u64;
            // Whoever found out: a statement may have got there first.
            report.unreadable = segments
                .iter()
                .filter_map(|seg| seg.loaded()?.1)
                .map(|e| e.to_string())
                .collect();
            report
        })?;
    Ok(Drain {
        running: Some(thread),
        report: DrainReport::default(),
    })
}

/// Apply one statement's DML records to `t` in order, returning the inverse
/// operations in the same order (rollback runs them reversed).
fn apply_with_undo(t: &mut TableData, recs: Vec<LogRecord>) -> Result<Vec<UndoOp>, StoreError> {
    let mut undo = Vec::new();
    for rec in recs {
        match rec {
            LogRecord::Insert {
                table, row_id, row, ..
            } => {
                t.insert_with_id(row_id, row)?;
                undo.push(UndoOp::RemoveRow { table, row_id });
            }
            LogRecord::InsertMany {
                table,
                first_row_id,
                rows,
                ..
            } => {
                for (row_id, row) in (first_row_id..).zip(rows) {
                    t.insert_with_id(row_id, row)?;
                    undo.push(UndoOp::RemoveRow {
                        table: table.clone(),
                        row_id,
                    });
                }
            }
            LogRecord::Delete { table, row_id, .. } => {
                let row = t.delete(row_id)?;
                undo.push(UndoOp::ReinsertRow { table, row_id, row });
            }
            LogRecord::Update {
                table, row_id, row, ..
            } => {
                let row = t.update(row_id, row)?;
                undo.push(UndoOp::RestoreRow { table, row_id, row });
            }
            other => unreachable!("write_rows builds only row records, not {other:?}"),
        }
    }
    Ok(undo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Column, DataType, Schema, Value};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir() -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("phoenix-db-test-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn def() -> TableDef {
        TableDef::new(
            "dbo.t",
            Schema::new(vec![
                Column::new("id", DataType::Int).not_null(),
                Column::new("v", DataType::Text),
            ]),
        )
        .with_primary_key(vec![0])
    }

    fn row(id: i64, v: &str) -> Row {
        vec![Value::Int(id), Value::Text(v.into())]
    }

    #[test]
    fn committed_work_survives_reopen() {
        let dir = temp_dir();
        {
            let db = Durable::open(&dir, Durability::Fsync).unwrap();
            let t = db.begin().unwrap();
            db.create_table(t, def()).unwrap();
            db.insert(t, "dbo.t", row(1, "a")).unwrap();
            db.insert(t, "dbo.t", row(2, "b")).unwrap();
            db.commit(t).unwrap();
            // Simulate crash: drop without checkpoint.
        }
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let store = db.snapshot();
        let t = store.table("dbo.t").unwrap();
        assert_eq!(t.len(), 2);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_work_is_lost_on_reopen() {
        let dir = temp_dir();
        {
            let db = Durable::open(&dir, Durability::Fsync).unwrap();
            let t = db.begin().unwrap();
            db.create_table(t, def()).unwrap();
            db.commit(t).unwrap();
            let t2 = db.begin().unwrap();
            db.insert(t2, "dbo.t", row(1, "ghost")).unwrap();
            // No commit; crash.
        }
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        assert!(db.snapshot().table("dbo.t").unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn abort_rolls_back_in_memory() {
        let dir = temp_dir();
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let t = db.begin().unwrap();
        db.create_table(t, def()).unwrap();
        db.insert(t, "dbo.t", row(1, "a")).unwrap();
        db.commit(t).unwrap();

        let t2 = db.begin().unwrap();
        let rid = db.insert(t2, "dbo.t", row(2, "b")).unwrap();
        db.update(t2, "dbo.t", 1, row(1, "changed")).unwrap();
        db.delete(t2, "dbo.t", 1).unwrap();
        db.create_proc(t2, "p", "SELECT 1").unwrap();
        db.abort(t2).unwrap();

        let store = db.snapshot();
        let tbl = store.table("dbo.t").unwrap();
        assert_eq!(tbl.len(), 1);
        assert_eq!(tbl.rows[&1], row(1, "a"));
        assert!(!tbl.rows.contains_key(&rid));
        assert!(store.proc("p").is_none());
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn abort_restores_dropped_table() {
        let dir = temp_dir();
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let t = db.begin().unwrap();
        db.create_table(t, def()).unwrap();
        db.insert(t, "dbo.t", row(1, "keep")).unwrap();
        db.commit(t).unwrap();

        let t2 = db.begin().unwrap();
        db.drop_table(t2, "dbo.t").unwrap();
        assert!(!db.snapshot().has_table("dbo.t"));
        db.abort(t2).unwrap();
        assert_eq!(db.snapshot().table("dbo.t").unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Index DDL is redo-only durable: the CreateIndex barrier replays from
    /// the WAL, and DML before/after it lands in the rebuilt map.
    #[test]
    fn index_recovers_from_wal_and_checkpoint() {
        let dir = temp_dir();
        {
            let db = Durable::open(&dir, Durability::Fsync).unwrap();
            let t = db.begin().unwrap();
            db.create_table(t, def()).unwrap();
            db.insert(t, "dbo.t", row(1, "a")).unwrap();
            db.commit(t).unwrap();
            let t2 = db.begin().unwrap();
            db.create_index(t2, "dbo.t", "t_name", 1).unwrap();
            db.insert(t2, "dbo.t", row(2, "b")).unwrap();
            db.commit(t2).unwrap();
            // Crash (drop without checkpoint): replay rebuilds the index.
        }
        {
            let db = Durable::open(&dir, Durability::Fsync).unwrap();
            let snap = db.snapshot();
            let tbl = snap.table("dbo.t").unwrap();
            assert_eq!(tbl.def.indexes.len(), 1);
            assert_eq!(tbl.sec_index(0).len(), 2);
            snap.verify_indexes().unwrap();
            drop(snap);
            // Checkpoint, then more DML, then crash again: the index def now
            // rides the snapshot segment and replayed DML maintains it.
            db.checkpoint().unwrap();
            let t3 = db.begin().unwrap();
            db.insert(t3, "dbo.t", row(3, "c")).unwrap();
            db.commit(t3).unwrap();
        }
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let snap = db.snapshot();
        let tbl = snap.table("dbo.t").unwrap();
        assert_eq!(tbl.sec_index(0).len(), 3);
        snap.verify_indexes().unwrap();
        drop(snap);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn abort_rolls_back_index_ddl() {
        let dir = temp_dir();
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let t = db.begin().unwrap();
        db.create_table(t, def()).unwrap();
        db.insert(t, "dbo.t", row(1, "a")).unwrap();
        db.create_index(t, "dbo.t", "t_keep", 1).unwrap();
        db.commit(t).unwrap();

        let t2 = db.begin().unwrap();
        db.create_index(t2, "dbo.t", "t_scratch", 0).unwrap();
        db.drop_index(t2, "dbo.t", "t_keep").unwrap();
        db.abort(t2).unwrap();

        let snap = db.snapshot();
        let tbl = snap.table("dbo.t").unwrap();
        assert_eq!(tbl.def.indexes.len(), 1, "scratch gone, keep restored");
        assert!(tbl.def.index_pos("t_keep").is_some());
        assert_eq!(tbl.sec_index(0).len(), 1, "restored index is backfilled");
        snap.verify_indexes().unwrap();
        drop(snap);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A snapshot handed out before mutations keeps showing the old image:
    /// inserts, updates, deletes, batch inserts and drops land in later
    /// publications without disturbing the reader's copy.
    #[test]
    fn snapshot_is_immutable_under_later_mutations() {
        let dir = temp_dir();
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let t = db.begin().unwrap();
        db.create_table(t, def()).unwrap();
        db.insert(t, "dbo.t", row(1, "a")).unwrap();
        db.commit(t).unwrap();

        let before = db.snapshot();
        let t2 = db.begin().unwrap();
        db.update(t2, "dbo.t", 1, row(1, "mutated")).unwrap();
        db.insert_many(t2, "dbo.t", vec![row(2, "b"), row(3, "c")])
            .unwrap();
        db.delete(t2, "dbo.t", 1).unwrap();
        db.commit(t2).unwrap();

        // The old snapshot still shows exactly the pre-mutation image …
        let tbl = before.table("dbo.t").unwrap();
        assert_eq!(tbl.len(), 1);
        assert_eq!(tbl.rows[&1], row(1, "a"));
        // … while a fresh one sees everything.
        let after = db.snapshot();
        let tbl = after.table("dbo.t").unwrap();
        assert_eq!(tbl.len(), 2);
        assert!(!tbl.rows.contains_key(&1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `insert_many` is one log append for the whole batch, and recovery
    /// replays it identically to per-row inserts.
    #[test]
    fn insert_many_logs_once_and_recovers() {
        let dir = temp_dir();
        let ids;
        {
            let db = Durable::open(&dir, Durability::Fsync).unwrap();
            let t = db.begin().unwrap();
            db.create_table(t, def()).unwrap();
            let before = db.log_records_since_checkpoint();
            ids = db
                .insert_many(t, "dbo.t", (0..50).map(|i| row(i, "v")).collect())
                .unwrap();
            assert_eq!(db.log_records_since_checkpoint(), before + 1);
            db.commit(t).unwrap();
        }
        assert_eq!(ids, (1..=50).collect::<Vec<RowId>>());
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let snap = db.snapshot();
        let tbl = snap.table("dbo.t").unwrap();
        assert_eq!(tbl.len(), 50);
        assert_eq!(tbl.next_row_id, 51);
        drop(snap);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A batch whose encoding exceeds the WAL frame cap is split into
    /// multiple conforming records instead of being refused.
    #[test]
    fn insert_many_splits_oversized_batches() {
        let dir = temp_dir();
        let ids;
        {
            let db = Durable::open(&dir, Durability::Fsync).unwrap();
            let t = db.begin().unwrap();
            db.create_table(t, def()).unwrap();
            // 5 rows × ~20 MiB ≈ 100 MiB encoded — over the 64 MiB cap,
            // but each half fits.
            let big = "y".repeat(20 * 1024 * 1024);
            let before = db.log_records_since_checkpoint();
            ids = db
                .insert_many(t, "dbo.t", (0..5).map(|i| row(i, &big)).collect())
                .unwrap();
            assert!(db.log_records_since_checkpoint() > before + 1);
            db.commit(t).unwrap();
        }
        assert_eq!(ids, (1..=5).collect::<Vec<RowId>>());
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        assert_eq!(db.snapshot().table("dbo.t").unwrap().len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An aborted `insert_many` is fully undone.
    #[test]
    fn insert_many_aborts_cleanly() {
        let dir = temp_dir();
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let t = db.begin().unwrap();
        db.create_table(t, def()).unwrap();
        db.insert(t, "dbo.t", row(1, "keep")).unwrap();
        db.commit(t).unwrap();

        let t2 = db.begin().unwrap();
        db.insert_many(t2, "dbo.t", vec![row(2, "b"), row(3, "c"), row(4, "d")])
            .unwrap();
        db.abort(t2).unwrap();
        let snap = db.snapshot();
        assert_eq!(snap.table("dbo.t").unwrap().len(), 1);
        drop(snap);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_log_and_preserves_state() {
        let dir = temp_dir();
        {
            let db = Durable::open(&dir, Durability::Fsync).unwrap();
            let t = db.begin().unwrap();
            db.create_table(t, def()).unwrap();
            for i in 0..10 {
                db.insert(t, "dbo.t", row(i, "x")).unwrap();
            }
            db.commit(t).unwrap();
            db.checkpoint().unwrap();
            assert_eq!(db.log_records_since_checkpoint(), 0);
            // More work after the checkpoint.
            let t2 = db.begin().unwrap();
            db.insert(t2, "dbo.t", row(100, "post")).unwrap();
            db.commit(t2).unwrap();
        }
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        assert_eq!(db.snapshot().table("dbo.t").unwrap().len(), 11);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_refused_with_active_txn() {
        let dir = temp_dir();
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let t = db.begin().unwrap();
        assert!(matches!(db.checkpoint(), Err(DbError::TxnActive(x)) if x == t));
        db.abort(t).unwrap();
        db.checkpoint().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn txn_ids_monotone_across_restarts() {
        let dir = temp_dir();
        let last = {
            let db = Durable::open(&dir, Durability::Fsync).unwrap();
            let t = db.begin().unwrap();
            db.commit(t).unwrap();
            t
        };
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let t = db.begin().unwrap();
        assert!(t > last);
        db.commit(t).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn row_ids_stable_across_recovery() {
        let dir = temp_dir();
        {
            let db = Durable::open(&dir, Durability::Fsync).unwrap();
            let t = db.begin().unwrap();
            db.create_table(t, def()).unwrap();
            db.insert(t, "dbo.t", row(1, "a")).unwrap();
            let rid2 = db.insert(t, "dbo.t", row(2, "b")).unwrap();
            db.delete(t, "dbo.t", rid2).unwrap();
            db.commit(t).unwrap();
        }
        let dir2 = dir.clone();
        let db = Durable::open(&dir2, Durability::Fsync).unwrap();
        let t = db.begin().unwrap();
        // A new insert must not reuse the deleted id 2.
        let rid = db.insert(t, "dbo.t", row(3, "c")).unwrap();
        assert_eq!(rid, 3);
        db.commit(t).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mutating_unknown_txn_is_an_error() {
        let dir = temp_dir();
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        assert!(matches!(
            db.insert(999, "dbo.t", row(1, "x")),
            Err(DbError::NoSuchTxn(999))
        ));
        assert!(matches!(db.commit(999), Err(DbError::NoSuchTxn(999))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The guard returned by an oversized `Wal::append` surfaces through the
    /// durability layer as an `Io` error even in release builds, instead of
    /// silently writing a frame recovery would discard as a corrupt tail.
    #[test]
    fn oversized_row_is_refused_not_silently_dropped() {
        let dir = temp_dir();
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let t = db.begin().unwrap();
        db.create_table(t, def()).unwrap();
        // A text value bigger than the frame cap; the encoded record is
        // necessarily bigger still.
        let huge = "x".repeat(MAX_FRAME as usize + 1);
        let err = db
            .insert(t, "dbo.t", vec![Value::Int(1), Value::Text(huge)])
            .unwrap_err();
        match err {
            DbError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput),
            other => panic!("expected Io(InvalidInput), got {other}"),
        }
        // The store was not touched (log-before-apply: the append failed
        // before any apply) and the database remains usable.
        assert!(db.snapshot().table("dbo.t").unwrap().is_empty());
        db.insert(t, "dbo.t", row(1, "small")).unwrap();
        db.commit(t).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Concurrent committers must coalesce into fewer `sync_data` calls than
    /// commits (the group-commit property the bench measures).
    #[test]
    fn group_commit_coalesces_syncs() {
        use std::sync::Arc;
        let dir = temp_dir();
        let db = Arc::new(Durable::open(&dir, Durability::Fsync).unwrap());
        let t = db.begin().unwrap();
        db.create_table(t, def()).unwrap();
        db.commit(t).unwrap();

        let before = db.wal_sync_count();
        const THREADS: usize = 8;
        const COMMITS: usize = 25;
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|k| {
                let db = Arc::clone(&db);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..COMMITS {
                        let t = db.begin().unwrap();
                        db.insert(t, "dbo.t", row((k * COMMITS + i) as i64 + 10, "w"))
                            .unwrap();
                        db.commit(t).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let syncs = db.wal_sync_count() - before;
        let commits = (THREADS * COMMITS) as u64;
        assert!(syncs >= 1, "commits must sync at least once");
        assert!(
            syncs < commits,
            "expected group commit to coalesce: {syncs} syncs for {commits} commits"
        );
        assert_eq!(
            db.snapshot().table("dbo.t").unwrap().len(),
            commits as usize
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Interleaved transactions from many threads all recover after a crash.
    #[test]
    fn concurrent_commits_all_recover() {
        use std::sync::Arc;
        let dir = temp_dir();
        {
            let db = Arc::new(Durable::open(&dir, Durability::Fsync).unwrap());
            let t = db.begin().unwrap();
            db.create_table(t, def()).unwrap();
            db.commit(t).unwrap();
            let handles: Vec<_> = (0..4)
                .map(|k| {
                    let db = Arc::clone(&db);
                    std::thread::spawn(move || {
                        for i in 0..20 {
                            let t = db.begin().unwrap();
                            db.insert(t, "dbo.t", row((k * 20 + i) as i64, "v"))
                                .unwrap();
                            if i % 5 == 4 {
                                // Sprinkle empty aborts between the commits,
                                // plus an extra insert under the live txn.
                                let a = db.begin().unwrap();
                                db.insert(t, "dbo.t", row(1000 + (k * 20 + i) as i64, "tmp"))
                                    .unwrap();
                                db.abort(a).unwrap();
                            }
                            db.commit(t).unwrap();
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            // Crash: drop without checkpoint.
        }
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let store = db.snapshot();
        let tbl = store.table("dbo.t").unwrap();
        // 4 threads × 20 committed inserts each, plus 4×4 extra rows inserted
        // under the *committed* txn t during the abort interludes.
        assert_eq!(tbl.len(), 80 + 16);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn opts(partitions: usize) -> RecoveryOptions {
        RecoveryOptions {
            partitions: Some(partitions),
            ..RecoveryOptions::default()
        }
    }

    fn named_def(name: &str) -> TableDef {
        TableDef::new(
            name,
            Schema::new(vec![
                Column::new("id", DataType::Int).not_null(),
                Column::new("v", DataType::Text),
            ]),
        )
        .with_primary_key(vec![0])
    }

    /// Basic write/commit/recover with a partitioned layout: tables land in
    /// distinct shards and streams, and recovery merges them back.
    #[test]
    fn partitioned_commit_and_recover() {
        let dir = temp_dir();
        let names = ["acct", "dbo.acct", "customer", "audit"];
        {
            let db = Durable::open_opts(&dir, Durability::Fsync, &opts(4)).unwrap();
            assert_eq!(db.partitions(), 4);
            let t = db.begin().unwrap();
            for name in names {
                db.create_table(t, named_def(name)).unwrap();
                db.insert(t, name, row(1, name)).unwrap();
            }
            db.commit(t).unwrap();
            // The tables hash to more than one partition, so at least one
            // suffixed stream must exist on disk.
            let extra: Vec<usize> = (1..4)
                .filter(|&k| Durable::wal_path(&dir, k).exists())
                .collect();
            assert!(!extra.is_empty(), "expected at least one .p<k> stream");
        }
        let db = Durable::open_opts(&dir, Durability::Fsync, &opts(4)).unwrap();
        let snap = db.snapshot();
        for name in names {
            let tbl = snap.table(name).unwrap();
            assert_eq!(tbl.len(), 1, "{name}");
            assert_eq!(tbl.rows[&1], row(1, name));
        }
        drop(snap);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A cross-partition transaction commits atomically: after crash +
    /// recovery either both tables show its rows or neither does — here the
    /// commit completed, so both must.
    #[test]
    fn cross_partition_txn_commits_atomically() {
        let dir = temp_dir();
        // At n=2, "acct" routes to partition 0 and "dbo.acct" to 1.
        assert_ne!(partition_of("acct", 2), partition_of("dbo.acct", 2));
        {
            let db = Durable::open_opts(&dir, Durability::Fsync, &opts(2)).unwrap();
            let t = db.begin().unwrap();
            db.create_table(t, named_def("acct")).unwrap();
            db.create_table(t, named_def("dbo.acct")).unwrap();
            db.commit(t).unwrap();
            let t = db.begin().unwrap();
            db.insert(t, "acct", row(1, "debit")).unwrap();
            db.insert(t, "dbo.acct", row(1, "credit")).unwrap();
            db.commit(t).unwrap();
            // And an uncommitted cross-partition txn that must vanish.
            let t = db.begin().unwrap();
            db.insert(t, "acct", row(2, "ghost")).unwrap();
            db.insert(t, "dbo.acct", row(2, "ghost")).unwrap();
            // Crash without commit.
        }
        let db = Durable::open_opts(&dir, Durability::Fsync, &opts(2)).unwrap();
        let snap = db.snapshot();
        assert_eq!(snap.table("acct").unwrap().len(), 1);
        assert_eq!(snap.table("dbo.acct").unwrap().len(), 1);
        drop(snap);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A `CommitMulti` present in only *some* participant streams (the
    /// mid-commit crash window) rolls the transaction back on recovery.
    #[test]
    fn partial_cross_partition_commit_rolls_back() {
        let dir = temp_dir();
        let (p_acct, p_other) = (partition_of("acct", 2), partition_of("dbo.acct", 2));
        {
            let db = Durable::open_opts(&dir, Durability::Fsync, &opts(2)).unwrap();
            let t = db.begin().unwrap();
            db.create_table(t, named_def("acct")).unwrap();
            db.create_table(t, named_def("dbo.acct")).unwrap();
            db.commit(t).unwrap();
            let t = db.begin().unwrap();
            db.insert(t, "acct", row(1, "half")).unwrap();
            db.insert(t, "dbo.acct", row(1, "half")).unwrap();
            // Forge the partial-commit window: append the CommitMulti
            // record to only ONE participant stream, as a crash between the
            // two appends would leave it.
            let rec = LogRecord::CommitMulti {
                txn: t,
                participants: vec![p_acct as u32, p_other as u32],
            };
            db.append_locked(p_acct, &mut db.parts[p_acct].wal.lock(), &rec.encode())
                .unwrap();
            db.parts[p_acct].wal.lock().sync().unwrap();
            // Crash.
        }
        let db = Durable::open_opts(&dir, Durability::Fsync, &opts(2)).unwrap();
        let snap = db.snapshot();
        assert!(snap.table("acct").unwrap().is_empty());
        assert!(snap.table("dbo.acct").unwrap().is_empty());
        drop(snap);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A directory written with one partition count re-opens correctly with
    /// another: recovery scans every possible stream, and the next
    /// checkpoint retires the ones outside the new layout.
    #[test]
    fn reopen_with_different_partition_count() {
        let dir = temp_dir();
        let names = ["acct", "dbo.acct", "customer", "audit"];
        {
            let db = Durable::open_opts(&dir, Durability::Fsync, &opts(4)).unwrap();
            let t = db.begin().unwrap();
            for name in names {
                db.create_table(t, named_def(name)).unwrap();
                db.insert(t, name, row(7, name)).unwrap();
            }
            db.commit(t).unwrap();
        }
        {
            let db = Durable::open_opts(&dir, Durability::Fsync, &opts(1)).unwrap();
            let snap = db.snapshot();
            for name in names {
                assert_eq!(snap.table(name).unwrap().len(), 1, "{name}");
            }
            drop(snap);
            db.checkpoint().unwrap();
            // Streams outside the single-partition layout are gone.
            for k in 1..MAX_PARTITIONS {
                assert!(!Durable::wal_path(&dir, k).exists(), "p{k} should be gone");
            }
        }
        let db = Durable::open_opts(&dir, Durability::Fsync, &opts(2)).unwrap();
        let snap = db.snapshot();
        for name in names {
            assert_eq!(snap.table(name).unwrap().len(), 1, "{name}");
        }
        drop(snap);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Aborting a cross-partition transaction rolls back every shard.
    #[test]
    fn cross_partition_abort_rolls_back_all_shards() {
        let dir = temp_dir();
        let db = Durable::open_opts(&dir, Durability::Fsync, &opts(2)).unwrap();
        let t = db.begin().unwrap();
        db.create_table(t, named_def("acct")).unwrap();
        db.create_table(t, named_def("dbo.acct")).unwrap();
        db.insert(t, "acct", row(1, "a")).unwrap();
        db.commit(t).unwrap();
        let t = db.begin().unwrap();
        db.insert(t, "acct", row(2, "x")).unwrap();
        db.update(t, "acct", 1, row(1, "mutated")).unwrap();
        db.insert(t, "dbo.acct", row(1, "y")).unwrap();
        db.create_proc(t, "p", "SELECT 1").unwrap();
        db.abort(t).unwrap();
        let snap = db.snapshot();
        let acct = snap.table("acct").unwrap();
        assert_eq!(acct.len(), 1);
        assert_eq!(acct.rows[&1], row(1, "a"));
        assert!(snap.table("dbo.acct").unwrap().is_empty());
        assert!(!snap.has_proc("p"));
        drop(snap);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[cfg(test)]
mod reopen_tests {
    use super::*;
    use crate::types::{Column, DataType, Schema, Value};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir() -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("phoenix-reopen-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Recovery is idempotent: opening, doing nothing, and re-opening any
    /// number of times never changes the recovered state (replaying the
    /// same committed log repeatedly must converge).
    #[test]
    fn repeated_recovery_is_idempotent() {
        let dir = temp_dir();
        {
            let db = Durable::open(&dir, Durability::Fsync).unwrap();
            let t = db.begin().unwrap();
            db.create_table(
                t,
                TableDef::new("dbo.t", Schema::new(vec![Column::new("v", DataType::Int)])),
            )
            .unwrap();
            for i in 0..5 {
                db.insert(t, "dbo.t", vec![Value::Int(i)]).unwrap();
            }
            db.commit(t).unwrap();
        }
        let snapshot_of = |db: &Durable| -> Vec<(u64, i64)> {
            db.snapshot()
                .table("dbo.t")
                .unwrap()
                .rows
                .iter()
                .map(|(rid, row)| (*rid, row[0].as_i64().unwrap()))
                .collect()
        };
        let first = {
            let db = Durable::open(&dir, Durability::Fsync).unwrap();
            snapshot_of(&db)
        };
        for _ in 0..3 {
            let db = Durable::open(&dir, Durability::Fsync).unwrap();
            assert_eq!(snapshot_of(&db), first);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Checkpoint + more work + crash + recover + checkpoint again: the
    /// snapshot/log alternation composes.
    #[test]
    fn alternating_checkpoints_and_crashes() {
        let dir = temp_dir();
        for round in 0..4 {
            let db = Durable::open(&dir, Durability::Fsync).unwrap();
            if round == 0 {
                let t = db.begin().unwrap();
                db.create_table(
                    t,
                    TableDef::new("dbo.t", Schema::new(vec![Column::new("v", DataType::Int)])),
                )
                .unwrap();
                db.commit(t).unwrap();
            }
            let t = db.begin().unwrap();
            db.insert(t, "dbo.t", vec![Value::Int(round)]).unwrap();
            db.commit(t).unwrap();
            if round % 2 == 0 {
                db.checkpoint().unwrap();
            }
            // Crash (drop) either right after the checkpoint or with the
            // round's work only in the log.
        }
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        assert_eq!(db.snapshot().table("dbo.t").unwrap().len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
