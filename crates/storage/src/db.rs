//! [`Durable`]: the transactional binding of a [`Store`] to a write-ahead log.
//!
//! Every mutation, row or catalog, takes one write path: its log records are
//! applied through `Store::apply` to a scratch copy of the working store
//! (an O(1) clone), and only a statement that applies whole reaches the log,
//! so the log holds nothing recovery could not replay. The scratch then
//! becomes the working store — write-ahead: the records are appended before
//! the change is visible — and commit forces the log. The same apply hands
//! back each record's inverse; an aborted transaction is rolled back in
//! memory by applying those, newest first (the log keeps the records;
//! recovery ignores them because no commit record follows).
//!
//! [`Durable::open`] is crash recovery, and all of it is the
//! [`crate::applier::Applier`]: load the latest snapshot's manifest (each
//! table stays in its segment file until something touches it), read the
//! log in GSN order, and apply the records
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
//!   the writer *publishes* an immutable `Arc<Store>` (an O(1) clone of the
//!   working store: its catalog and every table are persistent maps) with a
//!   cheap pointer swap; [`Durable::snapshot`] hands that image out in
//!   O(1), and readers
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
//! # One log
//!
//! There is one working store, one WAL stream (`phoenix.wal`, plus the
//! rotated `phoenix.wal.old` of an unfinished checkpoint) and one group
//! committer, so a transaction commits with one `Commit` record and one
//! flush however many tables it wrote. Every WAL frame payload is prefixed
//! with a *global sequence number* (GSN), allocated under the WAL lock, so
//! the log is GSN-ordered. A directory holding a `phoenix.wal.p<k>` stream
//! was written by the retired partitioned write path and is refused at open
//! ([`DbError::PartitionedLog`]): replaying only `phoenix.wal` would
//! silently drop the transactions in the others. A directory holding
//! `phoenix.fenced` belonged to a primary a promoted standby deposed, in a
//! build that still replicated; it is refused too ([`DbError::Fenced`]),
//! because the survivor owns its history now.
//!
//! Lock order (outer to inner): `checkpoint_state` → `working` → `wal` →
//! {`group.state`, `active`}, and `working` → `published`. `published` is
//! never held with `wal` or `active`.
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

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};

use crate::applier::{frame_payload, Applier, Recovered};
use crate::codec::DecodeError;
use crate::metrics::storage_metrics;
use crate::record::LogRecord;
use crate::snapshot::{self, SegmentBase};
use crate::store::{normalize_name, Change, Segment, Slot, Store, StoreError};
use crate::types::{Row, RowId, TableDef, TxnId};
use crate::wal::{Wal, MAX_FRAME};

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
    /// The directory holds this log stream of the retired partitioned
    /// write path; opening it would drop the transactions it holds.
    PartitionedLog(PathBuf),
    /// The directory holds this fence marker: a standby of an older,
    /// replicating build was promoted over this primary, so the history
    /// here is no longer the authoritative one.
    Fenced(PathBuf),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "io error: {e}"),
            DbError::Store(e) => write!(f, "{e}"),
            DbError::Decode(e) => write!(f, "{e}"),
            DbError::NoSuchTxn(t) => write!(f, "no such transaction {t}"),
            DbError::TxnActive(t) => write!(f, "transaction {t} still active"),
            DbError::PartitionedLog(path) => write!(
                f,
                "{} is a log stream of a partitioned server, and this build reads \
                 one log: opening the directory would drop the transactions in it. \
                 Open it once with the build that wrote it at `--partitions 1` and \
                 shut down cleanly; that checkpoint retires the stream",
                path.display()
            ),
            DbError::Fenced(path) => write!(
                f,
                "{} marks this directory as a deposed primary: a promoted standby \
                 owns its history, and writing here would fork it. Serve the \
                 promoted standby's directory instead",
                path.display()
            ),
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
    /// Flushes the leaders have issued: the probe group-commit tests use to
    /// assert that concurrent commits coalesce into fewer syncs.
    syncs: u64,
}

struct GroupCommit {
    state: Mutex<GroupState>,
    /// Signalled whenever `flushed` advances or the leader seat frees up.
    flushed_cv: Condvar,
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
    /// Reading the logs off disk and decoding them.
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

/// A durable, transactional store, shareable across threads (`&self` API).
pub struct Durable {
    /// The writers' image. Mutations lock it, append+apply, then publish.
    working: Mutex<Store>,
    /// The readers' image, re-captured by every mutation. The lock is held
    /// only for the pointer swap / `Arc` clone, never across query
    /// execution.
    published: RwLock<Arc<Store>>,
    wal: Mutex<Wal>,
    group: GroupCommit,
    /// Largest txn id that has finished (committed or aborted): the
    /// checkpoint's snapshot mark. Advanced under the WAL lock at
    /// commit-append time and under the working lock at abort; recovery
    /// seeds it with the recovered high-water mark.
    last_finished: AtomicU64,
    dir: PathBuf,
    durability: Durability,
    next_txn: AtomicU64,
    /// Global sequence number for the next WAL frame, allocated under the
    /// WAL lock, so the log is GSN-ordered.
    next_gsn: AtomicU64,
    /// Active transactions and the inverses of their applied records,
    /// oldest first.
    active: Mutex<HashMap<TxnId, Vec<Change>>>,
    /// Records appended since the last checkpoint (drives auto-checkpoint
    /// policy in the engine; the layer itself never checkpoints
    /// implicitly).
    records_since_checkpoint: AtomicU64,
    /// Checkpoint serialization + the previous checkpoint's segment images.
    checkpoint_state: Mutex<CheckpointState>,
    /// What recovery did when this handle was opened.
    recovery: RecoveryReport,
    /// Loads the snapshot tables recovery did not need, so that steady state
    /// is reached without a client paying for it.
    drain: Mutex<Drain>,
}

impl Durable {
    /// The live log.
    pub fn wal_path(dir: &Path) -> PathBuf {
        dir.join("phoenix.wal")
    }

    /// The rotated-aside log of an in-progress (or crashed) checkpoint.
    /// Replayed *before* the live log; deleted when the checkpoint's
    /// manifest is durable.
    pub(crate) fn wal_old_path(dir: &Path) -> PathBuf {
        dir.join("phoenix.wal.old")
    }

    pub(crate) fn snapshot_path(dir: &Path) -> PathBuf {
        dir.join("phoenix.snapshot")
    }

    /// Open the database in `dir`, performing crash recovery: the snapshot
    /// plus every committed log record newer than its mark (see
    /// [`crate::applier`]). A directory a partitioned server wrote is
    /// refused with [`DbError::PartitionedLog`], and one a promoted standby
    /// fenced with [`DbError::Fenced`].
    pub fn open(dir: impl AsRef<Path>, durability: Durability) -> Result<Durable, DbError> {
        let start = Instant::now();
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let Recovered {
            store,
            last_txn,
            max_gsn,
            frames,
            applied,
            stages,
            gen,
            base,
            live_valid,
        } = Applier::load(dir)?.finish()?;
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
            published: RwLock::new(Arc::new(store.clone())),
            working: Mutex::new(store),
            // The applier has just scanned the log: resume it at the valid
            // prefix it found instead of scanning again.
            wal: Mutex::new(Wal::open_at(Self::wal_path(dir), live_valid)?),
            group: GroupCommit {
                state: Mutex::new(GroupState {
                    appended: 0,
                    flushed: 0,
                    leader: false,
                    syncs: 0,
                }),
                flushed_cv: Condvar::new(),
            },
            last_finished: AtomicU64::new(last_txn),
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

    /// What recovery did when this handle was opened.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Timing/shape of the most recent checkpoint taken by this handle.
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        self.checkpoint_state.lock().stats.clone()
    }

    /// The current published image: one `Arc` clone, under a lock held
    /// only for the clone itself. The caller then reads with no lock at all
    /// — long scans never block writers, and writers never block new
    /// readers. The image keeps showing the state as of its publication;
    /// take a fresh one per statement (or per cursor fetch) for current
    /// data.
    pub fn snapshot(&self) -> Arc<Store> {
        self.published.read().clone()
    }

    /// Publish the working image for readers: an O(1) clone, since the
    /// catalog and every table are persistent maps. Called with the working
    /// lock held so publication order matches mutation order.
    fn publish(&self, working: &Store) {
        match phoenix_chaos::fault("store.publish") {
            phoenix_chaos::FaultAction::Continue => {}
            phoenix_chaos::FaultAction::Delay(d) => std::thread::sleep(d),
            // Process death between mutation and publish: readers keep the
            // previous snapshot, exactly as a crashed server would leave it.
            _ => return,
        }
        *self.published.write() = Arc::new(working.clone());
        storage_metrics().snapshot_publishes.inc();
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

    /// Number of `sync_data` calls issued on the log (group-commit probe).
    pub fn wal_sync_count(&self) -> u64 {
        self.group.state.lock().syncs
    }

    /// Append one record to the log, whose lock the caller already holds,
    /// prefixing it with a freshly allocated GSN. Allocating *under* the
    /// lock keeps the log GSN-ordered.
    fn append_locked(&self, wal: &mut Wal, encoded: &[u8]) -> Result<(), DbError> {
        let gsn = self.next_gsn.fetch_add(1, Ordering::Relaxed);
        wal.append(&frame_payload(gsn, encoded))?;
        self.records_since_checkpoint
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Begin a new transaction. Nothing is logged — a transaction exists in
    /// the log only through the records of its mutations (and its final
    /// commit/abort marker), so an empty transaction costs no I/O until
    /// commit.
    pub fn begin(&self) -> Result<TxnId, DbError> {
        let txn = self.next_txn.fetch_add(1, Ordering::Relaxed);
        self.active.lock().insert(txn, Vec::new());
        Ok(txn)
    }

    /// Commit: log the commit record and force the log (under `Fsync`).
    ///
    /// Concurrent committers coalesce: each appends its record and takes a
    /// group sequence number; one of them (the leader) syncs the file once
    /// for every record appended so far, the rest wait until the flushed
    /// watermark covers their own sequence number.
    pub fn commit(&self, txn: TxnId) -> Result<(), DbError> {
        self.check_active(txn)?;
        // Append the commit record, advance the finished-txn high-water
        // mark, and claim a group sequence number — all under the WAL lock
        // (so sequence order matches append order) and all *before* leaving
        // the `active` set. A checkpoint that observes this transaction as
        // inactive is thereby guaranteed to capture a mark covering it: its
        // commit record can never land after the snapshot's log rotation
        // while its effects sit inside the snapshot image (the double-apply
        // window).
        let encoded = LogRecord::Commit { txn }.encode();
        let seq = {
            let mut wal = self.wal.lock();
            self.append_locked(&mut wal, &encoded)?;
            self.last_finished.fetch_max(txn, Ordering::Relaxed);
            let mut st = self.group.state.lock();
            st.appended += 1;
            st.appended
        };
        self.active.lock().remove(&txn);
        if self.durability == Durability::Fsync {
            self.group_sync(seq)?;
        }
        Ok(())
    }

    /// Wait until the commit record with group sequence `seq` is durable,
    /// taking the leader role if nobody else is flushing.
    fn group_sync(&self, seq: u64) -> Result<(), DbError> {
        let mut st = self.group.state.lock();
        loop {
            if st.flushed >= seq {
                return Ok(());
            }
            if st.leader {
                // A flush is in flight; it may or may not cover us. Wait for
                // the watermark to move and re-check.
                self.group.flushed_cv.wait(&mut st);
                continue;
            }
            st.leader = true;
            drop(st);
            // Leader: one sync covers every record appended so far —
            // including those of the committers now parked on the condvar.
            // The log's lock is held only to take the flush handle, so the
            // committers arriving during the device flush append behind it
            // and make up the next group.
            let (upto, flusher) = {
                let wal = self.wal.lock();
                (self.group.state.lock().appended, wal.flusher())
            };
            let flush = flusher.sync().map(|()| upto);
            st = self.group.state.lock();
            st.leader = false;
            match flush {
                Ok(upto) => {
                    st.syncs += 1;
                    if upto > st.flushed {
                        let m = storage_metrics();
                        m.group_commit_records.add(upto - st.flushed);
                        m.group_commit_syncs.inc();
                        m.group_commit_batch.record(upto - st.flushed);
                    }
                    st.flushed = st.flushed.max(upto);
                    self.group.flushed_cv.notify_all();
                    // `upto` ≥ our `seq` (we appended before flushing), so
                    // the next loop iteration returns Ok.
                }
                Err(e) => {
                    // Wake waiters so one of them can retry as leader.
                    self.group.flushed_cv.notify_all();
                    return Err(DbError::Io(e));
                }
            }
        }
    }

    /// Abort: apply the transaction's inverses in memory, newest first, and
    /// log the abort record.
    ///
    /// The working lock is taken *before* the transaction leaves the
    /// `active` set: a checkpoint serializes its capture on the same lock
    /// (and refuses while the transaction is still in `active`), so it can
    /// never see the transaction as finished while its effects are still
    /// un-rolled-back in the store.
    pub fn abort(&self, txn: TxnId) -> Result<(), DbError> {
        // Take the inverses, leaving the entry in `active` so the checkpoint
        // quiescence check keeps failing until the rollback is complete.
        let undo = {
            let mut active = self.active.lock();
            std::mem::take(active.get_mut(&txn).ok_or(DbError::NoSuchTxn(txn))?)
        };
        let wrote = !undo.is_empty();
        let mut store = self.working.lock();
        let result = (|| -> Result<(), DbError> {
            store.apply(undo.into_iter().rev(), None)?;
            // Aborted ids count as finished too: the mark also seeds
            // `next_txn` after a post-checkpoint recovery, and ids must stay
            // monotone even when the highest allocated one never committed.
            let encoded = LogRecord::Abort { txn }.encode();
            self.append_locked(&mut self.wal.lock(), &encoded)?;
            self.last_finished.fetch_max(txn, Ordering::Relaxed);
            Ok(())
        })();
        // Leave `active` only now, with the working lock still held (or the
        // rollback incomplete and the error propagating — either way the
        // transaction is finished).
        self.active.lock().remove(&txn);
        if result.is_ok() && wrote {
            self.publish(&store);
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

    // -- mutations: one write routine, one publish per statement ----------

    /// The one write path: every mutation, row or catalog, goes through it.
    ///
    /// Under the working lock, `build` turns the store as it stands into the
    /// statement's log records. They are then *validated by applying them*
    /// through [`Store::apply`] *to a scratch copy* of the store — an O(1)
    /// clone that shares every tree node, so the copy costs what the write
    /// itself would — and only when the whole statement applies (table,
    /// procedure or index present or absent as the record needs, arity, key
    /// uniqueness against the table and within the statement, every row id
    /// present) are the records appended, the scratch installed as the
    /// working store, and the image published, once. A refused statement
    /// therefore writes zero log bytes and leaves the working image
    /// untouched; a logged one is in memory exactly as recovery will replay
    /// it, and its inverses join the transaction's for rollback.
    fn write(
        &self,
        txn: TxnId,
        build: impl FnOnce(&Store) -> Result<Vec<LogRecord>, StoreError>,
    ) -> Result<(), DbError> {
        self.check_active(txn)?;
        let mut store = self.working.lock();
        // Encode once, up front. The 8-byte GSN prefix rides in the same
        // frame, so the cap accounts for it; an `InsertMany` over the cap
        // is halved until each piece fits (ids stay consecutive because the
        // front half is taken first), anything else over it is refused
        // here, before a byte is logged.
        let mut pending: VecDeque<LogRecord> = build(&store)?.into();
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
        let current: &Store = &store;
        let apply = |recs: Vec<LogRecord>| -> Result<(Store, Vec<Change>), StoreError> {
            let mut scratch = current.clone();
            let mut undo = Vec::new();
            scratch.apply(recs, Some(&mut undo))?;
            Ok((scratch, undo))
        };
        let mut applied = apply(recs)?;

        let mut failure = None;
        let mut appended = 0;
        {
            let mut wal = self.wal.lock();
            for e in &encoded {
                match self.append_locked(&mut wal, e) {
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
        *store = scratch;
        self.publish(&store);
        if let Some(txn_undo) = self.active.lock().get_mut(&txn) {
            txn_undo.extend(undo);
        }
        failure.map_or(Ok(()), Err)
    }

    /// Insert a row (logged, undoable), returning its stable id.
    pub fn insert(&self, txn: TxnId, table: &str, row: Row) -> Result<RowId, DbError> {
        let mut row_id = 0;
        self.write(txn, |s| {
            row_id = s.table(table)?.next_row_id;
            Ok(vec![LogRecord::Insert {
                txn,
                table: table.to_string(),
                row_id,
                row,
            }])
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
        self.write(txn, |s| {
            let first_row_id = s.table(table)?.next_row_id;
            ids = first_row_id..first_row_id + rows.len() as RowId;
            if rows.is_empty() {
                return Ok(Vec::new());
            }
            Ok(vec![LogRecord::InsertMany {
                txn,
                table: table.to_string(),
                first_row_id,
                rows,
            }])
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
        self.write(txn, |s| {
            s.table(table)?;
            Ok(row_ids
                .iter()
                .map(|&row_id| LogRecord::Delete {
                    txn,
                    table: table.to_string(),
                    row_id,
                })
                .collect())
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
        self.write(txn, |s| {
            s.table(table)?;
            Ok(changes
                .into_iter()
                .map(|(row_id, row)| LogRecord::Update {
                    txn,
                    table: table.to_string(),
                    row_id,
                    row,
                })
                .collect())
        })
    }

    // -- catalog mutations: the same write path -------------------------

    /// Create a table (logged, undoable).
    pub fn create_table(&self, txn: TxnId, def: TableDef) -> Result<(), DbError> {
        self.write(txn, |_| Ok(vec![LogRecord::CreateTable { txn, def }]))
    }

    /// Drop a table (logged; abort restores it with its rows). Like every
    /// statement on a table whose snapshot segment does not read back, the
    /// drop of one is refused.
    pub fn drop_table(&self, txn: TxnId, name: &str) -> Result<(), DbError> {
        self.write(txn, |s| {
            s.table(name)?;
            let name = name.to_string();
            Ok(vec![LogRecord::DropTable { txn, name }])
        })
    }

    /// Register a stored procedure (logged, undoable).
    pub fn create_proc(&self, txn: TxnId, name: &str, sql: &str) -> Result<(), DbError> {
        let (name, sql) = (name.to_string(), sql.to_string());
        self.write(txn, |_| Ok(vec![LogRecord::CreateProc { txn, name, sql }]))
    }

    /// Drop a stored procedure (logged; abort restores it).
    pub fn drop_proc(&self, txn: TxnId, name: &str) -> Result<(), DbError> {
        let name = name.to_string();
        self.write(txn, |_| Ok(vec![LogRecord::DropProc { txn, name }]))
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
        let (table, name) = (table.to_string(), name.to_string());
        self.write(txn, |_| {
            Ok(vec![LogRecord::CreateIndex {
                txn,
                table,
                name,
                column,
            }])
        })
    }

    /// Drop a secondary index from `table` (logged; abort rebuilds it).
    pub fn drop_index(&self, txn: TxnId, table: &str, name: &str) -> Result<(), DbError> {
        let (table, name) = (table.to_string(), name.to_string());
        self.write(txn, |_| Ok(vec![LogRecord::DropIndex { txn, table, name }]))
    }

    /// Take a checkpoint: capture the current *committed* image, rotate the
    /// log aside, serialize the tables whose data changed since the last
    /// checkpoint, commit the new manifest, and discard the rotated log.
    ///
    /// Requires no active transactions (the engine quiesces first); a
    /// snapshot with an in-flight transaction would otherwise capture its
    /// uncommitted effects without the log records needed to decide its
    /// fate. The writer lock is held only for the **pause phase** — an
    /// O(1) clone of the store plus the log rotation — and is
    /// released before any serialization happens; concurrent writers append
    /// to the fresh log while the segments are written. Snapshot readers
    /// are unaffected throughout: they keep executing against the last
    /// published image.
    pub fn checkpoint(&self) -> Result<(), DbError> {
        let cp = self.checkpoint_state.lock();
        self.run_checkpoint(cp, self.working.lock())
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
        let Some(working) = self.working.try_lock() else {
            return Ok(false);
        };
        self.run_checkpoint(cp, working).map(|()| true)
    }

    fn run_checkpoint(
        &self,
        mut cp: MutexGuard<'_, CheckpointState>,
        working: MutexGuard<'_, Store>,
    ) -> Result<(), DbError> {
        let start = Instant::now();
        if let Some(txn) = self.active.lock().keys().next().copied() {
            return Err(DbError::TxnActive(txn));
        }
        let m = storage_metrics();
        let _t = phoenix_obs::Timer::new(&m.checkpoint_us);

        // ---- pause phase (writer lock held) --------------------------------
        // An O(1) image of the store: the catalog and every table are
        // persistent maps, and any later mutation copies-on-write away from
        // the shared nodes, so the image is frozen.
        let image = working.clone();
        // Mark + rotation inside one WAL critical section: `last_finished`
        // advances under the WAL lock (commit) or the working lock (abort —
        // and we hold it), so no transaction can finish between reading the
        // mark and rotating the log; with `active` empty, `txn ≤ mark` is
        // *exactly* "records whose effects the image materializes".
        let mark = {
            let mut wal = self.wal.lock();
            let mark = self.last_finished.load(Ordering::Relaxed);
            wal.rotate_to(&Self::wal_old_path(&self.dir))?;
            mark
        };
        self.records_since_checkpoint.store(0, Ordering::Relaxed);
        drop(working);
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
        match std::fs::remove_file(Self::wal_old_path(&self.dir)) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
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

    /// A catalog statement the store refuses, inside a transaction that then
    /// commits, logs nothing: the log holds only the commit record, and the
    /// directory reopens with the catalog it had.
    #[test]
    fn refused_catalog_statement_in_committed_txn_logs_nothing() {
        type Refused = fn(&Durable, TxnId) -> Result<(), DbError>;
        let cases: [(&str, Refused); 6] = [
            ("duplicate create_table", |db, t| db.create_table(t, def())),
            ("missing drop_table", |db, t| db.drop_table(t, "dbo.nope")),
            ("duplicate create_proc", |db, t| db.create_proc(t, "p", "x")),
            ("missing drop_proc", |db, t| db.drop_proc(t, "dbo.nope")),
            ("duplicate create_index", |db, t| {
                db.create_index(t, "dbo.t", "t_v", 0)
            }),
            ("missing drop_index", |db, t| {
                db.drop_index(t, "dbo.t", "nope")
            }),
        ];
        for (what, refused) in cases {
            let dir = temp_dir();
            {
                let db = Durable::open(&dir, Durability::Fsync).unwrap();
                let t = db.begin().unwrap();
                db.create_table(t, def()).unwrap();
                db.insert(t, "dbo.t", row(1, "a")).unwrap();
                db.create_index(t, "dbo.t", "t_v", 1).unwrap();
                db.create_proc(t, "p", "SELECT 1").unwrap();
                db.commit(t).unwrap();
                let before = db.log_records_since_checkpoint();
                let t = db.begin().unwrap();
                assert!(refused(&db, t).is_err(), "{what}");
                db.commit(t).unwrap();
                assert_eq!(
                    db.log_records_since_checkpoint(),
                    before + 1,
                    "{what}: only the commit record"
                );
                // Crash: drop without checkpoint.
            }
            let db = Durable::open(&dir, Durability::Fsync)
                .unwrap_or_else(|e| panic!("{what}: reopen failed: {e}"));
            let snap = db.snapshot();
            assert_eq!(snap.table_names(), ["dbo.t"], "{what}");
            let tbl = snap.table("dbo.t").unwrap();
            assert_eq!(tbl.len(), 1, "{what}");
            assert_eq!(tbl.rows[&1], row(1, "a"), "{what}");
            assert_eq!(tbl.def.indexes.len(), 1, "{what}");
            assert_eq!(tbl.def.indexes[0].column, 1, "{what}");
            assert_eq!(snap.proc_names(), ["p"], "{what}");
            assert_eq!(snap.proc("p"), Some("SELECT 1"), "{what}");
            drop(snap);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Concurrent committers must coalesce into fewer `sync_data` calls than
    /// commits (the group-commit property the bench measures). Every flush
    /// is held for 2 ms, far longer than an append takes: a leader that
    /// flushes with the log released finds the other committers appended
    /// behind it by the time it is done, so the bound below is a count of
    /// syncs, not a timing. A leader that flushed under the log's lock
    /// would make them wait, and sync about once per commit.
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
        let hold_every_flush = (1..=(THREADS * COMMITS) as u64)
            .fold(phoenix_chaos::Schedule::new(), |schedule, nth| {
                schedule.delay_at("wal.fsync", nth, 2)
            });
        let guard = phoenix_chaos::arm(hold_every_flush);
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|k| {
                let db = Arc::clone(&db);
                let barrier = Arc::clone(&barrier);
                let plan = guard.plan();
                std::thread::spawn(move || {
                    let _plan = phoenix_chaos::enter(Some(plan));
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
            syncs * 2 <= commits,
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

    /// A transaction over two tables commits with one `Commit` record and
    /// one flush, and recovers whole; an uncommitted one over the same two
    /// tables vanishes from both.
    #[test]
    fn two_table_txn_commits_with_one_record_and_one_flush() {
        let dir = temp_dir();
        {
            let db = Durable::open(&dir, Durability::Fsync).unwrap();
            let t = db.begin().unwrap();
            db.create_table(t, named_def("acct")).unwrap();
            db.create_table(t, named_def("dbo.acct")).unwrap();
            db.commit(t).unwrap();
            let (records, syncs) = (db.log_records_since_checkpoint(), db.wal_sync_count());
            let t = db.begin().unwrap();
            db.insert(t, "acct", row(1, "debit")).unwrap();
            db.insert(t, "dbo.acct", row(1, "credit")).unwrap();
            db.commit(t).unwrap();
            assert_eq!(
                db.log_records_since_checkpoint(),
                records + 3,
                "two inserts, one commit"
            );
            assert_eq!(db.wal_sync_count(), syncs + 1, "one flush");
            let t = db.begin().unwrap();
            db.insert(t, "acct", row(2, "ghost")).unwrap();
            db.insert(t, "dbo.acct", row(2, "ghost")).unwrap();
            // Crash without commit.
        }
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let snap = db.snapshot();
        assert_eq!(snap.table("acct").unwrap().rows[&1], row(1, "debit"));
        assert_eq!(snap.table("dbo.acct").unwrap().rows[&1], row(1, "credit"));
        assert_eq!(snap.table("acct").unwrap().len(), 1);
        assert_eq!(snap.table("dbo.acct").unwrap().len(), 1);
        drop(snap);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Aborting a transaction that wrote two tables and a procedure
    /// restores both tables and the catalog, in memory and after a reopen.
    #[test]
    fn aborted_two_table_txn_restores_both() {
        let dir = temp_dir();
        {
            let db = Durable::open(&dir, Durability::Fsync).unwrap();
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
        }
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let snap = db.snapshot();
        assert_eq!(snap.table("acct").unwrap().rows[&1], row(1, "a"));
        assert!(snap.table("dbo.acct").unwrap().is_empty());
        assert!(!snap.has_proc("p"));
        drop(snap);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Publishing is O(1) and a statement path-copies the catalog: after a
    /// single-row insert into one of 400 tables, the published catalog
    /// shares all but at most height + 1 of its nodes with the image
    /// published before it.
    #[test]
    fn publish_shares_the_catalog() {
        let dir = temp_dir();
        let db = Durable::open(&dir, Durability::Buffered).unwrap();
        let t = db.begin().unwrap();
        for i in 0..400 {
            db.create_table(t, named_def(&format!("dbo.t{i:03}")))
                .unwrap();
        }
        db.commit(t).unwrap();
        let before = db.snapshot();
        let t = db.begin().unwrap();
        db.insert(t, "dbo.t123", row(1, "x")).unwrap();
        db.commit(t).unwrap();
        let after = db.snapshot();
        let (nodes, shared, height) = after.catalog_sharing(&before);
        assert!(height >= 2, "400 entries fill more than one node");
        assert!(
            nodes - shared <= height + 1,
            "{nodes} catalog nodes, {shared} shared, height {height}"
        );
        assert_eq!(after.table("dbo.t123").unwrap().len(), 1);
        assert!(before.table("dbo.t123").unwrap().is_empty());
        drop((before, after));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A directory holding a partitioned server's second log stream is
    /// refused with an error naming the file, instead of opening without
    /// the transactions in it.
    #[test]
    fn directory_of_a_partitioned_server_is_refused() {
        let dir = temp_dir();
        {
            let db = Durable::open(&dir, Durability::Fsync).unwrap();
            let t = db.begin().unwrap();
            db.create_table(t, named_def("dbo.acct")).unwrap();
            db.commit(t).unwrap();
        }
        // What a partitioned server left in its partition-1 stream: a
        // committed insert.
        let stream = dir.join("phoenix.wal.p1");
        {
            let mut wal = Wal::open(&stream).unwrap();
            let insert = LogRecord::Insert {
                txn: 9,
                table: "dbo.acct".into(),
                row_id: 1,
                row: row(1, "committed"),
            };
            wal.append(&frame_payload(10, &insert.encode())).unwrap();
            wal.append(&frame_payload(11, &LogRecord::Commit { txn: 9 }.encode()))
                .unwrap();
            wal.flusher().sync().unwrap();
        }
        let err = Durable::open(&dir, Durability::Fsync)
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("phoenix.wal.p1"), "{err}");
        assert!(matches!(err, DbError::PartitionedLog(p) if p == stream));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A primary a promoted standby deposed (in a build that still
    /// replicated) carries `phoenix.fenced`: it stays refused, every time it
    /// is opened, and the refusal writes nothing to its log.
    #[test]
    fn directory_of_a_fenced_primary_is_refused() {
        let dir = temp_dir();
        {
            let db = Durable::open(&dir, Durability::Fsync).unwrap();
            let t = db.begin().unwrap();
            db.create_table(t, named_def("dbo.acct")).unwrap();
            db.commit(t).unwrap();
        }
        let marker = dir.join(crate::applier::FENCE_FILE);
        std::fs::write(&marker, b"fenced by epoch 2\n").unwrap();
        let log = std::fs::read(Durable::wal_path(&dir)).unwrap();
        for _ in 0..2 {
            let err = Durable::open(&dir, Durability::Fsync)
                .map(|_| ())
                .unwrap_err();
            assert!(err.to_string().contains("phoenix.fenced"), "{err}");
            assert!(
                matches!(err, DbError::Fenced(ref p) if *p == marker),
                "{err}"
            );
        }
        assert_eq!(std::fs::read(Durable::wal_path(&dir)).unwrap(), log);
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
