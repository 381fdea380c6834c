//! [`Durable`]: the transactional binding of a [`Store`] to a write-ahead log.
//!
//! A transaction is a [`Txn`]: the published store it began from (an O(1)
//! clone: the catalog and every table are persistent maps), its own copy of
//! that store, and the log records of its writes. Every write is applied
//! through `Store::apply` to the copy, and every read inside the transaction
//! reads the copy. Nothing is logged or published before commit, so the log
//! holds only committed transactions: recovery is REDO only, and a rollback
//! is dropping the `Txn`. A *volatile* transaction ([`Txn::volatile`]) writes
//! the same way but keeps no records and cannot commit: it is how a
//! session's temporary tables change.
//!
//! [`Durable::open`] is crash recovery, and all of it is
//! [`crate::applier::recover`]: load the latest snapshot's manifest (each
//! table stays in its segment file until something touches it), read the
//! log in GSN order, and redo the records
//! of committed transactions with `txn >` the snapshot's *high-water mark* —
//! records at or below the mark belong to transactions whose effects the
//! snapshot already materializes, and replaying them would apply mutations
//! twice. The records of a snapshot table no catalog record names are not
//! redone at open: they wait, encoded, as that table's log tail, decoded and
//! redone when a statement first touches the table or a checkpoint has to
//! write it. A process crash at *any* point — including mid-append, which
//! leaves a torn tail the WAL reader discards, and mid-checkpoint, which
//! leaves a rotated `phoenix.wal.old` the next open replays first —
//! recovers to a state containing exactly the committed transactions.
//!
//! # Commit
//!
//! [`Durable::commit_txn`] runs once under the `committed` lock, which
//! holds the store every appended commit built, in log order. If that store
//! is still the one the transaction began from (one pointer compare), the
//! transaction's copy becomes it; otherwise its records are re-applied to
//! it (see `rebase`), or the commit is refused with [`DbError::Conflict`]:
//! the first committer wins.
//!
//! The transaction id is allocated then, under the WAL lock, so log order,
//! id order and commit order agree, and the records and the `Commit` record
//! go to the log in **one** `write(2)`. A checkpoint captures the committed
//! store and reads the last id under the same two locks, so `txn ≤ mark`
//! means exactly "in the image": no transaction can commit between the
//! capture and the log rotation, and none that commits later can carry a
//! smaller id. Checkpoints need no quiescence and run whenever they are
//! due.
//!
//! # Concurrency
//!
//! All methods take `&self`; the layer is safe to share between sessions.
//!
//! * Readers, and transactions as they begin, take the *published* store
//!   with an O(1) `Arc` clone and read with **no lock held**.
//! * A commit is published only once the group flush covers it (at once
//!   under `Buffered`, which forces nothing), so no reader sees a commit the
//!   log could still lose, and never over a later commit's store, which
//!   includes it.
//! * Commits coalesce through a *group commit*: each committer appends and
//!   takes a sequence number, then one committer (the leader) issues a
//!   single `sync_data` covering every commit appended so far while the rest
//!   wait on a condition variable. N threads committing together therefore
//!   cost far fewer than N syncs.
//!
//! # One log
//!
//! There is one committed store, one WAL stream (`phoenix.wal`, plus the
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
//! Lock order (outer to inner): `checkpoint_state` → `committed` → `log` →
//! `group.state`. `published` is never held with another lock.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex, RwLock};

use crate::applier::{self, frame_payload, Recovered};
use crate::codec::DecodeError;
use crate::metrics::StorageMetrics;
use crate::record::LogRecord;
use crate::snapshot::{self, SegmentBase};
use crate::store::{normalize_name, Store, StoreError};
use crate::types::{Row, RowId, TableDef, TxnId, Value};
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
    /// The commit lost to one that committed after the transaction began
    /// and wrote what it wrote: first committer wins. Nothing was logged;
    /// running the transaction again, on the store as it now stands, may
    /// succeed.
    Conflict(String),
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
            DbError::Conflict(what) => write!(
                f,
                "write conflict: {what} since the transaction began; run it again"
            ),
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
    /// Records applied at open (committed, past the snapshot mark, and in no
    /// table's log tail), `Commit`s included.
    pub records_applied: u64,
    /// Records skipped: uncommitted, or `txn ≤` the snapshot mark.
    /// `wal_frames − records_applied − records_deferred`.
    pub records_skipped: u64,
    /// Committed records past the mark left in a log tail: row records on a
    /// snapshot table no catalog record in the log names, redone when a
    /// statement first touches the table or a checkpoint writes it.
    pub records_deferred: u64,
    /// Tables with a log tail.
    pub tables_behind: usize,
    /// Encoded bytes the log tails hold.
    pub tail_bytes: u64,
    /// Wall time of reading the log, decoding and applying it, in
    /// microseconds: `wal_read_us + apply_us`.
    pub replay_us: u64,
    /// Reading the manifest and finding every segment it names.
    pub manifest_us: u64,
    /// Tables in the snapshot.
    pub segments_total: usize,
    /// Of those, the ones read before the handle opened, because a catalog
    /// record in the log names them. The rest load, and redo their log
    /// tails, when a statement first touches them or a checkpoint writes
    /// them; nothing loads them in the background.
    pub segments_loaded_at_open: usize,
    /// Reading, checksumming and decoding those segments and building their
    /// indexes. Not part of `replay_us`.
    pub segment_load_us: u64,
    /// Reading the logs off disk, checking every frame and routing each
    /// record.
    pub wal_read_us: u64,
    /// Dropping the losers, then decoding and applying what the open
    /// applies.
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
             records_applied={} records_skipped={} tables_behind={} records_deferred={} \
             tail_bytes={}",
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
            self.tables_behind,
            self.records_deferred,
            self.tail_bytes,
        )
    }
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

/// The log and what is allocated under its lock.
struct Log {
    wal: Wal,
    /// Global sequence number for the next WAL frame.
    next_gsn: u64,
    /// The id of the last transaction appended: the checkpoint's mark.
    /// Recovery seeds it with the largest id in the snapshot or the log.
    last_txn: TxnId,
}

/// A durable, transactional store, shareable across threads (`&self` API).
pub struct Durable {
    /// The store every appended commit built, in log order: what a commit
    /// checks its transaction against and a checkpoint writes.
    committed: Mutex<Arc<Store>>,
    /// What readers, and transactions as they begin, see: the committed
    /// store as of the last commit the log has flushed, with that commit's
    /// group sequence number. The lock is held only for the pointer swap /
    /// `Arc` clone, never across query execution.
    published: RwLock<(u64, Arc<Store>)>,
    log: Mutex<Log>,
    group: GroupCommit,
    dir: PathBuf,
    durability: Durability,
    /// Records appended since the last checkpoint (drives auto-checkpoint
    /// policy in the engine; the layer itself never checkpoints
    /// implicitly).
    records_since_checkpoint: AtomicU64,
    /// Checkpoint serialization + the previous checkpoint's segment images.
    checkpoint_state: Mutex<CheckpointState>,
    /// What recovery did when this handle was opened.
    recovery: RecoveryReport,
    /// The transactions [`Durable::begin`] handed out by number.
    numbered: Mutex<HashMap<u64, Txn>>,
    next_number: AtomicU64,
    /// The metrics of the instance the store was opened in.
    metrics: StorageMetrics,
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
    /// plus every committed log record newer than its mark, applied or left
    /// in a table's log tail (see [`crate::applier`]). A directory a
    /// partitioned server wrote is refused with [`DbError::PartitionedLog`],
    /// and one a promoted standby fenced with [`DbError::Fenced`].
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
            deferred,
            behind,
            tail_bytes,
            stages,
            gen,
            base,
            live_valid,
        } = applier::recover(dir)?;
        let us = |d: Duration| d.as_micros() as u64;
        let report = RecoveryReport {
            wal_frames: frames as usize,
            records_applied: applied,
            records_skipped: frames - applied - deferred,
            records_deferred: deferred,
            tables_behind: behind,
            tail_bytes,
            replay_us: us(stages.wal_read) + us(stages.apply),
            manifest_us: us(stages.manifest),
            segments_total: stages.segments_total,
            segments_loaded_at_open: stages.segments_loaded,
            segment_load_us: us(stages.segment_load),
            wal_read_us: us(stages.wal_read),
            apply_us: us(stages.apply),
            open_us: us(start.elapsed()),
        };
        let metrics = StorageMetrics::new(&phoenix_obs::current());
        metrics.recovery_replay_us.record(report.replay_us);

        let store = Arc::new(store);
        Ok(Durable {
            published: RwLock::new((0, Arc::clone(&store))),
            committed: Mutex::new(store),
            log: Mutex::new(Log {
                // The applier has just scanned the log: resume it at the
                // valid prefix it found instead of scanning again.
                wal: Wal::open_at(Self::wal_path(dir), live_valid)?,
                next_gsn: max_gsn + 1,
                last_txn,
            }),
            group: GroupCommit {
                state: Mutex::new(GroupState {
                    appended: 0,
                    flushed: 0,
                    leader: false,
                    syncs: 0,
                }),
                flushed_cv: Condvar::new(),
            },
            dir: dir.to_path_buf(),
            durability,
            records_since_checkpoint: AtomicU64::new(frames),
            checkpoint_state: Mutex::new(CheckpointState {
                gen,
                base,
                stats: CheckpointStats::default(),
            }),
            recovery: report,
            numbered: Mutex::new(HashMap::new()),
            next_number: AtomicU64::new(1),
            metrics,
        })
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
        Arc::clone(&self.published.read().1)
    }

    /// Publish the store of the commit with group sequence `seq`, unless a
    /// later commit's store, which includes it, is out already.
    fn publish(&self, seq: u64, store: Arc<Store>) {
        match phoenix_chaos::fault("store.publish") {
            phoenix_chaos::FaultAction::Continue => {}
            phoenix_chaos::FaultAction::Delay(d) => std::thread::sleep(d),
            // Process death between commit and publish: readers keep the
            // previous snapshot, exactly as a crashed server would leave it.
            _ => return,
        }
        let mut published = self.published.write();
        if seq > published.0 {
            *published = (seq, store);
            self.metrics.snapshot_publishes.inc();
        }
    }

    /// Number of log records appended since the last checkpoint.
    pub fn log_records_since_checkpoint(&self) -> u64 {
        self.records_since_checkpoint.load(Ordering::Relaxed)
    }

    /// Number of `sync_data` calls issued on the log (group-commit probe).
    pub fn wal_sync_count(&self) -> u64 {
        self.group.state.lock().syncs
    }

    /// Begin a transaction on the published store. Nothing is logged or
    /// locked: the transaction exists only in the returned value until
    /// [`Durable::commit_txn`], and dropping it is the rollback.
    pub fn begin_txn(&self) -> Txn {
        let base = self.snapshot();
        Txn {
            store: Store::clone(&base),
            base: Some(base),
            records: Vec::new(),
        }
    }

    /// Commit: check the transaction against the committed store (see the
    /// module docs), append its records and a `Commit` record in one write,
    /// force the log (under `Fsync`), and publish. A transaction that wrote
    /// nothing logs nothing. A volatile transaction is refused with an
    /// `InvalidInput` error.
    ///
    /// Concurrent committers coalesce: each appends and takes a group
    /// sequence number; one of them (the leader) syncs the file once for
    /// every commit appended so far, the rest wait until the flushed
    /// watermark covers their own sequence number.
    pub fn commit_txn(&self, txn: Txn) -> Result<(), DbError> {
        let Txn {
            base,
            store,
            records,
        } = txn;
        let Some(base) = base else {
            let volatile = "a volatile transaction logs nothing and cannot commit";
            return Err(io::Error::new(io::ErrorKind::InvalidInput, volatile).into());
        };
        if records.is_empty() {
            return Ok(());
        }
        let (seq, store) = {
            let mut committed = self.committed.lock();
            let (store, records) = if Arc::ptr_eq(&committed, &base) {
                (store, records)
            } else {
                self.metrics.commit_rebases.inc();
                rebase(&base, &committed, records).inspect_err(|_| {
                    self.metrics.commit_conflicts.inc();
                })?
            };
            let seq = {
                let mut log = self.log.lock();
                let txn = log.last_txn + 1;
                let commit = LogRecord::Commit { txn }.encode();
                let frames = records.len() as u64 + 1;
                let payloads = (log.next_gsn..)
                    .zip(records.iter().chain([&commit]))
                    .map(|(gsn, rec)| stamped(gsn, txn, rec));
                {
                    let _t = phoenix_obs::Timer::new(&self.metrics.wal_append_us);
                    log.wal.append_all(payloads)?;
                }
                self.metrics.wal_appends.inc();
                log.next_gsn += frames;
                log.last_txn = txn;
                self.records_since_checkpoint
                    .fetch_add(frames, Ordering::Relaxed);
                let mut st = self.group.state.lock();
                st.appended += 1;
                st.appended
            };
            let store = Arc::new(store);
            *committed = Arc::clone(&store);
            (seq, store)
        };
        if self.durability == Durability::Fsync {
            self.group_sync(seq)?;
        }
        self.metrics
            .cow_entries_copied
            .add(crate::pmap::take_copied());
        self.publish(seq, store);
        Ok(())
    }

    /// Wait until the commit with group sequence `seq` is durable,
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
                let log = self.log.lock();
                (self.group.state.lock().appended, log.wal.flusher())
            };
            let flush = {
                let _t = phoenix_obs::Timer::new(&self.metrics.wal_fsync_us);
                flusher.sync().map(|()| upto)
            };
            st = self.group.state.lock();
            st.leader = false;
            match flush {
                Ok(upto) => {
                    st.syncs += 1;
                    let m = &self.metrics;
                    m.wal_fsyncs.inc();
                    if upto > st.flushed {
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

    /// Take a checkpoint: capture the committed store, rotate the log
    /// aside, serialize the tables whose data changed since the last
    /// checkpoint, commit the new manifest, and discard the rotated log.
    ///
    /// Open transactions do not matter: none of them has logged anything.
    /// Commits wait only for the **pause phase** — an `Arc` clone of the
    /// committed store plus the log rotation — and concurrent writers append
    /// to the fresh log while the segments are written. Snapshot readers
    /// are unaffected throughout: they keep executing against the last
    /// published image.
    pub fn checkpoint(&self) -> Result<(), DbError> {
        let mut cp = self.checkpoint_state.lock();
        let start = Instant::now();
        let m = &self.metrics;
        let _t = phoenix_obs::Timer::new(&m.checkpoint_us);

        // ---- pause phase (commits wait) ------------------------------------
        // The image and the mark under both locks a commit holds while it
        // appends and installs, with the rotation in the same critical
        // section: `txn ≤ mark` is exactly "in the image".
        let (image, mark) = {
            let committed = self.committed.lock();
            let mut log = self.log.lock();
            log.wal.rotate_to(&Self::wal_old_path(&self.dir))?;
            (Arc::clone(&committed), log.last_txn)
        };
        self.records_since_checkpoint.store(0, Ordering::Relaxed);
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

/// Transactions by number, for callers that hold a transaction as a plain
/// id between calls: `begin` parks a [`Txn`] under a fresh number, `insert`
/// and `create_table` write through it, and `commit` commits it. A number
/// not parked is an `InvalidInput` error.
impl Durable {
    /// [`Durable::begin_txn`], parked under the returned number.
    pub fn begin(&self) -> Result<u64, DbError> {
        let number = self.next_number.fetch_add(1, Ordering::Relaxed);
        self.numbered.lock().insert(number, self.begin_txn());
        Ok(number)
    }

    /// [`Txn::insert`] in the numbered transaction.
    pub fn insert(&self, number: u64, table: &str, row: Row) -> Result<RowId, DbError> {
        let mut txn = self.take_numbered(number)?;
        let row_id = txn.insert(table, row);
        self.numbered.lock().insert(number, txn);
        row_id
    }

    /// [`Txn::create_table`] in the numbered transaction.
    pub fn create_table(&self, number: u64, def: TableDef) -> Result<(), DbError> {
        let mut txn = self.take_numbered(number)?;
        let created = txn.create_table(def);
        self.numbered.lock().insert(number, txn);
        created
    }

    /// [`Durable::commit_txn`] of the numbered transaction.
    pub fn commit(&self, number: u64) -> Result<(), DbError> {
        self.commit_txn(self.take_numbered(number)?)
    }

    fn take_numbered(&self, number: u64) -> Result<Txn, DbError> {
        let missing = || io::Error::new(io::ErrorKind::InvalidInput, "no such transaction");
        self.numbered
            .lock()
            .remove(&number)
            .ok_or_else(|| missing().into())
    }
}

/// A record's frame payload with its transaction id filled in: every
/// record encodes its tag in byte 0 and its transaction in bytes 1..9.
fn stamped(gsn: u64, txn: TxnId, record: &[u8]) -> Vec<u8> {
    let mut payload = frame_payload(gsn, record);
    payload[9..17].copy_from_slice(&txn.to_le_bytes());
    payload
}

/// A row's image in `store`, if the table and the row are there.
fn row_image<'s>(store: &'s Store, table: &str, row_id: RowId) -> Option<&'s [Value]> {
    store.table(table).ok()?.rows.get(&row_id).map(|row| &**row)
}

/// Re-apply a transaction's `records` to `committed`, which other commits
/// have moved on from `base`, the store the transaction began from. Rows it
/// inserted take fresh ids, and its later writes to them follow. It
/// conflicts where it updates or deletes a row another commit changed,
/// drops a table another commit wrote, or writes what no longer applies.
/// Returns the new committed store and the records as they now read.
fn rebase(
    base: &Store,
    committed: &Store,
    records: Vec<Bytes>,
) -> Result<(Store, Vec<Bytes>), DbError> {
    let conflict = |what: String| DbError::Conflict(what);
    let mut store = committed.clone();
    // (table, id in the transaction's copy) → id in `store`.
    let mut moved: HashMap<(String, RowId), RowId> = HashMap::new();
    let mut out = Vec::with_capacity(records.len());
    for bytes in records {
        let mut rec = LogRecord::decode(&bytes)?;
        let mut renumbered = false;
        match &mut rec {
            LogRecord::Insert { table, row_id, .. } => {
                let fresh = store.table(table)?.next_row_id;
                moved.insert((normalize_name(table), *row_id), fresh);
                (*row_id, renumbered) = (fresh, true);
            }
            LogRecord::InsertMany {
                table,
                first_row_id,
                rows,
                ..
            } => {
                let fresh = store.table(table)?.next_row_id;
                for k in 0..rows.len() as RowId {
                    moved.insert((normalize_name(table), *first_row_id + k), fresh + k);
                }
                (*first_row_id, renumbered) = (fresh, true);
            }
            LogRecord::Update { table, row_id, .. } | LogRecord::Delete { table, row_id, .. } => {
                match moved.get(&(normalize_name(table), *row_id)) {
                    Some(&fresh) => (*row_id, renumbered) = (fresh, true),
                    None if row_image(base, table, *row_id)
                        != row_image(committed, table, *row_id) =>
                    {
                        return Err(conflict(format!("row {row_id} of '{table}' changed")));
                    }
                    None => {}
                }
            }
            LogRecord::DropTable { name, .. } => {
                let unchanged = match (base.slot(name), committed.slot(name)) {
                    (Ok(was), Ok(is)) => was.same(is),
                    (was, is) => was.is_err() && is.is_err(),
                };
                if !unchanged {
                    return Err(conflict(format!("table '{name}' was written")));
                }
                let key = normalize_name(name);
                moved.retain(|(table, _), _| *table != key);
            }
            _ => {}
        }
        out.push(if renumbered { rec.encode() } else { bytes });
        store.apply([rec]).map_err(|e| match e {
            StoreError::Segment { .. } => DbError::Store(e),
            e => conflict(e.to_string()),
        })?;
    }
    Ok((store, out))
}

/// A transaction: the published store it began from, its own copy of that
/// store with its writes applied, and the records of those writes. It logs
/// nothing until [`Durable::commit_txn`]; dropping it rolls it back.
pub struct Txn {
    /// The store it began from: commit compares it with the committed
    /// store, and a conflict check reads the rows it had. `None` for a
    /// volatile transaction.
    base: Option<Arc<Store>>,
    /// `base` plus this transaction's writes: what its statements read.
    store: Store,
    /// Its records, encoded with transaction id 0; commit stamps the id.
    records: Vec<Bytes>,
}

impl Txn {
    /// A transaction over an empty store that logs nothing: each write is
    /// checked and installed exactly as in a logged one, but no record is
    /// encoded or kept (so the WAL frame cap does not bind it), and
    /// [`Durable::commit_txn`] refuses it.
    pub fn volatile() -> Txn {
        Txn {
            base: None,
            store: Store::new(),
            records: Vec::new(),
        }
    }

    /// The store as this transaction sees it: the image it began from plus
    /// its own writes.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The one write path: every mutation, row or catalog, of a logged or a
    /// volatile transaction, goes through it.
    ///
    /// `build` turns the transaction's store into the statement's log
    /// records. They are then *validated by applying them* through
    /// [`Store::apply`] *to a scratch copy* of the store — an O(1) clone
    /// that shares every tree node, so the copy costs what the write itself
    /// would — and only when the whole statement applies (table, procedure
    /// or index present or absent as the record needs, arity, key uniqueness
    /// against the table and within the statement, every row id present)
    /// does the scratch become the transaction's store and the records (of
    /// a logged transaction) join the ones it logs at commit. A refused
    /// statement leaves the transaction as it was.
    fn write(
        &mut self,
        build: impl FnOnce(&Store) -> Result<Vec<LogRecord>, StoreError>,
    ) -> Result<(), DbError> {
        // Encode once, up front (a volatile transaction encodes nothing).
        // The 8-byte GSN prefix rides in the same frame, so the cap
        // accounts for it; an `InsertMany` over the cap is halved until
        // each piece fits (ids stay consecutive because the front half is
        // taken first), anything else over it is refused here.
        let mut pending: VecDeque<LogRecord> = build(&self.store)?.into();
        let (mut recs, mut encoded) = (Vec::new(), Vec::new());
        while let Some(rec) = pending.pop_front() {
            if self.base.is_none() {
                recs.push(rec);
                continue;
            }
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
                        first_row_id: first_row_id.saturating_add(rows.len() as RowId),
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
        let mut scratch = self.store.clone();
        scratch.apply(recs)?;
        self.store = scratch;
        self.records.extend(encoded);
        Ok(())
    }

    /// Insert a row, returning its id in this transaction's store (a commit
    /// that re-applies the transaction may give it another).
    pub fn insert(&mut self, table: &str, row: Row) -> Result<RowId, DbError> {
        let mut row_id = 0;
        self.write(|s| {
            row_id = s.table(table)?.next_row_id;
            Ok(vec![LogRecord::Insert {
                txn: 0,
                table: table.to_string(),
                row_id,
                row,
            }])
        })?;
        Ok(row_id)
    }

    /// Insert a batch of rows with consecutive ids in **one** record — the
    /// `INSERT … SELECT` materialization hot path. A batch whose encoding
    /// would exceed the WAL frame cap is split into the minimum number of
    /// conforming chunk records; a single row too big for a frame is
    /// refused with an `InvalidInput` error.
    pub fn insert_many(&mut self, table: &str, rows: Vec<Row>) -> Result<Vec<RowId>, DbError> {
        let mut ids = 0..0;
        self.write(|s| {
            let first_row_id = s.table(table)?.next_row_id;
            ids = first_row_id..first_row_id.saturating_add(rows.len() as RowId);
            if rows.is_empty() {
                return Ok(Vec::new());
            }
            Ok(vec![LogRecord::InsertMany {
                txn: 0,
                table: table.to_string(),
                first_row_id,
                rows,
            }])
        })?;
        Ok(ids.collect())
    }

    /// Delete a row by id.
    pub fn delete(&mut self, table: &str, row_id: RowId) -> Result<(), DbError> {
        self.delete_many(table, &[row_id])
    }

    /// Delete a statement's rows by id: one `Delete` record per row.
    pub fn delete_many(&mut self, table: &str, row_ids: &[RowId]) -> Result<(), DbError> {
        self.write(|s| {
            s.table(table)?;
            Ok(row_ids
                .iter()
                .map(|&row_id| LogRecord::Delete {
                    txn: 0,
                    table: table.to_string(),
                    row_id,
                })
                .collect())
        })
    }

    /// Replace a row in place.
    pub fn update(&mut self, table: &str, row_id: RowId, row: Row) -> Result<(), DbError> {
        self.update_many(table, vec![(row_id, row)])
    }

    /// Replace a statement's rows in place: one `Update` record per row,
    /// applied in order.
    pub fn update_many(&mut self, table: &str, changes: Vec<(RowId, Row)>) -> Result<(), DbError> {
        self.write(|s| {
            s.table(table)?;
            Ok(changes
                .into_iter()
                .map(|(row_id, row)| LogRecord::Update {
                    txn: 0,
                    table: table.to_string(),
                    row_id,
                    row,
                })
                .collect())
        })
    }

    /// Create a table.
    pub fn create_table(&mut self, def: TableDef) -> Result<(), DbError> {
        self.write(|_| Ok(vec![LogRecord::CreateTable { txn: 0, def }]))
    }

    /// Drop a table. Like every statement on a table whose snapshot segment
    /// does not read back, the drop of one is refused.
    pub fn drop_table(&mut self, name: &str) -> Result<(), DbError> {
        self.write(|s| {
            s.table(name)?;
            let name = name.to_string();
            Ok(vec![LogRecord::DropTable { txn: 0, name }])
        })
    }

    /// Register a stored procedure.
    pub fn create_proc(&mut self, name: &str, sql: &str) -> Result<(), DbError> {
        let (name, sql) = (name.to_string(), sql.to_string());
        self.write(|_| Ok(vec![LogRecord::CreateProc { txn: 0, name, sql }]))
    }

    /// Drop a stored procedure.
    pub fn drop_proc(&mut self, name: &str) -> Result<(), DbError> {
        let name = name.to_string();
        self.write(|_| Ok(vec![LogRecord::DropProc { txn: 0, name }]))
    }

    /// Create a secondary index on `table`, backfilled from the table's
    /// current rows; no index pages are logged.
    pub fn create_index(&mut self, table: &str, name: &str, column: usize) -> Result<(), DbError> {
        let (table, name) = (table.to_string(), name.to_string());
        self.write(|_| {
            Ok(vec![LogRecord::CreateIndex {
                txn: 0,
                table,
                name,
                column,
            }])
        })
    }

    /// Drop a secondary index from `table`.
    pub fn drop_index(&mut self, table: &str, name: &str) -> Result<(), DbError> {
        let (table, name) = (table.to_string(), name.to_string());
        self.write(|_| {
            Ok(vec![LogRecord::DropIndex {
                txn: 0,
                table,
                name,
            }])
        })
    }
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
            let mut t = db.begin_txn();
            t.create_table(def()).unwrap();
            t.insert("dbo.t", row(1, "a")).unwrap();
            t.insert("dbo.t", row(2, "b")).unwrap();
            db.commit_txn(t).unwrap();
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
            let mut t = db.begin_txn();
            t.create_table(def()).unwrap();
            db.commit_txn(t).unwrap();
            let mut t2 = db.begin_txn();
            t2.insert("dbo.t", row(1, "ghost")).unwrap();
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
        let mut t = db.begin_txn();
        t.create_table(def()).unwrap();
        t.insert("dbo.t", row(1, "a")).unwrap();
        db.commit_txn(t).unwrap();

        let mut t2 = db.begin_txn();
        let rid = t2.insert("dbo.t", row(2, "b")).unwrap();
        t2.update("dbo.t", 1, row(1, "changed")).unwrap();
        t2.delete("dbo.t", 1).unwrap();
        t2.create_proc("p", "SELECT 1").unwrap();
        // The transaction reads its own writes; nobody else does.
        assert_eq!(t2.store().table("dbo.t").unwrap().len(), 1);
        assert!(t2.store().has_proc("p"));
        assert!(!db.snapshot().has_proc("p"));
        drop(t2);

        let store = db.snapshot();
        let tbl = store.table("dbo.t").unwrap();
        assert_eq!(tbl.len(), 1);
        assert_eq!(*tbl.rows[&1], row(1, "a"));
        assert!(!tbl.rows.contains_key(&rid));
        assert!(store.proc("p").is_none());
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn abort_restores_dropped_table() {
        let dir = temp_dir();
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let mut t = db.begin_txn();
        t.create_table(def()).unwrap();
        t.insert("dbo.t", row(1, "keep")).unwrap();
        db.commit_txn(t).unwrap();

        let mut t2 = db.begin_txn();
        t2.drop_table("dbo.t").unwrap();
        assert!(!t2.store().has_table("dbo.t"));
        assert!(
            db.snapshot().has_table("dbo.t"),
            "the drop is not published"
        );
        drop(t2);
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
            let mut t = db.begin_txn();
            t.create_table(def()).unwrap();
            t.insert("dbo.t", row(1, "a")).unwrap();
            db.commit_txn(t).unwrap();
            let mut t2 = db.begin_txn();
            t2.create_index("dbo.t", "t_name", 1).unwrap();
            t2.insert("dbo.t", row(2, "b")).unwrap();
            db.commit_txn(t2).unwrap();
            // Crash (drop without checkpoint): replay rebuilds the index.
        }
        {
            let db = Durable::open(&dir, Durability::Fsync).unwrap();
            let snap = db.snapshot();
            let tbl = snap.table("dbo.t").unwrap();
            assert_eq!(tbl.def.indexes.len(), 1);
            assert_eq!(tbl.sec[0].len(), 2);
            snap.verify_indexes().unwrap();
            drop(snap);
            // Checkpoint, then more DML, then crash again: the index def now
            // rides the snapshot segment and replayed DML maintains it.
            db.checkpoint().unwrap();
            let mut t3 = db.begin_txn();
            t3.insert("dbo.t", row(3, "c")).unwrap();
            db.commit_txn(t3).unwrap();
        }
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let snap = db.snapshot();
        let tbl = snap.table("dbo.t").unwrap();
        assert_eq!(tbl.sec[0].len(), 3);
        snap.verify_indexes().unwrap();
        drop(snap);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn abort_rolls_back_index_ddl() {
        let dir = temp_dir();
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let mut t = db.begin_txn();
        t.create_table(def()).unwrap();
        t.insert("dbo.t", row(1, "a")).unwrap();
        t.create_index("dbo.t", "t_keep", 1).unwrap();
        db.commit_txn(t).unwrap();

        let mut t2 = db.begin_txn();
        t2.create_index("dbo.t", "t_scratch", 0).unwrap();
        t2.drop_index("dbo.t", "t_keep").unwrap();
        drop(t2);

        let snap = db.snapshot();
        let tbl = snap.table("dbo.t").unwrap();
        assert_eq!(tbl.def.indexes.len(), 1, "scratch gone, keep restored");
        assert!(tbl.def.index_pos("t_keep").is_some());
        assert_eq!(tbl.sec[0].len(), 1, "restored index is backfilled");
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
        let mut t = db.begin_txn();
        t.create_table(def()).unwrap();
        t.insert("dbo.t", row(1, "a")).unwrap();
        db.commit_txn(t).unwrap();

        let before = db.snapshot();
        let mut t2 = db.begin_txn();
        t2.update("dbo.t", 1, row(1, "mutated")).unwrap();
        t2.insert_many("dbo.t", vec![row(2, "b"), row(3, "c")])
            .unwrap();
        t2.delete("dbo.t", 1).unwrap();
        db.commit_txn(t2).unwrap();

        // The old snapshot still shows exactly the pre-mutation image …
        let tbl = before.table("dbo.t").unwrap();
        assert_eq!(tbl.len(), 1);
        assert_eq!(*tbl.rows[&1], row(1, "a"));
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
            let mut t = db.begin_txn();
            t.create_table(def()).unwrap();
            db.commit_txn(t).unwrap();
            let before = db.log_records_since_checkpoint();
            let mut t = db.begin_txn();
            ids = t
                .insert_many("dbo.t", (0..50).map(|i| row(i, "v")).collect())
                .unwrap();
            db.commit_txn(t).unwrap();
            assert_eq!(
                db.log_records_since_checkpoint(),
                before + 2,
                "one batch record and the commit"
            );
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
            let mut t = db.begin_txn();
            t.create_table(def()).unwrap();
            // 5 rows × ~20 MiB ≈ 100 MiB encoded — over the 64 MiB cap,
            // but each half fits.
            let big = "y".repeat(20 * 1024 * 1024);
            let before = db.log_records_since_checkpoint();
            ids = t
                .insert_many("dbo.t", (0..5).map(|i| row(i, &big)).collect())
                .unwrap();
            db.commit_txn(t).unwrap();
            assert!(db.log_records_since_checkpoint() > before + 3);
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
        let mut t = db.begin_txn();
        t.create_table(def()).unwrap();
        t.insert("dbo.t", row(1, "keep")).unwrap();
        db.commit_txn(t).unwrap();

        let mut t2 = db.begin_txn();
        t2.insert_many("dbo.t", vec![row(2, "b"), row(3, "c"), row(4, "d")])
            .unwrap();
        drop(t2);
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
            let mut t = db.begin_txn();
            t.create_table(def()).unwrap();
            for i in 0..10 {
                t.insert("dbo.t", row(i, "x")).unwrap();
            }
            db.commit_txn(t).unwrap();
            db.checkpoint().unwrap();
            assert_eq!(db.log_records_since_checkpoint(), 0);
            // More work after the checkpoint.
            let mut t2 = db.begin_txn();
            t2.insert("dbo.t", row(100, "post")).unwrap();
            db.commit_txn(t2).unwrap();
        }
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        assert_eq!(db.snapshot().table("dbo.t").unwrap().len(), 11);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An open transaction has logged nothing, so a checkpoint runs
    /// beside it; the transaction commits after it, into the fresh log,
    /// and both survive a reopen.
    #[test]
    fn checkpoint_runs_beside_an_open_txn() {
        let dir = temp_dir();
        {
            let db = Durable::open(&dir, Durability::Fsync).unwrap();
            let mut t = db.begin_txn();
            t.create_table(def()).unwrap();
            t.insert("dbo.t", row(1, "before")).unwrap();
            db.commit_txn(t).unwrap();
            let mut open = db.begin_txn();
            open.insert("dbo.t", row(2, "open")).unwrap();
            db.checkpoint().unwrap();
            assert_eq!(db.log_records_since_checkpoint(), 0);
            db.commit_txn(open).unwrap();
        }
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        assert_eq!(db.snapshot().table("dbo.t").unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The ids of the `Commit` records in the live log, in log order.
    fn commit_ids(dir: &Path) -> Vec<TxnId> {
        Wal::read_all(Durable::wal_path(dir))
            .unwrap()
            .iter()
            .filter_map(|frame| match LogRecord::decode(&frame[8..]).unwrap() {
                LogRecord::Commit { txn } => Some(txn),
                _ => None,
            })
            .collect()
    }

    /// Ids are allocated at commit, in commit order, and stay monotone
    /// across a restart: a transaction that began first but commits last
    /// takes the larger id.
    #[test]
    fn txn_ids_monotone_across_restarts() {
        let dir = temp_dir();
        {
            let db = Durable::open(&dir, Durability::Fsync).unwrap();
            let mut t = db.begin_txn();
            t.create_table(def()).unwrap();
            db.commit_txn(t).unwrap();
            let mut early = db.begin_txn();
            early.insert("dbo.t", row(1, "early")).unwrap();
            let mut late = db.begin_txn();
            late.insert("dbo.t", row(2, "late")).unwrap();
            db.commit_txn(late).unwrap();
            db.commit_txn(early).unwrap();
        }
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let mut t = db.begin_txn();
        t.insert("dbo.t", row(3, "after")).unwrap();
        db.commit_txn(t).unwrap();
        let ids = commit_ids(&dir);
        assert_eq!(ids.len(), 4);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn row_ids_stable_across_recovery() {
        let dir = temp_dir();
        {
            let db = Durable::open(&dir, Durability::Fsync).unwrap();
            let mut t = db.begin_txn();
            t.create_table(def()).unwrap();
            t.insert("dbo.t", row(1, "a")).unwrap();
            let rid2 = t.insert("dbo.t", row(2, "b")).unwrap();
            t.delete("dbo.t", rid2).unwrap();
            db.commit_txn(t).unwrap();
        }
        let dir2 = dir.clone();
        let db = Durable::open(&dir2, Durability::Fsync).unwrap();
        let mut t = db.begin_txn();
        // A new insert must not reuse the deleted id 2.
        let rid = t.insert("dbo.t", row(3, "c")).unwrap();
        assert_eq!(rid, 3);
        db.commit_txn(t).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A number `begin` never handed out, or one already committed, names
    /// no transaction.
    #[test]
    fn mutating_unknown_txn_is_an_error() {
        let dir = temp_dir();
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let unknown = |r: Result<(), DbError>| matches!(r, Err(DbError::Io(e)) if e.kind() == io::ErrorKind::InvalidInput);
        assert!(unknown(db.insert(999, "dbo.t", row(1, "x")).map(drop)));
        assert!(unknown(db.commit(999)));
        let t = db.begin().unwrap();
        db.create_table(t, def()).unwrap();
        db.insert(t, "dbo.t", row(1, "x")).unwrap();
        db.commit(t).unwrap();
        assert!(unknown(db.commit(t)));
        assert_eq!(db.snapshot().table("dbo.t").unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The guard returned by an oversized `Wal::append` surfaces through the
    /// durability layer as an `Io` error even in release builds, instead of
    /// silently writing a frame recovery would discard as a corrupt tail.
    #[test]
    fn oversized_row_is_refused_not_silently_dropped() {
        let dir = temp_dir();
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let mut t = db.begin_txn();
        t.create_table(def()).unwrap();
        // A text value bigger than the frame cap; the encoded record is
        // necessarily bigger still.
        let huge = "x".repeat(MAX_FRAME as usize + 1);
        let err = t
            .insert("dbo.t", vec![Value::Int(1), Value::Text(huge)])
            .unwrap_err();
        match err {
            DbError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput),
            other => panic!("expected Io(InvalidInput), got {other}"),
        }
        // The transaction was not touched (the record was refused before
        // any apply) and stays usable.
        assert!(t.store().table("dbo.t").unwrap().is_empty());
        t.insert("dbo.t", row(1, "small")).unwrap();
        db.commit_txn(t).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A volatile transaction writes as a logged one does — a statement
    /// applies whole or not at all — but no frame cap binds it, it keeps
    /// no record, and a commit of it is refused without logging anything.
    #[test]
    fn volatile_txn_validates_like_a_logged_one_and_cannot_commit() {
        let dir = temp_dir();
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let mut t = Txn::volatile();
        t.create_table(def()).unwrap();
        assert!(matches!(
            t.create_table(def()),
            Err(DbError::Store(StoreError::TableExists(_)))
        ));
        // The third row repeats the first's key: none of the three goes in.
        let dup = vec![row(1, "a"), row(2, "b"), row(1, "c")];
        assert!(matches!(
            t.insert_many("dbo.t", dup),
            Err(DbError::Store(StoreError::DuplicateKey(_)))
        ));
        assert!(t.store().table("dbo.t").unwrap().is_empty());
        let huge = "x".repeat(MAX_FRAME as usize + 1);
        t.insert("dbo.t", vec![Value::Int(1), Value::Text(huge)])
            .unwrap();
        assert!(t.records.is_empty());
        match db.commit_txn(t) {
            Err(DbError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput),
            other => panic!("expected Io(InvalidInput), got {other:?}"),
        }
        assert_eq!(db.log_records_since_checkpoint(), 0);
        assert!(!db.snapshot().has_table("dbo.t"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A catalog statement the store refuses, inside a transaction that then
    /// commits, logs nothing: a transaction that wrote nothing else logs
    /// nothing at all, and the directory reopens with the catalog it had.
    #[test]
    fn refused_catalog_statement_in_committed_txn_logs_nothing() {
        type Refused = fn(&mut Txn) -> Result<(), DbError>;
        let cases: [(&str, Refused); 6] = [
            ("duplicate create_table", |t| t.create_table(def())),
            ("missing drop_table", |t| t.drop_table("dbo.nope")),
            ("duplicate create_proc", |t| t.create_proc("p", "x")),
            ("missing drop_proc", |t| t.drop_proc("dbo.nope")),
            ("duplicate create_index", |t| {
                t.create_index("dbo.t", "t_v", 0)
            }),
            ("missing drop_index", |t| t.drop_index("dbo.t", "nope")),
        ];
        for (what, refused) in cases {
            let dir = temp_dir();
            {
                let db = Durable::open(&dir, Durability::Fsync).unwrap();
                let mut t = db.begin_txn();
                t.create_table(def()).unwrap();
                t.insert("dbo.t", row(1, "a")).unwrap();
                t.create_index("dbo.t", "t_v", 1).unwrap();
                t.create_proc("p", "SELECT 1").unwrap();
                db.commit_txn(t).unwrap();
                let before = db.log_records_since_checkpoint();
                let mut t = db.begin_txn();
                assert!(refused(&mut t).is_err(), "{what}");
                db.commit_txn(t).unwrap();
                assert_eq!(
                    db.log_records_since_checkpoint(),
                    before,
                    "{what}: nothing logged"
                );
                // Crash: drop without checkpoint.
            }
            let db = Durable::open(&dir, Durability::Fsync)
                .unwrap_or_else(|e| panic!("{what}: reopen failed: {e}"));
            let snap = db.snapshot();
            assert_eq!(snap.table_names(), ["dbo.t"], "{what}");
            let tbl = snap.table("dbo.t").unwrap();
            assert_eq!(tbl.len(), 1, "{what}");
            assert_eq!(*tbl.rows[&1], row(1, "a"), "{what}");
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
        let mut t = db.begin_txn();
        t.create_table(def()).unwrap();
        db.commit_txn(t).unwrap();

        let before = db.wal_sync_count();
        const THREADS: usize = 8;
        const COMMITS: usize = 25;
        let hold_every_flush = (1..=(THREADS * COMMITS) as u64)
            .fold(phoenix_chaos::Schedule::new(), |schedule, nth| {
                schedule.delay_at("wal.fsync", nth, 2)
            });
        let _guard = phoenix_chaos::arm(hold_every_flush);
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|k| {
                let db = Arc::clone(&db);
                let barrier = Arc::clone(&barrier);
                let scope = phoenix_chaos::Scope::current();
                std::thread::spawn(move || {
                    let _in = scope.enter();
                    barrier.wait();
                    for i in 0..COMMITS {
                        let mut t = db.begin_txn();
                        t.insert("dbo.t", row((k * COMMITS + i) as i64 + 10, "w"))
                            .unwrap();
                        db.commit_txn(t).unwrap();
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
            let mut t = db.begin_txn();
            t.create_table(def()).unwrap();
            db.commit_txn(t).unwrap();
            let handles: Vec<_> = (0..4)
                .map(|k| {
                    let db = Arc::clone(&db);
                    std::thread::spawn(move || {
                        for i in 0..20 {
                            let mut t = db.begin_txn();
                            t.insert("dbo.t", row((k * 20 + i) as i64, "v")).unwrap();
                            if i % 5 == 4 {
                                // Sprinkle empty aborts between the commits,
                                // plus an extra insert under the live txn.
                                let a = db.begin_txn();
                                t.insert("dbo.t", row(1000 + (k * 20 + i) as i64, "tmp"))
                                    .unwrap();
                                drop(a);
                            }
                            db.commit_txn(t).unwrap();
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
            let mut t = db.begin_txn();
            t.create_table(named_def("acct")).unwrap();
            t.create_table(named_def("dbo.acct")).unwrap();
            db.commit_txn(t).unwrap();
            let (records, syncs) = (db.log_records_since_checkpoint(), db.wal_sync_count());
            let mut t = db.begin_txn();
            t.insert("acct", row(1, "debit")).unwrap();
            t.insert("dbo.acct", row(1, "credit")).unwrap();
            db.commit_txn(t).unwrap();
            assert_eq!(
                db.log_records_since_checkpoint(),
                records + 3,
                "two inserts, one commit"
            );
            assert_eq!(db.wal_sync_count(), syncs + 1, "one flush");
            let mut t = db.begin_txn();
            t.insert("acct", row(2, "ghost")).unwrap();
            t.insert("dbo.acct", row(2, "ghost")).unwrap();
            // Crash without commit.
        }
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let snap = db.snapshot();
        assert_eq!(*snap.table("acct").unwrap().rows[&1], row(1, "debit"));
        assert_eq!(*snap.table("dbo.acct").unwrap().rows[&1], row(1, "credit"));
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
            let mut t = db.begin_txn();
            t.create_table(named_def("acct")).unwrap();
            t.create_table(named_def("dbo.acct")).unwrap();
            t.insert("acct", row(1, "a")).unwrap();
            db.commit_txn(t).unwrap();
            let mut t = db.begin_txn();
            t.insert("acct", row(2, "x")).unwrap();
            t.update("acct", 1, row(1, "mutated")).unwrap();
            t.insert("dbo.acct", row(1, "y")).unwrap();
            t.create_proc("p", "SELECT 1").unwrap();
            drop(t);
            let snap = db.snapshot();
            let acct = snap.table("acct").unwrap();
            assert_eq!(acct.len(), 1);
            assert_eq!(*acct.rows[&1], row(1, "a"));
            assert!(snap.table("dbo.acct").unwrap().is_empty());
            assert!(!snap.has_proc("p"));
        }
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let snap = db.snapshot();
        assert_eq!(*snap.table("acct").unwrap().rows[&1], row(1, "a"));
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
        let mut t = db.begin_txn();
        for i in 0..400 {
            t.create_table(named_def(&format!("dbo.t{i:03}"))).unwrap();
        }
        db.commit_txn(t).unwrap();
        let before = db.snapshot();
        let mut t = db.begin_txn();
        t.insert("dbo.t123", row(1, "x")).unwrap();
        db.commit_txn(t).unwrap();
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
            let mut t = db.begin_txn();
            t.create_table(named_def("dbo.acct")).unwrap();
            db.commit_txn(t).unwrap();
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
            let mut t = db.begin_txn();
            t.create_table(named_def("dbo.acct")).unwrap();
            db.commit_txn(t).unwrap();
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

    /// The tables of `store` whose segment some touch has read.
    fn segments_read(store: &Store) -> Vec<String> {
        use crate::store::Slot;
        let read = |name: &String| matches!(store.slot(name), Ok(Slot::OnDisk(seg)) if seg.loaded().is_some());
        store.table_names().into_iter().filter(read).collect()
    }

    /// A restart that nobody talks to loads no table, however long it
    /// idles: the tables behind their log tails included. The first
    /// statement on one of them loads exactly that one.
    #[test]
    fn an_idle_restart_loads_nothing() {
        let dir = temp_dir();
        {
            let db = Durable::open(&dir, Durability::Buffered).unwrap();
            for name in ["dbo.a", "dbo.b", "dbo.c"] {
                let mut t = db.begin_txn();
                t.create_table(named_def(name)).unwrap();
                t.insert(name, row(1, "snapshot")).unwrap();
                db.commit_txn(t).unwrap();
            }
            db.checkpoint().unwrap();
            for name in ["dbo.a", "dbo.b"] {
                let mut t = db.begin_txn();
                t.insert(name, row(2, "tail")).unwrap();
                db.commit_txn(t).unwrap();
            }
        }
        let db = Durable::open(&dir, Durability::Buffered).unwrap();
        let report = db.recovery_report();
        assert_eq!(
            (report.segments_loaded_at_open, report.tables_behind),
            (0, 2),
            "{report:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(300));
        assert_eq!(segments_read(&db.snapshot()), Vec::<String>::new());
        assert_eq!(db.snapshot().table("dbo.b").unwrap().len(), 2);
        assert_eq!(segments_read(&db.snapshot()), ["dbo.b"]);
        drop(db);
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
            let mut t = db.begin_txn();
            t.create_table(TableDef::new(
                "dbo.t",
                Schema::new(vec![Column::new("v", DataType::Int)]),
            ))
            .unwrap();
            for i in 0..5 {
                t.insert("dbo.t", vec![Value::Int(i)]).unwrap();
            }
            db.commit_txn(t).unwrap();
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
                let mut t = db.begin_txn();
                t.create_table(TableDef::new(
                    "dbo.t",
                    Schema::new(vec![Column::new("v", DataType::Int)]),
                ))
                .unwrap();
                db.commit_txn(t).unwrap();
            }
            let mut t = db.begin_txn();
            t.insert("dbo.t", vec![Value::Int(round)]).unwrap();
            db.commit_txn(t).unwrap();
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
