//! [`Applier`]: crash recovery, the schedule that decides which log records
//! reach `Store::apply`, the one routine that turns them into table state.
//!
//! The log is REDO-only and every DML record carries explicit row ids, so
//! recovery is a single incremental state machine: take records in GSN
//! order — the order of the one log — hold each until its transaction's
//! fate is known, then apply the winners with `Store::apply` and drop the
//! losers. Crash recovery is two calls: [`Applier::load`] reads the snapshot
//! and feeds every frame of the log, then [`Applier::finish`] ends the log.
//!
//! # Fates
//!
//! A transaction is a winner once its `Commit` has been fed; it is a loser
//! once an `Abort` has been fed, or when the log ends without deciding it.
//! Records of transactions at or below the snapshot's high-water mark are
//! already inside the image and are dropped on arrival. A deciding record dominates every other record of its
//! transaction in GSN order, so the ledger entry is dropped when that record
//! leaves the queue: the ledger is never larger than the queue.

use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::time::{Duration, Instant};

use crate::codec::DecodeError;
use crate::db::{DbError, Durable};
use crate::record::LogRecord;
use crate::snapshot::{self, SegmentBase};
use crate::store::{Slot, Store};
use crate::types::TxnId;
use crate::wal::Wal;

/// How the log decided one transaction past the mark: by the `Commit` or
/// `Abort` record fed at GSN `at`.
struct Fate {
    committed: bool,
    at: u64,
}

/// The incremental REDO state machine. See the module docs.
pub struct Applier {
    store: Store,
    /// Snapshot high-water mark: records with `txn ≤ mark` are in `store`.
    mark: TxnId,
    /// Generation of the snapshot manifest `store` was seeded from.
    gen: u64,
    /// Captured *before* any record applies: tables replay leaves untouched
    /// keep their slot, and the next checkpoint reuses their segments.
    base: SegmentBase,
    fates: HashMap<TxnId, Fate>,
    /// GSN-ordered records fed but not yet applied or dropped: the first
    /// one's transaction is undecided.
    pending: VecDeque<(u64, LogRecord)>,
    max_gsn: u64,
    last_txn: TxnId,
    fed: u64,
    applied: u64,
    /// Valid-prefix length of the live log.
    live_valid: u64,
    /// Time so far. Until `finish` takes them out, `apply` includes the
    /// segment reads replay forced.
    stages: Stages,
}

/// Where a recovery's time went (see [`crate::db::RecoveryReport`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    /// Manifest read, decode, and one `stat` per segment.
    pub manifest: Duration,
    /// Tables in the snapshot.
    pub segments_total: usize,
    /// Of those, how many replay had to read because the log writes to them.
    pub segments_loaded: usize,
    /// Reading, checksumming and decoding those, and building their indexes.
    pub segment_load: Duration,
    /// Reading the logs off disk and decoding them.
    pub wal_read: Duration,
    /// Deciding fates and applying the winners, segment loads excluded.
    pub apply: Duration,
}

/// What [`Applier::finish`] hands back.
pub struct Recovered {
    /// Snapshot plus every committed record past the mark, in GSN order.
    pub store: Store,
    /// Largest transaction id in the snapshot mark or the log.
    pub last_txn: TxnId,
    /// Largest GSN in the log (0 = empty log).
    pub max_gsn: u64,
    /// Log records read.
    pub frames: u64,
    /// Log records applied to the store.
    pub applied: u64,
    /// Where the time went. `wal_read + apply` is the replay time: reading
    /// the log off disk, decoding and applying it (the snapshot's manifest
    /// and segments excluded).
    pub stages: Stages,
    pub(crate) gen: u64,
    pub(crate) base: SegmentBase,
    pub(crate) live_valid: u64,
}

/// The WAL payload of one record: `gsn:u64 LE | encoded record`.
pub fn frame_payload(gsn: u64, record: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8 + record.len());
    payload.extend_from_slice(&gsn.to_le_bytes());
    payload.extend_from_slice(record);
    payload
}

/// Hand every valid frame in `dir`'s log — [`frame_payload`]s — to `visit`
/// as `(gsn, encoded record)`, in GSN order: the rotated log first, then the
/// live log. Both reads tolerate a torn tail. Returns the valid-prefix
/// length of the live log, which is where [`Wal::open_at`] resumes it.
fn for_each_frame(
    dir: &Path,
    mut visit: impl FnMut(u64, &[u8]) -> Result<(), DbError>,
) -> Result<u64, DbError> {
    let mut live_valid = 0;
    for (path, live) in [
        (Durable::wal_old_path(dir), false),
        (Durable::wal_path(dir), true),
    ] {
        // The first frame that fails stops the visiting, not the scan.
        let mut outcome = Ok(());
        let valid = Wal::scan(path, |frame| {
            if outcome.is_ok() {
                outcome = match frame.split_first_chunk::<8>() {
                    Some((gsn, record)) => visit(u64::from_le_bytes(*gsn), record),
                    None => Err(DecodeError(format!(
                        "WAL frame of {} bytes is shorter than its GSN prefix",
                        frame.len()
                    ))
                    .into()),
                };
            }
        })?;
        outcome?;
        if live {
            live_valid = valid;
        }
    }
    Ok(live_valid)
}

/// The marker a promoted standby of an older, replicating build left in
/// the directory of the primary it deposed.
pub(crate) const FENCE_FILE: &str = "phoenix.fenced";

/// Refuse a directory this build must not write to:
///
/// * a partitioned server's: its `phoenix.wal.p<k>` streams hold committed
///   transactions this build does not read, so opening it would silently
///   drop them ([`DbError::PartitionedLog`]);
/// * a deposed primary's, marked by [`FENCE_FILE`]: a promoted standby owns
///   its history, and a write here would fork it ([`DbError::Fenced`]).
fn refuse_retired(dir: &Path) -> Result<(), DbError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("phoenix.wal.p") {
            return Err(DbError::PartitionedLog(path));
        }
        if name == FENCE_FILE {
            return Err(DbError::Fenced(path));
        }
    }
    Ok(())
}

impl Applier {
    /// The snapshot in `dir` plus every frame in its log, fed. A directory
    /// holding a partitioned server's log streams
    /// ([`DbError::PartitionedLog`]) or a fence marker ([`DbError::Fenced`])
    /// is refused.
    pub fn load(dir: &Path) -> Result<Applier, DbError> {
        let start = Instant::now();
        refuse_retired(dir)?;
        let (store, mark, gen, base) = match snapshot::load(dir, &Durable::snapshot_path(dir))? {
            Some(s) => (s.store, s.mark, s.gen, s.base),
            None => (Store::new(), 0, 0, SegmentBase::new()),
        };
        let mut applier = Applier {
            store,
            mark,
            gen,
            base,
            fates: HashMap::new(),
            pending: VecDeque::new(),
            max_gsn: 0,
            last_txn: mark,
            fed: 0,
            applied: 0,
            live_valid: 0,
            stages: Stages {
                manifest: start.elapsed(),
                ..Stages::default()
            },
        };
        applier.read_log(dir)?;
        Ok(applier)
    }

    /// Feed every frame in `dir`'s log, in GSN order. A frame at or below
    /// the highest GSN already read is not fed twice.
    fn read_log(&mut self, dir: &Path) -> Result<(), DbError> {
        let start = Instant::now();
        let mut frames = Vec::new();
        let mut high = 0;
        self.live_valid = for_each_frame(dir, |gsn, record| {
            if gsn > high {
                high = gsn;
                frames.push((gsn, LogRecord::decode(record)?));
            }
            Ok(())
        })?;
        let read = start.elapsed();
        self.stages.wal_read += read;
        for (gsn, rec) in frames {
            self.feed(gsn, rec)?;
        }
        self.stages.apply += start.elapsed() - read;
        Ok(())
    }

    /// Take the record at `gsn`, then apply every record whose turn has
    /// come.
    fn feed(&mut self, gsn: u64, rec: LogRecord) -> Result<(), DbError> {
        self.max_gsn = gsn;
        self.fed += 1;
        let txn = rec.txn();
        self.last_txn = self.last_txn.max(txn);
        if txn <= self.mark {
            return Ok(());
        }
        if let LogRecord::Commit { .. } | LogRecord::Abort { .. } = rec {
            let committed = matches!(rec, LogRecord::Commit { .. });
            self.fates.insert(txn, Fate { committed, at: gsn });
        }
        self.pending.push_back((gsn, rec));
        self.drain(false)
    }

    /// The log has ended: transactions it left undecided are losers.
    pub fn finish(mut self) -> Result<Recovered, DbError> {
        let start = Instant::now();
        self.drain(true)?;
        // Each segment times its own load (whoever triggers it), so the
        // applier needs no clock around every record to tell replay from
        // the segment reads replay forced.
        let loads = self.base.values().filter_map(|(_, slot)| match slot {
            Slot::OnDisk(seg) => seg.loaded().map(|(took, _)| took),
            Slot::Loaded(_) => None,
        });
        let mut stages = self.stages;
        stages.segments_total = self.base.len();
        for took in loads {
            stages.segments_loaded += 1;
            stages.segment_load += took;
        }
        stages.apply = (stages.apply + start.elapsed()).saturating_sub(stages.segment_load);
        Ok(Recovered {
            store: self.store,
            last_txn: self.last_txn,
            max_gsn: self.max_gsn,
            frames: self.fed,
            applied: self.applied,
            stages,
            gen: self.gen,
            base: self.base,
            live_valid: self.live_valid,
        })
    }

    /// Apply the longest prefix of `pending` whose transactions are all
    /// decided — at the end of the log, all of it.
    fn drain(&mut self, end_of_log: bool) -> Result<(), DbError> {
        while let Some((gsn, rec)) = self.pending.front() {
            let txn = rec.txn();
            let committed = match self.fates.get(&txn) {
                Some(&Fate { committed, at }) => {
                    if at == *gsn {
                        self.fates.remove(&txn);
                    }
                    committed
                }
                None if end_of_log => false,
                None => break,
            };
            let (_, rec) = self.pending.pop_front().expect("front exists");
            // `feed` kept only records past the mark.
            if committed {
                self.store.apply([rec], None)?;
                self.applied += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Column, DataType, Schema, TableDef, Value};

    /// A long log must not make recovery remember every transaction in it:
    /// a ledger entry lives exactly as long as its deciding record waits in
    /// the queue.
    #[test]
    fn ledger_is_bounded_by_the_pending_tail() {
        let dir = std::env::temp_dir().join(format!("phoenix-applier-{}", std::process::id()));
        let mut a = Applier::load(&dir).unwrap();
        let mut gsn = 0u64;
        let mut feed = |a: &mut Applier, rec: LogRecord| {
            gsn += 1;
            a.feed(gsn, rec).unwrap();
            assert!(a.fates.len() <= a.pending.len(), "ledger outgrew the queue");
        };
        let insert = |txn: TxnId, row_id: u64| LogRecord::Insert {
            txn,
            table: "t".into(),
            row_id,
            row: vec![Value::Int(row_id as i64)],
        };
        let def = TableDef::new("t", Schema::new(vec![Column::new("v", DataType::Int)]));
        feed(&mut a, LogRecord::CreateTable { txn: 1, def });
        feed(&mut a, LogRecord::Commit { txn: 1 });

        // Transaction 2 stays open across the first thousand others, so the
        // queue — and with it the ledger — has a tail to hold.
        feed(&mut a, insert(2, 1));
        for txn in 3..50_003u64 {
            feed(&mut a, insert(txn, txn));
            // Half commit, a sixth abort after a second record, and the
            // rest abort at once: every deciding shape leaves the ledger.
            match txn % 6 {
                0 | 2 | 4 => feed(&mut a, LogRecord::Commit { txn }),
                1 => {
                    feed(&mut a, insert(txn, txn + 100_000));
                    feed(&mut a, LogRecord::Abort { txn });
                }
                _ => feed(&mut a, LogRecord::Abort { txn }),
            }
            if txn == 1_000 {
                assert!(a.fates.len() >= 998, "the open head holds its followers");
                feed(&mut a, LogRecord::Commit { txn: 2 });
            }
            if txn > 1_000 {
                assert!(a.fates.is_empty() && a.pending.is_empty());
            }
        }
        let r = a.finish().unwrap();
        let committed = (3..50_003u64).filter(|t| t % 2 == 0).count();
        assert_eq!(r.store.table("t").unwrap().len(), 1 + committed);
        // Only committed transactions' records are applied: transaction 1's
        // CreateTable and Commit, transaction 2's insert and Commit, and an
        // insert and a Commit for each even one.
        assert_eq!(r.applied, 2 + 2 + 2 * committed as u64);
    }
}
