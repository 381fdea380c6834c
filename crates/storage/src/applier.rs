//! Crash recovery: the one streaming pass over the log that decides which
//! records reach `Store::apply` at open, and which wait as a table's *log
//! tail* until something touches the table.
//!
//! The log is REDO-only and every DML record carries explicit row ids, so
//! recovery needs no undo and no analysis beyond one question per record:
//! did its transaction commit? [`recover`] reads the snapshot's manifest
//! (every table stays in its segment file), then scans the log in GSN order,
//! decoding every frame as it goes. Records of transactions at or below the
//! snapshot's high-water mark are already inside the image and are dropped
//! on arrival; the rest are routed as they are decoded — a `Commit` into the
//! committed set, a catalog or procedure record into the *eager* list, a
//! row record into its table's bucket — so the log is held decoded once.
//! When the log ends, every record of a transaction with no `Commit`
//! (aborted, or left undecided) is dropped.
//!
//! # The barrier rule
//!
//! A table's bucket is redone at open, in GSN order with the eager list,
//! when a catalog record in the log names the table (`CreateTable`,
//! `DropTable`, `CreateIndex`, `DropIndex`) or the table is not an unread
//! snapshot table. Every other bucket — row records only, on a table the
//! snapshot holds and nothing has read — becomes that table's log tail: a
//! new `Segment` over the same file, which redoes the tail through the same
//! row routine when the table is first touched, written by a checkpoint, or
//! loaded by the background drain. Row records on different tables commute
//! (row ids are explicit and per table), so redoing one table's records
//! later, on their own, builds the same state.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::codec::DecodeError;
use crate::db::{DbError, Durable};
use crate::record::LogRecord;
use crate::snapshot::{self, SegmentBase};
use crate::store::{normalize_name, Slot, Store};
use crate::types::TxnId;
use crate::wal::Wal;

/// Where a recovery's time went (see [`crate::db::RecoveryReport`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    /// Manifest read, decode, and one `stat` per segment.
    pub manifest: Duration,
    /// Tables in the snapshot.
    pub segments_total: usize,
    /// Of those, how many the open read because a catalog record in the log
    /// named them.
    pub segments_loaded: usize,
    /// Reading, checksumming and decoding those, and building their indexes.
    pub segment_load: Duration,
    /// Reading the logs off disk, decoding and routing them.
    pub wal_read: Duration,
    /// Applying the records the open applies, segment loads excluded.
    pub apply: Duration,
}

/// What [`recover`] hands back.
pub struct Recovered {
    /// Snapshot plus every committed record past the mark: applied, or in
    /// the log tail of the table it writes.
    pub store: Store,
    /// Largest transaction id in the snapshot mark or the log.
    pub last_txn: TxnId,
    /// Largest GSN in the log (0 = empty log).
    pub max_gsn: u64,
    /// Log records read.
    pub frames: u64,
    /// Log records applied at open: the committed records past the mark
    /// that are in no log tail, `Commit`s included.
    pub applied: u64,
    /// Log records left in a table's log tail.
    pub deferred: u64,
    /// Tables with a log tail.
    pub behind: usize,
    /// Where the time went. `wal_read + apply` is the replay time: reading
    /// the log off disk, decoding and applying it (the snapshot's manifest
    /// and segments excluded).
    pub stages: Stages,
    pub(crate) gen: u64,
    /// Captured *before* any record applies: tables the open leaves
    /// untouched keep their slot, and the next checkpoint reuses their
    /// segments.
    pub(crate) base: SegmentBase,
    /// Valid-prefix length of the live log.
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

/// The table a catalog record creates, drops or indexes.
fn catalog_table(rec: &LogRecord) -> Option<&str> {
    match rec {
        LogRecord::CreateTable { def, .. } => Some(&def.name),
        LogRecord::DropTable { name, .. } => Some(name),
        LogRecord::CreateIndex { table, .. } | LogRecord::DropIndex { table, .. } => Some(table),
        _ => None,
    }
}

/// The log past the snapshot's mark, routed as it is scanned.
#[derive(Default)]
struct Routed {
    committed: HashSet<TxnId>,
    /// Catalog and procedure records, with their GSNs.
    eager: Vec<(u64, LogRecord)>,
    /// Row records by normalized table name, with their GSNs.
    buckets: HashMap<String, Vec<(u64, LogRecord)>>,
    /// Normalized names of the tables a catalog record names.
    named: HashSet<String>,
}

impl Routed {
    fn route(&mut self, gsn: u64, rec: LogRecord) {
        match rec {
            LogRecord::Commit { txn } => {
                self.committed.insert(txn);
            }
            LogRecord::Begin { .. } | LogRecord::Abort { .. } => {}
            rec => match rec.row_table() {
                Some(table) => self
                    .buckets
                    .entry(normalize_name(table))
                    .or_default()
                    .push((gsn, rec)),
                None => {
                    if let Some(table) = catalog_table(&rec) {
                        self.named.insert(normalize_name(table));
                    }
                    self.eager.push((gsn, rec));
                }
            },
        }
    }
}

/// Crash recovery of `dir`: the snapshot plus every committed record of its
/// log past the mark, applied or left in a log tail by the barrier rule
/// (see the module docs). A directory holding a partitioned server's log
/// streams ([`DbError::PartitionedLog`]) or a fence marker
/// ([`DbError::Fenced`]) is refused; a frame whose checksum passes but that
/// does not decode fails the open.
pub fn recover(dir: &Path) -> Result<Recovered, DbError> {
    let start = Instant::now();
    refuse_retired(dir)?;
    let (mut store, mark, gen, base) = match snapshot::load(dir, &Durable::snapshot_path(dir))? {
        Some(s) => (s.store, s.mark, s.gen, s.base),
        None => (Store::new(), 0, 0, SegmentBase::new()),
    };
    let mut stages = Stages {
        manifest: start.elapsed(),
        segments_total: base.len(),
        ..Stages::default()
    };

    // One pass: decode every frame, route the records past the mark. A
    // frame at or below the highest GSN already read is not taken twice.
    let scan = Instant::now();
    let mut log = Routed::default();
    let (mut max_gsn, mut frames, mut last_txn) = (0, 0u64, mark);
    let live_valid = for_each_frame(dir, |gsn, bytes| {
        if gsn > max_gsn {
            max_gsn = gsn;
            frames += 1;
            let rec = LogRecord::decode(bytes)?;
            last_txn = last_txn.max(rec.txn());
            if rec.txn() > mark {
                log.route(gsn, rec);
            }
        }
        Ok(())
    })?;
    stages.wal_read = scan.elapsed();

    let apply = Instant::now();
    let Routed {
        committed,
        mut eager,
        buckets,
        named,
    } = log;
    let won = |(_, rec): &(u64, LogRecord)| committed.contains(&rec.txn());
    eager.retain(won);
    let mut tails = Vec::new();
    for (table, mut bucket) in buckets {
        bucket.retain(won);
        match store.slot(&table) {
            _ if bucket.is_empty() => {}
            // Nothing has been applied yet, so every snapshot table is
            // still unread in its segment.
            Ok(Slot::OnDisk(seg)) if !named.contains(&table) => {
                tails.push((Arc::clone(seg), bucket));
            }
            _ => eager.extend(bucket),
        }
    }
    eager.sort_unstable_by_key(|(gsn, _)| *gsn);
    let applied = committed.len() as u64 + eager.len() as u64;
    store.apply(eager.into_iter().map(|(_, rec)| rec), None)?;
    let (behind, mut deferred) = (tails.len(), 0);
    for (seg, bucket) in tails {
        deferred += bucket.len() as u64;
        let tail = bucket.into_iter().map(|(_, rec)| rec).collect();
        store.install_segment(Arc::new(seg.behind(tail)));
    }

    // Each segment times its own load, so the apply needs no clock around
    // every record to tell the two apart.
    for (_, slot) in base.values() {
        if let Slot::OnDisk(seg) = slot {
            if let Some((took, _)) = seg.loaded() {
                stages.segments_loaded += 1;
                stages.segment_load += took;
            }
        }
    }
    stages.apply = apply.elapsed().saturating_sub(stages.segment_load);
    Ok(Recovered {
        store,
        last_txn,
        max_gsn,
        frames,
        applied,
        deferred,
        behind,
        stages,
        gen,
        base,
        live_valid,
    })
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Durability;
    use crate::types::{Column, DataType, RowId, Schema, TableDef, Value};

    /// Every way the log decides a transaction — commit, abort after a
    /// second record, abort at once — and one left open across the first
    /// thousand others before it commits: the open keeps exactly the
    /// committed transactions' rows, and applies exactly their records.
    #[test]
    fn open_keeps_exactly_the_committed_transactions() {
        const LAST: u64 = 10_003;
        let dir = std::env::temp_dir().join(format!("phoenix-applier-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut wal = Wal::open(Durable::wal_path(&dir)).unwrap();
        let mut gsn = 0u64;
        let mut log = |rec: LogRecord| {
            gsn += 1;
            wal.append(&frame_payload(gsn, &rec.encode())).unwrap();
        };
        let insert = |txn: TxnId, row_id: u64| LogRecord::Insert {
            txn,
            table: "t".into(),
            row_id,
            row: vec![Value::Int(row_id as i64)],
        };
        let def = TableDef::new("t", Schema::new(vec![Column::new("v", DataType::Int)]));
        log(LogRecord::CreateTable { txn: 1, def });
        log(LogRecord::Commit { txn: 1 });
        log(insert(2, 1));
        let mut expect: Vec<RowId> = vec![1];
        for txn in 3..LAST {
            log(insert(txn, txn));
            match txn % 6 {
                0 | 2 | 4 => {
                    log(LogRecord::Commit { txn });
                    expect.push(txn);
                }
                1 => {
                    log(insert(txn, txn + 100_000));
                    log(LogRecord::Abort { txn });
                }
                _ => log(LogRecord::Abort { txn }),
            }
            if txn == 1_000 {
                log(LogRecord::Commit { txn: 2 });
            }
        }
        drop(wal);

        let db = Durable::open(&dir, Durability::Buffered).unwrap();
        let snap = db.snapshot();
        let rows: Vec<RowId> = snap.table("t").unwrap().rows.keys().copied().collect();
        assert_eq!(rows, expect);
        // Transaction 1's CreateTable and Commit, transaction 2's insert and
        // Commit, and an insert and a Commit for each even one.
        let report = db.recovery_report();
        assert_eq!(report.records_applied, 2 + 2 * (expect.len() as u64));
        assert_eq!(report.records_deferred, 0);
        assert_eq!(
            report.records_skipped,
            report.wal_frames as u64 - report.records_applied
        );
        drop((snap, db));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
