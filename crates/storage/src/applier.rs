//! Crash recovery: the one streaming pass over the log that decides which
//! records reach `Store::apply` at open, and which wait as a table's *log
//! tail* until something touches the table.
//!
//! The log is REDO-only and every DML record carries explicit row ids, so
//! recovery needs no undo and no analysis beyond one question per record:
//! did its transaction commit? [`recover`] reads the snapshot's manifest
//! (every table stays in its segment file), then scans the log in GSN order,
//! checking every frame as it goes with the parser [`LogRecord::decode`] is
//! built on. Records of transactions at or below the snapshot's high-water
//! mark are already inside the image and are dropped on arrival; the rest
//! are routed as they are checked — a `Commit` into the committed list, a
//! catalog or procedure record, decoded, into the *eager* list, a row record
//! into its table's bucket, *still encoded*: its bytes go into one arena per
//! table, so the check builds no value and keeping a record allocates
//! nothing. When the log ends, every record of a transaction with no
//! `Commit` is dropped: one whose commit write tore, or, in a log an older
//! build wrote, one that aborted or was left undecided.
//!
//! # The barrier rule
//!
//! A table's bucket is decoded and redone at open, in GSN order with the
//! eager list, when a catalog record in the log names the table
//! (`CreateTable`, `DropTable`, `CreateIndex`, `DropIndex`) or the table is
//! not an unread snapshot table. Every other bucket — row records only, on a
//! table the snapshot holds and nothing has read — becomes that table's log
//! tail: a new `Segment` over the same file, holding the arena, which
//! decodes and redoes the tail through the same row routine when a statement
//! first touches the table or a checkpoint has to write it. Nothing loads a
//! table in the background. Row records on different tables commute (row ids
//! are explicit and per table), so redoing one table's records later, on
//! their own, builds the same state.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::codec::DecodeError;
use crate::db::{DbError, Durable};
use crate::record::{LogRecord, Parsed};
use crate::snapshot::{self, SegmentBase};
use crate::store::{normalize_name, Slot, Store, Tail};
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
    /// Reading the logs off disk, checking every frame and routing it.
    pub wal_read: Duration,
    /// Dropping the losers, then decoding and applying the records the open
    /// applies, segment loads excluded.
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
    /// Encoded bytes the log tails hold.
    pub tail_bytes: u64,
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

/// One table's row records past the mark, still encoded: the records in
/// one arena, each one's GSN and transaction beside it.
#[derive(Default)]
struct Bucket {
    tail: Tail,
    at: Vec<(u64, TxnId)>,
}

/// The log past the snapshot's mark, routed as it is scanned.
#[derive(Default)]
struct Routed {
    /// Transactions with a `Commit`, in log order until the scan ends.
    committed: Vec<TxnId>,
    /// Catalog and procedure records, with their GSNs.
    eager: Vec<(u64, LogRecord)>,
    /// Row records by table, in `buckets`, indexed by normalized name.
    index: HashMap<String, usize>,
    buckets: Vec<Bucket>,
    /// Normalized names of the tables a catalog record names.
    named: HashSet<String>,
}

impl Routed {
    /// Route one checked record; `bytes` is its encoding.
    fn route(&mut self, gsn: u64, bytes: &[u8], rec: Parsed<'_, ()>) {
        let txn = rec.txn();
        let table = match rec {
            Parsed::Built(LogRecord::Commit { txn }) => return self.committed.push(txn),
            Parsed::Built(LogRecord::Begin { .. } | LogRecord::Abort { .. }) => return,
            Parsed::Built(rec) => {
                if let Some(table) = catalog_table(&rec) {
                    self.named.insert(normalize_name(table));
                }
                return self.eager.push((gsn, rec));
            }
            Parsed::Insert { table, .. }
            | Parsed::InsertMany { table, .. }
            | Parsed::Delete { table, .. }
            | Parsed::Update { table, .. } => table,
        };
        // Names are logged canonical, and mostly lowercase already: look the
        // bucket up by the borrowed name then.
        let key = match table.bytes().any(|b| b.is_ascii_uppercase()) {
            true => Cow::Owned(normalize_name(table)),
            false => Cow::Borrowed(table),
        };
        let i = match self.index.get(&*key) {
            Some(&i) => i,
            None => {
                self.index.insert(key.into_owned(), self.buckets.len());
                self.buckets.push(Bucket::default());
                self.buckets.len() - 1
            }
        };
        let bucket = &mut self.buckets[i];
        bucket.tail.push(bytes);
        bucket.at.push((gsn, txn));
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

    // One pass: check every frame, route the records past the mark. A frame
    // at or below the highest GSN already read is not taken twice.
    let scan = Instant::now();
    let mut log = Routed::default();
    let (mut max_gsn, mut frames, mut last_txn) = (0, 0u64, mark);
    let live_valid = for_each_frame(dir, |gsn, bytes| {
        if gsn > max_gsn {
            max_gsn = gsn;
            frames += 1;
            let rec = Parsed::<()>::read(bytes)?;
            last_txn = last_txn.max(rec.txn());
            if rec.txn() > mark {
                log.route(gsn, bytes, rec);
            }
        }
        Ok(())
    })?;
    stages.wal_read = scan.elapsed();

    let apply = Instant::now();
    let Routed {
        mut committed,
        mut eager,
        index,
        mut buckets,
        named,
    } = log;
    committed.sort_unstable();
    let won = |txn: TxnId| committed.binary_search(&txn).is_ok();
    eager.retain(|(_, rec)| won(rec.txn()));
    let mut tails = Vec::new();
    for (table, i) in index {
        let Bucket { mut tail, mut at } = std::mem::take(&mut buckets[i]);
        if at.iter().any(|&(_, txn)| !won(txn)) {
            let all = std::mem::take(&mut tail);
            for (rec, _) in all.records().zip(&at).filter(|(_, &(_, txn))| won(txn)) {
                tail.push(rec);
            }
            at.retain(|&(_, txn)| won(txn));
        }
        match store.slot(&table) {
            _ if at.is_empty() => {}
            // Nothing has been applied yet, so every snapshot table is
            // still unread in its segment.
            Ok(Slot::OnDisk(seg)) if !named.contains(&table) => {
                tails.push((Arc::clone(seg), tail));
            }
            _ => {
                for ((gsn, _), rec) in at.into_iter().zip(tail.records()) {
                    eager.push((gsn, LogRecord::decode(rec)?));
                }
            }
        }
    }
    eager.sort_unstable_by_key(|(gsn, _)| *gsn);
    let applied = committed.len() as u64 + eager.len() as u64;
    store.apply(eager.into_iter().map(|(_, rec)| rec))?;
    let (behind, mut deferred, mut tail_bytes) = (tails.len(), 0, 0);
    for (seg, tail) in tails {
        deferred += tail.len() as u64;
        tail_bytes += tail.bytes() as u64;
        store.install_segment(Arc::new(seg.behind(tail)));
    }

    // Each segment times its own load, so the apply needs no clock around
    // every record to tell the two apart.
    for (_, slot) in base.values() {
        if let Slot::OnDisk(seg) = slot {
            if let Some(took) = seg.loaded() {
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
        tail_bytes,
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
    use crate::pmap::PMap;
    use crate::store::{Segment, TableData};
    use crate::types::{Column, DataType, IndexDef, RowId, Schema, TableDef, Value};

    fn t_def() -> TableDef {
        TableDef::new(
            "dbo.t",
            Schema::new(vec![
                Column::new("id", DataType::Int).not_null(),
                Column::new("v", DataType::Text),
            ]),
        )
        .with_primary_key(vec![0])
    }

    /// One record of every kind, its rows in `t_def`'s shape and its values
    /// of every type.
    fn every_kind() -> Vec<LogRecord> {
        let row = |id: i64, v: Value| vec![Value::Int(id), v];
        let t = || "dbo.t".to_string();
        let mut def = t_def();
        def.indexes.push(IndexDef {
            name: "t_v".into(),
            column: 1,
        });
        vec![
            LogRecord::Begin { txn: 7 },
            LogRecord::Commit { txn: 7 },
            LogRecord::Abort { txn: 7 },
            LogRecord::Insert {
                txn: 7,
                table: t(),
                row_id: 4,
                row: row(4, Value::Text("four".into())),
            },
            LogRecord::InsertMany {
                txn: 7,
                table: t(),
                first_row_id: 4,
                rows: vec![
                    row(4, Value::Null),
                    row(5, Value::Float(0.5)),
                    vec![Value::Bool(true), Value::Date(-3)],
                ],
            },
            LogRecord::InsertMany {
                txn: 7,
                table: t(),
                first_row_id: 4,
                rows: Vec::new(),
            },
            LogRecord::Delete {
                txn: 7,
                table: t(),
                row_id: 2,
            },
            LogRecord::Update {
                txn: 7,
                table: t(),
                row_id: 2,
                row: row(2, Value::Text("two'".into())),
            },
            LogRecord::CreateTable { txn: 7, def },
            LogRecord::DropTable { txn: 7, name: t() },
            LogRecord::CreateProc {
                txn: 7,
                name: "dbo.p".into(),
                sql: "CREATE PROCEDURE dbo.p AS SELECT 1".into(),
            },
            LogRecord::DropProc {
                txn: 7,
                name: "dbo.p".into(),
            },
            LogRecord::CreateIndex {
                txn: 7,
                table: t(),
                name: "t_v".into(),
                column: 1,
            },
            LogRecord::DropIndex {
                txn: 7,
                table: t(),
                name: "t_v".into(),
            },
        ]
    }

    /// Every hostile variant of `bytes`: each truncation, each single-bit
    /// flip, and a lie written over every 2- and 4-byte field position —
    /// which covers each string length, row arity and row count.
    fn hostile(bytes: &[u8]) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = (0..bytes.len()).map(|n| bytes[..n].to_vec()).collect();
        for i in 0..bytes.len() * 8 {
            let mut b = bytes.to_vec();
            b[i / 8] ^= 1 << (i % 8);
            out.push(b);
        }
        for at in 0..bytes.len() {
            let left = (bytes.len() - at) as u32;
            for lie in [0, 1, left.saturating_sub(1), left, left + 1, u32::MAX] {
                for width in [2, 4] {
                    if at + width <= bytes.len() {
                        let mut b = bytes.to_vec();
                        b[at..at + width].copy_from_slice(&lie.to_le_bytes()[..width]);
                        out.push(b);
                    }
                }
            }
        }
        out
    }

    /// A table's state, comparable even with a NaN among its values.
    fn state(t: &TableData) -> String {
        let rows: Vec<_> = t.rows.iter().collect();
        format!("{:?} {} {rows:?}", t.def, t.next_row_id)
    }

    /// The open's check accepts exactly what `LogRecord::decode` accepts,
    /// with the same error, over every hostile variant of a record of every
    /// kind; neither panics. A row record the check accepts redoes from a
    /// log tail to the same table state as its eagerly decoded record
    /// through `Store::apply` — or fails on both paths.
    #[test]
    fn the_check_and_decode_agree_on_hostile_bytes() {
        let dir = std::env::temp_dir().join(format!("phoenix-hostile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.seg");
        let base = TableData::from_rows(
            t_def(),
            4,
            PMap::from_sorted((1..4).map(|id| (id, [Value::Int(id as i64), Value::Null].into()))),
        )
        .unwrap();
        snapshot::write_segment(&path, &base).unwrap();
        let on_disk = || Segment::new("dbo.t".into(), path.clone());

        let (mut variants, mut accepted, mut redone) = (0, 0, 0);
        for rec in every_kind() {
            let bytes = rec.encode();
            for b in std::iter::once(bytes.to_vec()).chain(hostile(&bytes)) {
                variants += 1;
                let checked = Parsed::<()>::read(&b);
                let decoded = LogRecord::decode(&b);
                assert_eq!(
                    checked.as_ref().map(|_| ()).map_err(|e| e.to_string()),
                    decoded.as_ref().map(|_| ()).map_err(|e| e.to_string()),
                    "{rec:?} as {b:?}"
                );
                let Ok(decoded) = decoded else { continue };
                accepted += 1;
                assert_eq!(checked.unwrap().txn(), decoded.txn());
                if !decoded
                    .row_table()
                    .is_some_and(|t| t.eq_ignore_ascii_case("dbo.t"))
                {
                    continue;
                }
                redone += 1;
                let mut tail = Tail::default();
                tail.push(&b);
                let lazy = on_disk().behind(tail);
                let lazy = lazy.load().map(|t| state(t));
                let mut store = Store::new();
                store.install_segment(Arc::new(on_disk()));
                let eager = store
                    .apply([decoded])
                    .and_then(|()| store.table("dbo.t").map(state));
                assert_eq!(lazy.is_ok(), eager.is_ok(), "{b:?}: {lazy:?} {eager:?}");
                if let (Ok(lazy), Ok(eager)) = (lazy, eager) {
                    assert_eq!(lazy, eager, "{b:?}");
                }
            }
        }
        // The variants are not all rejected, nor all row records elsewhere.
        assert!(variants > 5_000, "{variants}");
        assert!(accepted > 2_000 && redone > 1_000, "{accepted} {redone}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

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
