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
//! into its table's bucket, *still encoded*. The bucket is looked up by the
//! name the record carries, borrowed from the frame, and the record's bytes
//! are appended to the one arena every table that may stay behind shares
//! (or, for a table the open applies whatever the log holds, to an arena of
//! the bucket's own, freed as soon as it is decoded); the bucket keeps the
//! record's span and GSN. So the check builds no value, and keeping a
//! record copies its bytes once. When the log ends, every record of a
//! transaction with no `Commit` is dropped: one whose commit write tore,
//! or, in a log an older build wrote, one that aborted or was left
//! undecided.
//!
//! # The barrier rule
//!
//! A table's bucket is decoded and redone at open, in GSN order with the
//! eager list, when a catalog record in the log names the table
//! (`CreateTable`, `DropTable`, `CreateIndex`, `DropIndex`) or the table is
//! not an unread snapshot table. Every other bucket — row records only, on a
//! table the snapshot holds and nothing has read — becomes that table's log
//! tail: a new `Segment` over the same file, holding its spans in the shared
//! arena, which decodes and redoes the tail through the same row routine
//! when a statement first touches the table or a checkpoint has to write
//! it. Nothing loads a table in the background. Row records on different
//! tables commute (row ids are explicit and per table), so redoing one
//! table's records later, on their own, builds the same state.
//!
//! # What the shared arena pins
//!
//! The arena holds exactly the tails' bytes: it is reserved once at the
//! logs' size, trimmed when the scan ends, and rebuilt from the tails'
//! records alone when a loser's or a catalog-named table's records lie among
//! them. A table's load drops its spans and its reference, not the bytes:
//! they are freed when the last table sharing the arena has loaded, been
//! dropped unread, or been rewritten by a checkpoint (which loads it).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::codec::DecodeError;
use crate::db::{DbError, Durable};
use crate::record::{txn_of, LogRecord, Parsed};
use crate::snapshot::{self, SegmentBase};
use crate::store::{normalize_name, Segment, Slot, Store, Tail};
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

/// The hash a table's bucket is looked up by, from the name a record
/// carries: eight bytes a step (the multiply-rotate of rustc's FxHash),
/// where std's SipHash costs a few dozen cycles a name. The names come from
/// the log being recovered, which no adversary writes.
#[derive(Default)]
struct NameHash(u64);

impl NameHash {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for NameHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        if let Some(last) = bytes.last_chunk::<8>().filter(|_| !rest.is_empty()) {
            // The last eight bytes, overlapping the word before.
            self.add(u64::from_le_bytes(*last));
        } else if !rest.is_empty() {
            self.add(rest.iter().rev().fold(0, |w, &b| w << 8 | b as u64));
        }
    }

    fn write_u8(&mut self, b: u8) {
        self.add(b as u64);
    }
}

/// One table's row records past the mark, still encoded, in GSN order.
struct Bucket {
    /// Normalized name.
    table: String,
    /// The table's segment when it is an unread snapshot table, whose
    /// records may become its log tail and go into [`Routed::tails`];
    /// `None` for a table the open applies whatever the log holds, whose
    /// records go into `own`.
    segment: Option<Arc<Segment>>,
    /// The records of a table the open applies whatever the log holds, in
    /// an arena of the bucket's own, freed as soon as they are decoded: the
    /// memory the next bucket's decoded rows reuse.
    own: Vec<u8>,
    /// Where each record lies in its arena: a log tail's spans as they are.
    spans: Vec<Range<usize>>,
    /// Each record's GSN, beside its span.
    gsns: Vec<u64>,
}

/// The log past the snapshot's mark, routed as it is scanned.
struct Routed<'s> {
    /// The snapshot, which says which tables may stay behind.
    store: &'s Store,
    /// Transactions with a `Commit`, in log order until the scan ends.
    committed: Vec<TxnId>,
    /// Transactions with a row record and no `Commit` right after their
    /// records: losers, or, in a log of interleaved transactions, winners
    /// whose `Commit` came later. Each is in once a run of its records.
    writers: Vec<TxnId>,
    /// Catalog and procedure records, with their GSNs.
    eager: Vec<(u64, LogRecord)>,
    /// Each table's bucket by the name its records carry, one entry for
    /// each spelling met, so a record's own bytes are the key.
    by_name: HashMap<Box<str>, usize, BuildHasherDefault<NameHash>>,
    /// Each table's bucket by normalized name.
    by_table: HashMap<String, usize>,
    buckets: Vec<Bucket>,
    /// The row records of every table that may stay behind: the one arena
    /// every log tail is a list of spans in.
    tails: Vec<u8>,
    /// Normalized names of the tables a catalog record names.
    named: HashSet<String>,
}

impl<'s> Routed<'s> {
    fn new(store: &'s Store) -> Routed<'s> {
        Routed {
            store,
            committed: Vec::new(),
            writers: Vec::new(),
            eager: Vec::new(),
            by_name: HashMap::default(),
            by_table: HashMap::new(),
            buckets: Vec::new(),
            tails: Vec::new(),
            named: HashSet::new(),
        }
    }

    /// Route one checked record; `bytes` is its encoding.
    fn route(&mut self, gsn: u64, bytes: &[u8], rec: Parsed<'_, ()>) {
        let table = match rec {
            Parsed::Built(LogRecord::Commit { txn }) => {
                // A transaction's records and its `Commit` go out in one
                // write, so it has won by the time the next one writes.
                if self.writers.last() == Some(&txn) {
                    self.writers.pop();
                }
                return self.committed.push(txn);
            }
            Parsed::Built(LogRecord::Begin { .. } | LogRecord::Abort { .. }) => return,
            Parsed::Built(rec) => {
                if let Some(table) = catalog_table(&rec) {
                    self.named.insert(normalize_name(table));
                }
                return self.eager.push((gsn, rec));
            }
            Parsed::Insert { txn, table, .. }
            | Parsed::InsertMany { txn, table, .. }
            | Parsed::Delete { txn, table, .. }
            | Parsed::Update { txn, table, .. } => {
                if self.writers.last() != Some(&txn) {
                    self.writers.push(txn);
                }
                table
            }
        };
        let i = match self.by_name.get(table) {
            Some(&i) => i,
            None => self.bucket(table),
        };
        let bucket = &mut self.buckets[i];
        let arena = match bucket.segment {
            Some(_) => &mut self.tails,
            None => &mut bucket.own,
        };
        let start = arena.len();
        arena.extend_from_slice(bytes);
        bucket.spans.push(start..arena.len());
        bucket.gsns.push(gsn);
    }

    /// The bucket of a table met under a spelling not seen before.
    fn bucket(&mut self, spelling: &str) -> usize {
        let table = normalize_name(spelling);
        let i = match self.by_table.get(&table) {
            Some(&i) => i,
            None => {
                // Nothing has been applied yet, so every snapshot table is
                // still unread in its segment.
                let segment = match self.store.slot(&table) {
                    Ok(Slot::OnDisk(seg)) => Some(Arc::clone(seg)),
                    _ => None,
                };
                self.by_table.insert(table.clone(), self.buckets.len());
                self.buckets.push(Bucket {
                    table,
                    segment,
                    own: Vec::new(),
                    spans: Vec::new(),
                    gsns: Vec::new(),
                });
                self.buckets.len() - 1
            }
        };
        self.by_name.insert(spelling.into(), i);
        i
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
    let mut log = Routed::new(&store);
    // No record is longer than its frame, so the logs' sizes bound the
    // tails: reserved once, the arena is never copied as it grows.
    let logs = [Durable::wal_old_path(dir), Durable::wal_path(dir)];
    let sizes = logs.iter().filter_map(|path| std::fs::metadata(path).ok());
    log.tails.reserve(sizes.map(|m| m.len() as usize).sum());
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
        mut writers,
        mut eager,
        buckets,
        tails: mut arena,
        named,
        ..
    } = log;
    committed.sort_unstable();
    let won = |txn: TxnId| committed.binary_search(&txn).is_ok();
    eager.retain(|(_, rec)| won(rec.txn()));
    // Row records are dropped one by one only when some writer lost: not
    // in a log this build wrote, unless its last write tore between frames.
    writers.sort_unstable();
    writers.dedup();
    writers.retain(|&txn| !won(txn));
    let losers = writers;
    let mut tails = Vec::new();
    for Bucket {
        table,
        segment,
        own,
        mut spans,
        mut gsns,
    } in buckets
    {
        let from = if segment.is_some() { &arena } else { &own };
        if !losers.is_empty() {
            let won =
                |span: &Range<usize>| losers.binary_search(&txn_of(&from[span.clone()])).is_err();
            (gsns, spans) = gsns
                .into_iter()
                .zip(spans)
                .filter(|(_, span)| won(span))
                .unzip();
        }
        match segment {
            Some(seg) if !named.contains(&table) => {
                if !spans.is_empty() {
                    tails.push((seg, spans));
                }
            }
            _ => {
                for (gsn, span) in gsns.into_iter().zip(spans) {
                    eager.push((gsn, LogRecord::decode(&from[span])?));
                }
            }
        }
    }
    let (behind, mut deferred, mut tail_bytes) = (tails.len(), 0, 0);
    for (_, spans) in &tails {
        deferred += spans.len() as u64;
        tail_bytes += spans.iter().map(|s| s.len() as u64).sum::<u64>();
    }
    if tail_bytes < arena.len() as u64 {
        // A loser's records, or those of a table a catalog record names,
        // lie between the tails': keep only the tails' bytes.
        let mut kept = Vec::with_capacity(tail_bytes as usize);
        for span in tails.iter_mut().flat_map(|(_, spans)| spans) {
            let start = kept.len();
            kept.extend_from_slice(&arena[span.clone()]);
            *span = start..kept.len();
        }
        arena = kept;
    }
    arena.shrink_to_fit();
    let arena = Arc::new(arena);
    eager.sort_unstable_by_key(|(gsn, _)| *gsn);
    let applied = committed.len() as u64 + eager.len() as u64;
    store.apply(eager.into_iter().map(|(_, rec)| rec))?;
    for (seg, spans) in tails {
        let tail = Tail::new(Arc::clone(&arena), spans);
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
    use crate::store::TableData;
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
                let tail = Tail::new(Arc::new(b.clone()), std::iter::once(0..b.len()).collect());
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
