//! The in-memory materialized image of the durable state.
//!
//! A [`Store`] holds tables (rows addressed by stable [`RowId`]), optional
//! primary-key indexes, and stored-procedure text. It is deliberately free of
//! transaction logic: [`crate::db::Durable`] layers logging and rollback on
//! top, and crash recovery rebuilds a `Store` by applying committed log
//! records to a snapshot image — both through `Store::apply`, the one
//! routine that turns a log record into table state. The engine also uses a
//! bare `Store` for *volatile* state (session temp tables), which is exactly
//! the state that must die in a crash.
//!
//! Tables are held behind per-table [`Arc`]s and built from persistent maps
//! ([`crate::pmap`]), making the store *copy-on-write at tree-node
//! granularity*: cloning a `Store` shares every table, cloning a table
//! shares every node, and a write through [`Store::table_mut`] copies only
//! the nodes on the path to the rows it touches that a clone still shares.
//! The per-table `Arc` remains the unit of *change detection* (a table
//! nobody wrote keeps its pointer). The catalog itself — table slots and
//! procedure texts by name — is a [`PMap`] too, so cloning a `Store` is
//! O(1) and a statement path-copies O(log tables) catalog entries: that is
//! what makes the published image ([`crate::db::Durable::snapshot`], an
//! `Arc<Store>` readers execute against with no lock held) cheap to
//! re-publish after every statement.
//!
//! A table recovered from a checkpoint starts *on disk*: its slot names the
//! snapshot segment holding it, plus the log tail recovery deferred for it
//! (still encoded), and the first [`Store::table`] / [`Store::table_mut`]
//! that touches it reads the file, decodes the tail and redoes it. Every clone of the slot shares one
//! once-cell, so a segment is read, and its tail redone, at most once
//! however many store images hold it.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::{Bound, Deref, Range};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use phoenix_obs::{EventKind, Obs};

use crate::pmap::{PMap, PSet};
use crate::record::LogRecord;
use crate::types::{IndexDef, Row, RowId, TableDef, Value};

/// Error type for store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// CREATE of a table that already exists.
    TableExists(String),
    /// Reference to a table that does not exist.
    NoSuchTable(String),
    /// CREATE of a procedure that already exists.
    ProcExists(String),
    /// Reference to a procedure that does not exist.
    NoSuchProc(String),
    /// Primary-key uniqueness violation.
    DuplicateKey(String),
    /// Row width does not match the table schema.
    ArityMismatch {
        /// The table.
        table: String,
        /// Schema width.
        expected: usize,
        /// Supplied width.
        got: usize,
    },
    /// Row id not present in the table.
    NoSuchRow {
        /// The table.
        table: String,
        /// The missing row id.
        row_id: RowId,
    },
    /// CREATE INDEX with a name already used on the same table.
    IndexExists(String),
    /// Reference to an index that does not exist.
    NoSuchIndex(String),
    /// A row id of `u64::MAX`, from a log record or a segment's next id: no
    /// row may take it, as the next id to assign is one past it.
    RowIdOutOfRange {
        /// The table.
        table: String,
        /// The id.
        row_id: RowId,
    },
    /// The table exists, but the snapshot segment holding its rows could not
    /// be read back (missing, truncated, checksum or decode failure), or the
    /// log tail recovery deferred for it did not redo.
    Segment {
        /// The table.
        table: String,
        /// The segment file.
        file: String,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::TableExists(n) => write!(f, "table '{n}' already exists"),
            StoreError::NoSuchTable(n) => write!(f, "no such table '{n}'"),
            StoreError::ProcExists(n) => write!(f, "procedure '{n}' already exists"),
            StoreError::NoSuchProc(n) => write!(f, "no such procedure '{n}'"),
            StoreError::DuplicateKey(n) => write!(f, "duplicate primary key in '{n}'"),
            StoreError::ArityMismatch {
                table,
                expected,
                got,
            } => {
                write!(
                    f,
                    "row arity {got} does not match table '{table}' ({expected} columns)"
                )
            }
            StoreError::NoSuchRow { table, row_id } => {
                write!(f, "no row {row_id} in table '{table}'")
            }
            StoreError::IndexExists(n) => write!(f, "index '{n}' already exists"),
            StoreError::NoSuchIndex(n) => write!(f, "no such index '{n}'"),
            StoreError::RowIdOutOfRange { table, row_id } => {
                write!(f, "row id {row_id} is out of range in table '{table}'")
            }
            StoreError::Segment {
                table,
                file,
                reason,
            } => write!(
                f,
                "table '{table}' is unreadable: snapshot segment {file}: {reason}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// One table's data: definition, rows by id, (when a primary key is
/// declared) a key → row-id index kept in key order so keyset cursors can
/// walk it, and one ordered secondary index per entry in `def.indexes`.
///
/// Every map is a persistent [`PMap`] and the definition sits behind an
/// [`Arc`], so `clone` is O(1) and a write copies only the tree nodes on the
/// path to the rows it touches — in a secondary index too, however many rows
/// share the value it writes.
///
/// Secondary indexes are *derived* state: every mutation path funnels
/// through [`TableData::insert_with_id`], [`TableData::delete`] or
/// [`TableData::update`], which keep `sec` in lock-step with `rows`. That
/// single chokepoint is what makes REDO-only index recovery work — replaying
/// committed DML rebuilds the maps with no index-page log records at all.
#[derive(Debug, Clone)]
pub struct TableData {
    /// The table definition.
    pub def: Arc<TableDef>,
    /// Rows by stable id; iteration order is insertion order.
    pub rows: PMap<RowId, Box<[Value]>>,
    /// Primary-key index; empty map when no key is declared.
    pub pk_index: PMap<Key, RowId>,
    /// Secondary indexes, parallel to `def.indexes`.
    pub sec: Vec<SecIndex>,
    /// Next row id to assign (never reused).
    pub next_row_id: RowId,
}

/// A primary key as the pk index holds it: a one-column key inline, a
/// wider one boxed, so a one-column key costs its value and no heap block
/// of its own. It is the size of a [`Value`]. Both forms dereference to the
/// key's values, and order and compare as that slice, which is also what
/// the index is looked up and walked by (`Borrow<[Value]>`).
#[derive(Debug, Clone)]
pub enum Key {
    /// A one-column key.
    One(Value),
    /// A key of several columns, in key order.
    Many(Box<[Value]>),
}

impl From<&[Value]> for Key {
    fn from(values: &[Value]) -> Key {
        match values {
            [one] => Key::One(one.clone()),
            many => Key::Many(many.into()),
        }
    }
}

impl Deref for Key {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        match self {
            Key::One(v) => std::slice::from_ref(v),
            Key::Many(vs) => vs,
        }
    }
}

impl Borrow<[Value]> for Key {
    fn borrow(&self) -> &[Value] {
        self
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        **self == **other
    }
}

impl Eq for Key {}

impl Ord for Key {
    fn cmp(&self, other: &Key) -> Ordering {
        (**self).cmp(&**other)
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One secondary index: a persistent set of `(value, row id)` pairs, one per
/// row, so the rows holding a value, or a range of values, are one run of
/// it, in id order within each value. It counts its distinct values as it
/// goes, which is what the planner's per-value estimate divides by.
#[derive(Debug, Clone, Default)]
pub struct SecIndex {
    entries: PSet<(Value, RowId)>,
    distinct: usize,
}

impl SecIndex {
    /// Build the index of `column` over `rows`: sort the `(value, id)` pairs
    /// once, in place, then fill the set bottom-up.
    fn build<'a>(
        rows: impl Iterator<Item = (&'a RowId, &'a Box<[Value]>)>,
        column: usize,
    ) -> SecIndex {
        let mut pairs: Vec<(&Value, RowId)> = rows.map(|(id, row)| (&row[column], *id)).collect();
        pairs.sort_unstable();
        let mut distinct = 0;
        let mut last: Option<&Value> = None;
        let entries = PSet::from_sorted(pairs.into_iter().map(|(v, id)| {
            distinct += usize::from(last != Some(v));
            last = Some(v);
            (v.clone(), id)
        }));
        SecIndex { entries, distinct }
    }

    /// Entries: one per row.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// No entries?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Distinct values indexed (NULL counts as one).
    pub fn distinct(&self) -> usize {
        self.distinct
    }

    /// Ids of the rows whose value lies within `lo`..`hi`, in `(value, id)`
    /// order, from either end; an inverted range is empty. A bound on a
    /// value becomes a bound on the pairs that hold it: past every id of an
    /// excluded value, up to and including every id of an included one.
    pub fn range(
        &self,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> impl DoubleEndedIterator<Item = RowId> + '_ {
        let lo = match lo {
            Bound::Included(v) => Bound::Included((v.clone(), RowId::MIN)),
            Bound::Excluded(v) => Bound::Excluded((v.clone(), RowId::MAX)),
            Bound::Unbounded => Bound::Unbounded,
        };
        let hi = match hi {
            Bound::Included(v) => Bound::Included((v.clone(), RowId::MAX)),
            Bound::Excluded(v) => Bound::Excluded((v.clone(), RowId::MIN)),
            Bound::Unbounded => Bound::Unbounded,
        };
        self.entries.range((lo, hi)).map(|&(_, id)| id)
    }

    /// Ids of the rows holding `v`, ascending.
    pub fn get(&self, v: &Value) -> impl DoubleEndedIterator<Item = RowId> + '_ {
        self.range(Bound::Included(v), Bound::Included(v))
    }

    fn insert(&mut self, v: &Value, id: RowId) {
        self.entries.insert((v.clone(), id));
        let first = self.get(v).nth(1).is_none();
        self.distinct += usize::from(first);
    }

    fn remove(&mut self, v: &Value, id: RowId) {
        if self.entries.remove(&(v.clone(), id)) {
            let last = self.get(v).next().is_none();
            self.distinct -= usize::from(last);
        }
    }
}

impl TableData {
    /// An empty table with the given definition.
    pub fn new(def: TableDef) -> TableData {
        let sec = vec![SecIndex::default(); def.indexes.len()];
        TableData {
            def: Arc::new(def),
            rows: PMap::new(),
            pk_index: PMap::new(),
            sec,
            next_row_id: 1,
        }
    }

    /// A table holding `rows` (how a snapshot segment loads): every index is
    /// bulk-built from the finished map, so a load costs at most one sort
    /// per index instead of a tree descent per row, and none for a primary
    /// key whose values already ascend with the row ids. `next_row_id` is
    /// raised past the largest id if it is not already; neither may be
    /// `u64::MAX`.
    pub(crate) fn from_rows(
        def: TableDef,
        next_row_id: RowId,
        rows: PMap<RowId, Box<[Value]>>,
    ) -> Result<TableData, StoreError> {
        let mut data = TableData::new(def);
        data.check_row_id(next_row_id)?;
        data.next_row_id = next_row_id;
        data.fill(rows)?;
        Ok(data)
    }

    /// Make this empty table hold `rows`, building every index from the
    /// finished map (see [`TableData::from_rows`]). On an error the table is
    /// as it was.
    fn fill(&mut self, rows: PMap<RowId, Box<[Value]>>) -> Result<(), StoreError> {
        debug_assert!(self.rows.is_empty());
        let last = rows.keys().next_back().copied();
        if let Some(last) = last {
            self.check_row_id(last)?;
        }
        for row in rows.values() {
            self.check_arity(row)?;
        }
        let def = Arc::clone(&self.def);
        let mut pk_index = PMap::new();
        if def.has_primary_key() {
            let pk = &def.primary_key;
            let cmp =
                |a: &[Value], b: &[Value]| pk.iter().map(|&c| &a[c]).cmp(pk.iter().map(|&c| &b[c]));
            // A thin pointer to each boxed row: 16 bytes a row.
            let mut by_key: Vec<(&Box<[Value]>, RowId)> =
                rows.iter().map(|(id, r)| (r, *id)).collect();
            if !by_key.is_sorted_by(|a, b| cmp(a.0, b.0).is_lt()) {
                by_key.sort_unstable_by(|a, b| cmp(a.0, b.0));
                if by_key.windows(2).any(|w| cmp(w[0].0, w[1].0).is_eq()) {
                    return Err(StoreError::DuplicateKey(def.name.clone()));
                }
            }
            pk_index = PMap::from_sorted(
                by_key
                    .into_iter()
                    .map(|(r, id)| (Key::from(&*def.key_of(r)), id)),
            );
        }
        self.pk_index = pk_index;
        self.sec = (def.indexes.iter())
            .map(|ix| SecIndex::build(rows.iter(), ix.column))
            .collect();
        self.next_row_id = self.next_row_id.max(last.map_or(1, |id| id + 1));
        self.rows = rows;
        Ok(())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Zero rows?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Look up a row id by primary-key value.
    pub fn row_id_by_key(&self, key: &[Value]) -> Option<RowId> {
        self.pk_index.get(key).copied()
    }

    fn check_arity(&self, row: &[Value]) -> Result<(), StoreError> {
        let expected = self.def.schema.len();
        if row.len() != expected {
            return Err(StoreError::ArityMismatch {
                table: self.def.name.clone(),
                expected,
                got: row.len(),
            });
        }
        Ok(())
    }

    fn check_row_id(&self, row_id: RowId) -> Result<(), StoreError> {
        if row_id == RowId::MAX {
            return Err(StoreError::RowIdOutOfRange {
                table: self.def.name.clone(),
                row_id,
            });
        }
        Ok(())
    }

    fn no_such_row(&self, row_id: RowId) -> StoreError {
        StoreError::NoSuchRow {
            table: self.def.name.clone(),
            row_id,
        }
    }

    /// Insert with a specific row id (what replaying an `Insert` does).
    pub fn insert_with_id(&mut self, row_id: RowId, row: Row) -> Result<(), StoreError> {
        self.check_row_id(row_id)?;
        self.check_arity(&row)?;
        if self.def.has_primary_key() {
            let key = self.def.key_of(&row);
            if self.pk_index.contains_key(&*key) {
                return Err(StoreError::DuplicateKey(self.def.name.clone()));
            }
            self.pk_index.insert(Key::from(&*key), row_id);
        }
        for (ix, def) in self.sec.iter_mut().zip(&self.def.indexes) {
            ix.insert(&row[def.column], row_id);
        }
        self.rows.insert(row_id, row.into_boxed_slice());
        if row_id >= self.next_row_id {
            self.next_row_id = row_id + 1;
        }
        Ok(())
    }

    /// Insert a fresh row, assigning the next row id.
    pub fn insert(&mut self, row: Row) -> Result<RowId, StoreError> {
        let id = self.next_row_id;
        self.insert_with_id(id, row)?;
        Ok(id)
    }

    /// Remove a row by id, returning it.
    pub fn delete(&mut self, row_id: RowId) -> Result<Row, StoreError> {
        let row = self
            .rows
            .remove(&row_id)
            .ok_or_else(|| self.no_such_row(row_id))?;
        if self.def.has_primary_key() {
            self.pk_index.remove(&*self.def.key_of(&row));
        }
        for (ix, def) in self.sec.iter_mut().zip(&self.def.indexes) {
            ix.remove(&row[def.column], row_id);
        }
        Ok(row.into_vec())
    }

    /// Replace a row in place, returning the previous image. Only the
    /// indexes whose column actually changed are touched.
    pub fn update(&mut self, row_id: RowId, new_row: Row) -> Result<Row, StoreError> {
        self.check_arity(&new_row)?;
        let old = self
            .rows
            .get(&row_id)
            .ok_or_else(|| self.no_such_row(row_id))?;
        if self.def.has_primary_key() {
            let old_key = self.def.key_of(old);
            let new_key = self.def.key_of(&new_row);
            if old_key != new_key {
                if self.pk_index.contains_key(&*new_key) {
                    return Err(StoreError::DuplicateKey(self.def.name.clone()));
                }
                self.pk_index.remove(&*old_key);
                self.pk_index.insert(Key::from(&*new_key), row_id);
            }
        }
        for (ix, def) in self.sec.iter_mut().zip(&self.def.indexes) {
            let (was, is) = (&old[def.column], &new_row[def.column]);
            if was != is {
                ix.remove(was, row_id);
                ix.insert(is, row_id);
            }
        }
        Ok(self
            .rows
            .insert(row_id, new_row.into_boxed_slice())
            .expect("row looked up above")
            .into_vec())
    }

    /// Apply one row record (`Insert`, `InsertMany`, `Delete`, `Update`) that
    /// names this table: the row arm of [`Store::apply`], and what redoes a
    /// table's deferred log tail when its [`Segment`] loads.
    pub(crate) fn apply_row(&mut self, rec: LogRecord) -> Result<(), StoreError> {
        match rec {
            LogRecord::Insert { row_id, row, .. } => self.insert_with_id(row_id, row),
            LogRecord::InsertMany {
                first_row_id, rows, ..
            } => {
                if self.rows.is_empty() && self.fits(first_row_id, &rows) {
                    // Into an empty table: one pass, every index built
                    // from the finished map. Only a duplicate key fails it,
                    // which the rows one at a time report the same way.
                    let ids = first_row_id..;
                    let rows = PMap::from_sorted(ids.zip(rows.into_iter().map(Row::into)));
                    return self.fill(rows);
                }
                // A run past the last id saturates there, which is refused.
                for (k, row) in (0..).zip(rows) {
                    self.insert_with_id(first_row_id.saturating_add(k), row)?;
                }
                Ok(())
            }
            LogRecord::Delete { row_id, .. } => self.delete(row_id).map(drop),
            LogRecord::Update { row_id, row, .. } => self.update(row_id, row).map(drop),
            other => unreachable!("{other:?} is not a row record"),
        }
    }

    /// Do `rows`, given ids from `first_row_id` on, pass every check of
    /// [`TableData::insert_with_id`] but the key's? An empty run does not.
    fn fits(&self, first_row_id: RowId, rows: &[Row]) -> bool {
        let width = self.def.schema.len();
        !rows.is_empty()
            && first_row_id
                .checked_add(rows.len() as u64 - 1)
                .is_some_and(|last| last != RowId::MAX)
            && rows.iter().all(|row| row.len() == width)
    }

    /// Create a secondary index over one column, backfilling it from the
    /// current rows. Errors if the name is already taken on this table.
    pub fn create_index(&mut self, name: &str, column: usize) -> Result<(), StoreError> {
        if self.def.index_pos(name).is_some() {
            return Err(StoreError::IndexExists(name.to_string()));
        }
        self.sec.push(SecIndex::build(self.rows.iter(), column));
        Arc::make_mut(&mut self.def).indexes.push(IndexDef {
            name: name.to_string(),
            column,
        });
        Ok(())
    }

    /// Drop a secondary index by name, returning its definition.
    pub fn drop_index(&mut self, name: &str) -> Result<IndexDef, StoreError> {
        let pos = self
            .def
            .index_pos(name)
            .ok_or_else(|| StoreError::NoSuchIndex(name.to_string()))?;
        self.sec.remove(pos);
        Ok(Arc::make_mut(&mut self.def).indexes.remove(pos))
    }

    /// Cross-check every secondary index against the row image: each row
    /// must appear under exactly its column value, every indexed id must
    /// reference a live row, and the distinct-value count must be the
    /// number of values the rows hold. Used by chaos sweeps after recovery.
    /// The expectation is built in `std` collections, so it shares no code
    /// with the maps it audits.
    pub fn verify_indexes(&self) -> Result<(), String> {
        for (k, ix) in self.def.indexes.iter().enumerate() {
            let mut expect: BTreeMap<&Value, BTreeSet<RowId>> = BTreeMap::new();
            for (&row_id, row) in &self.rows {
                expect.entry(&row[ix.column]).or_default().insert(row_id);
            }
            let pairs = expect
                .iter()
                .flat_map(|(&v, ids)| ids.iter().map(move |&id| (v, id)));
            let sec = &self.sec[k];
            let same = sec.len() == self.rows.len()
                && sec.distinct() == expect.len()
                && sec.entries.iter().map(|(v, id)| (v, *id)).eq(pairs);
            if !same {
                return Err(format!(
                    "index '{}' on '{}' diverges from table rows",
                    ix.name, self.def.name
                ));
            }
        }
        Ok(())
    }
}

/// A table's *log tail*: the committed row records past the snapshot's
/// mark that recovery deferred, encoded as in the log, in GSN order. Every
/// table's tail lies in the one arena its recovery filled, shared behind an
/// [`Arc`]; a tail is the list of its records' spans in it. The records are
/// decoded when the table loads, and the arena is freed when the last table
/// sharing it has loaded (or been dropped unread).
#[derive(Debug, Default)]
pub(crate) struct Tail {
    arena: Arc<Vec<u8>>,
    spans: Vec<Range<usize>>,
}

impl Tail {
    /// The records at `spans` in `arena`, in that order.
    pub(crate) fn new(arena: Arc<Vec<u8>>, spans: Vec<Range<usize>>) -> Tail {
        Tail { arena, spans }
    }

    /// Records held.
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// The records, in GSN order.
    pub(crate) fn records(&self) -> impl Iterator<Item = &[u8]> {
        self.spans.iter().map(|span| &self.arena[span.clone()])
    }
}

/// A checkpointed table whose rows are still in its snapshot segment, plus
/// the table's [`Tail`] (empty for a table the log does not write).
///
/// One `Segment` is shared (behind an [`Arc`]) by every store image that
/// holds the table — the working store, the published snapshots, readers'
/// captures, the checkpoint's identity map — and its once-cell is the
/// *load-once invariant*: whichever of them touches the table first reads,
/// checksums and decodes the file and redoes the tail, every other sees
/// that result, and a failure is as sticky as a success.
#[derive(Debug)]
pub(crate) struct Segment {
    /// Canonical table name, from the manifest.
    pub(crate) name: String,
    path: PathBuf,
    /// The log tail; the load takes it.
    tail: Mutex<Tail>,
    cell: OnceLock<Loaded>,
    /// The instance of the store that opened the segment, whose journal
    /// the load is put on.
    obs: Arc<Obs>,
}

/// What a segment's load left in its cell, and how long the load took.
type Loaded = (Result<Arc<TableData>, String>, Duration);

impl Segment {
    /// The table `name` in the file `path`, its load journaled in the
    /// calling thread's instance.
    pub(crate) fn new(name: String, path: PathBuf) -> Segment {
        Segment {
            name,
            path,
            tail: Mutex::new(Tail::default()),
            cell: OnceLock::new(),
            obs: phoenix_obs::current(),
        }
    }

    /// The same file with `tail` redone on load: the slot of a table
    /// recovery left behind its log.
    pub(crate) fn behind(&self, tail: Tail) -> Segment {
        Segment {
            name: self.name.clone(),
            path: self.path.clone(),
            tail: Mutex::new(tail),
            cell: OnceLock::new(),
            obs: Arc::clone(&self.obs),
        }
    }

    /// Read, checksum and decode the file, then decode each tail record and
    /// redo it through [`TableData::apply_row`]. A tail that does not apply
    /// fails the table exactly as a file that does not read back.
    ///
    /// Each load is put on the event journal (component `storage`, kind
    /// `Other`): `segment_load table=… rows=… tail_records=… us=…`, with
    /// `rows=-` for a load that failed.
    fn read(&self) -> Loaded {
        let start = Instant::now();
        let tail = std::mem::take(&mut *self.tail.lock());
        let loaded = crate::snapshot::load_segment(&self.path)
            .map_err(|e| e.to_string())
            .and_then(|mut data| {
                let redo = |e: &dyn fmt::Display| format!("redoing its log tail: {e}");
                for rec in tail.records() {
                    let rec = LogRecord::decode(rec).map_err(|e| redo(&e))?;
                    data.apply_row(rec).map_err(|e| redo(&e))?;
                }
                Ok(Arc::new(data))
            });
        let took = start.elapsed();
        let rows = match &loaded {
            Ok(data) => data.rows.len().to_string(),
            Err(_) => "-".into(),
        };
        self.obs.journal().record(
            "storage",
            EventKind::Other,
            format!(
                "segment_load table={} rows={rows} tail_records={} us={}",
                self.name,
                tail.len(),
                took.as_micros()
            ),
        );
        (loaded, took)
    }

    /// The table, loading it if nobody has yet; the outcome stays in the
    /// cell for whoever touches the table next.
    pub(crate) fn load(&self) -> Result<&Arc<TableData>, StoreError> {
        let (loaded, _) = self.cell.get_or_init(|| self.read());
        loaded.as_ref().map_err(|reason| StoreError::Segment {
            table: self.name.clone(),
            file: self.path.display().to_string(),
            reason: reason.clone(),
        })
    }

    /// `Some` once the file has been read: how long that took.
    pub(crate) fn loaded(&self) -> Option<Duration> {
        self.cell.get().map(|(_, took)| *took)
    }
}

/// One table's place in a [`Store`].
#[derive(Debug, Clone)]
pub(crate) enum Slot {
    /// In memory. The `Arc` pointer is the change detector.
    Loaded(Arc<TableData>),
    /// In the snapshot segment a checkpoint wrote, plus the segment's log
    /// tail. [`Store::table_mut`] turns the slot into `Loaded` before
    /// handing out a mutable reference, so an `OnDisk` slot holds its file
    /// with that tail redone: bit-identical to the file when the tail is
    /// empty, and a new [`Segment`] — never [`Slot::same`] as the file's —
    /// when it is not.
    OnDisk(Arc<Segment>),
}

impl Slot {
    fn load(&self) -> Result<&Arc<TableData>, StoreError> {
        match self {
            Slot::Loaded(data) => Ok(data),
            Slot::OnDisk(seg) => seg.load(),
        }
    }

    /// Canonical table name, without loading anything.
    fn name(&self) -> &str {
        match self {
            Slot::Loaded(data) => &data.def.name,
            Slot::OnDisk(seg) => &seg.name,
        }
    }

    /// Do both slots hold the very same table image? Pointer identity, so
    /// O(1) and never a file read: this is how an incremental checkpoint
    /// decides which tables to re-serialize.
    pub(crate) fn same(&self, other: &Slot) -> bool {
        match (self, other) {
            (Slot::Loaded(a), Slot::Loaded(b)) => Arc::ptr_eq(a, b),
            (Slot::OnDisk(a), Slot::OnDisk(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// A collection of tables and stored procedures. Lookup is case-insensitive
/// on the fully qualified name (names are normalized to lowercase keys).
///
/// Both catalogs are persistent maps and each table sits behind its own
/// [`Arc`], so `Clone` is O(1) — clones share the catalog and all row data
/// until one of them mutates, at which point only the touched tree nodes
/// (of the catalog and of that table) are copied. Names and procedure
/// texts are `Arc<str>`, so copying a catalog node copies pointers, not
/// strings.
#[derive(Debug, Clone, Default)]
pub struct Store {
    tables: PMap<Arc<str>, Slot>,
    procs: PMap<Arc<str>, Arc<str>>,
}

/// Normalize a table/procedure name for lookup.
pub fn normalize_name(name: &str) -> String {
    name.to_ascii_lowercase()
}

/// FNV-1a over the *normalized* name, modulo `n`, with the `phoenix.`
/// namespace pinned to 0: the table-to-log routing of the retired
/// partitioned write path. No crate calls it; it survives, body unchanged,
/// only because `benchmark/src/adapter.rs` still does.
pub fn partition_of(name: &str, n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    // Phoenix-internal bookkeeping (`phoenix.status`, materialized result
    // sets, keyset tables) embeds a process-unique session tag in the name.
    // Pin the whole namespace to partition 0 so commit routing — and with
    // it the WAL fault-point trace — is a pure function of the workload,
    // never of session-tag entropy.
    if name.len() >= 8 && name.as_bytes()[..8].eq_ignore_ascii_case(b"phoenix.") {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        let b = b.to_ascii_lowercase();
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % n as u64) as usize
}

impl Store {
    /// An empty store.
    pub fn new() -> Store {
        Store::default()
    }

    /// Create an empty table; errors if the name is taken.
    pub fn create_table(&mut self, def: TableDef) -> Result<(), StoreError> {
        let key = normalize_name(&def.name);
        if self.tables.contains_key(key.as_str()) {
            return Err(StoreError::TableExists(def.name));
        }
        self.tables
            .insert(key.into(), Slot::Loaded(Arc::new(TableData::new(def))));
        Ok(())
    }

    /// Install a checkpointed table that stays in its segment file until
    /// something touches it (snapshot load), or replace one with the same
    /// file plus a log tail (recovery).
    pub(crate) fn install_segment(&mut self, seg: Arc<Segment>) {
        self.tables
            .insert(normalize_name(&seg.name).into(), Slot::OnDisk(seg));
    }

    /// Remove a table. A table still on disk is loaded first, as by every
    /// statement that touches it, and stays in the store if that fails.
    pub fn drop_table(&mut self, name: &str) -> Result<(), StoreError> {
        self.slot(name)?.load()?;
        self.tables.remove(normalize_name(name).as_str());
        Ok(())
    }

    /// The slot behind a table: what [`Slot::same`] compares.
    pub(crate) fn slot(&self, name: &str) -> Result<&Slot, StoreError> {
        self.tables
            .get(normalize_name(name).as_str())
            .ok_or_else(|| StoreError::NoSuchTable(name.to_string()))
    }

    /// Look a table up by (case-insensitive) name. The first lookup of a
    /// table still in its snapshot segment reads the file; a segment that
    /// does not read back is [`StoreError::Segment`], for this table only.
    pub fn table(&self, name: &str) -> Result<&TableData, StoreError> {
        self.slot(name)?.load().map(Arc::as_ref)
    }

    /// Mutable table lookup. Copy-on-write: if a snapshot of this store
    /// still shares the table it gets a fresh `Arc` here (an O(1) clone;
    /// the tree nodes stay shared until written).
    pub fn table_mut(&mut self, name: &str) -> Result<&mut TableData, StoreError> {
        let slot = self
            .tables
            .get_mut(normalize_name(name).as_str())
            .ok_or_else(|| StoreError::NoSuchTable(name.to_string()))?;
        if let Slot::OnDisk(seg) = slot {
            *slot = Slot::Loaded(Arc::clone(seg.load()?));
        }
        match slot {
            Slot::Loaded(data) => Ok(Arc::make_mut(data)),
            Slot::OnDisk(_) => unreachable!("loaded above"),
        }
    }

    /// Does a table with this name exist?
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(normalize_name(name).as_str())
    }

    /// Iterate over all tables in an unspecified order, loading those still
    /// on disk. A table whose segment does not read back is left out; ask
    /// for it by name to get the error.
    pub fn tables(&self) -> impl Iterator<Item = &TableData> {
        self.tables
            .values()
            .filter_map(|slot| slot.load().ok().map(Arc::as_ref))
    }

    /// Names of all tables, sorted (deterministic for snapshots and tests).
    /// Loads nothing.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.values().map(|t| t.name().to_string()).collect();
        names.sort();
        names
    }

    /// Register a stored procedure's SQL text.
    pub fn create_proc(&mut self, name: &str, sql: &str) -> Result<(), StoreError> {
        let key = normalize_name(name);
        if self.procs.contains_key(key.as_str()) {
            return Err(StoreError::ProcExists(name.to_string()));
        }
        self.procs.insert(key.into(), sql.into());
        Ok(())
    }

    /// Remove a stored procedure.
    pub fn drop_proc(&mut self, name: &str) -> Result<(), StoreError> {
        self.procs
            .remove(normalize_name(name).as_str())
            .map(drop)
            .ok_or_else(|| StoreError::NoSuchProc(name.to_string()))
    }

    /// Look a procedure's SQL text up by name.
    pub fn proc(&self, name: &str) -> Option<&str> {
        self.procs
            .get(normalize_name(name).as_str())
            .map(|sql| &**sql)
    }

    /// Does a procedure with this name exist?
    pub fn has_proc(&self, name: &str) -> bool {
        self.procs.contains_key(normalize_name(name).as_str())
    }

    /// Names of all procedures, sorted.
    pub fn proc_names(&self) -> Vec<String> {
        self.procs.keys().map(|name| name.to_string()).collect()
    }

    /// Iterate `(name, sql)` over all procedures, by name.
    pub fn procs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.procs.iter().map(|(k, v)| (&**k, &**v))
    }

    /// `(catalog nodes of this image, how many of them `other` shares,
    /// catalog height)`: what publishing this image copied.
    #[cfg(test)]
    pub(crate) fn catalog_sharing(&self, other: &Store) -> (usize, usize, usize) {
        let (nodes, shared) = self.tables.nodes_shared_with(&other.tables);
        let height = self.tables.check_shape().expect("catalog shape");
        (nodes, shared, height)
    }

    /// The one routine that turns log records into table state. Recovery
    /// replays committed records through it, and a [`crate::db::Txn`]
    /// applies each of its statements' records through it to its own copy
    /// of the store before buffering them for commit.
    ///
    /// Records apply in order; the first that does not is the error, and the
    /// store then holds those before it. In recovery that means the log and
    /// the snapshot disagree: a corruption bug, surfaced loudly. A dropped
    /// table still on disk goes without its segment being read. A run of
    /// row records on one table looks the catalog up once, however many
    /// rows it writes.
    pub(crate) fn apply(
        &mut self,
        records: impl IntoIterator<Item = LogRecord>,
    ) -> Result<(), StoreError> {
        let mut records = records.into_iter().peekable();
        while let Some(rec) = records.next() {
            match rec {
                LogRecord::Begin { .. } | LogRecord::Commit { .. } | LogRecord::Abort { .. } => {}
                LogRecord::CreateTable { def, .. } => self.create_table(def)?,
                LogRecord::DropTable { name, .. } => {
                    if self.tables.remove(normalize_name(&name).as_str()).is_none() {
                        return Err(StoreError::NoSuchTable(name));
                    }
                }
                LogRecord::CreateProc { name, sql, .. } => self.create_proc(&name, &sql)?,
                LogRecord::DropProc { name, .. } => self.drop_proc(&name)?,
                LogRecord::CreateIndex {
                    table,
                    name,
                    column,
                    ..
                } => self.table_mut(&table)?.create_index(&name, column)?,
                LogRecord::DropIndex { table, name, .. } => {
                    self.table_mut(&table)?.drop_index(&name).map(drop)?
                }
                rows => {
                    // A run of row records on one table looks it up once.
                    let t = self.table_mut(rows.row_table().expect("only rows are left"))?;
                    let mut next = Some(rows);
                    while let Some(rec) = next {
                        t.apply_row(rec)?;
                        next = records.next_if(|r| {
                            r.row_table()
                                .is_some_and(|n| n.eq_ignore_ascii_case(&t.def.name))
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Verify every secondary index in every table against its row image
    /// (which loads every table; one that does not load is an error too).
    pub fn verify_indexes(&self) -> Result<(), String> {
        for slot in self.tables.values() {
            slot.load().map_err(|e| e.to_string())?.verify_indexes()?;
        }
        Ok(())
    }

    /// The table owning an index with this (case-insensitive) name, if any.
    pub fn find_index_owner(&self, index_name: &str) -> Option<&TableData> {
        self.tables()
            .find(|t| t.def.index_pos(index_name).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Column, DataType, Schema};

    fn keyed_def(name: &str) -> TableDef {
        TableDef::new(
            name,
            Schema::new(vec![
                Column::new("id", DataType::Int).not_null(),
                Column::new("name", DataType::Text),
            ]),
        )
        .with_primary_key(vec![0])
    }

    #[test]
    fn insert_assigns_monotone_ids() {
        let mut t = TableData::new(keyed_def("dbo.c"));
        let a = t
            .insert(vec![Value::Int(1), Value::Text("a".into())])
            .unwrap();
        let b = t
            .insert(vec![Value::Int(2), Value::Text("b".into())])
            .unwrap();
        assert!(b > a);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = TableData::new(keyed_def("dbo.c"));
        t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        let e = t.insert(vec![Value::Int(1), Value::Null]).unwrap_err();
        assert!(matches!(e, StoreError::DuplicateKey(_)));
    }

    #[test]
    fn update_maintains_pk_index() {
        let mut t = TableData::new(keyed_def("dbo.c"));
        let id = t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        t.update(id, vec![Value::Int(5), Value::Null]).unwrap();
        assert_eq!(t.row_id_by_key(&[Value::Int(5)]), Some(id));
        assert_eq!(t.row_id_by_key(&[Value::Int(1)]), None);
    }

    #[test]
    fn update_to_existing_key_rejected() {
        let mut t = TableData::new(keyed_def("dbo.c"));
        t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        let id2 = t.insert(vec![Value::Int(2), Value::Null]).unwrap();
        let e = t.update(id2, vec![Value::Int(1), Value::Null]).unwrap_err();
        assert!(matches!(e, StoreError::DuplicateKey(_)));
    }

    #[test]
    fn delete_clears_index() {
        let mut t = TableData::new(keyed_def("dbo.c"));
        let id = t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        t.delete(id).unwrap();
        assert_eq!(t.row_id_by_key(&[Value::Int(1)]), None);
        assert!(t.is_empty());
    }

    #[test]
    fn arity_checked() {
        let mut t = TableData::new(keyed_def("dbo.c"));
        assert!(matches!(
            t.insert(vec![Value::Int(1)]),
            Err(StoreError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn store_names_are_case_insensitive() {
        let mut s = Store::new();
        s.create_table(keyed_def("dbo.Customer")).unwrap();
        assert!(s.has_table("DBO.CUSTOMER"));
        assert!(s.table("dbo.customer").is_ok());
        assert!(s.create_table(keyed_def("DBO.customer")).is_err());
        s.drop_table("dbo.CUSTOMER").unwrap();
        assert!(!s.has_table("dbo.customer"));
    }

    #[test]
    fn procs_crud() {
        let mut s = Store::new();
        s.create_proc("phoenix.p1", "SELECT 1").unwrap();
        assert_eq!(s.proc("PHOENIX.P1"), Some("SELECT 1"));
        assert!(s.create_proc("phoenix.p1", "x").is_err());
        s.drop_proc("phoenix.p1").unwrap();
        assert!(s.proc("phoenix.p1").is_none());
    }

    #[test]
    fn apply_replays_records() {
        let mut s = Store::new();
        s.apply([LogRecord::CreateTable {
            txn: 1,
            def: keyed_def("dbo.t"),
        }])
        .unwrap();
        s.apply([LogRecord::Insert {
            txn: 1,
            table: "dbo.t".into(),
            row_id: 1,
            row: vec![Value::Int(1), Value::Text("a".into())],
        }])
        .unwrap();
        s.apply([LogRecord::Update {
            txn: 1,
            table: "dbo.t".into(),
            row_id: 1,
            row: vec![Value::Int(1), Value::Text("b".into())],
        }])
        .unwrap();
        assert_eq!(
            *s.table("dbo.t").unwrap().rows[&1],
            vec![Value::Int(1), Value::Text("b".into())]
        );
        s.apply([LogRecord::Delete {
            txn: 1,
            table: "dbo.t".into(),
            row_id: 1,
        }])
        .unwrap();
        assert!(s.table("dbo.t").unwrap().is_empty());
    }

    #[test]
    fn apply_insert_many_assigns_consecutive_ids() {
        let mut s = Store::new();
        s.create_table(keyed_def("dbo.t")).unwrap();
        s.apply([LogRecord::InsertMany {
            txn: 1,
            table: "dbo.t".into(),
            first_row_id: 5,
            rows: vec![
                vec![Value::Int(1), Value::Null],
                vec![Value::Int(2), Value::Null],
            ],
        }])
        .unwrap();
        let t = s.table("dbo.t").unwrap();
        assert_eq!(*t.rows[&5], vec![Value::Int(1), Value::Null]);
        assert_eq!(*t.rows[&6], vec![Value::Int(2), Value::Null]);
        assert_eq!(t.next_row_id, 7);
    }

    /// The copy-on-write contract: a cloned store keeps showing the old
    /// image while the original mutates, and only the touched table's data
    /// is actually copied.
    #[test]
    fn clone_is_isolated_from_later_mutations() {
        let mut s = Store::new();
        s.create_table(keyed_def("dbo.a")).unwrap();
        s.create_table(keyed_def("dbo.b")).unwrap();
        s.table_mut("dbo.a")
            .unwrap()
            .insert(vec![Value::Int(1), Value::Null])
            .unwrap();

        let snap = s.clone();
        // Untouched table is shared, not copied.
        assert!(std::ptr::eq(
            s.table("dbo.b").unwrap(),
            snap.table("dbo.b").unwrap()
        ));

        s.table_mut("dbo.a")
            .unwrap()
            .insert(vec![Value::Int(2), Value::Null])
            .unwrap();
        s.drop_table("dbo.b").unwrap();

        assert_eq!(s.table("dbo.a").unwrap().len(), 2);
        assert_eq!(snap.table("dbo.a").unwrap().len(), 1);
        assert!(snap.has_table("dbo.b"));
    }

    /// `partition_of` is a pure function of the normalized name — pinned
    /// values keep what the benchmark reports about a partitioned server
    /// unchanged.
    #[test]
    fn partition_routing_is_deterministic_and_case_insensitive() {
        assert_eq!(partition_of("anything", 1), 0);
        for n in [2usize, 4, 8] {
            assert_eq!(partition_of("dbo.Acct", n), partition_of("DBO.ACCT", n));
            assert!(partition_of("dbo.acct", n) < n);
        }
        // FNV-1a pinned values (n = 2).
        assert_eq!(partition_of("dbo.acct", 2), 1);
        assert_eq!(partition_of("acct", 2), 0);
    }

    #[test]
    fn secondary_index_tracks_dml() {
        let mut t = TableData::new(keyed_def("dbo.c"));
        t.create_index("c_name", 1).unwrap();
        let a = t
            .insert(vec![Value::Int(1), Value::Text("x".into())])
            .unwrap();
        let b = t
            .insert(vec![Value::Int(2), Value::Text("x".into())])
            .unwrap();
        let c = t
            .insert(vec![Value::Int(3), Value::Text("y".into())])
            .unwrap();
        let ids = |t: &TableData, v: &str| -> Vec<RowId> {
            t.sec[0].get(&Value::Text(v.into())).collect()
        };
        assert_eq!(ids(&t, "x"), [a, b], "a non-unique value holds both rows");
        assert_eq!(t.sec[0].distinct(), 2);
        t.update(b, vec![Value::Int(2), Value::Text("y".into())])
            .unwrap();
        assert_eq!(ids(&t, "x"), [a]);
        assert_eq!(ids(&t, "y"), [b, c]);
        t.delete(a).unwrap();
        assert!(ids(&t, "x").is_empty());
        assert_eq!(t.sec[0].distinct(), 1, "a value no row holds is gone");
        t.verify_indexes().unwrap();
    }

    #[test]
    fn create_index_backfills_existing_rows() {
        let mut t = TableData::new(keyed_def("dbo.c"));
        t.insert(vec![Value::Int(1), Value::Text("a".into())])
            .unwrap();
        t.insert(vec![Value::Int(2), Value::Null]).unwrap();
        t.create_index("c_name", 1).unwrap();
        assert_eq!(t.sec[0].len(), 2);
        assert_eq!(t.sec[0].get(&Value::Null).count(), 1);
        t.verify_indexes().unwrap();
        assert!(matches!(
            t.create_index("C_NAME", 0),
            Err(StoreError::IndexExists(_))
        ));
        let dropped = t.drop_index("c_name").unwrap();
        assert_eq!(dropped.column, 1);
        assert!(t.sec.is_empty());
        assert!(matches!(
            t.drop_index("c_name"),
            Err(StoreError::NoSuchIndex(_))
        ));
    }

    #[test]
    fn apply_replays_index_ddl() {
        let mut s = Store::new();
        s.create_table(keyed_def("dbo.t")).unwrap();
        s.apply([LogRecord::Insert {
            txn: 1,
            table: "dbo.t".into(),
            row_id: 1,
            row: vec![Value::Int(1), Value::Text("a".into())],
        }])
        .unwrap();
        s.apply([LogRecord::CreateIndex {
            txn: 2,
            table: "dbo.t".into(),
            name: "t_name".into(),
            column: 1,
        }])
        .unwrap();
        // DML after the barrier maintains the recovered index.
        s.apply([LogRecord::Insert {
            txn: 3,
            table: "dbo.t".into(),
            row_id: 2,
            row: vec![Value::Int(2), Value::Text("b".into())],
        }])
        .unwrap();
        let t = s.table("dbo.t").unwrap();
        assert_eq!(t.sec[0].len(), 2);
        s.verify_indexes().unwrap();
        assert!(s.find_index_owner("T_NAME").is_some());
        s.apply([LogRecord::DropIndex {
            txn: 4,
            table: "dbo.t".into(),
            name: "t_name".into(),
        }])
        .unwrap();
        assert!(s.find_index_owner("t_name").is_none());
    }

    /// A one-column key is held inline: a `Key` costs what a `Value` does.
    #[test]
    fn a_key_is_the_size_of_a_value() {
        assert_eq!(std::mem::size_of::<Key>(), std::mem::size_of::<Value>());
        assert_eq!(std::mem::size_of::<Value>(), 24);
    }

    /// An `InsertMany` into an empty table builds it in one pass; the same
    /// rows inserted one at a time, as into a table that holds rows, give
    /// the same rows, key index, secondary indexes and next id, and a
    /// duplicate key, a row of the wrong width or an id past the last is
    /// refused by both with the same error.
    #[test]
    fn a_bulk_insert_into_an_empty_table_equals_one_row_at_a_time() {
        let wide = || {
            let mut def = TableDef::new(
                "dbo.w",
                Schema::new(vec![
                    Column::new("a", DataType::Int).not_null(),
                    Column::new("b", DataType::Text),
                    Column::new("c", DataType::Int),
                ]),
            )
            .with_primary_key(vec![1, 0]);
            def.indexes.push(IndexDef {
                name: "w_c".into(),
                column: 2,
            });
            def
        };
        let keyless = || TableDef::new("dbo.k", Schema::new(vec![Column::new("v", DataType::Int)]));
        let row = |i: i64| {
            vec![
                Value::Int(i % 7),
                Value::Text(format!("t{}", i % 5)),
                if i % 4 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 3)
                },
            ]
        };
        let state = |t: &TableData| {
            let sec: Vec<_> = t
                .sec
                .iter()
                .map(|ix| (ix.entries.iter().cloned().collect::<Vec<_>>(), ix.distinct))
                .collect();
            let rows: Vec<_> = t.rows.iter().map(|(id, r)| (*id, r.clone())).collect();
            let pk: Vec<_> = t.pk_index.iter().map(|(k, id)| (k.to_vec(), *id)).collect();
            format!("{rows:?} {pk:?} {sec:?} {}", t.next_row_id)
        };
        let cases: Vec<(TableDef, RowId, RowId, Vec<Row>)> = vec![
            (wide(), 1, 1, (0..35).map(row).collect()),
            (wide(), 9, 3, (0..35).rev().map(row).collect()),
            (wide(), 40, 7, vec![row(1)]),
            (
                keyless(),
                1,
                5,
                (0..50).map(|i| vec![Value::Int(i % 3)]).collect(),
            ),
            // A duplicate key, a row one column short, ids past the last.
            (wide(), 1, 1, vec![row(0), row(1), row(35)]),
            (wide(), 1, 1, vec![row(0), vec![Value::Int(9)], row(1)]),
            (wide(), 1, RowId::MAX - 2, (0..3).map(row).collect()),
            (wide(), 1, 1, Vec::new()),
        ];
        let mut refused = Vec::new();
        for (def, next_row_id, first_row_id, rows) in cases {
            let what = format!("{} rows from {first_row_id} into {}", rows.len(), def.name);
            let mut one_by_one = TableData::new(def.clone());
            one_by_one.next_row_id = next_row_id;
            let by_row = (0..).zip(rows.clone()).try_for_each(|(k, row)| {
                one_by_one.insert_with_id(first_row_id.saturating_add(k), row)
            });
            let mut bulk = TableData::new(def);
            bulk.next_row_id = next_row_id;
            let at_once = bulk.apply_row(LogRecord::InsertMany {
                txn: 1,
                table: bulk.def.name.clone(),
                first_row_id,
                rows,
            });
            assert_eq!(at_once, by_row, "{what}");
            match at_once {
                Ok(()) => {
                    assert_eq!(state(&bulk), state(&one_by_one), "{what}");
                    bulk.verify_indexes().unwrap();
                }
                Err(e) => refused.push(e),
            }
        }
        assert!(
            matches!(
                &refused[..],
                [
                    StoreError::DuplicateKey(_),
                    StoreError::ArityMismatch { .. },
                    StoreError::RowIdOutOfRange { .. }
                ]
            ),
            "{refused:?}"
        );
    }

    #[test]
    fn recovery_reproduces_row_ids() {
        let mut t = TableData::new(keyed_def("dbo.t"));
        t.insert_with_id(7, vec![Value::Int(1), Value::Null])
            .unwrap();
        // next insert must not collide with the recovered id
        let id = t.insert(vec![Value::Int(2), Value::Null]).unwrap();
        assert_eq!(id, 8);
    }
}
