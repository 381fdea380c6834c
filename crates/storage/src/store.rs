//! The in-memory materialized image of the durable state.
//!
//! A [`Store`] holds tables (rows addressed by stable [`RowId`]), optional
//! primary-key indexes, and stored-procedure text. It is deliberately free of
//! transaction logic: [`crate::db::Durable`] layers logging/undo on top, and
//! crash recovery rebuilds a `Store` by applying committed log records to a
//! snapshot image. The engine also uses a bare `Store` for *volatile* state
//! (session temp tables), which is exactly the state that must die in a
//! crash.
//!
//! Tables are held behind per-table [`Arc`]s and built from persistent maps
//! ([`crate::pmap`]), making the store *copy-on-write at tree-node
//! granularity*: cloning a `Store` shares every table, cloning a table
//! shares every node, and a write through [`Store::table_mut`] copies only
//! the nodes on the path to the rows it touches that a clone still shares.
//! The per-table `Arc` remains the unit of *change detection* (a table
//! nobody wrote keeps its pointer). [`StoreSnapshot`] packages the property
//! as an immutable published image readers execute against with no lock
//! held.
//!
//! A table recovered from a checkpoint starts *on disk*: its slot names the
//! snapshot segment holding it, and the first [`Store::table`] /
//! [`Store::table_mut`] that touches it reads the file. Every clone of the
//! slot shares one once-cell, so a segment is read at most once however many
//! store images hold it.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

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
    /// The table exists, but the snapshot segment holding its rows could not
    /// be read back (missing, truncated, checksum or decode failure).
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
/// path to the rows it touches — including inside an index bucket, which
/// for a low-cardinality column holds a large share of the table's row ids.
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
    pub rows: PMap<RowId, Row>,
    /// Primary-key index; empty map when no key is declared.
    pub pk_index: PMap<Vec<Value>, RowId>,
    /// Secondary indexes, parallel to `def.indexes`: indexed-column value →
    /// ids of the rows holding it. Non-unique, so the payload is a set.
    pub sec: Vec<SecIndex>,
    /// Next row id to assign (never reused).
    pub next_row_id: RowId,
}

/// One secondary index: indexed-column value → the ids of the rows holding
/// it.
pub type SecIndex = PMap<Value, PSet<RowId>>;

/// Add `row_id` to index `ix` under `value`.
fn index_add(ix: &mut SecIndex, value: &Value, row_id: RowId) {
    match ix.get_mut(value) {
        Some(ids) => {
            ids.insert(row_id);
        }
        None => {
            ix.insert(value.clone(), PSet::from_sorted([row_id]));
        }
    }
}

/// Remove `row_id` from index `ix` under `value`, pruning an empty bucket.
fn index_remove(ix: &mut SecIndex, value: &Value, row_id: RowId) {
    if let Some(ids) = ix.get_mut(value) {
        ids.remove(&row_id);
        if ids.is_empty() {
            ix.remove(value);
        }
    }
}

/// Build one index over `rows` (ascending by id) in a single pass: sort the
/// `(value, id)` pairs once, then fill buckets and index bottom-up.
fn build_index<'a>(rows: impl Iterator<Item = (RowId, &'a Row)>, column: usize) -> SecIndex {
    let mut pairs: Vec<(&Value, RowId)> = rows.map(|(id, row)| (&row[column], id)).collect();
    // Stable, so ids stay ascending inside each bucket.
    pairs.sort_by(|a, b| a.0.cmp(b.0));
    PMap::from_sorted(pairs.chunk_by(|a, b| a.0 == b.0).map(|bucket| {
        let ids = PSet::from_sorted(bucket.iter().map(|&(_, id)| id));
        (bucket[0].0.clone(), ids)
    }))
}

impl TableData {
    /// An empty table with the given definition.
    pub fn new(def: TableDef) -> TableData {
        let sec = vec![PMap::new(); def.indexes.len()];
        TableData {
            def: Arc::new(def),
            rows: PMap::new(),
            pk_index: PMap::new(),
            sec,
            next_row_id: 1,
        }
    }

    /// A table holding `rows`, which must be in strictly ascending id order
    /// (how a snapshot segment stores them): every map is bulk-built, so a
    /// load costs one sort per index instead of a tree descent per row.
    /// `next_row_id` is raised past the largest id if it is not already.
    pub(crate) fn from_rows(
        def: TableDef,
        next_row_id: RowId,
        rows: Vec<(RowId, Row)>,
    ) -> Result<TableData, StoreError> {
        let mut data = TableData::new(def);
        for (_, row) in &rows {
            data.check_arity(row)?;
        }
        if data.def.has_primary_key() {
            let mut keys: Vec<(Vec<Value>, RowId)> = rows
                .iter()
                .map(|(id, row)| (data.def.key_of(row), *id))
                .collect();
            keys.sort();
            if keys.windows(2).any(|w| w[0].0 == w[1].0) {
                return Err(StoreError::DuplicateKey(data.def.name.clone()));
            }
            data.pk_index = PMap::from_sorted(keys);
        }
        for (k, ix) in data.def.indexes.iter().enumerate() {
            data.sec[k] = build_index(rows.iter().map(|(id, row)| (*id, row)), ix.column);
        }
        data.next_row_id = next_row_id.max(rows.last().map_or(1, |(id, _)| id + 1));
        data.rows = PMap::from_sorted(rows);
        Ok(data)
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

    fn check_arity(&self, row: &Row) -> Result<(), StoreError> {
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

    fn no_such_row(&self, row_id: RowId) -> StoreError {
        StoreError::NoSuchRow {
            table: self.def.name.clone(),
            row_id,
        }
    }

    /// Insert with a specific row id (used by recovery and undo).
    pub fn insert_with_id(&mut self, row_id: RowId, row: Row) -> Result<(), StoreError> {
        self.check_arity(&row)?;
        if self.def.has_primary_key() {
            let key = self.def.key_of(&row);
            if self.pk_index.contains_key(&key) {
                return Err(StoreError::DuplicateKey(self.def.name.clone()));
            }
            self.pk_index.insert(key, row_id);
        }
        for (ix, def) in self.sec.iter_mut().zip(&self.def.indexes) {
            index_add(ix, &row[def.column], row_id);
        }
        self.rows.insert(row_id, row);
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
            self.pk_index.remove(&self.def.key_of(&row));
        }
        for (ix, def) in self.sec.iter_mut().zip(&self.def.indexes) {
            index_remove(ix, &row[def.column], row_id);
        }
        Ok(row)
    }

    /// Apply one committed DML log record addressed to this table. Catalog
    /// records (create/drop) never reach here; transaction markers are
    /// no-ops.
    pub(crate) fn apply_dml(&mut self, rec: &LogRecord) -> Result<(), StoreError> {
        match rec {
            LogRecord::Insert { row_id, row, .. } => self.insert_with_id(*row_id, row.clone()),
            LogRecord::InsertMany {
                first_row_id, rows, ..
            } => {
                for (k, row) in rows.iter().enumerate() {
                    self.insert_with_id(first_row_id + k as RowId, row.clone())?;
                }
                Ok(())
            }
            LogRecord::Delete { row_id, .. } => self.delete(*row_id).map(|_| ()),
            LogRecord::Update { row_id, row, .. } => self.update(*row_id, row.clone()).map(|_| ()),
            _ => Ok(()),
        }
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
                if self.pk_index.contains_key(&new_key) {
                    return Err(StoreError::DuplicateKey(self.def.name.clone()));
                }
                self.pk_index.remove(&old_key);
                self.pk_index.insert(new_key, row_id);
            }
        }
        for (ix, def) in self.sec.iter_mut().zip(&self.def.indexes) {
            let (was, is) = (&old[def.column], &new_row[def.column]);
            if was != is {
                index_remove(ix, was, row_id);
                index_add(ix, is, row_id);
            }
        }
        Ok(self
            .rows
            .insert(row_id, new_row)
            .expect("row looked up above"))
    }

    /// Create a secondary index over one column, backfilling it from the
    /// current rows. Errors if the name is already taken on this table.
    pub fn create_index(&mut self, name: &str, column: usize) -> Result<(), StoreError> {
        if self.def.index_pos(name).is_some() {
            return Err(StoreError::IndexExists(name.to_string()));
        }
        self.sec.push(build_index(
            self.rows.iter().map(|(id, row)| (*id, row)),
            column,
        ));
        Arc::make_mut(&mut self.def).indexes.push(IndexDef {
            name: name.to_string(),
            column,
        });
        Ok(())
    }

    /// Drop a secondary index by name, returning its definition (so undo
    /// can recreate it).
    pub fn drop_index(&mut self, name: &str) -> Result<IndexDef, StoreError> {
        let pos = self
            .def
            .index_pos(name)
            .ok_or_else(|| StoreError::NoSuchIndex(name.to_string()))?;
        self.sec.remove(pos);
        Ok(Arc::make_mut(&mut self.def).indexes.remove(pos))
    }

    /// The secondary-index map for `def.indexes[pos]`.
    pub fn sec_index(&self, pos: usize) -> &SecIndex {
        &self.sec[pos]
    }

    /// Cross-check every secondary index against the row image: each row
    /// must appear under exactly its column value, and every indexed id
    /// must reference a live row. Used by chaos sweeps after recovery. The
    /// expectation is built in `std` collections, so it shares no code with
    /// the maps it audits.
    pub fn verify_indexes(&self) -> Result<(), String> {
        for (k, ix) in self.def.indexes.iter().enumerate() {
            let mut expect: BTreeMap<&Value, BTreeSet<RowId>> = BTreeMap::new();
            for (&row_id, row) in &self.rows {
                expect.entry(&row[ix.column]).or_default().insert(row_id);
            }
            let same = self.sec[k].len() == expect.len()
                && self.sec[k]
                    .iter()
                    .zip(&expect)
                    .all(|((v, ids), (ev, eids))| v == *ev && ids.iter().eq(eids));
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

/// A checkpointed table whose rows are still in its snapshot segment.
///
/// One `Segment` is shared (behind an [`Arc`]) by every store image that
/// holds the table — the working store, the published snapshots, readers'
/// captures, the checkpoint's identity map — and its once-cell is the
/// *load-once invariant*: whichever of them touches the table first reads,
/// checksums and decodes the file, every other sees that result, and a
/// failure is as sticky as a success.
#[derive(Debug)]
pub(crate) struct Segment {
    /// Canonical table name, from the manifest.
    pub(crate) name: String,
    path: PathBuf,
    /// Size of the file when the manifest was loaded.
    pub(crate) bytes: u64,
    cell: OnceLock<(Result<Arc<TableData>, String>, Duration)>,
}

impl Segment {
    pub(crate) fn new(name: String, path: PathBuf, bytes: u64) -> Segment {
        Segment {
            name,
            path,
            bytes,
            cell: OnceLock::new(),
        }
    }

    /// The table, reading the segment file if nobody has yet; the outcome
    /// stays in the cell for whoever touches the table next.
    pub(crate) fn load(&self) -> Result<&Arc<TableData>, StoreError> {
        let (loaded, _) = self.cell.get_or_init(|| {
            let start = Instant::now();
            let loaded = crate::snapshot::load_segment(&self.path)
                .map(Arc::new)
                .map_err(|e| e.to_string());
            (loaded, start.elapsed())
        });
        loaded.as_ref().map_err(|reason| StoreError::Segment {
            table: self.name.clone(),
            file: self.path.display().to_string(),
            reason: reason.clone(),
        })
    }

    /// `Some` once the file has been read: how long that took, and the
    /// error if it failed.
    pub(crate) fn loaded(&self) -> Option<(Duration, Option<StoreError>)> {
        self.cell.get().map(|(_, took)| (*took, self.load().err()))
    }
}

/// One table's place in a [`Store`].
#[derive(Debug, Clone)]
pub(crate) enum Slot {
    /// In memory. The `Arc` pointer is the change detector.
    Loaded(Arc<TableData>),
    /// In the snapshot segment a checkpoint wrote, unchanged since.
    /// [`Store::table_mut`] turns the slot into `Loaded` before handing out
    /// a mutable reference, so an `OnDisk` slot is by construction
    /// bit-identical to its file.
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
/// Each table sits behind its own [`Arc`], so `Clone` is shallow — clones
/// share all row data until one of them mutates a table, at which point
/// only the touched tree nodes of that table are copied.
#[derive(Debug, Clone, Default)]
pub struct Store {
    tables: HashMap<String, Slot>,
    procs: HashMap<String, String>,
}

/// Normalize a table/procedure name for lookup.
pub fn normalize_name(name: &str) -> String {
    name.to_ascii_lowercase()
}

/// Map a table/procedure name to its partition index under an `n`-way
/// partitioned store. FNV-1a over the *normalized* name: deterministic
/// across processes and hosts, which matters because partition routing is
/// baked into on-disk WAL streams (commit participant sets name partition
/// indexes, and recovery re-routes tables by re-hashing).
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
        if self.tables.contains_key(&key) {
            return Err(StoreError::TableExists(def.name));
        }
        self.tables
            .insert(key, Slot::Loaded(Arc::new(TableData::new(def))));
        Ok(())
    }

    /// Install a fully populated table, replacing any table of that name.
    pub fn install_table(&mut self, data: TableData) {
        self.tables
            .insert(normalize_name(&data.def.name), Slot::Loaded(Arc::new(data)));
    }

    /// Install a checkpointed table that stays in its segment file until
    /// something touches it (snapshot load).
    pub(crate) fn install_segment(&mut self, seg: Arc<Segment>) {
        self.tables
            .insert(normalize_name(&seg.name), Slot::OnDisk(seg));
    }

    /// Remove a table, returning its data (an O(1) clone if a snapshot
    /// still shares it). A table still on disk is loaded first — the caller
    /// gets what it would need to put the table back — and stays in the
    /// store if that fails.
    pub fn drop_table(&mut self, name: &str) -> Result<TableData, StoreError> {
        let key = normalize_name(name);
        let data = Arc::clone(self.slot(name)?.load()?);
        self.tables.remove(&key);
        Ok(Arc::try_unwrap(data).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// The slot behind a table: what [`Slot::same`] compares.
    pub(crate) fn slot(&self, name: &str) -> Result<&Slot, StoreError> {
        self.tables
            .get(&normalize_name(name))
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
            .get_mut(&normalize_name(name))
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
        self.tables.contains_key(&normalize_name(name))
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
        if self.procs.contains_key(&key) {
            return Err(StoreError::ProcExists(name.to_string()));
        }
        self.procs.insert(key, sql.to_string());
        Ok(())
    }

    /// Remove a stored procedure, returning its SQL text.
    pub fn drop_proc(&mut self, name: &str) -> Result<String, StoreError> {
        self.procs
            .remove(&normalize_name(name))
            .ok_or_else(|| StoreError::NoSuchProc(name.to_string()))
    }

    /// Look a procedure's SQL text up by name.
    pub fn proc(&self, name: &str) -> Option<&str> {
        self.procs.get(&normalize_name(name)).map(String::as_str)
    }

    /// Does a procedure with this name exist?
    pub fn has_proc(&self, name: &str) -> bool {
        self.procs.contains_key(&normalize_name(name))
    }

    /// Names of all procedures, sorted.
    pub fn proc_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.procs.keys().cloned().collect();
        names.sort();
        names
    }

    /// Iterate `(name, sql)` over all procedures.
    pub fn procs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.procs.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Absorb every table and procedure of `other` by shallow `Arc` clone —
    /// the stitch step a partitioned checkpoint uses to build one global
    /// image out of disjoint shards. Keys never collide because each table
    /// lives in exactly one partition.
    pub(crate) fn merge_from(&mut self, other: &Store) {
        for (key, slot) in &other.tables {
            self.tables.insert(key.clone(), slot.clone());
        }
        for (key, sql) in &other.procs {
            self.procs.insert(key.clone(), sql.clone());
        }
    }

    /// Split this store into `n` disjoint shards by [`partition_of`] on the
    /// normalized name — the inverse of [`Store::merge_from`], used once at
    /// the end of recovery to seed the per-partition working stores.
    pub(crate) fn into_parts(self, n: usize) -> Vec<Store> {
        let mut parts: Vec<Store> = (0..n.max(1)).map(|_| Store::new()).collect();
        for (key, slot) in self.tables {
            let k = partition_of(&key, n);
            parts[k].tables.insert(key, slot);
        }
        for (key, sql) in self.procs {
            let k = partition_of(&key, n);
            parts[k].procs.insert(key, sql);
        }
        parts
    }

    /// Apply one committed log record during recovery.
    ///
    /// Recovery applies records in log order, so every operation is valid
    /// against the state produced by its predecessors; any failure here means
    /// the log and snapshot disagree, which is a corruption bug worth
    /// surfacing loudly.
    pub fn apply(&mut self, rec: &LogRecord) -> Result<(), StoreError> {
        match rec {
            LogRecord::Begin { .. }
            | LogRecord::Commit { .. }
            | LogRecord::CommitMulti { .. }
            | LogRecord::Abort { .. } => Ok(()),
            LogRecord::Insert { table, .. }
            | LogRecord::InsertMany { table, .. }
            | LogRecord::Delete { table, .. }
            | LogRecord::Update { table, .. } => self.table_mut(table)?.apply_dml(rec),
            LogRecord::CreateTable { def, .. } => self.create_table(def.clone()),
            // Not `drop_table`: replay has no use for the rows, so a table
            // still on disk goes without its segment being read.
            LogRecord::DropTable { name, .. } => self
                .tables
                .remove(&normalize_name(name))
                .map(|_| ())
                .ok_or_else(|| StoreError::NoSuchTable(name.clone())),
            LogRecord::CreateProc { name, sql, .. } => self.create_proc(name, sql),
            LogRecord::DropProc { name, .. } => self.drop_proc(name).map(|_| ()),
            LogRecord::CreateIndex {
                table,
                name,
                column,
                ..
            } => self.table_mut(table)?.create_index(name, *column),
            LogRecord::DropIndex { table, name, .. } => {
                self.table_mut(table)?.drop_index(name).map(|_| ())
            }
        }
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

/// An immutable image of the whole store, stitched from one published epoch
/// per write partition.
///
/// Readers obtain one from the durability layer — O(partitions) `Arc`
/// clones, no matter how large the database is — and then execute whole
/// queries, scans and cursor fetches against it with **no lock held**.
/// Writers never wait for readers and readers never wait for writers; a
/// snapshot simply keeps showing each partition's state as of its epoch.
/// Name lookups route to the owning shard with the same [`partition_of`]
/// hash the write path uses.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    parts: Vec<Arc<Store>>,
}

impl Default for StoreSnapshot {
    fn default() -> StoreSnapshot {
        StoreSnapshot {
            parts: vec![Arc::new(Store::new())],
        }
    }
}

impl StoreSnapshot {
    /// Capture the current state of `store` as a single-partition snapshot.
    /// Shallow: the per-table `Arc`s are cloned, all row data is shared
    /// until a later writer touches it.
    pub fn capture(store: &Store) -> StoreSnapshot {
        StoreSnapshot {
            parts: vec![Arc::new(store.clone())],
        }
    }

    /// Stitch per-partition published epochs into one snapshot. The slot
    /// order must match the write path's [`partition_of`] routing.
    pub(crate) fn from_parts(parts: Vec<Arc<Store>>) -> StoreSnapshot {
        debug_assert!(!parts.is_empty());
        StoreSnapshot { parts }
    }

    /// The shard that owns `name` under this snapshot's partition count.
    fn shard(&self, name: &str) -> &Store {
        &self.parts[partition_of(name, self.parts.len())]
    }

    /// Look a table up by (case-insensitive) name.
    pub fn table(&self, name: &str) -> Result<&TableData, StoreError> {
        self.shard(name).table(name)
    }

    /// Does a table with this name exist?
    pub fn has_table(&self, name: &str) -> bool {
        self.shard(name).has_table(name)
    }

    /// Names of all tables across every shard, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.parts.iter().flat_map(|p| p.table_names()).collect();
        names.sort();
        names
    }

    /// Look a procedure's SQL text up by name.
    pub fn proc(&self, name: &str) -> Option<&str> {
        self.shard(name).proc(name)
    }

    /// Does a procedure with this name exist?
    pub fn has_proc(&self, name: &str) -> bool {
        self.shard(name).has_proc(name)
    }

    /// Names of all procedures across every shard, sorted.
    pub fn proc_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.parts.iter().flat_map(|p| p.proc_names()).collect();
        names.sort();
        names
    }

    /// The table owning an index with this (case-insensitive) name, if any.
    /// Index names are not partition-routable, so this searches every shard.
    pub fn find_index_owner(&self, index_name: &str) -> Option<&TableData> {
        self.parts
            .iter()
            .find_map(|p| p.find_index_owner(index_name))
    }

    /// Verify every secondary index in every table against its row image.
    pub fn verify_indexes(&self) -> Result<(), String> {
        for p in &self.parts {
            p.verify_indexes()?;
        }
        Ok(())
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
        s.apply(&LogRecord::CreateTable {
            txn: 1,
            def: keyed_def("dbo.t"),
        })
        .unwrap();
        s.apply(&LogRecord::Insert {
            txn: 1,
            table: "dbo.t".into(),
            row_id: 1,
            row: vec![Value::Int(1), Value::Text("a".into())],
        })
        .unwrap();
        s.apply(&LogRecord::Update {
            txn: 1,
            table: "dbo.t".into(),
            row_id: 1,
            row: vec![Value::Int(1), Value::Text("b".into())],
        })
        .unwrap();
        assert_eq!(
            s.table("dbo.t").unwrap().rows[&1],
            vec![Value::Int(1), Value::Text("b".into())]
        );
        s.apply(&LogRecord::Delete {
            txn: 1,
            table: "dbo.t".into(),
            row_id: 1,
        })
        .unwrap();
        assert!(s.table("dbo.t").unwrap().is_empty());
    }

    #[test]
    fn apply_insert_many_assigns_consecutive_ids() {
        let mut s = Store::new();
        s.create_table(keyed_def("dbo.t")).unwrap();
        s.apply(&LogRecord::InsertMany {
            txn: 1,
            table: "dbo.t".into(),
            first_row_id: 5,
            rows: vec![
                vec![Value::Int(1), Value::Null],
                vec![Value::Int(2), Value::Null],
            ],
        })
        .unwrap();
        let t = s.table("dbo.t").unwrap();
        assert_eq!(t.rows[&5], vec![Value::Int(1), Value::Null]);
        assert_eq!(t.rows[&6], vec![Value::Int(2), Value::Null]);
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

        let snap = StoreSnapshot::capture(&s);
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

    /// Partition routing is a pure function of the normalized name — pinned
    /// values guard against accidental hash changes, which would strand
    /// tables in the wrong WAL stream across an upgrade.
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
    fn split_and_merge_roundtrip() {
        let mut s = Store::new();
        for name in ["dbo.a", "dbo.b", "dbo.c", "dbo.d"] {
            s.create_table(keyed_def(name)).unwrap();
        }
        s.create_proc("p1", "SELECT 1").unwrap();
        s.create_proc("p2", "SELECT 2").unwrap();
        let parts = s.clone().into_parts(4);
        assert_eq!(parts.len(), 4);
        let mut merged = Store::new();
        for p in &parts {
            merged.merge_from(p);
        }
        assert_eq!(merged.table_names(), s.table_names());
        assert_eq!(merged.proc_names(), s.proc_names());
        // Every table landed in the shard its name hashes to.
        for (k, p) in parts.iter().enumerate() {
            for t in p.tables() {
                assert_eq!(partition_of(&t.def.name, 4), k);
            }
        }
    }

    #[test]
    fn multi_part_snapshot_routes_lookups() {
        let mut s = Store::new();
        for name in ["dbo.a", "dbo.b", "dbo.c", "dbo.d"] {
            s.create_table(keyed_def(name)).unwrap();
        }
        s.create_proc("phoenix.p", "SELECT 1").unwrap();
        let parts: Vec<Arc<Store>> = s.clone().into_parts(4).into_iter().map(Arc::new).collect();
        let snap = StoreSnapshot::from_parts(parts);
        for name in ["dbo.a", "dbo.b", "dbo.c", "dbo.d"] {
            assert!(snap.has_table(name), "{name} must resolve through routing");
            assert!(snap.table(name).is_ok());
        }
        assert_eq!(snap.proc("PHOENIX.P"), Some("SELECT 1"));
        assert!(!snap.has_table("dbo.nope"));
        assert_eq!(snap.table_names().len(), 4);
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
        let bucket = |t: &TableData, v: &str| -> Vec<RowId> {
            t.sec_index(0)[&Value::Text(v.into())]
                .iter()
                .copied()
                .collect()
        };
        assert_eq!(bucket(&t, "x"), [a, b], "non-unique bucket holds both rows");
        t.update(b, vec![Value::Int(2), Value::Text("y".into())])
            .unwrap();
        assert_eq!(bucket(&t, "x"), [a]);
        assert_eq!(bucket(&t, "y"), [b, c]);
        t.delete(a).unwrap();
        assert!(
            !t.sec_index(0).contains_key(&Value::Text("x".into())),
            "empty buckets are pruned"
        );
        t.verify_indexes().unwrap();
    }

    #[test]
    fn create_index_backfills_existing_rows() {
        let mut t = TableData::new(keyed_def("dbo.c"));
        t.insert(vec![Value::Int(1), Value::Text("a".into())])
            .unwrap();
        t.insert(vec![Value::Int(2), Value::Null]).unwrap();
        t.create_index("c_name", 1).unwrap();
        assert_eq!(t.sec_index(0).len(), 2);
        assert!(t.sec_index(0).contains_key(&Value::Null));
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
        s.apply(&LogRecord::Insert {
            txn: 1,
            table: "dbo.t".into(),
            row_id: 1,
            row: vec![Value::Int(1), Value::Text("a".into())],
        })
        .unwrap();
        s.apply(&LogRecord::CreateIndex {
            txn: 2,
            table: "dbo.t".into(),
            name: "t_name".into(),
            column: 1,
        })
        .unwrap();
        // DML after the barrier maintains the recovered index.
        s.apply(&LogRecord::Insert {
            txn: 3,
            table: "dbo.t".into(),
            row_id: 2,
            row: vec![Value::Int(2), Value::Text("b".into())],
        })
        .unwrap();
        let t = s.table("dbo.t").unwrap();
        assert_eq!(t.sec_index(0).len(), 2);
        s.verify_indexes().unwrap();
        assert!(s.find_index_owner("T_NAME").is_some());
        s.apply(&LogRecord::DropIndex {
            txn: 4,
            table: "dbo.t".into(),
            name: "t_name".into(),
        })
        .unwrap();
        assert!(s.find_index_owner("t_name").is_none());
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
