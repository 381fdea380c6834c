//! Property tests of the durability substrate:
//!
//! 1. The binary codec round-trips every value/row/schema.
//! 2. **Crash-recovery equivalence**: for any interleaving of committed and
//!    uncommitted transactions over the durable layer, reopening after a
//!    simulated crash (drop without checkpoint, plus optional torn tail)
//!    reconstructs exactly the committed state — the invariant everything
//!    above (the engine, Phoenix, the paper's whole design) stands on.
//! 3. **One applier, any schedule**: a random log history — commits,
//!    aborts, failed commits, the undecided tail, GSN holes, DDL, a rotated
//!    log beside the live one — recovers to the same image whether the applier reads it all at once
//!    (cold open) or is loaded from a prefix and fed the rest frame by
//!    frame (standby, then promotion).
//!
//! The offline build environment has no `proptest` crate, so 1 and 2 are
//! compiled only when the `slow-proptests` feature is enabled (which
//! requires supplying a real proptest dependency); 3 draws its cases from a
//! seeded generator and always runs — a failure prints its seed, and the
//! seed reproduces it.

#[cfg(feature = "slow-proptests")]
use proptest::prelude::*;

use phoenix_storage::applier::{frame_payload, Applier};
#[cfg(feature = "slow-proptests")]
use phoenix_storage::codec;
use phoenix_storage::db::{Durability, Durable};
use phoenix_storage::record::LogRecord;
use phoenix_storage::store::Store;
use phoenix_storage::types::{Column, DataType, Row, RowId, Schema, TableDef, Value};
use phoenix_storage::wal::Wal;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("phoenix-storage-prop-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[cfg(feature = "slow-proptests")]
fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<f64>()
            .prop_filter("no NaN (PartialEq)", |f| !f.is_nan())
            .prop_map(Value::Float),
        "[ -~]{0,20}".prop_map(Value::Text),
        any::<bool>().prop_map(Value::Bool),
        any::<i32>().prop_map(Value::Date),
    ]
}

#[cfg(feature = "slow-proptests")]
fn row() -> impl Strategy<Value = Row> {
    prop::collection::vec(value(), 0..6)
}

#[cfg(feature = "slow-proptests")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn value_codec_roundtrip(v in value()) {
        let mut buf = bytes::BytesMut::new();
        codec::put_value(&mut buf, &v);
        let mut b = buf.freeze();
        prop_assert_eq!(codec::get_value(&mut b).unwrap(), v);
        prop_assert_eq!(bytes::Buf::remaining(&b), 0);
    }

    #[test]
    fn row_codec_roundtrip(r in row()) {
        let mut buf = bytes::BytesMut::new();
        codec::put_row(&mut buf, &r);
        let mut b = buf.freeze();
        prop_assert_eq!(codec::get_row(&mut b).unwrap(), r);
    }

    #[test]
    fn codec_rejects_arbitrary_garbage(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        // Must never panic; may legitimately decode if the bytes happen to
        // be valid.
        let mut b = bytes::Bytes::from(bytes);
        let _ = codec::get_value(&mut b);
    }
}

/// Abstract op in a transaction script.
#[cfg(feature = "slow-proptests")]
#[derive(Debug, Clone)]
enum Op {
    Insert(i64),
    /// Delete the `k % live`-th live row.
    Delete(usize),
    /// Update the `k % live`-th live row to a new value.
    Update(usize, i64),
}

#[cfg(feature = "slow-proptests")]
fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<i64>().prop_map(Op::Insert),
        any::<usize>().prop_map(Op::Delete),
        (any::<usize>(), any::<i64>()).prop_map(|(k, v)| Op::Update(k, v)),
    ]
}

#[cfg(feature = "slow-proptests")]
#[derive(Debug, Clone)]
struct TxnScript {
    ops: Vec<Op>,
    commit: bool,
}

#[cfg(feature = "slow-proptests")]
fn txn_script() -> impl Strategy<Value = TxnScript> {
    (prop::collection::vec(op(), 0..8), any::<bool>())
        .prop_map(|(ops, commit)| TxnScript { ops, commit })
}

#[cfg(feature = "slow-proptests")]
fn table_def() -> TableDef {
    TableDef::new("dbo.t", Schema::new(vec![Column::new("v", DataType::Int)]))
}

#[cfg(feature = "slow-proptests")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Apply a random sequence of transactions (some committed, some
    /// aborted, the final one possibly left in flight), "crash" by dropping
    /// the handle, reopen, and compare against a pure in-memory model that
    /// saw only the committed transactions.
    #[test]
    fn recovery_reconstructs_exactly_committed_state(
        scripts in prop::collection::vec(txn_script(), 1..8),
        leave_last_open in any::<bool>(),
        checkpoint_after in prop::option::of(0usize..8),
    ) {
        let dir = temp_dir();
        let mut model: Vec<(u64, i64)> = Vec::new(); // (row_id, value)
        {
            let mut db = Durable::open(&dir, Durability::Fsync).unwrap();
            let t0 = db.begin().unwrap();
            db.create_table(t0, table_def()).unwrap();
            db.commit(t0).unwrap();

            for (si, script) in scripts.iter().enumerate() {
                let txn = db.begin().unwrap();
                let mut scratch = model.clone();
                let mut ok = true;
                for op in &script.ops {
                    match op {
                        Op::Insert(v) => {
                            let rid = db.insert(txn, "dbo.t", vec![Value::Int(*v)]).unwrap();
                            scratch.push((rid, *v));
                        }
                        Op::Delete(k) => {
                            if scratch.is_empty() { continue; }
                            let idx = k % scratch.len();
                            let (rid, _) = scratch.remove(idx);
                            db.delete(txn, "dbo.t", rid).unwrap();
                        }
                        Op::Update(k, v) => {
                            if scratch.is_empty() { continue; }
                            let idx = k % scratch.len();
                            let rid = scratch[idx].0;
                            db.update(txn, "dbo.t", rid, vec![Value::Int(*v)]).unwrap();
                            scratch[idx].1 = *v;
                        }
                    }
                }
                let last = si == scripts.len() - 1;
                if last && leave_last_open {
                    // Crash with this transaction in flight: its effects
                    // must not survive.
                    ok = false;
                } else if script.commit {
                    db.commit(txn).unwrap();
                } else {
                    db.abort(txn).unwrap();
                    ok = false;
                }
                if ok && script.commit {
                    model = scratch;
                }
                if Some(si) == checkpoint_after && !(last && leave_last_open) {
                    db.checkpoint().unwrap();
                }
            }
            // Crash: drop without checkpoint.
        }

        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let snap = db.snapshot();
        let table = snap.table("dbo.t").unwrap();
        let mut recovered: Vec<(u64, i64)> = table
            .rows
            .iter()
            .map(|(rid, row)| (*rid, row[0].as_i64().unwrap()))
            .collect();
        recovered.sort_unstable();
        let mut expect = model.clone();
        expect.sort_unstable();
        prop_assert_eq!(recovered, expect);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A torn tail (truncated log) never breaks recovery and loses at most
    /// the torn suffix — committed transactions whose commit record survived
    /// the truncation are intact.
    #[test]
    fn torn_tail_is_survivable(values in prop::collection::vec(any::<i64>(), 1..20), cut in 1usize..64) {
        let dir = temp_dir();
        {
            let mut db = Durable::open(&dir, Durability::Fsync).unwrap();
            let t0 = db.begin().unwrap();
            db.create_table(t0, table_def()).unwrap();
            db.commit(t0).unwrap();
            for v in &values {
                let t = db.begin().unwrap();
                db.insert(t, "dbo.t", vec![Value::Int(*v)]).unwrap();
                db.commit(t).unwrap();
            }
        }
        // Tear the tail.
        let wal = dir.join("phoenix.wal");
        let len = std::fs::metadata(&wal).unwrap().len();
        let new_len = len.saturating_sub(cut as u64);
        let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(new_len).unwrap();
        drop(f);

        // Recovery must succeed, and every surviving row must be a prefix-
        // respecting subset of the inserted values (commits are sequential,
        // so losses come only from the tail).
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let snap = db.snapshot();
        let table = snap.table("dbo.t").unwrap();
        let recovered: Vec<i64> = table.rows.values().map(|r| r[0].as_i64().unwrap()).collect();
        prop_assert!(recovered.len() <= values.len());
        prop_assert_eq!(&recovered[..], &values[..recovered.len()]);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// **Snapshot immutability**: a snapshot taken at an arbitrary point
    /// keeps showing exactly the image at capture time, no matter what
    /// random mutations (committed, aborted, or left open) run afterwards.
    #[test]
    fn snapshot_observes_pre_mutation_image(
        seed_values in prop::collection::vec(any::<i64>(), 0..12),
        scripts in prop::collection::vec(txn_script(), 1..6),
    ) {
        let dir = temp_dir();
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let t0 = db.begin().unwrap();
        db.create_table(t0, table_def()).unwrap();
        let mut model: Vec<(u64, i64)> = Vec::new();
        for v in &seed_values {
            let rid = db.insert(t0, "dbo.t", vec![Value::Int(*v)]).unwrap();
            model.push((rid, *v));
        }
        db.commit(t0).unwrap();

        // Capture the image, then mutate at will.
        let snap = db.snapshot();
        for script in &scripts {
            let txn = db.begin().unwrap();
            let mut scratch = model.clone();
            for op in &script.ops {
                match op {
                    Op::Insert(v) => {
                        let rid = db.insert(txn, "dbo.t", vec![Value::Int(*v)]).unwrap();
                        scratch.push((rid, *v));
                    }
                    Op::Delete(k) => {
                        if scratch.is_empty() { continue; }
                        let (rid, _) = scratch.remove(k % scratch.len());
                        db.delete(txn, "dbo.t", rid).unwrap();
                    }
                    Op::Update(k, v) => {
                        if scratch.is_empty() { continue; }
                        let idx = k % scratch.len();
                        db.update(txn, "dbo.t", scratch[idx].0, vec![Value::Int(*v)]).unwrap();
                        scratch[idx].1 = *v;
                    }
                }
            }
            if script.commit {
                db.commit(txn).unwrap();
                model = scratch;
            } else {
                db.abort(txn).unwrap();
            }
        }

        // The old snapshot still shows exactly the pre-mutation rows.
        let table = snap.table("dbo.t").unwrap();
        let mut seen: Vec<(u64, i64)> = table
            .rows
            .iter()
            .map(|(rid, row)| (*rid, row[0].as_i64().unwrap()))
            .collect();
        seen.sort_unstable();
        let mut expect: Vec<(u64, i64)> = seed_values
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u64 + 1, *v))
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(seen, expect);

        // And a fresh snapshot agrees with the model.
        let fresh = db.snapshot();
        let table = fresh.table("dbo.t").unwrap();
        let mut now: Vec<(u64, i64)> = table
            .rows
            .iter()
            .map(|(rid, row)| (*rid, row[0].as_i64().unwrap()))
            .collect();
        now.sort_unstable();
        model.sort_unstable();
        prop_assert_eq!(now, model);

        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[cfg(feature = "slow-proptests")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `Eq`, `Ord` and `Hash` on [`Value`] must be mutually consistent —
    /// the contract BTreeMap (primary-key indexes) and HashMap (hash joins)
    /// require. Floats use IEEE total ordering throughout.
    #[test]
    fn value_eq_ord_hash_consistent(a in value(), b in value()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |v: &Value| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        // Ord consistent with Eq.
        prop_assert_eq!(a == b, a.cmp(&b) == std::cmp::Ordering::Equal);
        // Hash consistent with Eq.
        if a == b {
            prop_assert_eq!(hash(&a), hash(&b));
        }
        // Antisymmetry.
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // Reflexivity.
        prop_assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    /// Transitivity of the total order (sampled).
    #[test]
    fn value_ord_transitive(a in value(), b in value(), c in value()) {
        let mut vs = [a, b, c];
        vs.sort();
        prop_assert!(vs[0] <= vs[1] && vs[1] <= vs[2] && vs[0] <= vs[2]);
    }
}

// ---------------------------------------------------------------------------
// One applier, any schedule.
// ---------------------------------------------------------------------------

/// splitmix64: the whole generator, so the test needs no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, num: usize, den: usize) -> bool {
        self.below(den) < num
    }
}

fn history_def(name: &str) -> TableDef {
    TableDef::new(
        name,
        Schema::new(vec![
            Column::new("id", DataType::Int).not_null(),
            Column::new("v", DataType::Int),
        ]),
    )
    .with_primary_key(vec![0])
}

/// The primary key is the row id, so no history can collide on it.
fn history_row(row_id: RowId, v: usize) -> Row {
    vec![Value::Int(row_id as i64), Value::Int(v as i64)]
}

/// The generator's picture of one table: what is committed, and what the
/// open transactions have claimed (two open transactions never write the
/// same row, as on a real primary).
struct TableModel {
    next_row_id: RowId,
    rows: BTreeSet<RowId>,
    held: BTreeSet<RowId>,
    index: Option<String>,
}

/// A transaction that has begun and not ended.
struct OpenTxn {
    txn: u64,
    tables: BTreeSet<String>,
    inserted: Vec<(String, RowId)>,
    deleted: Vec<(String, RowId)>,
    held: Vec<(String, RowId)>,
}

/// A random log history and the committed state it must recover to.
struct History {
    rng: Rng,
    gsn: u64,
    next_txn: u64,
    next_name: usize,
    frames: Vec<(u64, LogRecord)>,
    tables: BTreeMap<String, TableModel>,
    procs: BTreeSet<String>,
    open: Vec<OpenTxn>,
}

impl History {
    fn log(&mut self, rec: LogRecord) {
        // A failed append burns its GSN: the sequence has holes.
        self.gsn += if self.rng.chance(1, 16) { 2 } else { 1 };
        self.frames.push((self.gsn, rec));
    }

    fn fresh_name(&mut self, prefix: &str) -> String {
        self.next_name += 1;
        format!("{prefix}{}", self.next_name)
    }

    fn begin(&mut self) -> u64 {
        self.next_txn += 1;
        self.next_txn - 1
    }

    /// End `o`: every way a transaction's log can end.
    fn end(&mut self, o: OpenTxn) {
        let txn = o.txn;
        let mut committed = false;
        let mut rolled_back = false;
        match self.rng.below(8) {
            0 => rolled_back = true,
            // The commit record's append failed, burning its GSN — then the
            // rollback, or (its append failing too) nothing: the log never
            // decides the transaction while later ones go on.
            1 => {
                self.gsn += 1;
                rolled_back = self.rng.chance(1, 2);
            }
            _ => {
                committed = true;
                self.log(LogRecord::Commit { txn });
            }
        }
        if rolled_back {
            self.log(LogRecord::Abort { txn });
        }
        if committed {
            for (t, id) in &o.inserted {
                self.tables.get_mut(t).unwrap().rows.insert(*id);
            }
            for (t, id) in &o.deleted {
                self.tables.get_mut(t).unwrap().rows.remove(id);
            }
        }
        // A transaction the log never decides keeps its rows claimed: on a
        // real primary nobody could have written them either.
        if committed || rolled_back {
            for (t, id) in &o.held {
                self.tables.get_mut(t).unwrap().held.remove(id);
            }
        }
    }

    /// One DML record of open transaction `i`.
    fn dml(&mut self, i: usize) {
        let names: Vec<String> = self.tables.keys().cloned().collect();
        if names.is_empty() {
            return;
        }
        let table = names[self.rng.below(names.len())].clone();
        let txn = self.open[i].txn;
        let v = self.rng.below(5);
        let model = self.tables.get_mut(&table).unwrap();
        // A committed row nobody has claimed, or one of this transaction's
        // own inserts.
        let own: Vec<RowId> = self.open[i]
            .inserted
            .iter()
            .filter(|(t, _)| *t == table)
            .map(|(_, id)| *id)
            .collect();
        let free: Vec<RowId> = model.rows.difference(&model.held).copied().collect();
        let pick = self.rng.below(4);
        let rec = if pick < 2 || (own.is_empty() && free.is_empty()) {
            let first_row_id = model.next_row_id;
            let n = if pick == 0 { 1 } else { 1 + self.rng.below(3) } as u64;
            model.next_row_id += n;
            let ids = first_row_id..first_row_id + n;
            self.open[i]
                .inserted
                .extend(ids.clone().map(|id| (table.clone(), id)));
            if n == 1 {
                LogRecord::Insert {
                    txn,
                    table: table.clone(),
                    row_id: first_row_id,
                    row: history_row(first_row_id, v),
                }
            } else {
                LogRecord::InsertMany {
                    txn,
                    table: table.clone(),
                    first_row_id,
                    rows: ids.map(|id| history_row(id, v)).collect(),
                }
            }
        } else {
            let k = self.rng.below(own.len() + free.len());
            let row_id = if k < own.len() {
                own[k]
            } else {
                let id = free[k - own.len()];
                model.held.insert(id);
                self.open[i].held.push((table.clone(), id));
                id
            };
            if pick == 2 {
                LogRecord::Update {
                    txn,
                    table: table.clone(),
                    row_id,
                    row: history_row(row_id, v),
                }
            } else {
                if k < own.len() {
                    self.open[i]
                        .inserted
                        .retain(|e| *e != (table.clone(), row_id));
                } else {
                    self.open[i].deleted.push((table.clone(), row_id));
                }
                LogRecord::Delete {
                    txn,
                    table: table.clone(),
                    row_id,
                }
            }
        };
        self.open[i].tables.insert(table);
        self.log(rec);
    }

    /// A catalog change in a transaction of its own, committed or aborted,
    /// landing between the open transactions' DML.
    fn ddl(&mut self) {
        let txn = self.begin();
        let commit = self.rng.chance(3, 4);
        let busy: BTreeSet<&String> = self.open.iter().flat_map(|o| &o.tables).collect();
        let idle: Vec<String> = self
            .tables
            .keys()
            .filter(|t| !busy.contains(t))
            .cloned()
            .collect();
        let names: Vec<String> = self.tables.keys().cloned().collect();
        match self.rng.below(5) {
            0 | 1 if !names.is_empty() => {
                let table = names[self.rng.below(names.len())].clone();
                let rec = match self.tables[&table].index.clone() {
                    Some(name) => LogRecord::DropIndex {
                        txn,
                        table: table.clone(),
                        name,
                    },
                    None => LogRecord::CreateIndex {
                        txn,
                        table: table.clone(),
                        name: self.fresh_name("ix"),
                        column: 1,
                    },
                };
                if commit {
                    self.tables.get_mut(&table).unwrap().index = match &rec {
                        LogRecord::CreateIndex { name, .. } => Some(name.clone()),
                        _ => None,
                    };
                }
                self.log(rec);
            }
            2 if idle.len() > 1 => {
                let name = idle[self.rng.below(idle.len())].clone();
                if commit {
                    self.tables.remove(&name);
                }
                self.log(LogRecord::DropTable { txn, name });
            }
            3 => {
                let name = match self.procs.iter().next().cloned() {
                    Some(name) if self.rng.chance(1, 2) => {
                        if commit {
                            self.procs.remove(&name);
                        }
                        self.log(LogRecord::DropProc { txn, name });
                        None
                    }
                    _ => Some(self.fresh_name("p")),
                };
                if let Some(name) = name {
                    let sql = format!("CREATE PROCEDURE {name} AS SELECT 1");
                    if commit {
                        self.procs.insert(name.clone());
                    }
                    self.log(LogRecord::CreateProc { txn, name, sql });
                }
            }
            _ => {
                let name = self.fresh_name("t");
                let def = history_def(&name);
                self.log(LogRecord::CreateTable { txn, def });
                let n = self.rng.below(4) as u64;
                if n > 0 {
                    let rows = (1..=n).map(|id| history_row(id, 0)).collect();
                    let table = name.clone();
                    self.log(LogRecord::InsertMany {
                        txn,
                        table,
                        first_row_id: 1,
                        rows,
                    });
                }
                if commit {
                    let model = TableModel {
                        next_row_id: n + 1,
                        rows: (1..=n).collect(),
                        held: BTreeSet::new(),
                        index: None,
                    };
                    self.tables.insert(name, model);
                }
            }
        }
        let end = if commit {
            LogRecord::Commit { txn }
        } else {
            LogRecord::Abort { txn }
        };
        self.log(end);
    }

    /// `steps` random moves; whatever is still open at the end is the
    /// undecided tail.
    fn generate(&mut self, steps: usize) {
        for _ in 0..steps {
            match self.rng.below(10) {
                0 | 1 if self.open.len() < 4 => {
                    let txn = self.begin();
                    self.open.push(OpenTxn {
                        txn,
                        tables: BTreeSet::new(),
                        inserted: Vec::new(),
                        deleted: Vec::new(),
                        held: Vec::new(),
                    });
                }
                2 | 3 if !self.open.is_empty() => {
                    let i = self.rng.below(self.open.len());
                    let o = self.open.swap_remove(i);
                    self.end(o);
                }
                4 => self.ddl(),
                _ if !self.open.is_empty() => {
                    let i = self.rng.below(self.open.len());
                    self.dml(i);
                }
                _ => {}
            }
        }
    }
}

/// Append `frames` to the log in `dir`.
fn append_frames(dir: &Path, frames: &[(u64, LogRecord)]) {
    let mut wal = Wal::open(Durable::wal_path(dir)).unwrap();
    for (gsn, rec) in frames {
        wal.append(&frame_payload(*gsn, &rec.encode())).unwrap();
    }
}

fn copy_dir(src: &Path) -> PathBuf {
    let dst = temp_dir();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
    dst
}

type Image = (
    Vec<(TableDef, RowId, Vec<(RowId, Row)>)>,
    Vec<(String, String)>,
);

/// Everything in a recovered store that is not derived state (indexes are,
/// and `verify_indexes` audits them against the rows).
fn image(store: &Store, what: &str) -> Image {
    store
        .verify_indexes()
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let mut tables: Vec<_> = store
        .tables()
        .map(|t| {
            let rows = t.rows.iter().map(|(id, r)| (*id, r.clone())).collect();
            ((*t.def).clone(), t.next_row_id, rows)
        })
        .collect();
    tables.sort_by(|a, b| a.0.name.cmp(&b.0.name));
    let mut procs: Vec<_> = store
        .procs()
        .map(|(n, s)| (n.to_string(), s.to_string()))
        .collect();
    procs.sort();
    (tables, procs)
}

/// One case. Even seeds start from a real checkpoint (a snapshot with a
/// mark, and committed work in the log past it); odd seeds from nothing.
fn run_history(seed: u64) {
    let what = format!("seed {seed}");
    let base = temp_dir();
    let mut h = History {
        rng: Rng(seed),
        gsn: 0,
        next_txn: 1,
        next_name: 0,
        frames: Vec::new(),
        tables: BTreeMap::new(),
        procs: BTreeSet::new(),
        open: Vec::new(),
    };
    if seed.is_multiple_of(2) {
        let db = Durable::open(&base, Durability::Buffered).unwrap();
        for round in 0..2 {
            let t = db.begin().unwrap();
            for name in ["ta", "tb", "tc"] {
                if round == 0 {
                    db.create_table(t, history_def(name)).unwrap();
                    h.tables.insert(
                        name.into(),
                        TableModel {
                            next_row_id: 1,
                            rows: BTreeSet::new(),
                            held: BTreeSet::new(),
                            index: None,
                        },
                    );
                }
                let model = h.tables.get_mut(name).unwrap();
                for _ in 0..3 {
                    let id = model.next_row_id;
                    assert_eq!(db.insert(t, name, history_row(id, 1)).unwrap(), id);
                    model.rows.insert(id);
                    model.next_row_id += 1;
                }
            }
            db.commit(t).unwrap();
            if round == 0 {
                // Every fourth seed crashes its checkpoint between the
                // manifest and the discard of the rotated log: records at
                // or below the mark are on disk beside the image.
                let rotated = std::fs::read(Durable::wal_path(&base)).unwrap();
                db.checkpoint().unwrap();
                if seed.is_multiple_of(4) {
                    std::fs::write(base.join("phoenix.wal.old"), rotated).unwrap();
                }
            }
        }
        h.next_txn = db.begin().unwrap();
        h.gsn = db.last_gsn();
    }
    let steps = 20 + h.rng.below(60);
    h.generate(steps);

    // (a) Cold: everything on disk, loaded and finished.
    let full = copy_dir(&base);
    append_frames(&full, &h.frames);
    let cold = Applier::load(&full).unwrap().finish().unwrap();
    let expect = image(&cold.store, &what);
    std::fs::remove_dir_all(&full).unwrap();

    // The generator's own picture of the committed state agrees.
    let recovered: BTreeMap<String, BTreeSet<RowId>> = expect
        .0
        .iter()
        .map(|(def, _, rows)| (def.name.clone(), rows.iter().map(|(id, _)| *id).collect()))
        .collect();
    let model: BTreeMap<String, BTreeSet<RowId>> = h
        .tables
        .iter()
        .map(|(name, t)| (name.clone(), t.rows.clone()))
        .collect();
    assert_eq!(recovered, model, "{what}: committed rows");
    let procs: BTreeSet<String> = expect.1.iter().map(|(n, _)| n.clone()).collect();
    assert_eq!(procs, h.procs, "{what}: procedures");

    // (b) Warm: loaded when only a prefix was on disk, fed some of the rest
    // frame by frame (disk first, and now and then a re-shipped duplicate),
    // the remainder found on disk by promotion's catch-up.
    for p in 0..=h.frames.len() {
        let dir = copy_dir(&base);
        append_frames(&dir, &h.frames[..p]);
        let mut applier = Applier::load(&dir).unwrap();
        let q = p + h.rng.below(h.frames.len() - p + 1);
        for (i, frame) in h.frames[p..q].iter().enumerate() {
            append_frames(&dir, std::slice::from_ref(frame));
            let (gsn, rec) = frame.clone();
            applier.feed(gsn, rec).unwrap();
            if h.rng.chance(1, 8) {
                let (gsn, rec) = h.frames[p + i / 2].clone();
                applier.feed(gsn, rec).unwrap();
            }
        }
        append_frames(&dir, &h.frames[q..]);
        applier.catch_up(&dir).unwrap();
        let warm = applier.finish().unwrap();
        let what = format!("{what}, loaded at {p}, fed to {q}");
        assert_eq!(image(&warm.store, &what), expect, "{what}");
        assert_eq!(
            (
                warm.last_txn,
                warm.max_gsn,
                warm.min_gsn,
                warm.frames,
                warm.applied
            ),
            (
                cold.last_txn,
                cold.max_gsn,
                cold.min_gsn,
                cold.frames,
                cold.applied
            ),
            "{what}: what the log said"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&base).unwrap();
}

/// The differential property: however the one applier is scheduled — read
/// everything then finish, or load any prefix, be fed, catch up, finish —
/// it builds the same tables, and their indexes verify.
#[test]
fn applier_schedule_does_not_change_the_image() {
    for seed in 0..24 {
        run_history(seed);
    }
}

// ---------------------------------------------------------------------------
// Query before load ≡ query after.
// ---------------------------------------------------------------------------

/// What a query sees of one table.
type TableImage = (TableDef, RowId, Vec<(RowId, Row)>);

fn table_image(db: &Durable, name: &str) -> Result<TableImage, String> {
    let snap = db.snapshot();
    let t = snap.table(name).map_err(|e| e.to_string())?;
    t.verify_indexes()?;
    let rows = t.rows.iter().map(|(id, r)| (*id, r.clone())).collect();
    Ok(((*t.def).clone(), t.next_row_id, rows))
}

/// One case: a history, a checkpoint in the middle of it, more history in
/// the log past the checkpoint. The directory is then opened twice, on two
/// copies: `loaded` has every table forced into memory before anything else
/// happens, `lazy` is used as it comes. Both get the same reads (every table,
/// in a random order), the same interleaved writes, a second checkpoint and a
/// reopen, and must agree at every step.
fn run_lazy_history(seed: u64) {
    let what = format!("seed {seed}");
    let open = |dir: &Path| Durable::open(dir, Durability::Buffered).unwrap();
    let base = temp_dir();
    let mut h = History {
        rng: Rng(seed ^ 0x1a2b),
        gsn: 0,
        next_txn: 1,
        next_name: 0,
        frames: Vec::new(),
        tables: BTreeMap::new(),
        procs: BTreeSet::new(),
        open: Vec::new(),
    };
    let steps = 120 + h.rng.below(120);
    h.generate(steps);
    // The checkpoint needs every transaction decided: one it captured open
    // would be at or below the mark, and its later records skipped.
    while let Some(o) = h.open.pop() {
        h.end(o);
    }
    append_frames(&base, &h.frames);
    {
        let db = open(&base);
        db.checkpoint().unwrap();
        h.next_txn = db.begin().unwrap();
        h.gsn = db.last_gsn();
    }
    // A short tail: it writes to some of the checkpointed tables, which
    // recovery therefore loads, and leaves the others on disk.
    h.frames.clear();
    let steps = 5 + h.rng.below(25);
    h.generate(steps);
    append_frames(&base, &h.frames);

    // Without a drain in the way: the applier's store, read in one order
    // with everything loaded first, and in another as it comes.
    let mut names = {
        let loaded = Applier::load(&base).unwrap().finish().unwrap().store;
        let names = loaded.table_names();
        for name in &names {
            loaded.table(name).unwrap();
        }
        let lazy = Applier::load(&base).unwrap().finish().unwrap().store;
        let mut order = names.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, h.rng.below(i + 1));
        }
        for name in &order {
            let (a, b) = (lazy.table(name).unwrap(), loaded.table(name).unwrap());
            assert_eq!(a.def, b.def, "{what}: {name}");
            assert!(a.rows.iter().eq(b.rows.iter()), "{what}: rows of {name}");
            a.verify_indexes().unwrap();
        }
        assert_eq!(image(&lazy, &what), image(&loaded, &what));
        names
    };

    let (lazy_dir, loaded_dir) = (copy_dir(&base), copy_dir(&base));
    let (mut lazy, mut loaded) = (open(&lazy_dir), open(&loaded_dir));
    for pass in 0..2 {
        let drained = loaded.drain_report();
        assert!(drained.unreadable.is_empty(), "{what}: {drained:?}");
        for name in &names {
            table_image(&loaded, name).unwrap();
        }
        for i in (1..names.len()).rev() {
            names.swap(i, h.rng.below(i + 1));
        }
        for name in &names {
            let what = format!("{what}, pass {pass}, {name}");
            assert_eq!(
                table_image(&lazy, name),
                table_image(&loaded, name),
                "{what}"
            );
            if h.rng.chance(1, 2) {
                // The same write on both sides, to a table that may or may
                // not have been read yet on the lazy one.
                let target = &names[h.rng.below(names.len())];
                let v = h.rng.below(5);
                for db in [&lazy, &loaded] {
                    let id = db.snapshot().table(target).unwrap().next_row_id;
                    let t = db.begin().unwrap();
                    assert_eq!(db.insert(t, target, history_row(id, v)).unwrap(), id);
                    if id % 3 == 0 {
                        db.delete(t, target, id).unwrap();
                    }
                    db.commit(t).unwrap();
                }
            }
        }
        for db in [&lazy, &loaded] {
            db.checkpoint().unwrap();
        }
        let (a, b) = (lazy.checkpoint_stats(), loaded.checkpoint_stats());
        assert_eq!(
            (a.segments_written, a.segments_reused),
            (b.segments_written, b.segments_reused),
            "{what}: a table that was only read is reused on both sides"
        );
        drop((lazy, loaded));
        (lazy, loaded) = (open(&lazy_dir), open(&loaded_dir));
    }
    let lazy_store = Applier::load(&lazy_dir).unwrap().finish().unwrap().store;
    let loaded_store = Applier::load(&loaded_dir).unwrap().finish().unwrap().store;
    assert_eq!(image(&lazy_store, &what), image(&loaded_store, &what));
    drop((lazy, loaded));
    for dir in [base, lazy_dir, loaded_dir] {
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The differential property of first-touch loading: a directory opened
/// lazily and queried table by table, written to, checkpointed and reopened
/// is indistinguishable from the same directory with every table loaded up
/// front.
#[test]
fn query_before_load_equals_query_after() {
    for seed in 0..16 {
        run_lazy_history(seed);
    }
}
