//! Property tests of the durability substrate:
//!
//! 1. The binary codec round-trips every value/row/schema.
//! 2. **Crash-recovery equivalence**: for any interleaving of committed and
//!    uncommitted transactions over the durable layer, reopening after a
//!    simulated crash (drop without checkpoint, plus optional torn tail)
//!    reconstructs exactly the committed state — the invariant everything
//!    above (the engine, Phoenix, the paper's whole design) stands on.
//! 3. **Cold recovery of a generated history**: a random log history —
//!    commits, aborts, failed commits, the undecided tail, GSN holes, DDL,
//!    a rotated log beside the live one — recovers to exactly the committed
//!    tables and procedures the generator modelled, and their indexes
//!    verify.
//! 4. **The write path against a model**: random statements through a real
//!    `Durable` — row writes and table, procedure and index DDL, many of
//!    them ones the store must refuse — in committed and aborted
//!    transactions, with checkpoints and crashes between them, agree after
//!    every step with a model kept in `std` maps that shares no code with
//!    the store.
//!
//! 1 and 2 draw their cases through the `proptest` shim (a failure names
//! the test's seed and case); 3 and 4 draw theirs from a seeded generator of
//! their own — a failure prints its seed, and the seed reproduces it.

use proptest::prelude::*;

use phoenix_storage::applier::{frame_payload, recover};
use phoenix_storage::codec;
use phoenix_storage::db::{DbError, Durability, Durable, Txn};
use phoenix_storage::record::LogRecord;
use phoenix_storage::store::Store;
use phoenix_storage::types::{Column, DataType, IndexDef, Row, RowId, Schema, TableDef, Value};
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

fn row() -> impl Strategy<Value = Row> {
    prop::collection::vec(value(), 0..6)
}

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

fn name() -> impl Strategy<Value = String> {
    "\\PC{0,12}"
}

fn table_def_strategy() -> impl Strategy<Value = TableDef> {
    let dtype = prop::sample::select(vec![
        DataType::Int,
        DataType::Float,
        DataType::Text,
        DataType::Bool,
        DataType::Date,
    ]);
    (
        name(),
        prop::collection::vec((name(), dtype, any::<bool>()), 1..5),
        prop::collection::vec(0usize..4, 0..3),
        prop::collection::vec((name(), 0usize..4), 0..3),
    )
        .prop_map(|(name, columns, key, indexes)| {
            let arity = columns.len();
            TableDef {
                name,
                schema: Schema::new(
                    columns
                        .into_iter()
                        .map(|(name, dtype, nullable)| Column {
                            name,
                            dtype,
                            nullable,
                        })
                        .collect(),
                ),
                primary_key: key.into_iter().map(|i| i % arity).collect(),
                indexes: indexes
                    .into_iter()
                    .map(|(name, column)| IndexDef {
                        name,
                        column: column % arity,
                    })
                    .collect(),
            }
        })
}

/// Every kind of log record, with generated contents.
fn log_record() -> impl Strategy<Value = LogRecord> {
    let txn = any::<u64>;
    prop_oneof![
        txn().prop_map(|txn| LogRecord::Begin { txn }),
        txn().prop_map(|txn| LogRecord::Commit { txn }),
        txn().prop_map(|txn| LogRecord::Abort { txn }),
        (txn(), name(), any::<u64>(), row()).prop_map(|(txn, table, row_id, row)| {
            LogRecord::Insert {
                txn,
                table,
                row_id,
                row,
            }
        }),
        (
            txn(),
            name(),
            any::<u64>(),
            prop::collection::vec(row(), 0..4)
        )
            .prop_map(|(txn, table, first_row_id, rows)| LogRecord::InsertMany {
                txn,
                table,
                first_row_id,
                rows,
            }),
        (txn(), name(), any::<u64>()).prop_map(|(txn, table, row_id)| LogRecord::Delete {
            txn,
            table,
            row_id
        }),
        (txn(), name(), any::<u64>(), row()).prop_map(|(txn, table, row_id, row)| {
            LogRecord::Update {
                txn,
                table,
                row_id,
                row,
            }
        }),
        (txn(), table_def_strategy()).prop_map(|(txn, def)| LogRecord::CreateTable { txn, def }),
        (txn(), name()).prop_map(|(txn, name)| LogRecord::DropTable { txn, name }),
        (txn(), name(), "[ -~\\n\\t]{0,120}").prop_map(|(txn, name, sql)| LogRecord::CreateProc {
            txn,
            name,
            sql
        }),
        (txn(), name()).prop_map(|(txn, name)| LogRecord::DropProc { txn, name }),
        (txn(), name(), name(), 0usize..64).prop_map(|(txn, table, name, column)| {
            LogRecord::CreateIndex {
                txn,
                table,
                name,
                column,
            }
        }),
        (txn(), name(), name()).prop_map(|(txn, table, name)| LogRecord::DropIndex {
            txn,
            table,
            name
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every kind of record round-trips, and every strict prefix of its
    /// encoding is an error: a log torn inside a record never decodes to a
    /// record.
    #[test]
    fn log_record_truncation_is_an_error(rec in log_record()) {
        let full = rec.encode();
        prop_assert_eq!(&LogRecord::decode(&full).unwrap(), &rec);
        for cut in 0..full.len() {
            prop_assert!(
                LogRecord::decode(&full[..cut]).is_err(),
                "a {cut}-byte prefix of {full:?} decoded"
            );
        }
    }

    /// Bytes off the disk decode to a record or an error, never a panic —
    /// arbitrary bytes, and arbitrary bytes behind each record tag, so that
    /// every kind's body parser reads them.
    #[test]
    fn log_record_decode_is_total(
        tag in prop::option::of(0u8..16),
        body in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        let bytes: Vec<u8> = tag.into_iter().chain(body).collect();
        let _ = LogRecord::decode(&bytes);
    }
}

/// Abstract op in a transaction script.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64),
    /// Delete the `k % live`-th live row.
    Delete(usize),
    /// Update the `k % live`-th live row to a new value.
    Update(usize, i64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<i64>().prop_map(Op::Insert),
        any::<usize>().prop_map(Op::Delete),
        (any::<usize>(), any::<i64>()).prop_map(|(k, v)| Op::Update(k, v)),
    ]
}

#[derive(Debug, Clone)]
struct TxnScript {
    ops: Vec<Op>,
    commit: bool,
}

fn txn_script() -> impl Strategy<Value = TxnScript> {
    (prop::collection::vec(op(), 0..8), any::<bool>())
        .prop_map(|(ops, commit)| TxnScript { ops, commit })
}

fn table_def() -> TableDef {
    TableDef::new("dbo.t", Schema::new(vec![Column::new("v", DataType::Int)]))
}

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
            let db = Durable::open(&dir, Durability::Fsync).unwrap();
            let mut t0 = db.begin_txn();
            t0.create_table(table_def()).unwrap();
            db.commit_txn(t0).unwrap();

            for (si, script) in scripts.iter().enumerate() {
                let mut txn = db.begin_txn();
                let mut scratch = model.clone();
                let mut ok = true;
                for op in &script.ops {
                    match op {
                        Op::Insert(v) => {
                            let rid = txn.insert("dbo.t", vec![Value::Int(*v)]).unwrap();
                            scratch.push((rid, *v));
                        }
                        Op::Delete(k) => {
                            if scratch.is_empty() { continue; }
                            let idx = k % scratch.len();
                            let (rid, _) = scratch.remove(idx);
                            txn.delete("dbo.t", rid).unwrap();
                        }
                        Op::Update(k, v) => {
                            if scratch.is_empty() { continue; }
                            let idx = k % scratch.len();
                            let rid = scratch[idx].0;
                            txn.update("dbo.t", rid, vec![Value::Int(*v)]).unwrap();
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
                    db.commit_txn(txn).unwrap();
                } else {
                    drop(txn);
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
            let db = Durable::open(&dir, Durability::Fsync).unwrap();
            let mut t0 = db.begin_txn();
            t0.create_table(table_def()).unwrap();
            db.commit_txn(t0).unwrap();
            for v in &values {
                let mut t = db.begin_txn();
                t.insert("dbo.t", vec![Value::Int(*v)]).unwrap();
                db.commit_txn(t).unwrap();
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
        let mut t0 = db.begin_txn();
        t0.create_table(table_def()).unwrap();
        let mut model: Vec<(u64, i64)> = Vec::new();
        for v in &seed_values {
            let rid = t0.insert("dbo.t", vec![Value::Int(*v)]).unwrap();
            model.push((rid, *v));
        }
        db.commit_txn(t0).unwrap();

        // Capture the image, then mutate at will.
        let snap = db.snapshot();
        for script in &scripts {
            let mut txn = db.begin_txn();
            let mut scratch = model.clone();
            for op in &script.ops {
                match op {
                    Op::Insert(v) => {
                        let rid = txn.insert("dbo.t", vec![Value::Int(*v)]).unwrap();
                        scratch.push((rid, *v));
                    }
                    Op::Delete(k) => {
                        if scratch.is_empty() { continue; }
                        let (rid, _) = scratch.remove(k % scratch.len());
                        txn.delete("dbo.t", rid).unwrap();
                    }
                    Op::Update(k, v) => {
                        if scratch.is_empty() { continue; }
                        let idx = k % scratch.len();
                        txn.update("dbo.t", scratch[idx].0, vec![Value::Int(*v)]).unwrap();
                        scratch[idx].1 = *v;
                    }
                }
            }
            if script.commit {
                db.commit_txn(txn).unwrap();
                model = scratch;
            } else {
                drop(txn);
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

    /// `steps` random moves, catalog changes among them when `ddl`;
    /// whatever is still open at the end is the undecided tail.
    fn generate(&mut self, steps: usize, ddl: bool) {
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
                4 if ddl => self.ddl(),
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
            let rows = t.rows.iter().map(|(id, r)| (*id, r.to_vec())).collect();
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
            let mut t = db.begin_txn();
            for name in ["ta", "tb", "tc"] {
                if round == 0 {
                    t.create_table(history_def(name)).unwrap();
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
                    assert_eq!(t.insert(name, history_row(id, 1)).unwrap(), id);
                    model.rows.insert(id);
                    model.next_row_id += 1;
                }
            }
            db.commit_txn(t).unwrap();
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
        let recovered = recover(&base).unwrap();
        (h.next_txn, h.gsn) = (recovered.last_txn + 1, recovered.max_gsn);
    }
    let steps = 20 + h.rng.below(60);
    h.generate(steps, true);

    // Everything on disk, loaded and finished.
    append_frames(&base, &h.frames);
    let cold = recover(&base).unwrap();
    let expect = image(&cold.store, &what);

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
    std::fs::remove_dir_all(&base).unwrap();
}

/// Cold recovery builds exactly the committed part of a generated history,
/// and its indexes verify.
#[test]
fn cold_recovery_builds_exactly_the_committed_history() {
    for seed in 0..24 {
        run_history(seed);
    }
}

// ---------------------------------------------------------------------------
// Query before load and redo ≡ query after.
// ---------------------------------------------------------------------------

/// What a query sees of one table.
type TableImage = (TableDef, RowId, Vec<(RowId, Row)>);

fn table_image(db: &Durable, name: &str) -> Result<TableImage, String> {
    let snap = db.snapshot();
    let t = snap.table(name).map_err(|e| e.to_string())?;
    t.verify_indexes()?;
    let rows = t.rows.iter().map(|(id, r)| (*id, r.to_vec())).collect();
    Ok(((*t.def).clone(), t.next_row_id, rows))
}

/// One case: a history, a checkpoint in the middle of it, more history in
/// the log past the checkpoint — on odd seeds rows only, so the tables it
/// writes are left behind their log tails. The recovered image must be the
/// generator's committed state. The directory is then opened twice, on two
/// copies: `loaded` has every table forced into memory (its segment read,
/// its tail redone) before anything else happens, `lazy` is used as it
/// comes. Both get the same reads (every table, in a random order), the same
/// interleaved writes, a second checkpoint and a reopen, and must agree at
/// every step. `behind_total` counts the tables left behind.
fn run_lazy_history(seed: u64, behind_total: &mut usize) {
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
    h.generate(steps, true);
    // The checkpoint needs every transaction decided: one it captured open
    // would be at or below the mark, and its later records skipped.
    while let Some(o) = h.open.pop() {
        h.end(o);
    }
    append_frames(&base, &h.frames);
    {
        let db = open(&base);
        db.checkpoint().unwrap();
        let recovered = recover(&base).unwrap();
        (h.next_txn, h.gsn) = (recovered.last_txn + 1, recovered.max_gsn);
    }
    // A short tail. On odd seeds it writes rows only, so every checkpointed
    // table it writes to is left behind its log tail; on even ones catalog
    // changes land among the rows, and the tables they name redo at open.
    h.frames.clear();
    let steps = 5 + h.rng.below(25);
    let rows_only = seed % 2 == 1;
    h.generate(steps, !rows_only);
    append_frames(&base, &h.frames);

    // The applier's store on its own, with no database around it: read
    // in one order with everything loaded first, and in another as it comes.
    let mut names = {
        let lazy = recover(&base).unwrap();
        if rows_only {
            assert_eq!(lazy.stages.segments_loaded, 0, "{what}");
        }
        let behind = lazy.behind;
        let lazy = lazy.store;
        let loaded = recover(&base).unwrap().store;
        let names = loaded.table_names();
        for name in &names {
            loaded.table(name).unwrap();
        }
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
        // And both are the generator's committed state.
        let recovered: BTreeMap<String, BTreeSet<RowId>> = image(&lazy, &what)
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
        *behind_total += behind;
        names
    };

    let (lazy_dir, loaded_dir) = (copy_dir(&base), copy_dir(&base));
    let (mut lazy, mut loaded) = (open(&lazy_dir), open(&loaded_dir));
    for pass in 0..2 {
        // Every table of one side loads, its log tail redone, before the
        // other side has touched any.
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
                    let mut t = db.begin_txn();
                    assert_eq!(t.insert(target, history_row(id, v)).unwrap(), id);
                    if id % 3 == 0 {
                        t.delete(target, id).unwrap();
                    }
                    db.commit_txn(t).unwrap();
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
    let lazy_store = recover(&lazy_dir).unwrap().store;
    let loaded_store = recover(&loaded_dir).unwrap().store;
    assert_eq!(image(&lazy_store, &what), image(&loaded_store, &what));
    drop((lazy, loaded));
    for dir in [base, lazy_dir, loaded_dir] {
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The differential property of first-touch loading and deferred redo: a
/// directory opened lazily and queried table by table, written to,
/// checkpointed and reopened is indistinguishable from the same directory
/// with every table loaded, and every log tail redone, up front.
#[test]
fn query_before_load_equals_query_after() {
    let mut behind = 0;
    for seed in 0..16 {
        run_lazy_history(seed, &mut behind);
    }
    assert!(behind >= 8, "the histories left {behind} tables behind");
}

// ---------------------------------------------------------------------------
// The write path against a model that shares no code with it.
// ---------------------------------------------------------------------------

/// What the model predicts of a store: `image` without `next_row_id` (an
/// aborted insert raises it, a reopen may lower it again) and with each
/// table's indexes in name order (an aborted drop puts an index back last).
type View = (Vec<(TableDef, Vec<(RowId, Row)>)>, Vec<(String, String)>);

fn view(store: &Store, what: &str) -> View {
    let (tables, procs) = image(store, what);
    let tables = tables
        .into_iter()
        .map(|(mut def, _, rows)| {
            def.indexes.sort_by(|a, b| a.name.cmp(&b.name));
            (def, rows)
        })
        .collect();
    (tables, procs)
}

/// One table of the model: rows by id, and index name → column.
#[derive(Clone, Default)]
struct ModelTable {
    rows: BTreeMap<RowId, Row>,
    indexes: BTreeMap<String, usize>,
}

impl ModelTable {
    fn has_key(&self, key: &Value) -> bool {
        self.rows.values().any(|r| r[0] == *key)
    }
}

/// The database as the model sees it. Every name is lower case, so the
/// store's case folding never comes into it.
#[derive(Clone, Default)]
struct Model {
    tables: BTreeMap<String, ModelTable>,
    procs: BTreeMap<String, String>,
}

impl Model {
    fn view(&self) -> View {
        let tables = self
            .tables
            .iter()
            .map(|(name, t)| {
                let mut def = history_def(name);
                def.indexes = t
                    .indexes
                    .iter()
                    .map(|(name, &column)| IndexDef {
                        name: name.clone(),
                        column,
                    })
                    .collect();
                (
                    def,
                    t.rows.iter().map(|(id, r)| (*id, r.to_vec())).collect(),
                )
            })
            .collect();
        let procs = self.procs.iter().map(|(n, s)| (n.clone(), s.clone()));
        (tables, procs.collect())
    }
}

/// One statement of a generated transaction.
#[derive(Debug)]
enum Stmt {
    Insert(String, Vec<Row>),
    Delete(String, Vec<RowId>),
    Update(String, Vec<(RowId, Row)>),
    CreateTable(String),
    DropTable(String),
    CreateIndex(String, String),
    DropIndex(String, String),
    CreateProc(String, String),
    DropProc(String),
}

/// A row id to address: usually one the table holds, sometimes one it
/// does not.
fn pick_id(rng: &mut Rng, t: Option<&ModelTable>) -> RowId {
    let ids: Vec<RowId> = t.map_or(Vec::new(), |t| t.rows.keys().copied().collect());
    if ids.is_empty() || rng.chance(1, 8) {
        1_000 + rng.below(4) as RowId
    } else {
        ids[rng.below(ids.len())]
    }
}

fn model_row(rng: &mut Rng) -> Row {
    vec![
        Value::Int(rng.below(64) as i64),
        Value::Int(rng.below(100) as i64),
    ]
}

/// A statement on a table that usually exists, a procedure or an index;
/// about half of them the store must refuse.
fn random_stmt(rng: &mut Rng, m: &Model) -> Stmt {
    const TABLES: [&str; 3] = ["ta", "tb", "tc"];
    const INDEXES: [&str; 2] = ["ia", "ib"];
    const PROCS: [&str; 2] = ["pa", "pb"];
    let existing: Vec<&String> = m.tables.keys().collect();
    let table = if !existing.is_empty() && rng.chance(7, 8) {
        existing[rng.below(existing.len())].clone()
    } else {
        TABLES[rng.below(TABLES.len())].to_string()
    };
    let t = m.tables.get(&table);
    match rng.below(14) {
        0..=3 => {
            let n = 1 + rng.below(3);
            Stmt::Insert(table, (0..n).map(|_| model_row(rng)).collect())
        }
        4 | 5 => {
            let n = 1 + rng.below(2);
            Stmt::Delete(table, (0..n).map(|_| pick_id(rng, t)).collect())
        }
        6 | 7 => {
            let n = 1 + rng.below(2);
            let changes = (0..n).map(|_| (pick_id(rng, t), model_row(rng))).collect();
            Stmt::Update(table, changes)
        }
        9 if rng.chance(1, 3) => Stmt::DropTable(table),
        8 | 9 => Stmt::CreateTable(table),
        10 => Stmt::CreateIndex(table, INDEXES[rng.below(INDEXES.len())].to_string()),
        11 => Stmt::DropIndex(table, INDEXES[rng.below(INDEXES.len())].to_string()),
        12 => {
            let sql = format!("SELECT {}", rng.below(100));
            Stmt::CreateProc(PROCS[rng.below(PROCS.len())].to_string(), sql)
        }
        _ => Stmt::DropProc(PROCS[rng.below(PROCS.len())].to_string()),
    }
}

/// The model after `stmt`, or `None` if the store must refuse it. Inserted
/// rows get their ids from the store (`ids`): the model checks them instead
/// of predicting them.
fn model_apply(m: &Model, stmt: &Stmt, ids: &[RowId]) -> Option<Model> {
    let mut m = m.clone();
    match stmt {
        Stmt::Insert(table, rows) => {
            let t = m.tables.get_mut(table)?;
            let mut keys = BTreeSet::new();
            if rows.iter().any(|r| t.has_key(&r[0]) || !keys.insert(&r[0])) {
                return None;
            }
            t.rows.extend(ids.iter().copied().zip(rows.iter().cloned()));
        }
        Stmt::Delete(table, row_ids) => {
            let t = m.tables.get_mut(table)?;
            for id in row_ids {
                t.rows.remove(id)?;
            }
        }
        Stmt::Update(table, changes) => {
            let t = m.tables.get_mut(table)?;
            for (id, row) in changes {
                let old = t.rows.remove(id)?;
                if old[0] != row[0] && t.has_key(&row[0]) {
                    return None;
                }
                t.rows.insert(*id, row.clone());
            }
        }
        Stmt::CreateTable(table) => {
            if m.tables.contains_key(table) {
                return None;
            }
            m.tables.insert(table.clone(), ModelTable::default());
        }
        Stmt::DropTable(table) => {
            m.tables.remove(table)?;
        }
        Stmt::CreateIndex(table, name) => {
            let t = m.tables.get_mut(table)?;
            if t.indexes.insert(name.clone(), 1).is_some() {
                return None;
            }
        }
        Stmt::DropIndex(table, name) => {
            m.tables.get_mut(table)?.indexes.remove(name)?;
        }
        Stmt::CreateProc(name, sql) => {
            if m.procs.insert(name.clone(), sql.clone()).is_some() {
                return None;
            }
        }
        Stmt::DropProc(name) => {
            m.procs.remove(name)?;
        }
    }
    Some(m)
}

/// Run `stmt` on the store; for an insert, the ids it handed out.
fn run_stmt(txn: &mut Txn, stmt: &Stmt) -> Result<Vec<RowId>, String> {
    let done = |r: Result<(), _>| r.map(|()| Vec::new());
    match stmt {
        Stmt::Insert(table, rows) => txn.insert_many(table, rows.clone()),
        Stmt::Delete(table, ids) => done(txn.delete_many(table, ids)),
        Stmt::Update(table, changes) => done(txn.update_many(table, changes.clone())),
        Stmt::CreateTable(table) => done(txn.create_table(history_def(table))),
        Stmt::DropTable(table) => done(txn.drop_table(table)),
        Stmt::CreateIndex(table, name) => done(txn.create_index(table, name, 1)),
        Stmt::DropIndex(table, name) => done(txn.drop_index(table, name)),
        Stmt::CreateProc(name, sql) => done(txn.create_proc(name, sql)),
        Stmt::DropProc(name) => done(txn.drop_proc(name)),
    }
    .map_err(|e| e.to_string())
}

/// One case: transactions of random statements, each committed or aborted,
/// with checkpoints and crashes (a drop without checkpoint, sometimes with a
/// transaction open) between and inside them.
fn run_model_history(seed: u64) {
    let dir = temp_dir();
    let open = || Durable::open(&dir, Durability::Buffered).unwrap();
    let mut rng = Rng(seed ^ 0x5eed);
    let mut db = open();
    let mut committed = Model::default();
    for step in 0..40 {
        let what = format!("seed {seed}, transaction {step}");
        let mut txn = db.begin_txn();
        let mut live = committed.clone();
        let mut crashed = false;
        for _ in 0..1 + rng.below(6) {
            let stmt = random_stmt(&mut rng, &live);
            let what = format!("{what}, {stmt:?}");
            let logged = db.log_records_since_checkpoint();
            let result = run_stmt(&mut txn, &stmt);
            let ids = result.clone().unwrap_or_default();
            if let Stmt::Insert(table, rows) = &stmt {
                if let Ok(ids) = &result {
                    // Consecutive, and past every id the table holds.
                    let max = live.tables[table].rows.keys().max().copied().unwrap_or(0);
                    let want: Vec<RowId> = (ids[0]..ids[0] + rows.len() as RowId).collect();
                    assert!(ids[0] > max && *ids == want, "{what}: ids {ids:?}");
                }
            }
            match model_apply(&live, &stmt, &ids) {
                Some(next) => {
                    assert!(result.is_ok(), "{what}: refused: {result:?}");
                    live = next;
                }
                None => {
                    assert!(result.is_err(), "{what}: applied what must be refused");
                    assert_eq!(
                        db.log_records_since_checkpoint(),
                        logged,
                        "{what}: a refused statement logged"
                    );
                }
            }
            assert_eq!(view(txn.store(), &what), live.view(), "{what}");
            assert_eq!(
                view(&db.snapshot(), &what),
                committed.view(),
                "{what}: visible before commit"
            );
            if rng.chance(1, 30) {
                crashed = true;
                break;
            }
        }
        if !crashed {
            if rng.chance(2, 3) {
                db.commit_txn(txn).unwrap();
                committed = live;
            } else {
                drop(txn);
            }
            assert_eq!(
                view(&db.snapshot(), &what),
                committed.view(),
                "{what}: ended"
            );
            match rng.below(5) {
                0 => db.checkpoint().unwrap(),
                1 => crashed = true,
                _ => {}
            }
        }
        if crashed {
            drop(db);
            db = open();
            let recovered = view(&db.snapshot(), &what);
            assert_eq!(recovered, committed.view(), "{what}: after reopen");
        }
    }
    drop(db);
    let db = open();
    assert_eq!(view(&db.snapshot(), "final reopen"), committed.view());
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The write path, rollback and recovery agree with a model that shares no
/// code with `Store::apply`, for statements the store applies and ones it
/// must refuse alike.
#[test]
fn write_path_rollback_and_recovery_match_a_model() {
    for seed in 0..24 {
        run_model_history(seed);
    }
}

// ---------------------------------------------------------------------------
// Many sessions: snapshot isolation against a model.
// ---------------------------------------------------------------------------

/// A table's rows by primary key: key → value.
type Rows = BTreeMap<i64, i64>;
/// Every table's rows, by table name.
type State = BTreeMap<&'static str, Rows>;

const SI_TABLES: [&str; 2] = ["dbo.sa", "dbo.sb"];

/// What a store holds of the model's tables.
fn si_view(store: &Store) -> State {
    SI_TABLES
        .iter()
        .map(|&name| {
            let t = store.table(name).unwrap();
            let rows = t
                .rows
                .values()
                .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
                .collect();
            (name, rows)
        })
        .collect()
}

/// One open transaction of the model: the committed state it began from,
/// its own view (that plus its writes), and the keys commit must check —
/// those it updated or deleted that its snapshot held, and those it
/// inserted that its snapshot did not.
struct ModelTxn {
    txn: Txn,
    snapshot: State,
    view: State,
    changed: BTreeSet<(&'static str, i64)>,
    inserted: BTreeSet<(&'static str, i64)>,
}

impl ModelTxn {
    /// Does a commit now, on top of `committed`, lose to a commit made
    /// since this transaction began? First committer wins: a row it
    /// updated or deleted holds another value, or a key it inserted was
    /// inserted by someone else. Values are never written twice, so a
    /// value equal to the snapshot's is the snapshot's row.
    fn conflicts(&self, committed: &State) -> bool {
        let at = |s: &State, (t, k): &(&str, i64)| s[t].get(k).copied();
        self.changed
            .iter()
            .any(|key| at(&self.snapshot, key) != at(committed, key))
            || self.inserted.iter().any(|key| at(committed, key).is_some())
    }
}

fn si_def(name: &str) -> TableDef {
    TableDef::new(
        name,
        Schema::new(vec![
            Column::new("k", DataType::Int).not_null(),
            Column::new("v", DataType::Int),
        ]),
    )
    .with_primary_key(vec![0])
}

/// One case: a seeded scheduler interleaves up to three transactions'
/// writes, reads, commits and drops, with checkpoints and crashes (a drop
/// of the handle and every open transaction, then a reopen) at random
/// points. After every step the live store, every transaction's own view
/// and, after a crash, the recovered store agree with a model that applies
/// committed transactions in commit order; every commit's fate (applied or
/// refused with `Conflict`) is the model's.
fn run_si_history(seed: u64) {
    let dir = temp_dir();
    let open = || Durable::open(&dir, Durability::Buffered).unwrap();
    let mut rng = Rng(seed ^ 0x51);
    let mut db = open();
    let mut setup = db.begin_txn();
    for name in SI_TABLES {
        setup.create_table(si_def(name)).unwrap();
    }
    setup.create_index("dbo.sb", "sb_v", 1).unwrap();
    db.commit_txn(setup).unwrap();
    let mut committed: State = SI_TABLES.iter().map(|&t| (t, Rows::new())).collect();
    let mut sessions: Vec<Option<ModelTxn>> = (0..3).map(|_| None).collect();
    let (mut next_key, mut next_value) = (1i64, 1i64);
    let (mut commits, mut conflicts) = (0, 0);
    for step in 0..300 {
        let what = format!("seed {seed}, step {step}");
        let s = rng.below(sessions.len());
        let Some(mut m) = sessions[s].take() else {
            let snapshot = committed.clone();
            sessions[s] = Some(ModelTxn {
                txn: db.begin_txn(),
                view: snapshot.clone(),
                snapshot,
                changed: BTreeSet::new(),
                inserted: BTreeSet::new(),
            });
            continue;
        };
        let table = SI_TABLES[rng.below(SI_TABLES.len())];
        let visible: Vec<i64> = m.view[table].keys().copied().collect();
        next_value += 1;
        let value = next_value;
        match rng.below(10) {
            // Insert a fresh key, or one another open transaction inserted.
            0..=2 => {
                let theirs: Vec<i64> = sessions
                    .iter()
                    .flatten()
                    .flat_map(|o| o.inserted.iter())
                    .filter(|(t, _)| *t == table)
                    .map(|&(_, k)| k)
                    .collect();
                let key = if !theirs.is_empty() && rng.chance(1, 3) {
                    theirs[rng.below(theirs.len())]
                } else {
                    next_key += 1;
                    next_key
                };
                let row = vec![Value::Int(key), Value::Int(value)];
                let result = m.txn.insert(table, row);
                if m.view[table].contains_key(&key) {
                    assert!(result.is_err(), "{what}: duplicate {key} accepted");
                } else {
                    result.unwrap_or_else(|e| panic!("{what}: insert {key}: {e}"));
                    if !m.snapshot[table].contains_key(&key) {
                        m.inserted.insert((table, key));
                    }
                    m.view.get_mut(table).unwrap().insert(key, value);
                }
            }
            // Update or delete a row this transaction sees.
            3..=5 if !visible.is_empty() => {
                let key = visible[rng.below(visible.len())];
                let row_id = m
                    .txn
                    .store()
                    .table(table)
                    .unwrap()
                    .row_id_by_key(&[Value::Int(key)]);
                let row_id = row_id.unwrap_or_else(|| panic!("{what}: {key} not in the copy"));
                if rng.chance(1, 2) {
                    let row = vec![Value::Int(key), Value::Int(value)];
                    m.txn.update(table, row_id, row).unwrap();
                    m.view.get_mut(table).unwrap().insert(key, value);
                } else {
                    m.txn.delete(table, row_id).unwrap();
                    m.view.get_mut(table).unwrap().remove(&key);
                }
                if m.snapshot[table].contains_key(&key) {
                    m.changed.insert((table, key));
                }
            }
            // Commit: applied, or refused because it lost.
            6 => {
                let lose = m.conflicts(&committed);
                match db.commit_txn(m.txn) {
                    Ok(()) => {
                        assert!(!lose, "{what}: a losing commit was applied");
                        for &t in &SI_TABLES {
                            let (was, is) = (&m.snapshot[t], &m.view[t]);
                            let rows = committed.get_mut(t).unwrap();
                            for k in was.keys().filter(|k| !is.contains_key(k)) {
                                rows.remove(k);
                            }
                            for (k, v) in is.iter().filter(|(k, v)| was.get(k) != Some(v)) {
                                rows.insert(*k, *v);
                            }
                        }
                        commits += 1;
                    }
                    Err(DbError::Conflict(_)) => {
                        assert!(lose, "{what}: a winning commit was refused");
                        conflicts += 1;
                    }
                    Err(e) => panic!("{what}: commit: {e}"),
                }
                assert_eq!(si_view(&db.snapshot()), committed, "{what}: after commit");
                continue;
            }
            // Roll back.
            7 => {
                drop(m);
                assert_eq!(si_view(&db.snapshot()), committed, "{what}: after drop");
                continue;
            }
            8 if rng.chance(1, 4) => db.checkpoint().unwrap(),
            9 if rng.chance(1, 8) => {
                // Crash: every open transaction dies with the handle.
                drop(m);
                sessions.iter_mut().for_each(|s| *s = None);
                drop(db);
                db = open();
                let store = db.snapshot();
                assert_eq!(si_view(&store), committed, "{what}: recovered");
                store.verify_indexes().unwrap();
                continue;
            }
            _ => {}
        }
        // Every read inside a transaction is its snapshot plus its writes.
        assert_eq!(
            si_view(m.txn.store()),
            m.view,
            "{what}: in-transaction read"
        );
        sessions[s] = Some(m);
    }
    drop(sessions);
    drop(db);
    let db = open();
    assert_eq!(
        si_view(&db.snapshot()),
        committed,
        "seed {seed}: final reopen"
    );
    db.snapshot().verify_indexes().unwrap();
    assert!(
        commits > 0 && conflicts > 0,
        "seed {seed}: {commits} commits, {conflicts} conflicts"
    );
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Interleaved transactions are snapshot-isolated and first-committer-wins,
/// live and across crashes, by a model that shares no code with the store.
#[test]
fn interleaved_transactions_match_a_snapshot_isolation_model() {
    for seed in 0..16 {
        run_si_history(seed);
    }
}
