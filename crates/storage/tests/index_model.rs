//! Model test of the secondary index: seeded random inserts, updates and
//! deletes on a table with two indexes — one on a column of seven values,
//! one on a column whose values are unique, NULLs planted in both — checked
//! after every step against a `BTreeMap<Value, BTreeSet<RowId>>` per index
//! that knows nothing of how the index stores its entries. A clone of the
//! table taken before each step must still give the answers it gave then.
//!
//! What is checked is what the planner and executor ask of an index: the
//! rows holding one value, the rows in a range at every bound kind (bounds
//! inside a run of equal values included, from both ends), the number of
//! distinct values, and a range's count capped as the planner caps it.
//!
//! The primary-key index is modelled the same way, by a
//! `BTreeMap<Vec<Value>, RowId>`: inserts, deletes and updates that change
//! the key or keep it, with every duplicate refused and the table left as
//! it was. Keys of one column (integers and floats, `1` and `1.0` apart),
//! of two adjacent columns and of two columns out of schema order; lookups
//! by a borrowed slice, and ranges at every bound kind from both ends.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::{Bound, RangeBounds};

use phoenix_storage::store::StoreError;
use phoenix_storage::types::{Column, DataType, RowId, Schema, TableDef, Value};
use phoenix_storage::TableData;

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

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Indexed columns: `g` (index 0) and `u` (index 1).
const G: usize = 1;
const U: usize = 2;

type Model = BTreeMap<Value, BTreeSet<RowId>>;

fn table() -> TableData {
    let mut t = TableData::new(
        TableDef::new(
            "dbo.m",
            Schema::new(vec![
                Column::new("id", DataType::Int).not_null(),
                Column::new("g", DataType::Int),
                Column::new("u", DataType::Int),
            ]),
        )
        .with_primary_key(vec![0]),
    );
    t.create_index("m_g", G).unwrap();
    t.create_index("m_u", U).unwrap();
    t
}

/// One of seven values, NULL one time in eight.
fn g_value(rng: &mut Rng) -> Value {
    match rng.below(8) {
        7 => Value::Null,
        v => Value::Int(v as i64),
    }
}

/// A value no other row holds (the row's serial times 3), NULL one time in
/// ten.
fn u_value(rng: &mut Rng, serial: u64) -> Value {
    if rng.below(10) == 0 {
        Value::Null
    } else {
        Value::Int(serial as i64 * 3)
    }
}

/// A bound value: mostly one the column can hold (so a bound falls inside
/// or at the edge of a run), sometimes one between them or NULL.
fn probe_value(rng: &mut Rng, column: usize, serials: u64) -> Value {
    match (column, rng.below(10)) {
        (_, 0) => Value::Null,
        (G, 1) => Value::Int(rng.below(9) as i64 - 1),
        (G, _) => Value::Int(rng.below(7) as i64),
        (_, 1) => Value::Int(rng.below(serials * 3 + 2) as i64 - 1),
        (_, _) => Value::Int(rng.below(serials + 1) as i64 * 3),
    }
}

fn bound(rng: &mut Rng, column: usize, serials: u64) -> Bound<Value> {
    match rng.below(3) {
        0 => Bound::Unbounded,
        1 => Bound::Included(probe_value(rng, column, serials)),
        _ => Bound::Excluded(probe_value(rng, column, serials)),
    }
}

/// The model's answer to a range: a filter over every value, so no
/// inverted or empty range needs special handling.
fn model_range(model: &Model, lo: &Bound<Value>, hi: &Bound<Value>) -> Vec<RowId> {
    let above = |v: &Value| match lo {
        Bound::Included(l) => v >= l,
        Bound::Excluded(l) => v > l,
        Bound::Unbounded => true,
    };
    let below = |v: &Value| match hi {
        Bound::Included(h) => v <= h,
        Bound::Excluded(h) => v < h,
        Bound::Unbounded => true,
    };
    model
        .iter()
        .filter(|(v, _)| above(v) && below(v))
        .flat_map(|(_, ids)| ids.iter().copied())
        .collect()
}

/// Every question the planner and executor ask, against the model.
fn check(t: &TableData, models: &[Model; 2], rng: &mut Rng, serials: u64, what: &str) {
    for (pos, (model, column)) in models.iter().zip([G, U]).enumerate() {
        let ix = &t.sec[pos];
        let what = format!("{what}, index {pos}");
        assert_eq!(ix.len(), t.len(), "{what}: entries");
        assert_eq!(ix.distinct(), model.len(), "{what}: distinct");
        for _ in 0..4 {
            let v = probe_value(rng, column, serials);
            let want: Vec<RowId> = model.get(&v).into_iter().flatten().copied().collect();
            assert_eq!(ix.get(&v).collect::<Vec<_>>(), want, "{what}: = {v}");
        }
        for _ in 0..6 {
            let (lo, hi) = (bound(rng, column, serials), bound(rng, column, serials));
            let want = model_range(model, &lo, &hi);
            let range = || ix.range(lo.as_ref(), hi.as_ref());
            assert_eq!(range().collect::<Vec<_>>(), want, "{what}: {lo:?}..{hi:?}");
            assert!(
                range().rev().eq(want.iter().rev().copied()),
                "{what}: reversed"
            );
            for cap in [ix.len() / 2 + 1, 3] {
                assert_eq!(
                    range().take(cap).count(),
                    want.len().min(cap),
                    "{what}: capped"
                );
            }
        }
    }
    t.verify_indexes().unwrap_or_else(|e| panic!("{what}: {e}"));
}

fn model_add(models: &mut [Model; 2], row: &[Value], id: RowId) {
    for (model, column) in models.iter_mut().zip([G, U]) {
        model.entry(row[column].clone()).or_default().insert(id);
    }
}

fn model_remove(models: &mut [Model; 2], row: &[Value], id: RowId) {
    for (model, column) in models.iter_mut().zip([G, U]) {
        let ids = model.get_mut(&row[column]).expect("modelled value");
        ids.remove(&id);
        if ids.is_empty() {
            model.remove(&row[column]);
        }
    }
}

fn run_case(seed: u64, steps: usize) {
    let mut rng = Rng(seed);
    let mut t = table();
    let mut models: [Model; 2] = Default::default();
    let mut serials = 0u64;
    for step in 0..steps {
        let (before, before_models) = (t.clone(), models.clone());
        let live: Vec<RowId> = t.rows.keys().copied().collect();
        let op = if live.len() < 8 { 0 } else { rng.below(10) };
        match op {
            // Inserts outnumber deletes, so the table grows to a few hundred
            // rows and runs of one `g` value span several leaves.
            0..=4 => {
                serials += 1;
                let row = vec![
                    Value::Int(serials as i64),
                    g_value(&mut rng),
                    u_value(&mut rng, serials),
                ];
                let id = t.insert(row.clone()).unwrap();
                model_add(&mut models, &row, id);
            }
            5..=7 => {
                let id = live[rng.below(live.len() as u64) as usize];
                let old = t.rows[&id].to_vec();
                let mut new = old.clone();
                if rng.below(2) == 0 {
                    new[G] = g_value(&mut rng);
                }
                if rng.below(2) == 0 {
                    serials += 1;
                    new[U] = u_value(&mut rng, serials);
                }
                t.update(id, new.clone()).unwrap();
                model_remove(&mut models, &old, id);
                model_add(&mut models, &new, id);
            }
            _ => {
                let id = live[rng.below(live.len() as u64) as usize];
                let old = t.delete(id).unwrap();
                model_remove(&mut models, &old, id);
            }
        }
        check(
            &t,
            &models,
            &mut rng,
            serials,
            &format!("seed {seed} step {step}"),
        );
        check(
            &before,
            &before_models,
            &mut rng,
            serials,
            &format!("seed {seed} step {step}, the clone taken before it"),
        );
    }
}

#[test]
fn the_flat_index_answers_as_the_model_does() {
    for seed in 1..=4 {
        run_case(seed, 700);
    }
}

// ---------------------------------------------------------------------------
// The primary-key index.
// ---------------------------------------------------------------------------

type PkModel = BTreeMap<Vec<Value>, RowId>;

/// A value of column `c` of the pk table `(a, b, c)`: few enough that keys
/// collide often. `a` mixes integers with floats, some equal to them.
fn pk_value(rng: &mut Rng, c: usize) -> Value {
    let n = rng.below(6) as i64;
    match (c, rng.below(3)) {
        (0, 0) => Value::Float(n as f64),
        (0, 1) => Value::Float(n as f64 + 0.5),
        (0, _) | (1, _) => Value::Int(n),
        _ => Value::Text(format!("k{n}")),
    }
}

fn pk_key(rng: &mut Rng, pk: &[usize]) -> Vec<Value> {
    pk.iter().map(|&c| pk_value(rng, c)).collect()
}

fn pk_bound(rng: &mut Rng, pk: &[usize]) -> Bound<Vec<Value>> {
    match rng.below(3) {
        0 => Bound::Unbounded,
        1 => Bound::Included(pk_key(rng, pk)),
        _ => Bound::Excluded(pk_key(rng, pk)),
    }
}

fn check_pk(t: &TableData, model: &PkModel, rng: &mut Rng, what: &str) {
    let pk = &t.def.primary_key;
    assert_eq!(t.pk_index.len(), model.len(), "{what}: entries");
    assert!(
        t.pk_index
            .iter()
            .map(|(k, id)| (&k[..], *id))
            .eq(model.iter().map(|(k, id)| (&k[..], *id))),
        "{what}: entries differ"
    );
    for (key, id) in model {
        assert_eq!(t.def.key_of(&t.rows[id]), *key, "{what}: row {id}");
    }
    for _ in 0..6 {
        let key = pk_key(rng, pk);
        assert_eq!(
            t.row_id_by_key(&key),
            model.get(&key).copied(),
            "{what}: {key:?}"
        );
    }
    for _ in 0..6 {
        let (lo, hi) = (pk_bound(rng, pk), pk_bound(rng, pk));
        let slices = (
            lo.as_ref().map(Vec::as_slice),
            hi.as_ref().map(Vec::as_slice),
        );
        let want: Vec<RowId> = model
            .iter()
            .filter(|(k, _)| (lo.as_ref(), hi.as_ref()).contains(*k))
            .map(|(_, id)| *id)
            .collect();
        let got = || t.pk_index.range::<[Value], _>(slices).map(|(_, id)| *id);
        assert_eq!(got().collect::<Vec<_>>(), want, "{what}: {lo:?}..{hi:?}");
        assert!(
            got().rev().eq(want.iter().rev().copied()),
            "{what}: reversed"
        );
    }
}

fn run_pk_case(seed: u64, pk: Vec<usize>, steps: usize) {
    let mut rng = Rng(seed);
    let mut t = TableData::new(
        TableDef::new(
            "dbo.k",
            Schema::new(vec![
                Column::new("a", DataType::Float),
                Column::new("b", DataType::Int),
                Column::new("c", DataType::Text),
                Column::new("v", DataType::Int),
            ]),
        )
        .with_primary_key(pk.clone()),
    );
    let mut model = PkModel::new();
    let key_of = |row: &[Value]| pk.iter().map(|&c| row[c].clone()).collect::<Vec<_>>();
    for step in 0..steps {
        let what = format!("seed {seed} key {pk:?} step {step}");
        let (before, before_model) = (t.clone(), model.clone());
        let live: Vec<RowId> = t.rows.keys().copied().collect();
        let mut row: Vec<Value> = (0..3).map(|c| pk_value(&mut rng, c)).collect();
        row.push(Value::Int(step as i64));
        match if live.len() < 8 { 0 } else { rng.below(10) } {
            0..=4 => match t.insert(row.clone()) {
                Ok(id) => assert!(model.insert(key_of(&row), id).is_none(), "{what}"),
                Err(e) => {
                    assert!(matches!(e, StoreError::DuplicateKey(_)), "{what}: {e}");
                    assert!(model.contains_key(&key_of(&row)), "{what}: refused");
                }
            },
            5..=7 => {
                let id = live[rng.below(live.len() as u64) as usize];
                let old = t.rows[&id].to_vec();
                // Half the updates keep the key and change only `v`.
                if rng.below(2) == 0 {
                    row = old.clone();
                    row[3] = Value::Int(-(step as i64));
                }
                let (was, is) = (key_of(&old), key_of(&row));
                match t.update(id, row.clone()) {
                    Ok(prev) => {
                        assert_eq!(prev, old, "{what}");
                        model.remove(&was);
                        assert!(model.insert(is, id).is_none(), "{what}");
                    }
                    Err(e) => {
                        assert!(matches!(e, StoreError::DuplicateKey(_)), "{what}: {e}");
                        assert!(was != is && model.contains_key(&is), "{what}: refused");
                        assert_eq!(*t.rows[&id], old, "{what}: a refused update");
                    }
                }
            }
            _ => {
                let id = live[rng.below(live.len() as u64) as usize];
                let old = t.delete(id).unwrap();
                assert_eq!(model.remove(&key_of(&old)), Some(id), "{what}");
            }
        }
        check_pk(&t, &model, &mut rng, &what);
        check_pk(
            &before,
            &before_model,
            &mut rng,
            &format!("{what}, the clone"),
        );
    }
}

#[test]
fn the_pk_index_answers_as_the_model_does() {
    // One column; two adjacent ones, looked up as a borrowed run of the
    // row; two out of schema order, collected.
    for pk in [vec![0], vec![1, 2], vec![2, 0]] {
        for seed in 1..=3 {
            run_pk_case(seed, pk.clone(), 400);
        }
    }
}
