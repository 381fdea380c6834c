//! The cost of a write as the table grows, by the clock. Ignored by default
//! (a timing assertion has no place in a debug-mode test run); the numbers
//! in EXPERIMENTS.md come from
//!
//! ```text
//! cargo test --release -p phoenix-storage --test write_scaling -- --ignored --nocapture
//! ```
//!
//! The count-based twin that runs everywhere is
//! `crates/engine/tests/write_path.rs`.

use std::time::Instant;

use phoenix_storage::db::{Durability, Durable};
use phoenix_storage::types::{Column, DataType, Row, RowId, Schema, TableDef, Value};

fn row(id: u64, v: i64) -> Row {
    vec![
        Value::Int(id as i64),
        Value::Int((id % 7) as i64),
        Value::Int(v),
        Value::Text("p".repeat(80)),
    ]
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// `(single-row UPDATE µs, 100-row DELETE ms)`, medians, on a table of
/// `rows` rows with a primary key and a 7-value secondary index. Every
/// write finds the previous statement's published snapshot still alive, so
/// nothing is ever written in place.
fn measure(rows: u64) -> (f64, f64) {
    let dir = std::env::temp_dir().join(format!("phoenix-scaling-{}-{rows}", std::process::id()));
    let db = Durable::open(&dir, Durability::Buffered).unwrap();
    let mut t = db.begin_txn();
    let def = TableDef::new(
        "dbo.t",
        Schema::new(vec![
            Column::new("id", DataType::Int).not_null(),
            Column::new("grp", DataType::Int),
            Column::new("v", DataType::Int),
            Column::new("payload", DataType::Text),
        ]),
    )
    .with_primary_key(vec![0]);
    t.create_table(def).unwrap();
    t.create_index("dbo.t", "t_grp", 1).unwrap();
    for base in (0..rows).step_by(10_000) {
        let batch = (base..(base + 10_000).min(rows)).map(|id| row(id, 0));
        t.insert_many("dbo.t", batch.collect()).unwrap();
    }
    db.commit_txn(t).unwrap();

    // Row ids are 1-based and dense; spread the updates over the table.
    let mut update_us = Vec::new();
    for i in 0..2_000u64 {
        let id = i.wrapping_mul(2_654_435_761) % rows;
        let t0 = Instant::now();
        let mut t = db.begin_txn();
        t.update("dbo.t", id + 1, row(id, i as i64 + 1)).unwrap();
        db.commit_txn(t).unwrap();
        update_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let mut delete_ms = Vec::new();
    for i in 0..10u64 {
        let first = i * (rows / 10) + 1;
        let ids: Vec<RowId> = (first..first + 100).collect();
        let t0 = Instant::now();
        let mut t = db.begin_txn();
        t.delete_many("dbo.t", &ids).unwrap();
        db.commit_txn(t).unwrap();
        delete_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    db.snapshot().verify_indexes().unwrap();
    assert_eq!(
        db.snapshot().table("dbo.t").unwrap().len() as u64,
        rows - 1_000
    );
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
    (median(update_us), median(delete_ms))
}

#[test]
#[ignore = "timing: run with --release -- --ignored --nocapture"]
fn a_write_costs_the_rows_it_touches_not_the_table() {
    let sizes = [2_000u64, 20_000, 200_000];
    let costs: Vec<(f64, f64)> = sizes.iter().map(|&n| measure(n)).collect();
    println!("| rows | single-row UPDATE (txn), µs | 100-row DELETE (txn), ms |");
    println!("|---|---|---|");
    for (n, (u, d)) in sizes.iter().zip(&costs) {
        println!("| {n} | {u:.1} | {d:.3} |");
    }
    let (small, large) = (costs[0], costs[2]);
    assert!(large.0 < 200.0, "UPDATE at 200k rows: {:.1} µs", large.0);
    assert!(
        large.0 <= 3.0 * small.0,
        "UPDATE grew {:.1}× from 2k to 200k rows",
        large.0 / small.0
    );
    assert!(
        large.1 < 5.0,
        "100-row DELETE at 200k rows: {:.3} ms",
        large.1
    );
}
