//! What a loaded table costs in heap, counted by the allocator itself: a
//! `#[global_allocator]` that forwards to the system allocator and keeps
//! the bytes live and their high-water mark. One test, so nothing else in
//! this binary allocates while it counts.
//!
//! A 50 000-row table shaped like the benchmark's `point_read` table —
//! `(id INT PRIMARY KEY, sk INT, payload TEXT)`, `sk` a permutation of the
//! ids under a secondary index — is written as a segment and loaded back:
//! - the load may hold at its peak no more than what it keeps, plus 2 MiB,
//!   plus one 16-byte-per-row sort buffer (the segment is streamed, not
//!   read whole, and rows go straight into their map);
//! - the secondary index keeps at most 48 bytes per row (one flat set of
//!   `(value, row id)` pairs, not a set per value);
//! - the primary-key index keeps at most 40 bytes per row (a one-column
//!   key held inline, not in a `Vec` of its own).
//!
//! And a length lie costs no more than the bytes that carry it: a row or a
//! schema whose `u16` arity claims 65 535 entries reserves room for no
//! more than the bytes left could hold.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use phoenix_storage::codec;
use phoenix_storage::snapshot;
use phoenix_storage::types::{Column, DataType, Schema, TableDef, Value};
use phoenix_storage::TableData;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's own arguments,
// so `System`'s guarantees are the caller's; the counters are only read.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `p` came from `alloc` with `layout`.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s
        // contract for `p` and `layout`.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            let live = LIVE.fetch_add(new_size, Ordering::Relaxed) + new_size;
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        q
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Run `f`; return what it returned, the bytes it left allocated, and the
/// most it had allocated at once, both over the live bytes before it.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    let after = LIVE.load(Ordering::Relaxed);
    let peak = PEAK.load(Ordering::Relaxed);
    (out, after.saturating_sub(before), peak - before)
}

/// Drop `t`; return the bytes that freed.
fn freed<T>(t: T) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    drop(t);
    before - LIVE.load(Ordering::Relaxed)
}

const ROWS: u64 = 50_000;
const MIB: usize = 1 << 20;

#[test]
fn a_loaded_table_costs_its_rows_and_a_length_lie_costs_nothing() {
    let dir = std::env::temp_dir().join(format!("phoenix-segmem-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.seg");
    {
        let mut t = TableData::new(
            TableDef::new(
                "dbo.pr",
                Schema::new(vec![
                    Column::new("id", DataType::Int).not_null(),
                    Column::new("sk", DataType::Int).not_null(),
                    Column::new("payload", DataType::Text),
                ]),
            )
            .with_primary_key(vec![0]),
        );
        for id in 0..ROWS {
            // An odd multiplier modulo the row count: a permutation.
            let sk = (id * 7_919 + 13) % ROWS;
            let payload = format!("{id:08}-{}", "p".repeat(70));
            t.insert(vec![
                Value::Int(id as i64),
                Value::Int(sk as i64),
                Value::Text(payload),
            ])
            .unwrap();
        }
        t.create_index("ix_pr_sk", 1).unwrap();
        snapshot::write_segment(&path, &t).unwrap();
    }

    let (loaded, retained, peak) = measure(|| snapshot::load_segment(&path).unwrap());
    let rows = ROWS as usize;
    assert_eq!(loaded.len(), rows);
    loaded.verify_indexes().unwrap();
    let transient = peak - retained;
    assert!(
        transient <= 2 * MIB + 16 * rows,
        "the load peaked {transient} bytes over the {retained} it keeps"
    );

    let mut loaded = loaded;
    let index_bytes = freed(std::mem::take(&mut loaded.sec[0]));
    assert!(
        index_bytes <= 48 * rows,
        "the index keeps {index_bytes} bytes, {} per row",
        index_bytes / rows
    );
    let pk_bytes = freed(std::mem::take(&mut loaded.pk_index));
    assert!(
        pk_bytes <= 40 * rows,
        "the pk index keeps {pk_bytes} bytes, {} per row",
        pk_bytes / rows
    );
    drop(loaded);

    // A row claiming 65 535 values followed by three NULLs, and a schema
    // claiming 65 535 columns followed by one: each decode fails, having
    // reserved no more than the bytes could hold.
    let mut row = vec![0xFF, 0xFF];
    row.extend([0u8; 3]);
    let (res, _, peak) = measure(|| codec::get_row(&mut &row[..]));
    assert!(res.is_err());
    assert!(peak <= 4096, "a row's arity lie reserved {peak} bytes");
    let mut schema = vec![0xFF, 0xFF];
    codec::put_schema(
        &mut schema,
        &Schema::new(vec![Column::new("a", DataType::Int)]),
    );
    schema.drain(2..4);
    let (res, _, peak) = measure(|| codec::get_schema(&mut &schema[..]));
    assert!(res.is_err());
    assert!(peak <= 4096, "a schema's arity lie reserved {peak} bytes");
    std::fs::remove_dir_all(&dir).unwrap();
}
