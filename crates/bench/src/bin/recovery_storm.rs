//! Recovery-at-scale runner: load N tables × M records of WAL, crash, and
//! measure what recovery costs — WAL replay time, time-to-first-reply
//! through a full server restart, and the checkpoint writer-lock pause
//! (full vs incremental).
//!
//! Prints its JSON record to stdout, and writes it to a file only when
//! `--out` names one (so a quick run never overwrites the checked-in
//! `BENCH_recovery.json`). To re-record that file:
//!
//! ```text
//! cargo run --release -p phoenix-bench --bin recovery_storm -- --quick
//! cargo run --release -p phoenix-bench --bin recovery_storm -- \
//!     --out BENCH_recovery.json
//! ```
//!
//! `--check` additionally asserts the recovered image is correct (every
//! loaded row is there), which is what the CI job runs.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use phoenix_driver::Environment;
use phoenix_engine::EngineConfig;
use phoenix_server::ServerHarness;
use phoenix_storage::db::{Durability, Durable, RecoveryReport};
use phoenix_storage::types::{Column, DataType, Schema, TableDef, Value};

/// One log size to storm: `tables` session tables, `records` total rows.
struct SizeSpec {
    name: &'static str,
    tables: usize,
    records: u64,
}

const QUICK: &[SizeSpec] = &[
    SizeSpec {
        name: "small",
        tables: 4,
        records: 5_000,
    },
    SizeSpec {
        name: "medium",
        tables: 8,
        records: 20_000,
    },
];

const FULL: &[SizeSpec] = &[
    SizeSpec {
        name: "small",
        tables: 4,
        records: 5_000,
    },
    SizeSpec {
        name: "medium",
        tables: 8,
        records: 20_000,
    },
    SizeSpec {
        name: "large",
        tables: 8,
        records: 100_000,
    },
];

struct SizeResult {
    name: &'static str,
    tables: usize,
    records: u64,
    wal_frames: usize,
    replay_us: u64,
    ttfr_us: u64,
    ckpt_full_pause_us: u64,
    ckpt_full_total_us: u64,
    ckpt_full_segments: usize,
    ckpt_incr_pause_us: u64,
    ckpt_incr_total_us: u64,
    ckpt_incr_segments: usize,
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "phoenix-recovery-storm-{tag}-{}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn table_name(i: usize) -> String {
    format!("dbo.sess{i:02}")
}

fn def(name: &str) -> TableDef {
    TableDef::new(
        name,
        Schema::new(vec![
            Column::new("id", DataType::Int).not_null(),
            Column::new("seq", DataType::Int),
            Column::new("note", DataType::Text),
        ]),
    )
    .with_primary_key(vec![0])
}

/// Load the storm: every "session" table gets its share of `records` rows,
/// committed in batches, interleaved across tables the way concurrent
/// sessions would interleave in the log. Buffered durability keeps the
/// load phase out of the measurement; the WAL bytes are identical.
fn load(dir: &Path, spec: &SizeSpec) {
    let db = Durable::open(dir, Durability::Buffered).unwrap();
    let mut t = db.begin_txn();
    for i in 0..spec.tables {
        t.create_table(def(&table_name(i))).unwrap();
    }
    db.commit_txn(t).unwrap();

    const BATCH: u64 = 50;
    let mut written = 0u64;
    let mut round = 0u64;
    while written < spec.records {
        for i in 0..spec.tables {
            if written >= spec.records {
                break;
            }
            let name = table_name(i);
            let mut t = db.begin_txn();
            let n = BATCH.min(spec.records - written);
            for k in 0..n {
                let id = (round * BATCH + k) as i64;
                t.insert(
                    &name,
                    vec![
                        Value::Int(id),
                        Value::Int((written + k) as i64),
                        Value::Text(format!("storm-{i}-{id}")),
                    ],
                )
                .unwrap();
            }
            db.commit_txn(t).unwrap();
            written += n;
        }
        round += 1;
    }
    // Crash: drop without checkpoint — the whole load is WAL to replay.
}

/// Flat copy of the data directory (the WAL plus any snapshot files), so a
/// measurement that mutates the directory — the server harness checkpoints
/// on shutdown — runs against a throwaway clone of the crashed state.
fn clone_dir(src: &Path, tag: &str) -> PathBuf {
    let dst = temp_dir(tag);
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
    }
    dst
}

fn open(dir: &Path) -> Durable {
    Durable::open(dir, Durability::Fsync).unwrap()
}

/// The open with the best replay time of `reps`. Recovery never mutates the
/// log, so reopening the same directory is repeatable.
fn measure_replay(dir: &Path, reps: usize) -> RecoveryReport {
    (0..reps)
        .map(|_| open(dir).recovery_report().clone())
        .min_by_key(|rep| rep.replay_us)
        .expect("at least one rep")
}

/// The share of `open_us` the report's four stages account for.
fn stage_coverage(rep: &RecoveryReport) -> f64 {
    let stages = rep.manifest_us + rep.segment_load_us + rep.wal_read_us + rep.apply_us;
    stages as f64 / rep.open_us.max(1) as f64
}

/// Full server restart on the crashed directory: process start → engine
/// recovery → TCP accept → first statement answered.
fn measure_ttfr(dir: &Path) -> u64 {
    let config = EngineConfig {
        // Keep the directory pristine: no auto-checkpoint after recovery.
        checkpoint_every: None,
        ..EngineConfig::default()
    };
    let start = Instant::now();
    let mut h = ServerHarness::start(dir, config).unwrap();
    let mut conn = Environment::new()
        .with_read_timeout(Some(Duration::from_secs(30)))
        .connect(&h.addr(), "storm", "bench")
        .unwrap();
    conn.execute("SELECT COUNT(*) FROM dbo.sess00").unwrap();
    let ttfr = start.elapsed().as_micros() as u64;
    conn.close();
    h.shutdown();
    ttfr
}

/// Rows across the storm's tables, each of which must be there.
fn row_count(db: &Durable, tables: usize) -> usize {
    let snap = db.snapshot();
    (0..tables)
        .map(|i| {
            snap.table(&table_name(i))
                .unwrap_or_else(|_| panic!("missing {}", table_name(i)))
                .len()
        })
        .sum()
}

fn run_size(spec: &SizeSpec, reps: usize, check: bool) -> SizeResult {
    let dir = temp_dir(spec.name);
    eprintln!(
        "recovery_storm[{}]: loading {} records across {} tables…",
        spec.name, spec.records, spec.tables
    );
    load(&dir, spec);

    let replayed = measure_replay(&dir, reps);
    let (replay_us, wal_frames) = (replayed.replay_us, replayed.wal_frames);
    eprintln!(
        "recovery_storm[{}]: replay {} frames in {} us",
        spec.name, wal_frames, replay_us
    );
    eprintln!(
        "recovery_storm[{}]: recovered: {replayed} (stages cover {:.2} of the open)",
        spec.name,
        stage_coverage(&replayed)
    );

    if check {
        let total = row_count(&open(&dir), spec.tables);
        assert_eq!(total as u64, spec.records, "row count after recovery");
        eprintln!("recovery_storm[{}]: check ok ({} rows)", spec.name, total);
    }

    // The harness checkpoints the directory on shutdown, so time-to-first-
    // reply runs on a throwaway clone of the crashed state.
    let ttfr_dir = clone_dir(&dir, "ttfr");
    let ttfr_us = measure_ttfr(&ttfr_dir);
    let _ = std::fs::remove_dir_all(&ttfr_dir);
    eprintln!(
        "recovery_storm[{}]: time-to-first-reply {} us",
        spec.name, ttfr_us
    );

    // Checkpoint pause, full vs incremental: the first checkpoint
    // serializes every table; after touching one table, the second
    // serializes exactly that one. `pause_us` is the writer-lock hold.
    let db = open(&dir);
    db.checkpoint().unwrap();
    let full = db.checkpoint_stats();
    let mut t = db.begin_txn();
    t.insert(
        &table_name(0),
        vec![Value::Int(-1), Value::Int(-1), Value::Text("touch".into())],
    )
    .unwrap();
    db.commit_txn(t).unwrap();
    db.checkpoint().unwrap();
    let incr = db.checkpoint_stats();
    // Leave one table's worth of log tail past the checkpoint, and restart:
    // the open reads no segment and leaves that table behind its one-insert
    // tail; touching every table then loads each and redoes the tail.
    let mut t = db.begin_txn();
    t.insert(
        &table_name(0),
        vec![Value::Int(-2), Value::Int(-2), Value::Text("tail".into())],
    )
    .unwrap();
    db.commit_txn(t).unwrap();
    drop(db);
    let db = open(&dir);
    let reopened = db.recovery_report().clone();
    let snap = db.snapshot();
    let loaded = (0..spec.tables)
        .filter(|&i| snap.table(&table_name(i)).is_ok())
        .count();
    let tail_row = snap
        .table(&table_name(0))
        .map(|t| t.rows.values().any(|r| r[0] == Value::Int(-2)));
    drop((snap, db));
    eprintln!(
        "recovery_storm[{}]: checkpoint pause full {} us ({} segs) vs incremental {} us ({} segs)",
        spec.name, full.pause_us, full.segments_written, incr.pause_us, incr.segments_written
    );
    eprintln!(
        "recovery_storm[{}]: after the checkpoint: recovered: {reopened}",
        spec.name
    );
    if check {
        assert_eq!(
            incr.segments_written, 1,
            "incremental checkpoint rewrote {incr:?}"
        );
        assert_eq!(
            (reopened.segments_loaded_at_open, reopened.segments_total),
            (0, spec.tables),
            "a restart reads no segment: {reopened}"
        );
        assert_eq!(
            (reopened.tables_behind, reopened.records_deferred),
            (1, 1),
            "the tail's one insert waits on its table: {reopened}"
        );
        assert_eq!(loaded, spec.tables, "every table loads on first touch");
        assert_eq!(tail_row, Ok(true), "the tail's insert is redone");
        assert!(
            stage_coverage(&replayed) >= 0.9,
            "the stages must account for the open: {replayed}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
    SizeResult {
        name: spec.name,
        tables: spec.tables,
        records: spec.records,
        wal_frames,
        replay_us,
        ttfr_us,
        ckpt_full_pause_us: full.pause_us,
        ckpt_full_total_us: full.total_us,
        ckpt_full_segments: full.segments_written,
        ckpt_incr_pause_us: incr.pause_us,
        ckpt_incr_total_us: incr.total_us,
        ckpt_incr_segments: incr.segments_written,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut check = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--out" => out = Some(it.next().expect("--out needs a path").clone()),
            other => panic!("unknown flag {other} (expected --quick/--check/--out)"),
        }
    }

    let (mode, sizes, reps) = if quick {
        ("quick", QUICK, 2)
    } else {
        ("full", FULL, 3)
    };
    let results: Vec<SizeResult> = sizes.iter().map(|s| run_size(s, reps, check)).collect();

    let body = results
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"size\": \"{}\",\n      \"tables\": {},\n      \"records\": {},\n      \"wal_frames\": {},\n      \"replay_us\": {},\n      \"time_to_first_reply_us\": {},\n      \"checkpoint\": {{\n        \"full_pause_us\": {},\n        \"full_total_us\": {},\n        \"full_segments_written\": {},\n        \"incremental_pause_us\": {},\n        \"incremental_total_us\": {},\n        \"incremental_segments_written\": {}\n      }}\n    }}",
                r.name,
                r.tables,
                r.records,
                r.wal_frames,
                r.replay_us,
                r.ttfr_us,
                r.ckpt_full_pause_us,
                r.ckpt_full_total_us,
                r.ckpt_full_segments,
                r.ckpt_incr_pause_us,
                r.ckpt_incr_total_us,
                r.ckpt_incr_segments,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"recovery_storm\",\n  \"mode\": \"{mode}\",\n  \"host_parallelism\": {host},\n  \"sizes\": [\n{body}\n  ]\n}}\n"
    );
    if let Some(out) = out {
        std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
        eprintln!("recovery_storm: wrote {out}");
    }
    print!("{json}");
}
