//! Recovery-at-scale runner: load N tables × M records of WAL, crash, and
//! measure what recovery costs — WAL replay time, time-to-first-reply
//! through a full server restart, and the checkpoint writer-lock pause
//! (full vs incremental).
//!
//! Emits `BENCH_recovery.json`:
//!
//! ```text
//! cargo run --release -p phoenix-bench --bin recovery_storm -- --quick
//! cargo run --release -p phoenix-bench --bin recovery_storm -- \
//!     --out BENCH_recovery.json
//! ```
//!
//! `--check` additionally asserts the recovered images are correct (row
//! counts, and a cold open bit-identical to an applier fed the same log
//! frame by frame, the way a standby is), which is what the CI job runs.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use phoenix_driver::Environment;
use phoenix_engine::EngineConfig;
use phoenix_server::ServerHarness;
use phoenix_storage::applier::{frame_payload, Applier};
use phoenix_storage::db::{Durability, Durable, RecoveryOptions, RecoveryReport};
use phoenix_storage::record::LogRecord;
use phoenix_storage::types::{Column, DataType, Row, Schema, TableDef, Value};
use phoenix_storage::wal::Wal;

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
    let t = db.begin().unwrap();
    for i in 0..spec.tables {
        db.create_table(t, def(&table_name(i))).unwrap();
    }
    db.commit(t).unwrap();

    const BATCH: u64 = 50;
    let mut written = 0u64;
    let mut round = 0u64;
    while written < spec.records {
        for i in 0..spec.tables {
            if written >= spec.records {
                break;
            }
            let name = table_name(i);
            let t = db.begin().unwrap();
            let n = BATCH.min(spec.records - written);
            for k in 0..n {
                let id = (round * BATCH + k) as i64;
                db.insert(
                    t,
                    &name,
                    vec![
                        Value::Int(id),
                        Value::Int((written + k) as i64),
                        Value::Text(format!("storm-{i}-{id}")),
                    ],
                )
                .unwrap();
            }
            db.commit(t).unwrap();
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

/// The standby's schedule of the applier: loaded from an empty directory,
/// then fed `src`'s log one frame at a time, each appended to the
/// directory's own log first; promoted at the end.
fn open_fed_frame_by_frame(src: &Durable) -> (Durable, PathBuf) {
    let dir = temp_dir("fed");
    let mut applier = Applier::load(&dir).unwrap();
    let mut wal = Wal::open(Durable::wal_path(&dir)).unwrap();
    for (gsn, record) in src.repl_attach(0).unwrap() {
        wal.append(&frame_payload(gsn, &record)).unwrap();
        applier
            .feed(gsn, LogRecord::decode(&record).unwrap())
            .unwrap();
    }
    src.repl_detach();
    drop(wal);
    let opts = RecoveryOptions::default();
    let db = Durable::open_warm(&dir, Durability::Fsync, &opts, applier).unwrap();
    (db, dir)
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

fn snapshot_rows(db: &Durable, tables: usize) -> Vec<(u64, Vec<(u64, Row)>)> {
    let snap = db.snapshot();
    (0..tables)
        .map(|i| {
            let t = snap
                .table(&table_name(i))
                .unwrap_or_else(|_| panic!("missing {}", table_name(i)));
            let mut rows: Vec<_> = t.rows.iter().map(|(id, r)| (*id, r.clone())).collect();
            rows.sort_by_key(|(id, _)| *id);
            (t.next_row_id, rows)
        })
        .collect()
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
        let cold_db = open(&dir);
        let cold = snapshot_rows(&cold_db, spec.tables);
        let (fed_db, fed_dir) = open_fed_frame_by_frame(&cold_db);
        let fed = snapshot_rows(&fed_db, spec.tables);
        let _ = std::fs::remove_dir_all(&fed_dir);
        assert_eq!(
            cold, fed,
            "frame-by-frame-fed applier diverged from cold open"
        );
        let total: usize = cold.iter().map(|(_, rows)| rows.len()).sum();
        assert_eq!(total as u64, spec.records, "row count after recovery");
        eprintln!(
            "recovery_storm[{}]: check ok ({} rows, cold open == fed applier)",
            spec.name, total
        );
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
    let t = db.begin().unwrap();
    db.insert(
        t,
        &table_name(0),
        vec![Value::Int(-1), Value::Int(-1), Value::Text("touch".into())],
    )
    .unwrap();
    db.commit(t).unwrap();
    db.checkpoint().unwrap();
    let incr = db.checkpoint_stats();
    // Leave one table's worth of log tail past the checkpoint, and restart:
    // that table is read during the open, the rest after it.
    let t = db.begin().unwrap();
    db.insert(
        t,
        &table_name(0),
        vec![Value::Int(-2), Value::Int(-2), Value::Text("tail".into())],
    )
    .unwrap();
    db.commit(t).unwrap();
    drop(db);
    let db = open(&dir);
    let (reopened, drained) = (db.recovery_report().clone(), db.drain_report());
    drop(db);
    eprintln!(
        "recovery_storm[{}]: checkpoint pause full {} us ({} segs) vs incremental {} us ({} segs)",
        spec.name, full.pause_us, full.segments_written, incr.pause_us, incr.segments_written
    );
    eprintln!(
        "recovery_storm[{}]: after the checkpoint: recovered: {reopened}",
        spec.name
    );
    eprintln!(
        "recovery_storm[{}]: after the checkpoint: drained: {drained}",
        spec.name
    );
    if check {
        assert_eq!(
            incr.segments_written, 1,
            "incremental checkpoint rewrote {incr:?}"
        );
        assert_eq!(
            (reopened.segments_loaded_at_open, reopened.segments_total),
            (1, spec.tables),
            "a restart reads the segments its log tail writes to: {reopened}"
        );
        assert_eq!(drained.tables, spec.tables - 1, "{drained}");
        assert!(drained.unreadable.is_empty(), "{drained}");
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
    let mut out = String::from("BENCH_recovery.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--out" => out = it.next().expect("--out needs a path").clone(),
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
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    eprintln!("recovery_storm: wrote {out}");
    print!("{json}");
}
