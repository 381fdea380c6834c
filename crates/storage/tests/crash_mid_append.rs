//! Satellite regression: a crash *mid-append* (torn WAL frame) followed by
//! recovery and new appends must never lose the new work.
//!
//! Before `Wal::open` learned to truncate the torn tail, the sequence
//! "crash mid-append → recover → commit new txn → crash again" silently lost
//! the new commit: the post-recovery frames sat after the garbage bytes,
//! where the tail-scan discipline discards them.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use phoenix_chaos as chaos;
use phoenix_storage::db::{Durability, Durable};
use phoenix_storage::types::{Column, DataType, Row, Schema, TableDef, Value};
use phoenix_storage::wal::Wal;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "phoenix-crash-mid-append-{}-{tag}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn def() -> TableDef {
    TableDef::new(
        "dbo.t",
        Schema::new(vec![
            Column::new("id", DataType::Int).not_null(),
            Column::new("v", DataType::Text),
        ]),
    )
    .with_primary_key(vec![0])
}

fn row(id: i64, v: &str) -> Row {
    vec![Value::Int(id), Value::Text(v.into())]
}

fn ids(db: &Durable) -> Vec<i64> {
    let snap = db.snapshot();
    let mut ids: Vec<i64> = snap
        .table("dbo.t")
        .unwrap()
        .rows
        .values()
        .map(|r| match r[0] {
            Value::Int(i) => i,
            _ => panic!("non-int id"),
        })
        .collect();
    ids.sort_unstable();
    ids
}

#[test]
fn crash_mid_append_then_append_keeps_both_sides() {
    let dir = temp_dir("torn");

    // A committed transaction the crash must not touch.
    {
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let t = db.begin().unwrap();
        db.create_table(t, def()).unwrap();
        db.insert(t, "dbo.t", row(1, "before")).unwrap();
        db.commit(t).unwrap();
    }

    // Die mid-append: the next WAL append persists 11 bytes of its frame
    // and fails, leaving a torn tail on disk.
    {
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        // Arm after `begin` — the torn frame is the *insert's* log record.
        let t = db.begin().unwrap();
        let guard = chaos::arm(chaos::Schedule::new().torn_at("wal.append", 1, 11));
        let err = db.insert(t, "dbo.t", row(2, "torn")).unwrap_err();
        assert!(err.to_string().contains("phoenix-chaos"));
        assert!(guard.crash_requested());
        assert_eq!(guard.fired().len(), 1);
        drop(guard);
        // Process death: drop the handle without abort/checkpoint.
    }

    // Recover; the uncommitted torn record must be invisible, and — the
    // actual regression — a *new* commit after recovery must be readable.
    {
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        assert_eq!(ids(&db), vec![1], "torn uncommitted insert is gone");
        let t = db.begin().unwrap();
        db.insert(t, "dbo.t", row(3, "after")).unwrap();
        db.commit(t).unwrap();
    }

    // Crash again (drop without checkpoint) and recover: both the original
    // commit and the post-recovery commit survive.
    {
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        assert_eq!(ids(&db), vec![1, 3], "append after torn tail survived");
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_frame_bytes_are_really_on_disk_and_trimmed() {
    let dir = temp_dir("trim");
    let wal_path;

    {
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let t = db.begin().unwrap();
        db.create_table(t, def()).unwrap();
        db.commit(t).unwrap();
        wal_path = dir.join("phoenix.wal");

        let t = db.begin().unwrap();
        let clean_len = std::fs::metadata(&wal_path).unwrap().len();
        let _guard = chaos::arm(chaos::Schedule::new().torn_at("wal.append", 1, 5));
        db.insert(t, "dbo.t", row(9, "x")).unwrap_err();
        // The torn prefix reached the file: exactly 5 bytes past the clean end.
        assert_eq!(
            std::fs::metadata(&wal_path).unwrap().len(),
            clean_len + 5,
            "torn write left a partial frame on disk"
        );
    }

    // Reopening the raw WAL trims the partial frame before the first append.
    let frames_before = Wal::read_all(&wal_path).unwrap();
    let mut wal = Wal::open(&wal_path).unwrap();
    wal.append(b"fresh").unwrap();
    wal.flusher().sync().unwrap();
    drop(wal);
    let frames_after = Wal::read_all(&wal_path).unwrap();
    assert_eq!(frames_after.len(), frames_before.len() + 1);
    assert_eq!(frames_after.last().unwrap(), b"fresh");

    std::fs::remove_dir_all(&dir).unwrap();
}
