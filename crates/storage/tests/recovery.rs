//! Recovery regressions for the checkpoint/replay interlock.
//!
//! The headline case: a checkpoint that commits its new manifest and then
//! dies *before* discarding the rotated log (the `checkpoint.truncate`
//! fault point) leaves both the snapshot image and the log records that
//! built it on disk. Before the snapshot carried a committed-txn
//! high-water mark, recovery replayed those records on top of the image —
//! increments overshot and re-inserted keys raised duplicate-key errors.
//! With the mark, records of transactions the image already materializes
//! (`txn ≤ mark`) are skipped and everything applies exactly once.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use phoenix_chaos as chaos;
use phoenix_storage::applier::{frame_payload, recover};
use phoenix_storage::db::{Durability, Durable};
use phoenix_storage::record::LogRecord;
use phoenix_storage::types::{Column, DataType, Row, Schema, TableDef, Value};
use phoenix_storage::wal::Wal;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("phoenix-recovery-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn def(name: &str) -> TableDef {
    TableDef::new(
        name,
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

fn ids(db: &Durable, table: &str) -> Vec<i64> {
    let snap = db.snapshot();
    let mut ids: Vec<i64> = snap
        .table(table)
        .unwrap_or_else(|_| panic!("table {table} missing"))
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

fn commit_rows(db: &Durable, table: &str, rows: &[(i64, &str)]) {
    let mut t = db.begin_txn();
    for (id, v) in rows {
        t.insert(table, row(*id, v)).unwrap();
    }
    db.commit_txn(t).unwrap();
}

/// Headline regression: crash after the new manifest is durable but before
/// the rotated log is discarded. Recovery sees *both* the checkpoint image
/// and the log that produced it; the mark must keep it from applying the
/// log a second time. Pre-fix this failed with a duplicate-key recovery
/// error (the snapshot lacked a mark and replay was unfiltered).
#[test]
fn checkpoint_crash_before_truncate_does_not_double_apply() {
    let dir = temp_dir("truncate-window");

    {
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let mut t = db.begin_txn();
        t.create_table(def("dbo.t")).unwrap();
        db.commit_txn(t).unwrap();
        commit_rows(&db, "dbo.t", &[(1, "a"), (2, "b"), (3, "c")]);

        let guard = chaos::arm(chaos::Schedule::new().crash_at("checkpoint.truncate", 1));
        let err = db.checkpoint().unwrap_err();
        assert!(err.to_string().contains("phoenix-chaos"));
        assert_eq!(guard.fired().len(), 1);
        drop(guard);
        // Process death: the rotated log (phoenix.wal.old) is still on disk
        // next to the freshly committed manifest.
        assert!(dir.join("phoenix.wal.old").exists());
    }

    {
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        assert_eq!(
            ids(&db, "dbo.t"),
            vec![1, 2, 3],
            "rows applied exactly once"
        );
        let rep = db.recovery_report();
        assert!(
            rep.records_skipped > 0,
            "the mark must have filtered the rotated log: {rep:?}"
        );
        assert_eq!(rep.records_applied, 0, "image already held everything");

        // The database stays fully usable: new commits land and survive.
        commit_rows(&db, "dbo.t", &[(4, "d")]);
    }

    {
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        assert_eq!(ids(&db, "dbo.t"), vec![1, 2, 3, 4]);
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Crash at `checkpoint.write`: the log is already rotated aside but no new
/// manifest exists. Recovery must replay the rotated log (plus the fresh
/// live log) against the *previous* image.
#[test]
fn checkpoint_crash_at_write_keeps_old_image() {
    let dir = temp_dir("write-crash");

    {
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let mut t = db.begin_txn();
        t.create_table(def("dbo.t")).unwrap();
        db.commit_txn(t).unwrap();
        commit_rows(&db, "dbo.t", &[(1, "a"), (2, "b")]);

        let guard = chaos::arm(chaos::Schedule::new().crash_at("checkpoint.write", 1));
        db.checkpoint().unwrap_err();
        assert_eq!(guard.fired().len(), 1);
        drop(guard);
    }

    {
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        assert_eq!(ids(&db, "dbo.t"), vec![1, 2], "replayed from rotated log");
        assert!(db.recovery_report().records_applied > 0);
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Satellite: `Durable::open` tolerates a torn tail on the *live* log while
/// a rotated log sits next to it — the same tail-validation `Wal::open`
/// applies governs both files on the read path.
#[test]
fn torn_live_tail_with_rotated_log_recovers() {
    let dir = temp_dir("torn-with-old");

    {
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let mut t = db.begin_txn();
        t.create_table(def("dbo.t")).unwrap();
        db.commit_txn(t).unwrap();
        commit_rows(&db, "dbo.t", &[(1, "a"), (2, "b")]);

        // Leave a rotated log behind: checkpoint dies after its manifest.
        let guard = chaos::arm(chaos::Schedule::new().crash_at("checkpoint.truncate", 1));
        db.checkpoint().unwrap_err();
        drop(guard);
    }

    {
        // New incarnation: commit into the live log, then tear its tail.
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        commit_rows(&db, "dbo.t", &[(3, "c")]);
        let mut t = db.begin_txn();
        t.insert("dbo.t", row(4, "torn")).unwrap();
        let guard = chaos::arm(chaos::Schedule::new().torn_at("wal.append", 1, 7));
        db.commit_txn(t).unwrap_err();
        assert_eq!(guard.fired().len(), 1);
        drop(guard);
    }

    {
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        assert_eq!(
            ids(&db, "dbo.t"),
            vec![1, 2, 3],
            "committed rows exactly once, torn record invisible"
        );
        commit_rows(&db, "dbo.t", &[(5, "e")]);
    }

    {
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        assert_eq!(ids(&db, "dbo.t"), vec![1, 2, 3, 5]);
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Incremental checkpoints: a second checkpoint after touching one of four
/// tables serializes exactly that table and reuses the other segments.
#[test]
fn incremental_checkpoint_rewrites_only_touched_tables() {
    let dir = temp_dir("incremental");
    let db = Durable::open(&dir, Durability::Fsync).unwrap();

    let mut t = db.begin_txn();
    for name in ["dbo.a", "dbo.b", "dbo.c", "dbo.d"] {
        t.create_table(def(name)).unwrap();
    }
    db.commit_txn(t).unwrap();
    for name in ["dbo.a", "dbo.b", "dbo.c", "dbo.d"] {
        commit_rows(&db, name, &[(1, "x"), (2, "y")]);
    }

    db.checkpoint().unwrap();
    let full = db.checkpoint_stats();
    assert_eq!(
        full.segments_written, 4,
        "first checkpoint writes everything"
    );
    assert_eq!(full.segments_reused, 0);

    commit_rows(&db, "dbo.c", &[(3, "z")]);
    db.checkpoint().unwrap();
    let incr = db.checkpoint_stats();
    assert_eq!(incr.segments_written, 1, "only the touched table: {incr:?}");
    assert_eq!(incr.segments_reused, 3);

    // The incremental image recovers to the same state.
    drop(db);
    let db = Durable::open(&dir, Durability::Fsync).unwrap();
    assert_eq!(ids(&db, "dbo.a"), vec![1, 2]);
    assert_eq!(ids(&db, "dbo.c"), vec![1, 2, 3]);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint that fails after rotating the log leaves `phoenix.wal.old`
/// behind *in-process*. Later commits write to the fresh live log, and the
/// next successful checkpoint must merge the leftover rotated log instead
/// of clobbering it.
#[test]
fn failed_checkpoint_then_retry_merges_rotated_log() {
    let dir = temp_dir("retry-merge");
    let db = Durable::open(&dir, Durability::Fsync).unwrap();

    let mut t = db.begin_txn();
    t.create_table(def("dbo.t")).unwrap();
    db.commit_txn(t).unwrap();
    commit_rows(&db, "dbo.t", &[(1, "a"), (2, "b")]);

    // First checkpoint dies after rotation, before writing anything.
    let guard = chaos::arm(chaos::Schedule::new().crash_at("checkpoint.write", 1));
    db.checkpoint().unwrap_err();
    drop(guard);
    assert!(dir.join("phoenix.wal.old").exists());

    // Life goes on: more commits land in the fresh live log.
    commit_rows(&db, "dbo.t", &[(3, "c")]);

    // Retry succeeds: it must fold the leftover rotated log back in.
    db.checkpoint().unwrap();
    assert!(!dir.join("phoenix.wal.old").exists());
    commit_rows(&db, "dbo.t", &[(4, "d")]);

    drop(db);
    let db = Durable::open(&dir, Durability::Fsync).unwrap();
    assert_eq!(ids(&db, "dbo.t"), vec![1, 2, 3, 4]);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Commit atomicity across a *real* crash window: a transaction that wrote
/// two tables dies mid-append of its one commit record. The torn frame is
/// discarded on reopen, so neither table shows the transaction's rows.
#[test]
fn torn_commit_of_a_two_table_txn_rolls_back_both() {
    let dir = temp_dir("torn-commit");
    {
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let mut t = db.begin_txn();
        t.create_table(def("acct")).unwrap();
        t.create_table(def("dbo.acct")).unwrap();
        db.commit_txn(t).unwrap();
        commit_rows(&db, "acct", &[(1, "base")]);

        let mut t = db.begin_txn();
        t.insert("acct", row(2, "debit")).unwrap();
        t.insert("dbo.acct", row(2, "credit")).unwrap();
        // Visits count from arming, so the first armed append *is* the
        // commit record.
        let guard = chaos::arm(chaos::Schedule::new().torn_at("wal.append", 1, 5));
        db.commit_txn(t).unwrap_err();
        assert_eq!(guard.fired().len(), 1);
        drop(guard);
        // Process crash.
    }
    {
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        assert_eq!(ids(&db, "acct"), vec![1], "torn commit must roll back");
        assert_eq!(ids(&db, "dbo.acct"), Vec::<i64>::new());
        // And the database keeps working, two-table transactions included.
        let mut t = db.begin_txn();
        t.insert("acct", row(3, "x")).unwrap();
        t.insert("dbo.acct", row(3, "y")).unwrap();
        db.commit_txn(t).unwrap();
    }
    {
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        assert_eq!(ids(&db, "acct"), vec![1, 3]);
        assert_eq!(ids(&db, "dbo.acct"), vec![3]);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A transaction rolled back just before a checkpoint takes no id and
/// leaves nothing behind: after checkpoint + crash its effects stay
/// invisible, and the ids of later commits stay above the mark.
#[test]
fn abort_advances_checkpoint_mark() {
    let dir = temp_dir("abort-mark");

    {
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let mut t = db.begin_txn();
        t.create_table(def("dbo.t")).unwrap();
        db.commit_txn(t).unwrap();
        commit_rows(&db, "dbo.t", &[(1, "a")]);

        // Rolled back last, just before the checkpoint.
        let mut t = db.begin_txn();
        t.insert("dbo.t", row(99, "rolled back")).unwrap();
        drop(t);
        db.checkpoint().unwrap();
    }

    {
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        assert_eq!(ids(&db, "dbo.t"), vec![1], "aborted insert stays invisible");
        commit_rows(&db, "dbo.t", &[(2, "b")]);
    }

    {
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        assert_eq!(ids(&db, "dbo.t"), vec![1, 2]);
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A statement the store refuses must write zero log bytes: its transaction
/// may still commit, and recovery replays whatever that transaction logged.
/// Before the write path validated under the working lock *before* its
/// first append, each of these left a record in the WAL that the next
/// `open` choked on (`duplicate primary key in 'dbo.t'`, `no row 9 …`) —
/// a failed statement bricked the database.
#[test]
fn refused_statement_logs_nothing_and_recovery_survives_its_commit() {
    let dir = temp_dir("refused");
    let wal = dir.join("phoenix.wal");
    {
        let db = Durable::open(&dir, Durability::Buffered).unwrap();
        let mut t = db.begin_txn();
        t.create_table(def("dbo.t")).unwrap();
        t.insert("dbo.t", row(1, "one")).unwrap();
        db.commit_txn(t).unwrap();

        let mut t = db.begin_txn();
        let before = std::fs::metadata(&wal).unwrap().len();
        // Key already in the table; key repeated within one batch; a row
        // id nobody holds (deleted by another session since the statement
        // computed its target set); the wrong number of columns.
        t.insert("dbo.t", row(1, "dup")).unwrap_err();
        t.insert_many("dbo.t", vec![row(5, "a"), row(5, "b")])
            .unwrap_err();
        t.delete_many("dbo.t", &[1, 9]).unwrap_err();
        t.update_many("dbo.t", vec![(1, row(1, "x")), (9, row(9, "y"))])
            .unwrap_err();
        t.update("dbo.t", 1, vec![Value::Int(1)]).unwrap_err();
        assert_eq!(
            std::fs::metadata(&wal).unwrap().len(),
            before,
            "a refused statement appended to the log"
        );
        // Nothing of a refused batch was applied either — not even the
        // rows ahead of the one that failed.
        assert_eq!(ids(&db, "dbo.t"), vec![1]);
        t.insert("dbo.t", row(2, "two")).unwrap();
        db.commit_txn(t).unwrap();
    }
    let db = Durable::open(&dir, Durability::Buffered).unwrap();
    assert_eq!(ids(&db, "dbo.t"), vec![1, 2]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Four checkpointed tables, then a log tail that writes to one of them.
fn checkpointed_with_tail(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    let db = Durable::open(&dir, Durability::Fsync).unwrap();
    let mut t = db.begin_txn();
    for name in ["dbo.a", "dbo.b", "dbo.c", "dbo.d"] {
        t.create_table(def(name)).unwrap();
    }
    db.commit_txn(t).unwrap();
    for name in ["dbo.a", "dbo.b", "dbo.c", "dbo.d"] {
        commit_rows(&db, name, &[(1, "x"), (2, "y")]);
    }
    db.checkpoint().unwrap();
    commit_rows(&db, "dbo.c", &[(3, "z")]);
    dir
}

/// The segment file the manifest names for the `idx`-th table (by name) of
/// the one checkpoint `checkpointed_with_tail` took.
fn segment_of(dir: &std::path::Path, idx: usize) -> PathBuf {
    dir.join(phoenix_storage::snapshot::segment_file_name(1, idx))
}

/// A restart reads no segment: the one table the log tail writes to is left
/// behind, its tail kept encoded and redone when it is loaded. The next
/// checkpoint rewrites that table alone and carries the rest over without
/// reading them: one of them is unreadable here, and neither the open nor
/// the checkpoint notices. The first statement that touches it does.
#[test]
fn reopen_and_checkpoint_read_only_the_tables_the_tail_writes() {
    let dir = checkpointed_with_tail("lazy");
    let bad = segment_of(&dir, 1);
    let mut bytes = std::fs::read(&bad).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&bad, &bytes).unwrap();

    let db = Durable::open(&dir, Durability::Fsync).unwrap();
    let report = db.recovery_report().clone();
    assert_eq!(report.segments_total, 4);
    assert_eq!(report.segments_loaded_at_open, 0, "{report:?}");
    assert_eq!(report.tables_behind, 1, "dbo.c alone: {report:?}");
    assert_eq!(
        report.records_deferred, 1,
        "the tail's one insert: {report:?}"
    );
    assert_eq!(
        report.records_applied, 1,
        "the tail's one commit: {report:?}"
    );
    assert_eq!(report.records_skipped, 0, "{report:?}");
    assert_eq!(
        report.tail_bytes,
        LogRecord::Insert {
            txn: 0,
            table: "dbo.c".into(),
            row_id: 3,
            row: row(3, "z"),
        }
        .encode()
        .len() as u64,
        "the one insert, as logged: {report:?}"
    );
    assert_eq!(report.replay_us, report.wal_read_us + report.apply_us);

    db.checkpoint().unwrap();
    let stats = db.checkpoint_stats();
    assert_eq!(stats.segments_written, 1, "only dbo.c: {stats:?}");
    assert_eq!(stats.segments_reused, 3);
    assert!(bad.exists(), "a reused segment stays where it is");
    // Every table loads on its first touch, and the bad one fails it.
    assert_eq!(ids(&db, "dbo.a"), vec![1, 2]);
    assert_eq!(ids(&db, "dbo.c"), vec![1, 2, 3]);
    assert_eq!(ids(&db, "dbo.d"), vec![1, 2]);
    let e = db.snapshot().table("dbo.b").map(|_| ()).unwrap_err();
    assert!(e.to_string().contains("dbo.b"), "{e}");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A segment that does not read back fails the statements that touch its
/// table — reads, writes (before a byte is logged) and the drop — with an
/// error naming the file; every other table serves, and the directory still
/// reopens. A segment that is *missing* fails the open, as it always did.
#[test]
fn unreadable_segment_fails_its_table_only_and_a_missing_one_fails_open() {
    let dir = checkpointed_with_tail("badseg");
    let bad = segment_of(&dir, 0);
    let len = std::fs::metadata(&bad).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&bad)
        .unwrap()
        .set_len(len - 5)
        .unwrap();

    let db = Durable::open(&dir, Durability::Fsync).unwrap();
    let snap = db.snapshot();
    let e = snap.table("dbo.a").map(|_| ()).unwrap_err().to_string();
    assert!(e.contains("dbo.a") && e.contains(".seg"), "{e}");
    assert!(snap.has_table("dbo.a"), "the catalog still lists it");
    assert_eq!(ids(&db, "dbo.b"), vec![1, 2]);

    let appended = db.log_records_since_checkpoint();
    let mut t = db.begin_txn();
    assert!(t.insert("dbo.a", row(9, "n")).is_err());
    assert!(t.drop_table("dbo.a").is_err());
    assert!(t.create_index("dbo.a", "a_v", 1).is_err());
    t.insert("dbo.b", row(3, "z")).unwrap();
    db.commit_txn(t).unwrap();
    assert_eq!(
        db.log_records_since_checkpoint(),
        appended + 2,
        "the refused statements logged nothing"
    );
    for name in ["dbo.b", "dbo.c", "dbo.d"] {
        assert!(db.snapshot().table(name).is_ok(), "{name} serves");
    }
    drop(snap);
    drop(db);
    let db = Durable::open(&dir, Durability::Fsync).unwrap();
    assert_eq!(ids(&db, "dbo.b"), vec![1, 2, 3]);
    drop(db);

    std::fs::remove_file(segment_of(&dir, 3)).unwrap();
    let e = Durable::open(&dir, Durability::Fsync)
        .map(|_| ())
        .unwrap_err()
        .to_string();
    assert!(e.contains("dbo.d"), "{e}");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Deferred redo: the barrier rule, losers, a failed redo, and checkpoints.
// ---------------------------------------------------------------------------

/// Append `records` to the live log of `dir`, at GSNs past every frame in it
/// (a GSN listed as `None` is a hole: its append failed), as of a crash.
fn append_records(dir: &std::path::Path, records: Vec<Option<LogRecord>>) {
    let mut gsn = recover(dir).unwrap().max_gsn;
    let mut wal = Wal::open(Durable::wal_path(dir)).unwrap();
    for rec in records {
        gsn += 1;
        if let Some(rec) = rec {
            wal.append(&frame_payload(gsn, &rec.encode())).unwrap();
        }
    }
}

/// A checkpointed `dbo.t`, then the next transaction id and row id.
fn checkpointed_t(tag: &str) -> (PathBuf, u64, u64) {
    let dir = temp_dir(tag);
    let db = Durable::open(&dir, Durability::Fsync).unwrap();
    let mut t = db.begin_txn();
    t.create_table(def("dbo.t")).unwrap();
    t.create_table(def("dbo.u")).unwrap();
    db.commit_txn(t).unwrap();
    commit_rows(&db, "dbo.t", &[(1, "x"), (2, "y")]);
    commit_rows(&db, "dbo.u", &[(1, "x")]);
    db.checkpoint().unwrap();
    drop(db);
    let txn = recover(&dir).unwrap().last_txn + 1;
    (dir, txn, 3)
}

fn insert(txn: u64, table: &str, row_id: u64) -> Option<LogRecord> {
    Some(LogRecord::Insert {
        txn,
        table: table.into(),
        row_id,
        row: row(row_id as i64, "tail"),
    })
}

/// The barrier rule: a catalog record in the log that names a table makes
/// the open redo every record of that table, in GSN order with the catalog
/// record, so rows before and after a `CREATE INDEX` are all in the index.
#[test]
fn a_catalog_record_makes_its_table_redo_at_open() {
    let dir = temp_dir("barrier");
    {
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let mut t = db.begin_txn();
        t.create_table(def("dbo.t")).unwrap();
        t.create_table(def("dbo.u")).unwrap();
        db.commit_txn(t).unwrap();
        commit_rows(&db, "dbo.t", &[(1, "x")]);
        commit_rows(&db, "dbo.u", &[(1, "x")]);
        db.checkpoint().unwrap();
        commit_rows(&db, "dbo.t", &[(2, "y"), (3, "x")]);
        let mut t = db.begin_txn();
        t.create_index("dbo.t", "t_v", 1).unwrap();
        db.commit_txn(t).unwrap();
        commit_rows(&db, "dbo.t", &[(4, "y")]);
        commit_rows(&db, "dbo.u", &[(2, "y")]);
    }
    let db = Durable::open(&dir, Durability::Fsync).unwrap();
    let report = db.recovery_report().clone();
    assert_eq!(report.segments_loaded_at_open, 1, "dbo.t: {report:?}");
    assert_eq!(report.tables_behind, 1, "dbo.u: {report:?}");
    assert_eq!(report.records_deferred, 1, "{report:?}");
    assert_eq!(report.records_applied, 4 + 4, "{report:?}");
    let snap = db.snapshot();
    let t = snap.table("dbo.t").unwrap();
    assert_eq!(t.def.indexes.len(), 1);
    t.verify_indexes().unwrap();
    snap.verify_indexes().unwrap();
    assert_eq!(ids(&db, "dbo.t"), vec![1, 2, 3, 4]);
    assert_eq!(ids(&db, "dbo.u"), vec![1, 2]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Only committed records reach a log tail: an aborted transaction, one the
/// log leaves undecided and a GSN hole leave the table as its committed
/// transactions made it, and are counted as skipped.
#[test]
fn losers_never_reach_a_log_tail() {
    let (dir, txn, id) = checkpointed_t("losers");
    append_records(
        &dir,
        vec![
            insert(txn, "dbo.t", id),
            insert(txn + 1, "dbo.t", id + 1),
            None,
            insert(txn + 2, "dbo.t", id + 2),
            Some(LogRecord::Commit { txn }),
            insert(txn + 1, "dbo.t", id + 3),
            Some(LogRecord::Abort { txn: txn + 1 }),
            None,
            insert(txn + 2, "dbo.t", id + 4),
        ],
    );
    let db = Durable::open(&dir, Durability::Fsync).unwrap();
    let report = db.recovery_report().clone();
    assert_eq!(
        (report.tables_behind, report.records_deferred),
        (1, 1),
        "{report:?}"
    );
    assert_eq!(report.records_applied, 1, "the commit: {report:?}");
    assert_eq!(report.records_skipped, 5, "{report:?}");
    assert_eq!(
        report.tail_bytes,
        insert(txn, "dbo.t", id).unwrap().encode().len() as u64,
        "the losers' bytes are not kept: {report:?}"
    );
    assert_eq!(ids(&db, "dbo.t"), vec![1, 2, id as i64]);
    assert_eq!(db.snapshot().table("dbo.t").unwrap().next_row_id, id + 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A log tail that does not redo fails its table only, as an unreadable
/// segment does: the first statement that touches it finds out, every
/// statement on it gets an error naming the table, every other table
/// serves, and a checkpoint — which would have to write it — refuses rather
/// than drop the log that holds it.
#[test]
fn a_failed_redo_fails_its_table_only() {
    let (dir, txn, _) = checkpointed_t("badtail");
    append_records(
        &dir,
        vec![
            Some(LogRecord::Delete {
                txn,
                table: "dbo.t".into(),
                row_id: 99,
            }),
            insert(txn, "dbo.u", 2),
            Some(LogRecord::Commit { txn }),
        ],
    );
    let db = Durable::open(&dir, Durability::Fsync).unwrap();
    assert_eq!(db.recovery_report().tables_behind, 2);
    let e = db
        .snapshot()
        .table("dbo.t")
        .map(|_| ())
        .unwrap_err()
        .to_string();
    assert!(e.contains("dbo.t") && e.contains("no row 99"), "{e}");
    assert_eq!(ids(&db, "dbo.u"), vec![1, 2]);
    let mut t = db.begin_txn();
    assert!(t.insert("dbo.t", row(9, "n")).is_err());
    t.insert("dbo.u", row(3, "z")).unwrap();
    db.commit_txn(t).unwrap();
    let e = db.checkpoint().unwrap_err().to_string();
    assert!(e.contains("dbo.t"), "{e}");
    drop(db);
    let db = Durable::open(&dir, Durability::Fsync).unwrap();
    assert_eq!(ids(&db, "dbo.u"), vec![1, 2, 3]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A log record's row id of `u64::MAX` — an `Insert` of it, or an
/// `InsertMany` whose run of ids reaches it — fails its table as any tail
/// that does not redo, never an overflow or a wrap to id 0.
#[test]
fn a_row_id_of_u64_max_in_the_log_fails_its_table() {
    for tag in ["maxid", "maxrun"] {
        let (dir, txn, _) = checkpointed_t(tag);
        let rec = match tag {
            "maxid" => insert(txn, "dbo.t", u64::MAX),
            _ => Some(LogRecord::InsertMany {
                txn,
                table: "dbo.t".into(),
                first_row_id: u64::MAX - 1,
                rows: vec![row(7, "a"), row(8, "b")],
            }),
        };
        append_records(&dir, vec![rec, Some(LogRecord::Commit { txn })]);
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let e = db
            .snapshot()
            .table("dbo.t")
            .map(|_| ())
            .unwrap_err()
            .to_string();
        assert!(
            e.contains("dbo.t") && e.contains("out of range"),
            "{tag}: {e}"
        );
        assert_eq!(ids(&db, "dbo.u"), vec![1], "{tag}");
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A checkpoint writes a table nothing has touched since the open with its
/// log tail redone, and the directory reopens to the same tables with no
/// tail left.
#[test]
fn checkpoint_writes_a_table_behind_its_tail_and_reopens_the_same() {
    let dir = checkpointed_with_tail("behind");
    let db = Durable::open(&dir, Durability::Fsync).unwrap();
    assert_eq!(db.recovery_report().tables_behind, 1);
    db.checkpoint().unwrap();
    let stats = db.checkpoint_stats();
    assert_eq!(
        (stats.segments_written, stats.segments_reused),
        (1, 3),
        "{stats:?}"
    );
    drop(db);
    let db = Durable::open(&dir, Durability::Fsync).unwrap();
    let report = db.recovery_report().clone();
    assert_eq!(
        (report.tables_behind, report.wal_frames),
        (0, 0),
        "{report:?}"
    );
    for name in ["dbo.a", "dbo.b", "dbo.d"] {
        assert_eq!(ids(&db, name), vec![1, 2]);
    }
    assert_eq!(ids(&db, "dbo.c"), vec![1, 2, 3]);
    std::fs::remove_dir_all(&dir).unwrap();
}
