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
use phoenix_storage::db::{Durability, Durable, RecoveryOptions};
use phoenix_storage::types::{Column, DataType, Row, Schema, TableDef, Value};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("phoenix-recovery-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Fault schedules are process-global and every test here also writes
/// outside its armed section, so the tests of this file run one at a time:
/// otherwise one test's schedule fires in another's unguarded appends (the
/// intermittent failures ROADMAP item 0 records).
fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
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
    let t = db.begin().unwrap();
    for (id, v) in rows {
        db.insert(t, table, row(*id, v)).unwrap();
    }
    db.commit(t).unwrap();
}

/// Headline regression: crash after the new manifest is durable but before
/// the rotated log is discarded. Recovery sees *both* the checkpoint image
/// and the log that produced it; the mark must keep it from applying the
/// log a second time. Pre-fix this failed with a duplicate-key recovery
/// error (the snapshot lacked a mark and replay was unfiltered).
#[test]
fn checkpoint_crash_before_truncate_does_not_double_apply() {
    let _serial = one_at_a_time();
    let dir = temp_dir("truncate-window");

    {
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let t = db.begin().unwrap();
        db.create_table(t, def("dbo.t")).unwrap();
        db.commit(t).unwrap();
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
    let _serial = one_at_a_time();
    let dir = temp_dir("write-crash");

    {
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let t = db.begin().unwrap();
        db.create_table(t, def("dbo.t")).unwrap();
        db.commit(t).unwrap();
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
    let _serial = one_at_a_time();
    let dir = temp_dir("torn-with-old");

    {
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let t = db.begin().unwrap();
        db.create_table(t, def("dbo.t")).unwrap();
        db.commit(t).unwrap();
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
        let t = db.begin().unwrap();
        let guard = chaos::arm(chaos::Schedule::new().torn_at("wal.append", 1, 7));
        db.insert(t, "dbo.t", row(4, "torn")).unwrap_err();
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
    let _serial = one_at_a_time();
    let dir = temp_dir("incremental");
    let db = Durable::open(&dir, Durability::Fsync).unwrap();

    let t = db.begin().unwrap();
    for name in ["dbo.a", "dbo.b", "dbo.c", "dbo.d"] {
        db.create_table(t, def(name)).unwrap();
    }
    db.commit(t).unwrap();
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
    let _serial = one_at_a_time();
    let dir = temp_dir("retry-merge");
    let db = Durable::open(&dir, Durability::Fsync).unwrap();

    let t = db.begin().unwrap();
    db.create_table(t, def("dbo.t")).unwrap();
    db.commit(t).unwrap();
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

/// The same workload driven through a 1-partition layout and a 4-partition
/// layout must recover to bit-identical final snapshots: the GSN merge of
/// the N streams reconstructs exactly the single-stream append order.
#[test]
fn gsn_merge_recovery_matches_single_stream() {
    let _serial = one_at_a_time();
    // Tables chosen to spread over several partitions at n=4.
    let tables = ["dbo.a", "dbo.b", "dbo.c", "dbo.late"];

    type Dump = Vec<(String, u64, Vec<(u64, Row)>)>;
    let run = |partitions: usize| -> Dump {
        let dir = temp_dir(&format!("gsn-merge-{partitions}"));
        let opts = RecoveryOptions {
            partitions: Some(partitions),
            ..RecoveryOptions::default()
        };
        {
            let db = Durable::open_opts(&dir, Durability::Fsync, &opts).unwrap();
            let t = db.begin().unwrap();
            for name in &tables[..3] {
                db.create_table(t, def(name)).unwrap();
            }
            db.commit(t).unwrap();
            for i in 0..30i64 {
                // Cross-partition transactions, aborts, updates, deletes.
                let t = db.begin().unwrap();
                db.insert(t, "dbo.a", row(i, "a")).unwrap();
                db.insert(t, "dbo.b", row(i * 2, "b")).unwrap();
                if i % 3 == 0 {
                    db.insert(t, "dbo.c", row(i, "c")).unwrap();
                }
                if i % 7 == 0 {
                    // Row 1 always exists (inserted at i = 0, never deleted);
                    // aborted ghosts burn row ids, so computed ids are unsafe.
                    db.update(t, "dbo.a", 1, row(0, "updated")).unwrap();
                }
                db.commit(t).unwrap();
                if i % 5 == 0 {
                    let a = db.begin().unwrap();
                    db.insert(a, "dbo.a", row(1000 + i, "ghost")).unwrap();
                    db.insert(a, "dbo.b", row(1000 + i, "ghost")).unwrap();
                    db.abort(a).unwrap();
                }
            }
            let t = db.begin().unwrap();
            db.create_table(t, def("dbo.late")).unwrap();
            db.insert(t, "dbo.late", row(1, "l")).unwrap();
            db.delete(t, "dbo.b", 1).unwrap();
            db.commit(t).unwrap();
            // Crash: drop without checkpoint.
        }
        let db = Durable::open_opts(&dir, Durability::Fsync, &opts).unwrap();
        let snap = db.snapshot();
        let dump = tables
            .iter()
            .map(|name| {
                let t = snap.table(name).unwrap();
                let mut rows: Vec<_> = t.rows.iter().map(|(id, r)| (*id, r.clone())).collect();
                rows.sort_by_key(|(id, _)| *id);
                (name.to_string(), t.next_row_id, rows)
            })
            .collect();
        drop(snap);
        std::fs::remove_dir_all(&dir).unwrap();
        dump
    };

    assert_eq!(
        run(1),
        run(4),
        "merged-stream recovery must be bit-identical to single-stream"
    );
}

/// Cross-partition commit atomicity across a *real* crash window: tear the
/// WAL append of the second participant's CommitMulti record, so partition
/// 0 holds a durable commit record and partition 1 holds none. Recovery
/// must roll the whole transaction back.
#[test]
fn torn_cross_partition_commit_rolls_back_everywhere() {
    let _serial = one_at_a_time();
    let dir = temp_dir("torn-multi-commit");
    let opts = RecoveryOptions {
        partitions: Some(2),
        ..RecoveryOptions::default()
    };
    // At n=2, "acct" → partition 0 and "dbo.acct" → partition 1.
    {
        let db = Durable::open_opts(&dir, Durability::Fsync, &opts).unwrap();
        let t = db.begin().unwrap();
        db.create_table(t, def("acct")).unwrap();
        db.create_table(t, def("dbo.acct")).unwrap();
        db.commit(t).unwrap();
        commit_rows(&db, "acct", &[(1, "base")]);

        let t = db.begin().unwrap();
        db.insert(t, "acct", row(2, "debit")).unwrap();
        db.insert(t, "dbo.acct", row(2, "credit")).unwrap();
        // The commit appends CommitMulti to partition 0 first (participants
        // ascend), then dies mid-append on partition 1's stream. Visits
        // count from arming, so partition 1's first armed append *is* the
        // CommitMulti record.
        let guard = chaos::arm(chaos::Schedule::new().torn_at("wal.append.p1", 1, 5));
        db.commit(t).unwrap_err();
        assert_eq!(guard.fired().len(), 1);
        drop(guard);
        // Process crash.
    }
    {
        let db = Durable::open_opts(&dir, Durability::Fsync, &opts).unwrap();
        assert_eq!(
            ids(&db, "acct"),
            vec![1],
            "partial cross-partition commit must roll back"
        );
        assert_eq!(ids(&db, "dbo.acct"), Vec::<i64>::new());
        // And the database keeps working, including cross-partition txns.
        let t = db.begin().unwrap();
        db.insert(t, "acct", row(3, "x")).unwrap();
        db.insert(t, "dbo.acct", row(3, "y")).unwrap();
        db.commit(t).unwrap();
    }
    {
        let db = Durable::open_opts(&dir, Durability::Fsync, &opts).unwrap();
        assert_eq!(ids(&db, "acct"), vec![1, 3]);
        assert_eq!(ids(&db, "dbo.acct"), vec![3]);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An aborted transaction with the highest txn id must still advance the
/// checkpoint mark: after checkpoint + crash, recovered transaction ids
/// may not collide with the aborted one, and its effects stay invisible.
#[test]
fn abort_advances_checkpoint_mark() {
    let _serial = one_at_a_time();
    let dir = temp_dir("abort-mark");

    {
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let t = db.begin().unwrap();
        db.create_table(t, def("dbo.t")).unwrap();
        db.commit(t).unwrap();
        commit_rows(&db, "dbo.t", &[(1, "a")]);

        // Aborted txn holds the largest id when the checkpoint runs.
        let t = db.begin().unwrap();
        db.insert(t, "dbo.t", row(99, "rolled back")).unwrap();
        db.abort(t).unwrap();
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
    let _serial = one_at_a_time();
    let dir = temp_dir("refused");
    let wal = dir.join("phoenix.wal");
    {
        let db = Durable::open(&dir, Durability::Buffered).unwrap();
        let t = db.begin().unwrap();
        db.create_table(t, def("dbo.t")).unwrap();
        db.insert(t, "dbo.t", row(1, "one")).unwrap();
        db.commit(t).unwrap();

        let t = db.begin().unwrap();
        let before = std::fs::metadata(&wal).unwrap().len();
        // Key already in the table; key repeated within one batch; a row
        // id nobody holds (deleted by another session since the statement
        // computed its target set); the wrong number of columns.
        db.insert(t, "dbo.t", row(1, "dup")).unwrap_err();
        db.insert_many(t, "dbo.t", vec![row(5, "a"), row(5, "b")])
            .unwrap_err();
        db.delete_many(t, "dbo.t", &[1, 9]).unwrap_err();
        db.update_many(t, "dbo.t", vec![(1, row(1, "x")), (9, row(9, "y"))])
            .unwrap_err();
        db.update(t, "dbo.t", 1, vec![Value::Int(1)]).unwrap_err();
        assert_eq!(
            std::fs::metadata(&wal).unwrap().len(),
            before,
            "a refused statement appended to the log"
        );
        // Nothing of a refused batch was applied either — not even the
        // rows ahead of the one that failed.
        assert_eq!(ids(&db, "dbo.t"), vec![1]);
        db.insert(t, "dbo.t", row(2, "two")).unwrap();
        db.commit(t).unwrap();
    }
    let db = Durable::open(&dir, Durability::Buffered).unwrap();
    assert_eq!(ids(&db, "dbo.t"), vec![1, 2]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Four checkpointed tables, then a log tail that writes to one of them.
fn checkpointed_with_tail(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    let db = Durable::open(&dir, Durability::Fsync).unwrap();
    let t = db.begin().unwrap();
    for name in ["dbo.a", "dbo.b", "dbo.c", "dbo.d"] {
        db.create_table(t, def(name)).unwrap();
    }
    db.commit(t).unwrap();
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

/// A restart reads the segments the log tail writes to and no others, and
/// the next checkpoint carries the rest over without reading them either:
/// one of them is unreadable here, and neither the open nor the checkpoint
/// notices.
#[test]
fn reopen_and_checkpoint_read_only_the_tables_the_tail_writes() {
    let _serial = one_at_a_time();
    let dir = checkpointed_with_tail("lazy");
    let bad = segment_of(&dir, 1);
    let mut bytes = std::fs::read(&bad).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&bad, &bytes).unwrap();

    let db = Durable::open(&dir, Durability::Fsync).unwrap();
    let report = db.recovery_report().clone();
    assert_eq!(report.segments_total, 4);
    assert_eq!(report.segments_loaded_at_open, 1, "dbo.c alone: {report:?}");
    assert_eq!(
        report.records_applied, 2,
        "the tail: one insert, one commit"
    );
    assert_eq!(report.replay_us, report.wal_read_us + report.apply_us);

    db.checkpoint().unwrap();
    let stats = db.checkpoint_stats();
    assert_eq!(stats.segments_written, 1, "only dbo.c: {stats:?}");
    assert_eq!(stats.segments_reused, 3);
    assert!(bad.exists(), "a reused segment stays where it is");

    // The background pass is what finally reads them, and says which one
    // it could not.
    let drained = db.drain_report();
    assert_eq!(drained.unreadable.len(), 1, "{drained:?}");
    assert!(drained.unreadable[0].contains("dbo.b"), "{drained:?}");
    assert!(drained.tables <= 3 && drained.bytes > 0, "{drained:?}");
    assert_eq!(ids(&db, "dbo.a"), vec![1, 2]);
    assert_eq!(ids(&db, "dbo.c"), vec![1, 2, 3]);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A segment that does not read back fails the statements that touch its
/// table — reads, writes (before a byte is logged) and the drop — with an
/// error naming the file; every other table serves, and the directory still
/// reopens. A segment that is *missing* fails the open, as it always did.
#[test]
fn unreadable_segment_fails_its_table_only_and_a_missing_one_fails_open() {
    let _serial = one_at_a_time();
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
    let t = db.begin().unwrap();
    assert!(db.insert(t, "dbo.a", row(9, "n")).is_err());
    assert!(db.drop_table(t, "dbo.a").is_err());
    assert!(db.create_index(t, "dbo.a", "a_v", 1).is_err());
    db.insert(t, "dbo.b", row(3, "z")).unwrap();
    db.commit(t).unwrap();
    assert_eq!(
        db.log_records_since_checkpoint(),
        appended + 2,
        "the refused statements logged nothing"
    );
    assert_eq!(db.drain_report().unreadable.len(), 1);
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
