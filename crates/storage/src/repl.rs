//! Storage-side primitives for WAL-shipping replication.
//!
//! The primary tails its own log through a *replication tap* owned by
//! [`crate::db::Durable`]: when a shipper attaches, every WAL append also
//! stages a `(gsn, record)` frame into an in-memory queue, and the group
//! committer advances a *durable watermark* after each successful fsync. The shipper drains the queue in strict GSN order,
//! never handing out a frame that is not yet on the primary's stable
//! storage (under `Durability::Fsync`) — the tap is, by construction, a tap
//! of the group committer's post-fsync stream.
//!
//! The standby side is the [`crate::applier::Applier`] crash recovery uses:
//! loaded once from the standby's directory, fed each shipped frame after it
//! is on the standby's own log, and handed to `Durable::open_warm` at
//! promotion.
//!
//! Everything here is bit-compatible with crash recovery: the shipped
//! frames are exactly the `[gsn u64 LE][record]` payloads of the WAL, and
//! the standby appends them to its own log, so a standby directory *is* a
//! valid primary directory at every instant.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64};

use parking_lot::{Condvar, Mutex};

/// One frame handed to the shipper: `(gsn, encoded record)`. The record
/// bytes are the `LogRecord` encoding *without* the GSN prefix; the standby
/// re-prefixes the GSN when appending to its own log.
pub type ShipFrame = (u64, Vec<u8>);

/// Upper bound on staged-but-unshipped frames. A shipper that falls this
/// far behind the write rate loses the queue (`lost`) and must re-attach
/// with a disk catch-up — bounding primary memory instead of primary
/// throughput.
pub(crate) const TAP_CAP: usize = 1 << 16;

/// Lifecycle of a staged frame. A frame's GSN is allocated and the frame
/// staged *before* the append's outcome is known, so the queue stays
/// gap-free; a failed append leaves a `Dead` tombstone that is popped but
/// never shipped.
pub(crate) enum FrameState {
    /// GSN allocated; append outcome not yet known.
    Staged,
    /// On the live log (shippable once covered by the durable
    /// watermark, or immediately under `Durability::Buffered`).
    Appended,
    /// The append failed; the frame never reached the log.
    Dead,
}

/// One staged frame.
pub(crate) struct TapFrame {
    pub gsn: u64,
    pub record: Vec<u8>,
    pub state: FrameState,
}

/// The mutable part of the tap, behind one mutex.
pub(crate) struct TapState {
    /// Strictly GSN-ordered, gap-free (modulo `Dead` tombstones).
    pub frames: VecDeque<TapFrame>,
    /// The queue overflowed [`TAP_CAP`] and was discarded; the attached
    /// shipper must detach and re-attach with a disk catch-up.
    pub lost: bool,
}

/// The replication tap. One per [`Durable`]; dormant (a single relaxed
/// atomic load per append) until a shipper attaches.
pub(crate) struct ReplTap {
    /// A shipper is attached and appends must stage frames.
    pub enabled: AtomicBool,
    pub state: Mutex<TapState>,
    /// Signalled when new frames may have become shippable.
    pub cv: Condvar,
    /// Durable GSN watermark: every frame with `gsn ≤ durable` is fsynced.
    /// Advanced by the group-commit leader after each successful sync.
    pub durable: AtomicU64,
    /// Highest GSN a standby has acknowledged as received and persisted.
    /// Semi-sync commits wait on this.
    pub acked: Mutex<u64>,
    /// Signalled when `acked` advances (and on detach, so semi-sync waiters
    /// re-check their exit conditions).
    pub acked_cv: Condvar,
}

impl ReplTap {
    pub(crate) fn new() -> ReplTap {
        ReplTap {
            enabled: AtomicBool::new(false),
            state: Mutex::new(TapState {
                frames: VecDeque::new(),
                lost: false,
            }),
            cv: Condvar::new(),
            durable: AtomicU64::new(0),
            acked: Mutex::new(0),
            acked_cv: Condvar::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;
    use std::time::Duration;

    use super::*;
    use crate::applier::Applier;
    use crate::db::{Durability, Durable};
    use crate::record::LogRecord;
    use crate::types::{Column, DataType, Row, Schema, TableDef, Value};

    fn temp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "phoenix-repl-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
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

    /// Drain everything currently shippable.
    fn drain(db: &Durable) -> Vec<ShipFrame> {
        let mut out = Vec::new();
        loop {
            let batch = db
                .repl_poll(64, Duration::from_millis(0))
                .expect("tap not lost");
            if batch.is_empty() {
                return out;
            }
            out.extend(batch);
        }
    }

    #[test]
    fn tap_ships_exactly_the_post_fsync_stream_in_gsn_order() {
        let dir = temp_dir();
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let t = db.begin().unwrap();
        db.create_table(t, def("a")).unwrap();
        db.create_table(t, def("dbo.b")).unwrap();
        db.commit(t).unwrap();

        // Attach at the current high-water: backlog covers the history.
        let backlog = db.repl_attach(0).unwrap();
        assert!(!backlog.is_empty());
        let last = backlog.last().unwrap().0;
        assert_eq!(last, db.last_gsn());

        // Live frames: a two-table transaction; every frame becomes
        // shippable once its commit fsync lands.
        let t = db.begin().unwrap();
        db.insert(t, "a", row(1, "x")).unwrap();
        db.insert(t, "dbo.b", row(2, "y")).unwrap();
        db.commit(t).unwrap();
        let live = drain(&db);
        // Every frame appended since attach shipped exactly once: 2 inserts
        // plus the commit record.
        assert_eq!(live.len(), 3);
        assert_eq!(live.len() as u64, db.last_gsn() - last);
        let gsns: Vec<u64> = live.iter().map(|f| f.0).collect();
        let mut sorted = gsns.clone();
        sorted.sort_unstable();
        assert_eq!(gsns, sorted, "tap must drain in GSN order");
        assert_eq!(*gsns.last().unwrap(), db.last_gsn());

        // The shipped bytes are the WAL payloads verbatim: decode them.
        for (_, rec) in &live {
            LogRecord::decode(rec).unwrap();
        }
        db.repl_detach();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn attach_behind_the_ship_floor_is_refused_after_checkpoint() {
        let dir = temp_dir();
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let t = db.begin().unwrap();
        db.create_table(t, def("a")).unwrap();
        db.insert(t, "a", row(1, "x")).unwrap();
        db.commit(t).unwrap();
        db.checkpoint().unwrap();
        // The checkpoint folded gsn 1..=3 into the snapshot: a fresh
        // standby (last_gsn 0) can no longer catch up from the logs.
        assert!(db.repl_attach(0).is_err());
        // One that already holds the pre-checkpoint history can.
        let at = db.last_gsn();
        assert!(db.repl_attach(at).unwrap().is_empty());
        db.repl_detach();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fenced_handle_refuses_every_append() {
        let dir = temp_dir();
        let db = Durable::open(&dir, Durability::Fsync).unwrap();
        let t = db.begin().unwrap();
        db.create_table(t, def("a")).unwrap();
        db.commit(t).unwrap();
        db.fence();
        assert!(db.is_fenced());
        let t = db.begin().unwrap();
        assert!(db.insert(t, "a", row(1, "x")).is_err());
        assert!(db.commit(t).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loaded_applier_promotes_to_what_cold_recovery_builds() {
        let dir = temp_dir();
        {
            let db = Durable::open(&dir, Durability::Fsync).unwrap();
            let t = db.begin().unwrap();
            db.create_table(t, def("a")).unwrap();
            db.commit(t).unwrap();
            for i in 0..10i64 {
                let t = db.begin().unwrap();
                db.insert(t, "a", row(i, "v")).unwrap();
                db.commit(t).unwrap();
            }
            // Leave an undecided tail: mutations without a commit record.
            let t = db.begin().unwrap();
            db.insert(t, "a", row(100, "uncommitted")).unwrap();
            // Crash (drop without commit/abort).
        }
        let applier = Applier::load(&dir).unwrap();
        // The undecided insert is the only record left waiting.
        assert_eq!(applier.pending_len(), 1);
        // Promotion ends the log, and with it the tail's chances.
        let db = Durable::open_warm(&dir, Durability::Fsync, &Default::default(), applier).unwrap();
        let snap = db.snapshot();
        let table = snap.table("a").unwrap();
        assert_eq!(table.len(), 10, "uncommitted tail row must not apply");
        drop(snap);
        drop(db);
        // Cold recovery of the same directory agrees.
        let cold = Durable::open(&dir, Durability::Fsync).unwrap();
        assert_eq!(cold.snapshot().table("a").unwrap().len(), 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
