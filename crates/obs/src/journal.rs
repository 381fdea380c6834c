//! The recovery event journal: a bounded ring buffer of timestamped events.
//!
//! Where metrics answer "how much / how fast", the journal answers "what
//! happened, in what order" — the Phoenix recovery timeline (crash detected
//! → reconnect attempts → session context re-installed → cursors and reply
//! buffers restored) is reconstructed from it by tests and by the
//! `phoenix-stats` example.
//!
//! Events are rare by construction (failures and lifecycle edges, never
//! per-statement work), so the journal uses a plain mutex. The timestamp is
//! taken *inside* the lock, which buys an invariant the metrics layer can't
//! offer: sequence numbers and timestamps are ordered consistently — if
//! `a.seq < b.seq` then `a.ts_us <= b.ts_us`, always.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::now_us;

/// Default ring capacity; old events are dropped once exceeded (the drop
/// count is retained so readers can tell the timeline is truncated).
pub const JOURNAL_CAPACITY: usize = 1024;

/// What kind of thing happened. The discriminant is stable (wire-encoded in
/// stats snapshots); add new kinds at the end only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventKind {
    /// The client noticed the server is gone (comm failure on a live
    /// connection or a failed liveness probe).
    CrashDetected,
    /// One iteration of the reconnect backoff loop is about to dial.
    ReconnectAttempt,
    /// A reconnect dial + login succeeded.
    Reconnected,
    /// Phase 1 of recovery: session context (options, temp tables, prepared
    /// state) re-installed on the new session.
    ContextReinstalled,
    /// A cursor was re-opened and repositioned during recovery.
    CursorRestored,
    /// A statement's reply was served from the status-table/reply-buffer
    /// instead of re-executing.
    ReplyReplayed,
    /// Phase 2 of recovery: server-side state verified against client
    /// expectations.
    StateVerified,
    /// Recovery finished; the session is live again.
    RecoveryComplete,
    /// A connection was closed deliberately (clean or best-effort).
    ConnectionClose,
    /// Server-side lifecycle event (start, shutdown, prune).
    ServerLifecycle,
    /// phoenix-chaos fired a fault at a named fault point.
    FaultInjected,
    /// Anything else (also the decode fallback for kinds newer than this
    /// build).
    Other,
}

impl EventKind {
    /// Stable wire discriminant.
    pub fn as_u8(self) -> u8 {
        match self {
            EventKind::CrashDetected => 0,
            EventKind::ReconnectAttempt => 1,
            EventKind::Reconnected => 2,
            EventKind::ContextReinstalled => 3,
            EventKind::CursorRestored => 4,
            EventKind::ReplyReplayed => 5,
            EventKind::StateVerified => 6,
            EventKind::RecoveryComplete => 7,
            EventKind::ConnectionClose => 8,
            EventKind::ServerLifecycle => 9,
            EventKind::FaultInjected => 10,
            EventKind::Other => 255,
        }
    }

    /// Inverse of [`EventKind::as_u8`]; unknown values decode as
    /// [`EventKind::Other`] so old readers tolerate new writers.
    pub fn from_u8(v: u8) -> EventKind {
        match v {
            0 => EventKind::CrashDetected,
            1 => EventKind::ReconnectAttempt,
            2 => EventKind::Reconnected,
            3 => EventKind::ContextReinstalled,
            4 => EventKind::CursorRestored,
            5 => EventKind::ReplyReplayed,
            6 => EventKind::StateVerified,
            7 => EventKind::RecoveryComplete,
            8 => EventKind::ConnectionClose,
            9 => EventKind::ServerLifecycle,
            10 => EventKind::FaultInjected,
            _ => EventKind::Other,
        }
    }

    /// Human-readable name, used by pretty printers.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::CrashDetected => "crash_detected",
            EventKind::ReconnectAttempt => "reconnect_attempt",
            EventKind::Reconnected => "reconnected",
            EventKind::ContextReinstalled => "context_reinstalled",
            EventKind::CursorRestored => "cursor_restored",
            EventKind::ReplyReplayed => "reply_replayed",
            EventKind::StateVerified => "state_verified",
            EventKind::RecoveryComplete => "recovery_complete",
            EventKind::ConnectionClose => "connection_close",
            EventKind::ServerLifecycle => "server_lifecycle",
            EventKind::FaultInjected => "fault_injected",
            EventKind::Other => "other",
        }
    }
}

/// One journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Strictly increasing per journal; never reused even after eviction.
    pub seq: u64,
    /// Microseconds since the process obs epoch ([`crate::now_us`]);
    /// monotone and consistent with `seq` ordering.
    pub ts_us: u64,
    /// Which subsystem recorded it (`"driver"`, `"core"`, `"server"`, ...).
    pub component: String,
    /// What happened.
    pub kind: EventKind,
    /// Free-form context (attempt numbers, session ids, error text).
    pub detail: String,
}

struct JournalInner {
    next_seq: u64,
    dropped: u64,
    buf: VecDeque<Event>,
    capacity: usize,
}

/// A bounded, mutex-guarded ring buffer of [`Event`]s: one per
/// [`crate::Obs`] instance.
pub struct Journal {
    inner: Mutex<JournalInner>,
}

impl Default for Journal {
    fn default() -> Journal {
        Journal::with_capacity(JOURNAL_CAPACITY)
    }
}

impl Journal {
    /// A journal with the default capacity.
    pub fn new() -> Journal {
        Journal::default()
    }

    /// A journal holding at most `capacity` events (older ones are evicted).
    pub fn with_capacity(capacity: usize) -> Journal {
        Journal {
            inner: Mutex::new(JournalInner {
                next_seq: 0,
                dropped: 0,
                buf: VecDeque::new(),
                capacity: capacity.max(1),
            }),
        }
    }

    /// Append an event. The timestamp is taken inside the lock so `seq`
    /// order and `ts_us` order always agree.
    pub fn record(&self, component: &str, kind: EventKind, detail: impl Into<String>) {
        let mut inner = self.inner.lock().unwrap();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.buf.len() >= inner.capacity {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(Event {
            seq,
            ts_us: now_us(),
            component: component.to_string(),
            kind,
            detail: detail.into(),
        });
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner.lock().unwrap().buf.iter().cloned().collect()
    }

    /// Retained events matching `kind`, oldest first.
    pub fn events_of(&self, kind: EventKind) -> Vec<Event> {
        self.inner
            .lock()
            .unwrap()
            .buf
            .iter()
            .filter(|e| e.kind == kind)
            .cloned()
            .collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().buf.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by the ring since creation.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Discard all retained events (tests isolate timelines with this;
    /// sequence numbers keep counting).
    pub fn clear(&self) {
        self.inner.lock().unwrap().buf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_and_timestamps_are_consistent() {
        let j = Journal::new();
        for i in 0..100 {
            j.record("test", EventKind::ReconnectAttempt, format!("attempt {i}"));
        }
        let events = j.events();
        assert_eq!(events.len(), 100);
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq);
            assert!(w[0].ts_us <= w[1].ts_us);
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let j = Journal::with_capacity(4);
        for i in 0..10 {
            j.record("test", EventKind::Other, format!("{i}"));
        }
        let events = j.events();
        assert_eq!(events.len(), 4);
        assert_eq!(j.dropped(), 6);
        assert_eq!(events[0].detail, "6");
        assert_eq!(events[3].detail, "9");
        assert_eq!(events[3].seq, 9);
    }

    #[test]
    fn concurrent_recording_never_reorders() {
        use std::sync::Arc;
        let j = Arc::new(Journal::with_capacity(10_000));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let j = Arc::clone(&j);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    j.record("test", EventKind::Other, "");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let events = j.events();
        assert_eq!(events.len(), 8000);
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq);
            assert!(w[0].ts_us <= w[1].ts_us, "timestamp order broke seq order");
        }
    }

    #[test]
    fn kind_roundtrip() {
        for kind in [
            EventKind::CrashDetected,
            EventKind::ReconnectAttempt,
            EventKind::Reconnected,
            EventKind::ContextReinstalled,
            EventKind::CursorRestored,
            EventKind::ReplyReplayed,
            EventKind::StateVerified,
            EventKind::RecoveryComplete,
            EventKind::ConnectionClose,
            EventKind::ServerLifecycle,
            EventKind::FaultInjected,
            EventKind::Other,
        ] {
            assert_eq!(EventKind::from_u8(kind.as_u8()), kind);
            assert!(!kind.as_str().is_empty());
        }
        assert_eq!(EventKind::from_u8(200), EventKind::Other);
    }
}
