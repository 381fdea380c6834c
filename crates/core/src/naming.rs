//! Generation of Phoenix object names.
//!
//! Everything Phoenix creates on the server lives in the `phoenix` namespace
//! (the paper's "special Phoenix database") and is tagged with a
//! process-unique session tag so that concurrent Phoenix sessions never
//! collide and cleanup can be exact.

use std::sync::atomic::{AtomicU64, Ordering};

use phoenix_sql::ast::ObjectName;

/// The namespace Phoenix owns on the server.
pub const PHOENIX_NS: &str = "phoenix";

/// The shared status table recording DML outcomes (paper: the table holding
/// "testable state" and reply buffers).
pub const STATUS_TABLE: &str = "phoenix.status";

static NEXT_TAG: AtomicU64 = AtomicU64::new(1);

/// A process-unique session tag: `pid` + a counter, so names are unique
/// across concurrent sessions of this process and across processes on the
/// same machine.
pub fn fresh_session_tag() -> String {
    let n = NEXT_TAG.fetch_add(1, Ordering::Relaxed);
    format!("{}_{n}", std::process::id())
}

/// Per-session generator of Phoenix object names.
#[derive(Debug, Clone)]
pub struct Namer {
    tag: String,
    next: u64,
}

impl Namer {
    /// A namer for the given session tag.
    pub fn new(tag: String) -> Namer {
        Namer { tag, next: 1 }
    }

    /// The session tag embedded in every generated name.
    pub fn tag(&self) -> &str {
        &self.tag
    }

    fn next_id(&mut self) -> u64 {
        let n = self.next;
        self.next += 1;
        n
    }

    /// Persistent result-set table: `phoenix.rs_<tag>_<n>`.
    pub fn result_table(&mut self) -> ObjectName {
        let n = self.next_id();
        ObjectName::qualified(PHOENIX_NS, format!("rs_{}_{n}", self.tag))
    }

    /// Persistent key table for keyset/dynamic cursors: `phoenix.ks_…`.
    pub fn key_table(&mut self) -> ObjectName {
        let n = self.next_id();
        ObjectName::qualified(PHOENIX_NS, format!("ks_{}_{n}", self.tag))
    }

    /// Persistent stand-in for a session temp object `#name`.
    pub fn temp_stand_in(&mut self, temp: &ObjectName) -> ObjectName {
        let n = self.next_id();
        let bare = temp.name.trim_start_matches('#');
        ObjectName::qualified(PHOENIX_NS, format!("tmp_{}_{n}_{bare}", self.tag))
    }

    /// The *genuine* session temp table used as the liveness proxy. This one
    /// must stay volatile — its absence after reconnect proves the old
    /// session is gone.
    pub fn alive_marker(&self) -> ObjectName {
        ObjectName::bare(format!("#phx_alive_{}", self.tag))
    }

    /// Request tag for the status table: a per-session counter. Together
    /// with the session tag it forms the `(session, tag)` primary key — the
    /// same numeric tag a pipelined submission carries in its v2 frame.
    pub fn request_tag(&mut self) -> u64 {
        self.next_id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_unique() {
        let a = fresh_session_tag();
        let b = fresh_session_tag();
        assert_ne!(a, b);
    }

    #[test]
    fn names_are_namespaced_and_distinct() {
        let mut n = Namer::new("7_1".into());
        let rs = n.result_table();
        let ks = n.key_table();
        assert_eq!(rs.namespace.as_deref(), Some(PHOENIX_NS));
        assert_ne!(rs.name, ks.name);
        assert!(rs.name.starts_with("rs_") && ks.name.starts_with("ks_"));
        let t = n.temp_stand_in(&ObjectName::bare("#work"));
        assert!(t.name.contains("work"));
        assert!(!t.is_temp());
    }

    #[test]
    fn alive_marker_is_a_real_temp_table() {
        let n = Namer::new("9_9".into());
        assert!(n.alive_marker().is_temp());
    }

    #[test]
    fn request_tags_progress() {
        let mut n = Namer::new("x".into());
        assert_ne!(n.request_tag(), n.request_tag());
    }
}
