//! The client-side session context and request log.
//!
//! The paper (§1, §3): "Some state information is also saved on the client,
//! but need not be persistent there because we are not protecting against
//! client failures. This state permits the synchronization of recovered
//! server state with the client state."
//!
//! Concretely Phoenix keeps, in client memory only:
//!
//! * the login information and every `SET` option, replayed verbatim when a
//!   post-crash connection is built (recovery phase 1);
//! * the temp-object redirection map (`#x` → `phoenix.tmp_…_x`);
//! * the registry of every object Phoenix created on the server, so clean
//!   termination can drop them all;
//! * the statements of the currently open *application* transaction, so an
//!   uncommitted transaction lost in a crash can be transparently replayed
//!   (application message logging).

use phoenix_sql::ast::ObjectName;
use phoenix_storage::types::Value;

/// What kind of server object Phoenix created (for cleanup ordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhoenixObject {
    /// A persistent table.
    Table,
    /// A stored procedure.
    Procedure,
}

/// One entry in the created-objects registry.
#[derive(Debug, Clone)]
pub struct RegisteredObject {
    /// Table or procedure.
    pub kind: PhoenixObject,
    /// The object's server-side name.
    pub name: ObjectName,
}

/// Replayable session context plus volatile bookkeeping.
#[derive(Debug, Default)]
pub struct SessionContext {
    /// `SET` options in application order (latest value per name).
    pub options: Vec<(String, Value)>,
    /// Temp-object redirections currently in force.
    pub temp_map: Vec<(ObjectName, RegisteredObject)>,
    /// Every Phoenix-created server object, for cleanup at session end.
    pub created: Vec<RegisteredObject>,
    /// Names reserved for objects whose creation may not have completed
    /// (crash mid-materialization). Swept with `DROP … IF EXISTS` at
    /// cleanup, but exempt from post-recovery verification.
    pub debris: Vec<RegisteredObject>,
    /// Statement log of the open application transaction (SQL text as
    /// forwarded to the server), empty when no app transaction is open.
    pub txn_log: Vec<String>,
    /// Is an application transaction open?
    pub txn_open: bool,
    /// Request tag under which the open transaction's outcome will be
    /// recorded in the status table at commit.
    pub txn_tag: Option<u64>,
}

impl SessionContext {
    /// An empty context.
    pub fn new() -> SessionContext {
        SessionContext::default()
    }

    /// Record a SET option for replay (latest value wins, order preserved).
    pub fn record_option(&mut self, name: &str, value: Value) {
        if let Some(slot) = self
            .options
            .iter_mut()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
        {
            slot.1 = value;
        } else {
            self.options.push((name.to_string(), value));
        }
    }

    /// Register a Phoenix-created object for cleanup, promoting its
    /// reservation if it had one, so the sweep names it once.
    pub fn register(&mut self, kind: PhoenixObject, name: ObjectName) {
        if let Some(idx) = self.debris.iter().position(|o| o.name.same_as(&name)) {
            self.debris.remove(idx);
        }
        self.created.push(RegisteredObject { kind, name });
    }

    /// Reserve a name whose creation is about to be attempted; swept at
    /// cleanup but not treated as durable session state by recovery.
    pub fn reserve(&mut self, kind: PhoenixObject, name: ObjectName) {
        self.debris.push(RegisteredObject { kind, name });
    }

    /// Demote an object from verified session state back to debris — used
    /// when the application drops a temp object's stand-in: recovery must no
    /// longer require it to exist, but the termination sweep still covers it
    /// in case the drop itself was interrupted.
    pub fn demote(&mut self, name: &ObjectName) {
        if let Some(idx) = self.created.iter().position(|o| o.name.same_as(name)) {
            let obj = self.created.remove(idx);
            self.debris.push(obj);
        }
    }

    /// Install a temp-object redirection.
    pub fn map_temp(&mut self, temp: ObjectName, kind: PhoenixObject, stand_in: ObjectName) {
        self.register(kind, stand_in.clone());
        self.temp_map.push((
            temp,
            RegisteredObject {
                kind,
                name: stand_in,
            },
        ));
    }

    /// Current redirection for a temp name, if any.
    pub fn temp_stand_in(&self, temp: &ObjectName) -> Option<&RegisteredObject> {
        self.temp_map
            .iter()
            .rev()
            .find(|(t, _)| t.same_as(temp))
            .map(|(_, o)| o)
    }

    /// Remove a redirection (temp object dropped by the application).
    pub fn unmap_temp(&mut self, temp: &ObjectName) -> Option<RegisteredObject> {
        let idx = self.temp_map.iter().rposition(|(t, _)| t.same_as(temp))?;
        let (_, obj) = self.temp_map.remove(idx);
        Some(obj)
    }

    /// Begin logging an application transaction.
    pub fn txn_begin(&mut self, tag: u64) {
        self.txn_open = true;
        self.txn_tag = Some(tag);
        self.txn_log.clear();
    }

    /// Log a statement executed inside the open application transaction.
    pub fn txn_log_statement(&mut self, sql: &str) {
        if self.txn_open {
            self.txn_log.push(sql.to_string());
        }
    }

    /// Transaction finished (committed or rolled back).
    pub fn txn_end(&mut self) {
        self.txn_open = false;
        self.txn_tag = None;
        self.txn_log.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_latest_value_wins() {
        let mut c = SessionContext::new();
        c.record_option("a", Value::Int(1));
        c.record_option("b", Value::Int(2));
        c.record_option("A", Value::Int(3));
        assert_eq!(
            c.options,
            vec![
                ("a".to_string(), Value::Int(3)),
                ("b".to_string(), Value::Int(2))
            ]
        );
    }

    #[test]
    fn temp_map_roundtrip() {
        let mut c = SessionContext::new();
        let temp = ObjectName::bare("#w");
        let stand_in = ObjectName::qualified("phoenix", "tmp_1_1_w");
        c.map_temp(temp.clone(), PhoenixObject::Table, stand_in.clone());
        assert!(c.temp_stand_in(&temp).unwrap().name.same_as(&stand_in));
        assert_eq!(c.created.len(), 1);
        let removed = c.unmap_temp(&temp).unwrap();
        assert!(removed.name.same_as(&stand_in));
        assert!(c.temp_stand_in(&temp).is_none());
    }

    #[test]
    fn a_registered_reservation_is_swept_once() {
        let mut c = SessionContext::new();
        let names: Vec<ObjectName> = (0..3)
            .map(|i| ObjectName::qualified("phoenix", format!("rs_1_{i}")))
            .collect();
        for name in &names {
            c.reserve(PhoenixObject::Table, name.clone());
            c.register(PhoenixObject::Table, name.clone());
        }
        // An interrupted creation stays reserved only.
        let lost = ObjectName::qualified("phoenix", "rs_1_9");
        c.reserve(PhoenixObject::Table, lost.clone());
        let sweep: Vec<&ObjectName> = c.debris.iter().chain(&c.created).map(|o| &o.name).collect();
        for name in names.iter().chain([&lost]) {
            let times = sweep.iter().filter(|n| n.same_as(name)).count();
            assert_eq!(times, 1, "{name} swept {times} times");
        }
        assert_eq!(sweep.len(), 4);
        assert_eq!(
            c.created.len(),
            3,
            "every completed creation is verified state"
        );
    }

    #[test]
    fn txn_logging() {
        let mut c = SessionContext::new();
        assert!(!c.txn_open);
        c.txn_log_statement("ignored before begin");
        assert!(c.txn_log.is_empty());
        c.txn_begin(1);
        c.txn_log_statement("INSERT INTO t VALUES (1)");
        c.txn_log_statement("UPDATE t SET v = 2");
        assert_eq!(c.txn_log.len(), 2);
        c.txn_end();
        assert!(c.txn_log.is_empty());
        assert!(c.txn_tag.is_none());
    }
}
