//! Durable session spill and restore — the session lifecycle manager's
//! mechanism.
//!
//! The paper persists a session's *recovery context* in ordinary durable
//! tables so a crashed server can resurrect it. This module applies the same
//! trick to a server that is merely **full**: an idle session's volatile
//! state (SET options, temp tables and procedures, open cursors, `@@ROWCOUNT`)
//! is serialized into a row of `phoenix.sessiond_spill` and evicted from
//! engine memory. The next engine call that names the session transparently
//! restores it — callers cannot tell a spilled session from a resident one.
//!
//! Spill rows are keyed `(incarnation, sid)`. The incarnation stamp is drawn
//! fresh at every [`Engine::open`], and the in-memory spilled index starts
//! empty, so rows written by a previous (crashed) incarnation can never be
//! restored — they age out through the retention window
//! ([`Engine::purge_spilled`]) exactly like the paper's abandoned-session
//! garbage. A session with an open transaction or an in-flight statement is
//! never spilled.
//!
//! Observable via `phoenix_sessiond_*` metrics and `server_lifecycle`
//! journal events; crash-injectable at the `sessiond.spill` fault point.

use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use phoenix_obs::{journal, registry, Counter, EventKind, Gauge};
use phoenix_storage::codec::{get_row, get_str, get_table_def, put_row, put_str, put_table_def};
use phoenix_storage::store::Store;
use phoenix_storage::store::StoreSnapshot;
use phoenix_storage::types::{Column, DataType, RowId, Schema, TableDef, Value};

use crate::cursor::Cursor;
use crate::engine::{Engine, SessionEntry};
use crate::error::{EngineError, ErrorCode, Result};
use crate::exec::CatalogView;
use crate::metrics::engine_metrics;
use crate::session::{SessionId, SessionState};

/// The durable table spilled sessions live in.
pub const SPILL_TABLE: &str = "phoenix.sessiond_spill";

/// What the engine remembers about a spilled session (everything else is in
/// the durable row).
pub struct SpilledInfo {
    /// Login user, kept for observability without deserializing the row.
    pub user: String,
}

/// Metric handles for the session lifecycle manager.
pub struct SessiondMetrics {
    /// Sessions spilled to the durable table (`phoenix_sessiond_spilled_total`).
    pub spilled_total: Arc<Counter>,
    /// Spilled sessions transparently restored
    /// (`phoenix_sessiond_restored_total`).
    pub restored_total: Arc<Counter>,
    /// Spills forced by the `max_sessions` cap
    /// (`phoenix_sessiond_evicted_total`).
    pub evicted_total: Arc<Counter>,
    /// Spill rows discarded by the retention window or session close
    /// (`phoenix_sessiond_purged_total`).
    pub purged_total: Arc<Counter>,
    /// Logins refused with a retryable Busy at the `max_sessions` cap
    /// (`phoenix_sessiond_busy_total`).
    pub busy_total: Arc<Counter>,
    /// Sessions currently spilled (`phoenix_sessiond_spilled_sessions`).
    pub spilled_sessions: Arc<Gauge>,
    /// Serialized payload bytes written by spills
    /// (`phoenix_sessiond_spill_bytes_total`).
    pub spill_bytes: Arc<Counter>,
}

/// The lifecycle metric set, registered on first use.
pub fn sessiond_metrics() -> &'static SessiondMetrics {
    static M: OnceLock<SessiondMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = registry();
        SessiondMetrics {
            spilled_total: r.counter(
                "phoenix_sessiond_spilled_total",
                "sessions spilled to the durable spill table",
            ),
            restored_total: r.counter(
                "phoenix_sessiond_restored_total",
                "spilled sessions transparently restored",
            ),
            evicted_total: r.counter(
                "phoenix_sessiond_evicted_total",
                "spills forced by the max_sessions cap",
            ),
            purged_total: r.counter(
                "phoenix_sessiond_purged_total",
                "spill rows discarded (retention window or session close)",
            ),
            busy_total: r.counter(
                "phoenix_sessiond_busy_total",
                "logins refused with retryable Busy at the session cap",
            ),
            spilled_sessions: r.gauge(
                "phoenix_sessiond_spilled_sessions",
                "sessions currently spilled",
            ),
            spill_bytes: r.counter(
                "phoenix_sessiond_spill_bytes_total",
                "serialized payload bytes written by spills",
            ),
        }
    })
}

fn unix_secs() -> i64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0)
}

fn busy(msg: impl Into<String>) -> EngineError {
    EngineError::new(ErrorCode::Busy, msg)
}

// -- payload serialization ---------------------------------------------------

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn get_u64(buf: &mut &[u8]) -> Result<u64> {
    if buf.len() < 8 {
        return Err(EngineError::new(
            ErrorCode::Storage,
            "session spill: truncated payload",
        ));
    }
    let v = u64::from_le_bytes(buf[..8].try_into().unwrap());
    *buf = &buf[8..];
    Ok(v)
}

fn codec_err(e: phoenix_storage::codec::DecodeError) -> EngineError {
    EngineError::new(ErrorCode::Storage, format!("session spill: {e}"))
}

fn encode_session(state: &SessionState) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    put_str(&mut buf, &state.user);
    put_u64(&mut buf, state.sys.rowcount);

    put_u64(&mut buf, state.options.len() as u64);
    for (name, value) in &state.options {
        put_str(&mut buf, name);
        put_row(&mut buf, &vec![value.clone()]);
    }

    // Temp tables, in deterministic name order; rows in row-id (scan) order
    // so restored scan order matches.
    let mut names = state.temp.table_names();
    names.sort();
    put_u64(&mut buf, names.len() as u64);
    for name in &names {
        let t = state.temp.table(name).expect("listed temp table exists");
        put_table_def(&mut buf, &t.def);
        let mut rids: Vec<RowId> = t.rows.keys().copied().collect();
        rids.sort_unstable();
        put_u64(&mut buf, rids.len() as u64);
        for rid in rids {
            put_row(&mut buf, &t.rows[&rid]);
        }
    }

    let mut procs: Vec<(String, String)> = state
        .temp
        .procs()
        .map(|(n, s)| (n.to_string(), s.to_string()))
        .collect();
    procs.sort();
    put_u64(&mut buf, procs.len() as u64);
    for (name, sql) in &procs {
        put_str(&mut buf, name);
        put_str(&mut buf, sql);
    }

    // Cursors, length-prefixed so decode can slice each one exactly.
    let mut cids: Vec<u64> = state.cursors.keys().copied().collect();
    cids.sort_unstable();
    put_u64(&mut buf, cids.len() as u64);
    for cid in cids {
        let mut cbuf = Vec::new();
        state.cursors[&cid].spill_encode(&mut cbuf);
        put_u64(&mut buf, cbuf.len() as u64);
        buf.extend_from_slice(&cbuf);
    }
    buf
}

fn decode_session(sid: SessionId, bytes: &[u8], snap: &StoreSnapshot) -> Result<SessionState> {
    let mut buf: &[u8] = bytes;
    let user = get_str(&mut buf).map_err(codec_err)?;
    let rowcount = get_u64(&mut buf)?;

    let nopts = get_u64(&mut buf)? as usize;
    let mut options = Vec::with_capacity(nopts.min(1 << 12));
    for _ in 0..nopts {
        let name = get_str(&mut buf).map_err(codec_err)?;
        let mut row = get_row(&mut buf).map_err(codec_err)?;
        let value = row.pop().unwrap_or(Value::Null);
        options.push((name, value));
    }

    let mut temp = Store::new();
    let ntables = get_u64(&mut buf)? as usize;
    for _ in 0..ntables {
        let def = get_table_def(&mut buf).map_err(codec_err)?;
        let name = def.name.clone();
        temp.create_table(def)?;
        let nrows = get_u64(&mut buf)? as usize;
        let t = temp.table_mut(&name)?;
        for _ in 0..nrows {
            t.insert(get_row(&mut buf).map_err(codec_err)?)?;
        }
    }
    let nprocs = get_u64(&mut buf)? as usize;
    for _ in 0..nprocs {
        let name = get_str(&mut buf).map_err(codec_err)?;
        let sql = get_str(&mut buf).map_err(codec_err)?;
        temp.create_proc(&name, &sql)?;
    }

    let mut state = SessionState::new(sid, user);
    state.sys.rowcount = rowcount;
    state.options = options;
    state.temp = temp;

    let ncursors = get_u64(&mut buf)? as usize;
    for _ in 0..ncursors {
        let len = get_u64(&mut buf)? as usize;
        if buf.len() < len {
            return Err(EngineError::new(
                ErrorCode::Storage,
                "session spill: truncated cursor payload",
            ));
        }
        let mut cbuf = &buf[..len];
        buf = &buf[len..];
        let view = CatalogView {
            durable: snap,
            temp: &state.temp,
        };
        let cursor = Cursor::spill_decode(&mut cbuf, &view)?;
        state.cursors.insert(cursor.id, cursor);
    }
    Ok(state)
}

// -- hex (Value::Text carrier for the binary payload) ------------------------

fn hex_encode(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(HEX[(b >> 4) as usize] as char);
        s.push(HEX[(b & 0xf) as usize] as char);
    }
    s
}

fn hex_decode(s: &str) -> Result<Vec<u8>> {
    fn nibble(c: u8) -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            b'A'..=b'F' => Some(c - b'A' + 10),
            _ => None,
        }
    }
    let b = s.as_bytes();
    if !b.len().is_multiple_of(2) {
        return Err(EngineError::new(
            ErrorCode::Storage,
            "session spill: odd-length hex payload",
        ));
    }
    let mut out = Vec::with_capacity(b.len() / 2);
    for pair in b.chunks_exact(2) {
        match (nibble(pair[0]), nibble(pair[1])) {
            (Some(h), Some(l)) => out.push((h << 4) | l),
            _ => {
                return Err(EngineError::new(
                    ErrorCode::Storage,
                    "session spill: invalid hex payload",
                ))
            }
        }
    }
    Ok(out)
}

// -- the lifecycle API -------------------------------------------------------

impl Engine {
    /// This incarnation's spill-key stamp (tests, tooling).
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Number of sessions currently spilled to the durable table.
    pub fn spilled_session_count(&self) -> usize {
        self.spilled.lock().len()
    }

    /// Open a session for `user`, honoring the `max_sessions` cap: at the
    /// cap, the least-recently-active idle session is spilled to make room;
    /// if nothing is spillable the caller gets a retryable
    /// [`ErrorCode::Busy`].
    pub fn try_create_session(&self, user: &str) -> Result<SessionId> {
        let _gate = self.stall_gate.read();
        let Some(cap) = self.config.max_sessions else {
            return Ok(self.install_session(user));
        };
        // The cap check and the insert happen under one catalog write lock,
        // so concurrent logins cannot all pass a stale check and push the
        // resident count past the cap. Each round that finds the catalog
        // full spills one victim and retries; the loop is bounded because a
        // racing login can steal the slot we just freed.
        for _ in 0..8 {
            {
                let mut sessions = self.sessions.write();
                if sessions.len() < cap {
                    return Ok(self.install_session_locked(&mut sessions, user));
                }
            }
            let mut candidates: Vec<(u64, SessionId)> = self
                .sessions
                .read()
                .iter()
                .map(|(id, e)| (e.last_active.load(Ordering::Relaxed), *id))
                .collect();
            candidates.sort_unstable();
            let mut evicted = false;
            for (_, sid) in candidates {
                if self.spill_session_inner(sid, None).is_ok() {
                    sessiond_metrics().evicted_total.inc();
                    evicted = true;
                    break;
                }
            }
            if !evicted {
                break;
            }
        }
        // Nothing was spillable (or we kept losing the race) — one last
        // atomic check in case a concurrent close freed a slot.
        {
            let mut sessions = self.sessions.write();
            if sessions.len() < cap {
                return Ok(self.install_session_locked(&mut sessions, user));
            }
        }
        sessiond_metrics().busy_total.inc();
        Err(busy(format!(
            "session limit {cap} reached and no session is idle; retry"
        )))
    }

    /// Spill session `sid`'s volatile state to the durable spill table and
    /// release its engine memory. Fails with [`ErrorCode::Busy`] if the
    /// session has a statement in flight or an open transaction (spilling
    /// mid-transaction would detach the txn from its owner).
    pub fn spill_session(&self, sid: SessionId) -> Result<()> {
        let _gate = self.stall_gate.read();
        self.spill_session_inner(sid, None).map(|_| ())
    }

    fn spill_session_inner(&self, sid: SessionId, idle_cutoff: Option<u64>) -> Result<usize> {
        // Lock order: spilled index, then session catalog (matches restore).
        let mut spilled = self.spilled.lock();
        let mut sessions = self.sessions.write();
        let entry = sessions
            .get(&sid)
            .cloned()
            .ok_or_else(|| EngineError::new(ErrorCode::NoSession, format!("no session {sid}")))?;
        // Re-validate idleness under the catalog lock: the victim was picked
        // from an unlocked scan and may have been touched since. (`touch`
        // happens under the catalog read lock, so it cannot interleave with
        // this check.)
        if let Some(cutoff) = idle_cutoff {
            if entry.last_active.load(Ordering::Relaxed) > cutoff {
                return Err(busy(format!("session {sid} is no longer idle")));
            }
        }
        let mut state = entry
            .state
            .try_lock()
            .ok_or_else(|| busy(format!("session {sid} has a statement in flight")))?;
        if state.txn.is_some() {
            return Err(busy(format!("session {sid} has an open transaction")));
        }
        // Chaos point: a crash injected here costs nothing — the session is
        // still fully resident and no durable byte has been written.
        phoenix_chaos::check_durable("sessiond.spill")
            .map_err(|e| EngineError::new(ErrorCode::Storage, e.to_string()))?;

        let payload = encode_session(&state);
        let bytes = payload.len();
        let user = state.user.clone();
        let temp_tables = state.temp.tables().count() as i64;
        self.ensure_spill_table()?;
        let key = [Value::Int(self.incarnation as i64), Value::Int(sid as i64)];
        let row = vec![
            Value::Int(self.incarnation as i64),
            Value::Int(sid as i64),
            Value::Int(unix_secs()),
            Value::Text(user.clone()),
            Value::Text(hex_encode(&payload)),
        ];
        let txn = self.durable.begin()?;
        let write = (|| -> Result<()> {
            // Upsert: a session can be spilled more than once per lifetime.
            if let Ok(data) = self.durable.snapshot().table(SPILL_TABLE) {
                if let Some(rid) = data.row_id_by_key(&key) {
                    self.durable.delete(txn, SPILL_TABLE, rid)?;
                }
            }
            self.durable.insert(txn, SPILL_TABLE, row)?;
            Ok(())
        })();
        match write {
            Ok(()) => self.durable.commit(txn)?,
            Err(e) => {
                let _ = self.durable.abort(txn);
                return Err(e);
            }
        }
        // Tombstone, set while we still hold the state mutex: a request
        // thread that cloned the catalog entry before this spill will see it
        // after acquiring the lock and retry its lookup (restoring the
        // durable row we just wrote) instead of executing against an orphan.
        state.spilled_out = true;
        drop(state);
        sessions.remove(&sid);
        spilled.insert(sid, SpilledInfo { user });
        let m = sessiond_metrics();
        m.spilled_total.inc();
        m.spilled_sessions.inc();
        m.spill_bytes.add(bytes as u64);
        let em = engine_metrics();
        em.sessions_active.dec();
        em.temp_tables.add(-temp_tables);
        journal().record(
            "sessiond",
            EventKind::ServerLifecycle,
            format!("spill sid={sid} bytes={bytes}"),
        );
        Ok(bytes)
    }

    /// Restore a spilled session into engine memory (the transparent half of
    /// the lifecycle contract; called from the session lookup on a miss).
    pub(crate) fn restore_session(&self, sid: SessionId) -> Result<Arc<SessionEntry>> {
        let mut spilled = self.spilled.lock();
        // A racing restore may have beaten us to the index lock.
        if let Some(entry) = self.sessions.read().get(&sid).cloned() {
            entry.touch();
            return Ok(entry);
        }
        if !spilled.contains_key(&sid) {
            return Err(EngineError::new(
                ErrorCode::NoSession,
                format!("no session {sid}"),
            ));
        }
        let snap = self.durable.snapshot();
        let key = [Value::Int(self.incarnation as i64), Value::Int(sid as i64)];
        let data = snap.table(SPILL_TABLE).map_err(|_| {
            EngineError::internal(format!("session {sid} indexed as spilled, table missing"))
        })?;
        let rid = data.row_id_by_key(&key).ok_or_else(|| {
            EngineError::internal(format!("session {sid} indexed as spilled, row missing"))
        })?;
        let payload = match &data.rows[&rid][4] {
            Value::Text(hex) => hex_decode(hex)?,
            other => {
                return Err(EngineError::internal(format!(
                    "spill payload for session {sid} is {other:?}, not text"
                )))
            }
        };
        let state = decode_session(sid, &payload, &snap)?;
        let temp_tables = state.temp.tables().count() as i64;
        // The row is consumed by the restore: delete it before going live so
        // a later crash can't resurrect a second copy of this state.
        let txn = self.durable.begin()?;
        match self.durable.delete(txn, SPILL_TABLE, rid) {
            Ok(_) => self.durable.commit(txn)?,
            Err(e) => {
                let _ = self.durable.abort(txn);
                return Err(e.into());
            }
        }
        let entry = Arc::new(SessionEntry::new(state));
        self.sessions.write().insert(sid, entry.clone());
        spilled.remove(&sid);
        let m = sessiond_metrics();
        m.restored_total.inc();
        m.spilled_sessions.dec();
        let em = engine_metrics();
        em.sessions_active.inc();
        em.temp_tables.add(temp_tables);
        journal().record(
            "sessiond",
            EventKind::ServerLifecycle,
            format!("restore sid={sid}"),
        );
        Ok(entry)
    }

    /// Close a session that is currently spilled: discard its durable row.
    pub(crate) fn close_spilled_session(&self, sid: SessionId) -> Result<()> {
        let mut spilled = self.spilled.lock();
        if spilled.remove(&sid).is_none() {
            return Err(EngineError::new(
                ErrorCode::NoSession,
                format!("no session {sid}"),
            ));
        }
        sessiond_metrics().spilled_sessions.dec();
        let key = [Value::Int(self.incarnation as i64), Value::Int(sid as i64)];
        if let Ok(data) = self.durable.snapshot().table(SPILL_TABLE) {
            if let Some(rid) = data.row_id_by_key(&key) {
                let txn = self.durable.begin()?;
                match self.durable.delete(txn, SPILL_TABLE, rid) {
                    Ok(_) => self.durable.commit(txn)?,
                    Err(e) => {
                        let _ = self.durable.abort(txn);
                        return Err(e.into());
                    }
                }
                sessiond_metrics().purged_total.inc();
            }
        }
        journal().record(
            "sessiond",
            EventKind::ServerLifecycle,
            format!("close-spilled sid={sid}"),
        );
        Ok(())
    }

    /// Spill every session idle for at least `idle_for` (no statement in the
    /// window, no open transaction). Returns how many were spilled. The
    /// periodic cleanup job calls this.
    pub fn spill_idle_sessions(&self, idle_for: Duration) -> usize {
        let _gate = self.stall_gate.read();
        let now = phoenix_obs::now_us();
        let cutoff = now.saturating_sub(idle_for.as_micros() as u64);
        let mut victims: Vec<SessionId> = self
            .sessions
            .read()
            .iter()
            .filter(|(_, e)| e.last_active.load(Ordering::Relaxed) <= cutoff)
            .map(|(id, _)| *id)
            .collect();
        // Session-id order, not map order: the chaos explorer relies on the
        // `sessiond.spill` visit sequence being a pure function of the
        // workload.
        victims.sort_unstable();
        let mut spilled = 0;
        for sid in victims {
            // The cutoff travels with the spill so idleness is re-verified
            // under the catalog lock — a session touched after this scan is
            // skipped, not spilled mid-request.
            if self.spill_session_inner(sid, Some(cutoff)).is_ok() {
                spilled += 1;
            }
        }
        spilled
    }

    /// Discard spill rows older than `retention` — including rows stranded
    /// by previous incarnations, which is how crashed-and-abandoned session
    /// state is garbage-collected. Returns how many rows were purged.
    pub fn purge_spilled(&self, retention: Duration) -> usize {
        let _gate = self.stall_gate.read();
        let now = unix_secs();
        let snap = self.durable.snapshot();
        let Ok(data) = snap.table(SPILL_TABLE) else {
            return 0;
        };
        let victims: Vec<(RowId, i64, i64)> = data
            .rows
            .iter()
            .filter_map(|(rid, row)| match (&row[0], &row[1], &row[2]) {
                (Value::Int(inc), Value::Int(sid), Value::Int(saved_at)) => {
                    let expired = saved_at.saturating_add(retention.as_secs() as i64) <= now;
                    expired.then_some((*rid, *inc, *sid))
                }
                _ => None,
            })
            .collect();
        if victims.is_empty() {
            return 0;
        }
        let mut spilled = self.spilled.lock();
        let txn = match self.durable.begin() {
            Ok(t) => t,
            Err(_) => return 0,
        };
        let mut purged = 0;
        for (rid, _, _) in &victims {
            if self.durable.delete(txn, SPILL_TABLE, *rid).is_ok() {
                purged += 1;
            }
        }
        if self.durable.commit(txn).is_err() {
            return 0;
        }
        for (_, inc, sid) in &victims {
            if *inc == self.incarnation as i64 && spilled.remove(&(*sid as u64)).is_some() {
                sessiond_metrics().spilled_sessions.dec();
            }
        }
        sessiond_metrics().purged_total.add(purged as u64);
        journal().record(
            "sessiond",
            EventKind::ServerLifecycle,
            format!("purge rows={purged}"),
        );
        purged as usize
    }

    fn ensure_spill_table(&self) -> Result<()> {
        if self.durable.snapshot().has_table(SPILL_TABLE) {
            return Ok(());
        }
        let def = TableDef::new(
            SPILL_TABLE,
            Schema::new(vec![
                Column::new("inc", DataType::Int).not_null(),
                Column::new("sid", DataType::Int).not_null(),
                Column::new("saved_at", DataType::Int).not_null(),
                Column::new("usr", DataType::Text).not_null(),
                Column::new("payload", DataType::Text).not_null(),
            ]),
        )
        .with_primary_key(vec![0, 1]);
        let txn = self.durable.begin()?;
        match self.durable.create_table(txn, def) {
            Ok(()) => {
                self.durable.commit(txn)?;
                Ok(())
            }
            Err(e) => {
                let _ = self.durable.abort(txn);
                let e: EngineError = e.into();
                // Raced another creator: fine, the table exists.
                if e.code == ErrorCode::AlreadyExists {
                    Ok(())
                } else {
                    Err(e)
                }
            }
        }
    }
}
