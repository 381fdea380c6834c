//! The only file of the benchmark that names a repo crate.
//!
//! Every call into `crates/*` goes through here, so when a later PR merges
//! the front-ends, drops wire v1 or reshapes the driver, this file is the
//! whole coupling surface. Functions return plain data (`Reply`, `Counters`,
//! numbers); nothing above this file sees a driver, engine or storage type
//! other than the `Row`/`Value` re-exports the output oracles compare.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use phoenix_core::{PhoenixConfig, PhoenixConnection, PhoenixCursorKind, PhoenixStatement};
use phoenix_driver::{Connection, CursorKind, Environment, FetchDir, QueryResult};
use phoenix_engine::{Engine, EngineConfig, ExecOutcome};
use phoenix_obs::StatsSnapshot;
use phoenix_storage::db::{Durability, Durable};
use phoenix_storage::types::{Column, DataType, Schema, TableDef};
use phoenix_wire::frame::{read_frame, write_frame};
use phoenix_wire::message::{Outcome, Request, Response};

pub use phoenix_storage::types::{Row, Value};

/// What one statement produced, stripped of driver types.
#[derive(Debug, Clone)]
pub enum Reply {
    Rows(Vec<Row>),
    Affected(u64),
    Done,
}

impl Reply {
    pub fn rows(&self) -> &[Row] {
        match self {
            Reply::Rows(r) => r,
            _ => &[],
        }
    }

    pub fn affected(&self) -> u64 {
        match self {
            Reply::Affected(n) => *n,
            _ => 0,
        }
    }
}

fn reply_of(r: QueryResult) -> Reply {
    match r.outcome {
        Outcome::ResultSet { rows, .. } => Reply::Rows(rows),
        Outcome::RowsAffected(n) => Reply::Affected(n),
        Outcome::Done => Reply::Done,
    }
}

fn environment() -> Environment {
    // A read timeout well above any statement of the four workloads: a
    // timeout would be counted as a failed operation, not retried.
    Environment::new().with_read_timeout(Some(Duration::from_secs(30)))
}

// ---------------------------------------------------------------------------
// driver: the native connection (the paper's "native ODBC")
// ---------------------------------------------------------------------------

/// One native driver connection = one server session.
pub struct Native(Connection);

impl Native {
    pub fn connect(addr: &str) -> Result<Native, String> {
        environment()
            .connect(addr, "bench", "bench")
            .map(Native)
            .map_err(|e| e.to_string())
    }

    /// One attempt with a short connect timeout, for readiness polling.
    pub fn try_connect(addr: &str) -> Option<Native> {
        environment()
            .with_connect_timeout(Duration::from_millis(200))
            .connect(addr, "bench", "bench")
            .ok()
            .map(Native)
    }

    pub fn exec(&mut self, sql: &str) -> Result<Reply, String> {
        self.0.execute(sql).map(reply_of).map_err(|e| e.to_string())
    }

    pub fn ping(&mut self) -> Result<(), String> {
        self.0.ping().map_err(|e| e.to_string())
    }

    pub fn explain(&mut self, sql: &str) -> Result<Reply, String> {
        self.0.explain(sql).map(reply_of).map_err(|e| e.to_string())
    }

    /// Open a forward-only server cursor and fetch `n` rows in `block`-row
    /// round trips — the recompute baseline of `crash_resume`.
    pub fn cursor_fetch(&mut self, sql: &str, n: usize, block: usize) -> Result<Vec<Row>, String> {
        let mut cur = self
            .0
            .cursor(sql, CursorKind::ForwardOnly)
            .map_err(|e| e.to_string())?;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let want = block.min(n - out.len());
            let (rows, at_end) = cur.fetch(FetchDir::Next, want).map_err(|e| e.to_string())?;
            out.extend(rows);
            if at_end {
                break;
            }
        }
        cur.close().map_err(|e| e.to_string())?;
        Ok(out)
    }

    pub fn counters(&mut self) -> Result<Counters, String> {
        self.0
            .server_stats()
            .map(|s| Counters::from_snapshot(&s))
            .map_err(|e| e.to_string())
    }

    pub fn close(self) {
        self.0.close()
    }
}

// ---------------------------------------------------------------------------
// obs: the server's own counters, fetched over the wire
// ---------------------------------------------------------------------------

/// A copy of the server's `phoenix_*` counters and histograms.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, Vec<u64>>,
}

impl Counters {
    fn from_snapshot(s: &StatsSnapshot) -> Counters {
        Counters {
            counters: s.counters.iter().cloned().collect(),
            histograms: s
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.buckets.to_vec()))
                .collect(),
        }
    }

    /// `self − earlier`, series by series.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| {
                let before = earlier.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(before))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, b)| {
                let before = earlier.histograms.get(k);
                let diff = b
                    .iter()
                    .enumerate()
                    .map(|(i, n)| n.saturating_sub(before.map_or(0, |p| p[i])))
                    .collect();
                (k.clone(), diff)
            })
            .collect();
        Counters {
            counters,
            histograms,
        }
    }

    /// Sum of every series of a counter family (`name` and `name{…}`).
    pub fn sum(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| family(k) == name)
            .map(|(_, v)| *v)
            .sum()
    }

    /// One labelled series, e.g. `get("phoenix_requests_total{type=\"stats\"}")`.
    pub fn get(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Upper bound (µs) of the log₂ bucket holding the median of the named
    /// histogram series, the series summed when several are named.
    pub fn p50_bucket_us(&self, keys: &[&str]) -> f64 {
        let mut merged: Vec<u64> = Vec::new();
        for key in keys {
            if let Some(b) = self.histograms.get(*key) {
                if merged.is_empty() {
                    merged = vec![0; b.len()];
                }
                for (m, n) in merged.iter_mut().zip(b) {
                    *m += n;
                }
            }
        }
        let total: u64 = merged.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mut seen = 0;
        for (i, n) in merged.iter().enumerate() {
            seen += n;
            if seen * 2 >= total {
                return phoenix_obs::HistogramSnapshot::upper_bound(i) as f64;
            }
        }
        0.0
    }
}

fn family(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

// ---------------------------------------------------------------------------
// core: the persistent session
// ---------------------------------------------------------------------------

/// The recovery counters a Phoenix session keeps (`PhoenixStats`).
#[derive(Debug, Clone, Default)]
pub struct SessionCounters {
    pub recoveries: u64,
    pub last_virtual_session_us: u64,
    pub last_sql_state_us: u64,
    pub reconnect_attempts: u64,
    pub replied_from_status: u64,
    pub resubmissions: u64,
}

/// A `PhoenixConnection` with the paper's default strategies.
pub struct Phoenix(PhoenixConnection);

impl Phoenix {
    pub fn connect(addr: &str) -> Result<Phoenix, String> {
        let mut config = PhoenixConfig::default();
        // The application's patience, not the server's speed: retry the
        // reconnect every millisecond so a recovery is timed to the
        // millisecond and not to the default 50 ms polling step.
        config.recovery.ping_interval = Duration::from_millis(1);
        config.recovery.read_timeout = Some(Duration::from_secs(30));
        PhoenixConnection::connect(&environment(), addr, "bench", "bench", config)
            .map(Phoenix)
            .map_err(|e| e.to_string())
    }

    pub fn exec(&mut self, sql: &str) -> Result<Reply, String> {
        self.0.execute(sql).map(reply_of).map_err(|e| e.to_string())
    }

    /// Open a forward-only persistent result set delivered in `block`-row
    /// round trips.
    pub fn open(&mut self, sql: &str, block: usize) -> Result<PhoenixCursor<'_>, String> {
        let mut stmt = self.0.statement();
        stmt.set_cursor_type(PhoenixCursorKind::ForwardOnly);
        stmt.set_fetch_block(block);
        stmt.execute(sql).map_err(|e| e.to_string())?;
        Ok(PhoenixCursor(stmt))
    }

    pub fn counters(&self) -> SessionCounters {
        let s = self.0.stats();
        SessionCounters {
            recoveries: s.recoveries,
            last_virtual_session_us: s.last_recovery_virtual_us,
            last_sql_state_us: s.last_reposition_us,
            reconnect_attempts: s.reconnect_attempts,
            replied_from_status: s.replied_from_status,
            resubmissions: s.resubmissions,
        }
    }

    /// Clean termination: drops every persistent object the session made.
    pub fn close(self) {
        self.0.close()
    }
}

/// An open persistent result set; borrows its session, as the driver's does.
pub struct PhoenixCursor<'c>(PhoenixStatement<'c>);

impl PhoenixCursor<'_> {
    /// The next `n` rows (fewer at the end of the result).
    pub fn fetch(&mut self, n: usize) -> Result<Vec<Row>, String> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            match self.0.fetch().map_err(|e| e.to_string())? {
                Some(row) => out.push(row),
                None => break,
            }
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// engine: in process, no socket
// ---------------------------------------------------------------------------

/// What `Engine::open` reported about the log it replayed.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub replay_us: u64,
    pub records_applied: u64,
    pub wal_frames: u64,
}

/// An engine opened in the benchmark's own process with one session.
pub struct Local {
    engine: Engine,
    sid: u64,
}

impl Local {
    /// Open for bulk loading: no fsync and no automatic checkpoint, so the
    /// loader decides what is in the snapshot and what is left in the log.
    pub fn open_loader(dir: &Path) -> Result<Local, String> {
        Local::open_with(
            dir,
            EngineConfig {
                durability: Durability::Buffered,
                checkpoint_every: None,
                ..EngineConfig::default()
            },
        )
    }

    /// Open with the server binary's own configuration.
    pub fn open_default(dir: &Path) -> Result<Local, String> {
        Local::open_with(dir, EngineConfig::default())
    }

    fn open_with(dir: &Path, config: EngineConfig) -> Result<Local, String> {
        let engine = Engine::open(dir, config).map_err(|e| e.to_string())?;
        let sid = engine.create_session("bench");
        Ok(Local { engine, sid })
    }

    pub fn exec(&self, sql: &str) -> Result<Reply, String> {
        let r = self
            .engine
            .execute(self.sid, sql)
            .map_err(|e| e.to_string())?;
        Ok(match r.outcome {
            ExecOutcome::ResultSet { rows, .. } => Reply::Rows(rows),
            ExecOutcome::RowsAffected(n) => Reply::Affected(n),
            ExecOutcome::Done => Reply::Done,
        })
    }

    pub fn checkpoint(&self) -> Result<(), String> {
        self.engine.checkpoint().map_err(|e| e.to_string())
    }

    pub fn replay(&self) -> Replay {
        let r = self.engine.recovery_report();
        Replay {
            replay_us: r.replay_us,
            records_applied: r.records_applied,
            wal_frames: r.wal_frames as u64,
        }
    }
}

/// Resolved write-path partition count of a server started with no
/// `--partitions` flag (`EngineConfig::partitions` doc: `min(8, cores)`).
pub fn default_partitions() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// The partition a table's log records go to.
pub fn partition_of(table: &str, partitions: usize) -> usize {
    phoenix_storage::store::partition_of(table, partitions)
}

// ---------------------------------------------------------------------------
// storage: the durability layer alone
// ---------------------------------------------------------------------------

/// `n` single-row transactions straight on `Durable` (`begin`, `insert`,
/// `commit`, fsync on), one thread. Returns each transaction's time in
/// nanoseconds and the number of WAL syncs the pass issued.
pub fn durable_commit_pass(dir: &Path, n: usize) -> Result<(Vec<u64>, u64), String> {
    let db = Durable::open(dir, Durability::Fsync).map_err(|e| e.to_string())?;
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int).not_null(),
        Column::new("payload", DataType::Text),
    ]);
    let def = TableDef::new("dbo.commit_probe", schema).with_primary_key(vec![0]);
    let txn = db.begin().map_err(|e| e.to_string())?;
    db.create_table(txn, def).map_err(|e| e.to_string())?;
    db.commit(txn).map_err(|e| e.to_string())?;

    let syncs_before = db.wal_sync_count();
    let mut times = Vec::with_capacity(n);
    for i in 0..n {
        let row = vec![
            Value::Int(i as i64),
            Value::Text(format!("commit-probe-{i:08}")),
        ];
        let t0 = Instant::now();
        let txn = db.begin().map_err(|e| e.to_string())?;
        db.insert(txn, "dbo.commit_probe", row)
            .map_err(|e| e.to_string())?;
        db.commit(txn).map_err(|e| e.to_string())?;
        times.push(t0.elapsed().as_nanos() as u64);
    }
    Ok((times, db.wal_sync_count() - syncs_before))
}

// ---------------------------------------------------------------------------
// sql and wire: pure functions
// ---------------------------------------------------------------------------

/// `phoenix_sql::parse_statement`; true when the text parses.
pub fn parse(sql: &str) -> bool {
    std::hint::black_box(phoenix_sql::parse_statement(std::hint::black_box(sql))).is_ok()
}

/// The request and the response of one statement, as the wire would carry
/// them, built ahead of the timed call.
pub struct WirePair {
    request: Request,
    response: Response,
}

impl WirePair {
    pub fn new(sql: &str, reply: &Reply) -> WirePair {
        WirePair {
            request: Request::Exec {
                sql: sql.to_string(),
            },
            response: Response::Result {
                outcome: match reply {
                    Reply::Rows(rows) => Outcome::ResultSet {
                        // The codec's cost is in the rows; the benchmark keeps
                        // no schema, so the frame goes without column names.
                        schema: Schema::new(Vec::new()),
                        rows: rows.clone(),
                    },
                    Reply::Affected(n) => Outcome::RowsAffected(*n),
                    Reply::Done => Outcome::Done,
                },
                messages: Vec::new(),
            },
        }
    }

    /// Encode, frame, unframe and decode both messages against a memory
    /// buffer. Returns the bytes that crossed it.
    pub fn roundtrip(&self, scratch: &mut Vec<u8>) -> usize {
        let mut bytes = 0;
        let mut through = |payload: Vec<u8>| -> Vec<u8> {
            scratch.clear();
            write_frame(scratch, &payload).expect("write to memory");
            bytes += scratch.len();
            read_frame(&mut scratch.as_slice()).expect("read from memory")
        };
        let request = through(self.request.encode());
        std::hint::black_box(Request::decode(&request).is_ok());
        let response = through(self.response.encode());
        std::hint::black_box(Response::decode(&response).is_ok());
        bytes
    }
}

// ---------------------------------------------------------------------------
// tpch: the paper's power test
// ---------------------------------------------------------------------------

/// The statements of the TPC-H-style power test at one scale, over the
/// crate's default database.
pub struct PowerSuite {
    pub setup_sql: Vec<String>,
    /// `(name, sql)` in execution order: Q1 … Q19.
    pub queries: Vec<(String, String)>,
    pub rf1: Vec<String>,
    pub rf2: Vec<String>,
}

pub fn power_suite(scale: f64) -> PowerSuite {
    let workload = phoenix_tpch::Tpch::new(phoenix_tpch::TpchConfig::default().with_scale(scale));
    let (lo, hi) = workload.refresh_key_range();
    PowerSuite {
        setup_sql: workload.setup_sql(),
        queries: phoenix_tpch::queries::QUERIES
            .iter()
            .map(|q| (q.name.to_string(), q.sql.to_string()))
            .collect(),
        rf1: phoenix_tpch::refresh::rf1(lo, hi),
        rf2: phoenix_tpch::refresh::rf2(lo, hi),
    }
}
