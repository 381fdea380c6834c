#![warn(missing_docs)]

//! # phoenix-chaos-explore
//!
//! The crash-schedule explorer: systematic validation of the paper's
//! "survives a crash at *any* instant" guarantee.
//!
//! The pipeline:
//!
//! 1. **Clean run** ([`run_clean`]) — execute the [canonical
//!    workload](canonical_workload) against a fresh server with
//!    `phoenix-chaos` armed in trace mode, recording every fault-point
//!    visit. With a single client the durable-point visit sequence (WAL,
//!    snapshot publish, dequeue/reply) and every per-point visit count are
//!    pure functions of the workload, so the trace doubles as the
//!    enumeration of every instant the server could die. (During the
//!    pipelined phase the client's frame writes overlap the server's frame
//!    reads, so only the wire-level points' *interleaving* varies run to
//!    run — their counts and the durable sub-trace do not.)
//! 2. **Crash sweep** ([`explore`]) — for each enumerated visit, re-run the
//!    workload with a one-shot schedule that kills the server exactly there
//!    (plus torn-write variants at the write-shaped points), let Phoenix
//!    recover, and compare the workload's observable output against the
//!    clean run.
//!
//! The invariants checked after every crash are the paper's:
//!
//! * **No committed write lost** — the final table image equals the clean
//!   run's.
//! * **No DML applied twice** — increment-style UPDATEs and row counts
//!   would diverge if a statement re-executed after its commit.
//! * **Replayed replies identical** — every statement's rendered reply
//!   matches the clean run's byte-for-byte, whether it was executed,
//!   replayed from the status table, or resubmitted.
//! * **Cursors resume at the saved position** — the row sequence delivered
//!   through the keyset cursor matches the clean run's.
//! * **Secondary indexes stay consistent** — after recovery every index in
//!   the catalog is audited entry-by-entry against its table's rows
//!   ([`phoenix_engine::Engine::verify_indexes`]), so a crash inside index
//!   backfill, maintenance, or drop can neither lose the index nor leave
//!   stale entries behind.
//!
//! Any violation is reported with the `(seed, point, nth)` triple that
//! reproduces it — exactly for the durable points, and up to the pipelined
//! window's frame interleaving for the wire-level points.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use phoenix_chaos as chaos;
use phoenix_chaos::{FaultPlan, FaultSpec, Visit};
use phoenix_core::{PhoenixConfig, PhoenixConnection, PhoenixCursorKind, PhoenixStats};
use phoenix_driver::Environment;
use phoenix_engine::EngineConfig;
use phoenix_server::ServerHarness;

/// Everything the canonical workload observes: one rendered reply per
/// statement, the row sequence delivered through the cursor, and the final
/// table image. Two runs are equivalent iff their outputs are equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadOutput {
    /// Rendered reply of each workload statement, in order.
    pub replies: Vec<String>,
    /// Rows fetched through the keyset cursor, in delivery order.
    pub cursor_rows: Vec<String>,
    /// `SELECT * FROM acct ORDER BY id` followed by `SELECT * FROM customer
    /// ORDER BY id` at the end of the workload: both tables of
    /// [`WORKLOAD_CROSS`]'s transactions, so a half-applied one is
    /// observable.
    pub final_table: Vec<String>,
}

/// The DML/txn statements of the canonical workload (the cursor phase and
/// the final table scan are driven separately by [`canonical_workload`]).
///
/// Every mutation is chosen so that *double* application changes the
/// observable state: increments would overshoot, re-inserts would raise
/// duplicate-key errors, a re-deleted row changes affected counts.
pub const WORKLOAD_DML: &[&str] = &[
    "INSERT INTO acct VALUES (9, 900, 'ins')",
    "UPDATE acct SET bal = bal + 5 WHERE id = 1",
    "DELETE FROM acct WHERE id = 2",
    "BEGIN",
    "UPDATE acct SET bal = bal + 7 WHERE id = 3",
    "INSERT INTO acct VALUES (10, 1000, 'txn')",
    "COMMIT",
    "SELECT id, bal FROM acct WHERE bal >= 500 ORDER BY id",
];

/// The pipelined phase: independent DML submitted through
/// `PhoenixConnection::execute_pipelined`, so a whole window of tagged
/// `ExecBatch` wrappers is in flight at once. Crashing anywhere in this
/// phase (the `server.pipeline_dequeue` and `server.reply_send` visits it
/// generates) exercises the paper's exactly-once guarantee for the entire
/// in-flight window: committed tags must replay their logged outcome,
/// uncommitted ones must resubmit. As with [`WORKLOAD_DML`], every mutation
/// diverges observably if applied twice.
pub const WORKLOAD_PIPELINED: &[&str] = &[
    "INSERT INTO acct VALUES (11, 1100, 'p1')",
    "UPDATE acct SET bal = bal + 11 WHERE id = 4",
    "UPDATE acct SET bal = bal + 13 WHERE id = 5",
    "INSERT INTO acct VALUES (12, 1200, 'p2')",
    "DELETE FROM acct WHERE id = 6",
    "UPDATE acct SET bal = bal + 17 WHERE id = 7",
];

/// The two-table transaction phase. Each transaction here writes `acct`
/// and `customer` and commits with one `Commit` record. Crashing before
/// that record is durable (a crash or torn write at its `wal.append`, or a
/// crash at the `wal.fsync` after it) must roll back both tables, and the
/// resubmitted statements must land exactly once. Every mutation diverges
/// observably if applied twice or half-applied (duplicate keys, unbalanced
/// transfer totals).
pub const WORKLOAD_CROSS: &[&str] = &[
    "BEGIN",
    "UPDATE acct SET bal = bal - 40 WHERE id = 1",
    "INSERT INTO customer VALUES (1, 40, 'x1')",
    "COMMIT",
    "BEGIN",
    "INSERT INTO customer VALUES (2, 7, 'x2')",
    "UPDATE acct SET bal = bal + 7 WHERE id = 3",
    "COMMIT",
];

/// The checkpoint-heavy phase. With [`explorer_engine_config`]'s small
/// `checkpoint_every`, these statements push the log-record counter over
/// the threshold repeatedly, so the clean trace enumerates `wal.rotate`,
/// `checkpoint.write`, and `checkpoint.truncate` visits — crashing *after*
/// the new manifest commits but *before* the rotated log is discarded is
/// exactly the double-apply window the snapshot mark closes. Every
/// mutation diverges observably if applied twice (duplicate keys,
/// overshooting increments, changed affected counts).
pub const WORKLOAD_CHECKPOINT: &[&str] = &[
    "INSERT INTO acct VALUES (20, 2000, 'ck1')",
    "UPDATE acct SET bal = bal + 19 WHERE id = 20",
    "INSERT INTO acct VALUES (21, 2100, 'ck2')",
    "UPDATE acct SET bal = bal + 23 WHERE id = 1",
    "INSERT INTO acct VALUES (22, 2200, 'ck3')",
    "DELETE FROM acct WHERE id = 21",
    "INSERT INTO acct VALUES (23, 2300, 'ck4')",
    "UPDATE acct SET bal = bal + 29 WHERE id = 22",
];

/// The secondary-index phase. CREATE INDEX is journaled in the WAL like
/// any catalog change, DML afterwards maintains the index inline, and the
/// DROP/re-CREATE pair exercises both directions of the catalog records —
/// so the
/// sweep crashes inside index backfill, maintenance, and drop windows.
/// Recovery rebuilds indexes REDO-only from the WAL; [`run_case`] then
/// audits every table's indexes against its rows (`Engine::verify_indexes`)
/// on top of the usual output comparison. The EXPLAIN reply pins the access
/// path observably: a recovered server that lost the index (or its
/// contents) would answer with a different plan or different rows.
pub const WORKLOAD_INDEX: &[&str] = &[
    "CREATE INDEX ix_acct_bal ON acct(bal)",
    "INSERT INTO acct VALUES (30, 3000, 'ix1')",
    "UPDATE acct SET bal = bal + 31 WHERE id = 30",
    "DELETE FROM acct WHERE id = 9",
    "EXPLAIN SELECT id FROM acct WHERE bal = 3031",
    "SELECT id FROM acct WHERE bal = 3031",
    "DROP INDEX ix_acct_bal",
    "CREATE INDEX ix_acct_bal ON acct(bal)",
];

/// The session-churn phase, run by a *second* client. It builds up session
/// state (a var, a temp table, real DML) beside the main client's idle
/// session, then reads it back. Crashing anywhere in the phase must leave
/// every reply unchanged: a lost session is rebuilt by the client's context
/// replay. The customer INSERT diverges observably (duplicate key) if
/// applied twice.
pub const WORKLOAD_CHURN: &[&str] = &[
    "SET app_name 'churn'",
    "CREATE TABLE #churn (v INT PRIMARY KEY)",
    "INSERT INTO #churn VALUES (1), (2), (3)",
    "INSERT INTO customer VALUES (3, 9, 'churn')",
];

/// Create and populate the workload's table. Run *before* the plan starts
/// counting, so schedules align with [`run_clean`]'s trace.
pub fn seed_workload(pc: &mut PhoenixConnection) -> phoenix_core::Result<()> {
    pc.execute("CREATE TABLE acct (id INT PRIMARY KEY, bal INT, memo TEXT)")?;
    pc.execute("CREATE TABLE customer (id INT PRIMARY KEY, owed INT, memo TEXT)")?;
    pc.execute(
        "INSERT INTO acct VALUES (1, 100, 'a'), (2, 200, 'b'), (3, 300, 'c'), (4, 400, 'd'), \
         (5, 500, 'e'), (6, 600, 'f'), (7, 700, 'g'), (8, 800, 'h')",
    )?;
    Ok(())
}

/// Run the canonical workload: wrapped DML, an application transaction, a
/// materialized SELECT, a pipelined DML window, a session-churn phase, a
/// keyset-cursor scan, and a final full-table read.
///
/// `connect` opens the churn phase's fresh Phoenix clients against the same
/// server, retrying until it succeeds (a scheduled crash can land
/// mid-login; the retried connect produces no recorded replies, so
/// retrying keeps the workload's observable output crash-independent).
pub fn canonical_workload(
    pc: &mut PhoenixConnection,
    connect: &dyn Fn() -> PhoenixConnection,
) -> phoenix_core::Result<WorkloadOutput> {
    let mut replies = Vec::new();
    for sql in WORKLOAD_DML {
        let r = pc.execute(sql)?;
        replies.push(format!("{r:?}"));
    }

    let pipelined: Vec<String> = WORKLOAD_PIPELINED.iter().map(|s| s.to_string()).collect();
    for r in pc.execute_pipelined(&pipelined)? {
        replies.push(format!("{r:?}"));
    }

    for sql in WORKLOAD_CROSS {
        let r = pc.execute(sql)?;
        replies.push(format!("{r:?}"));
    }

    for sql in WORKLOAD_CHECKPOINT {
        let r = pc.execute(sql)?;
        replies.push(format!("{r:?}"));
    }

    for sql in WORKLOAD_INDEX {
        let r = pc.execute(sql)?;
        replies.push(format!("{r:?}"));
    }

    // Session churn (see [`WORKLOAD_CHURN`]): a second client, then an
    // ephemeral third session.
    {
        let mut churn = connect();
        for sql in WORKLOAD_CHURN {
            let r = churn.execute(sql)?;
            replies.push(format!("churn {r:?}"));
        }
        let r = churn.execute("SELECT COUNT(*) FROM #churn")?;
        replies.push(format!("churn {r:?}"));
        let r = churn.execute("SELECT owed FROM customer WHERE id = 3")?;
        replies.push(format!("churn {r:?}"));
        churn.close();

        let mut ephemeral = connect();
        let r = ephemeral.execute("SELECT memo FROM customer WHERE id = 3")?;
        replies.push(format!("ephemeral {r:?}"));
        ephemeral.close();
    }

    let mut cursor_rows = Vec::new();
    {
        let mut st = pc.statement();
        st.set_cursor_type(PhoenixCursorKind::Keyset);
        st.set_fetch_block(3);
        st.execute("SELECT id, bal FROM acct ORDER BY id")?;
        while let Some(row) = st.fetch()? {
            cursor_rows.push(format!("{row:?}"));
        }
        st.close();
    }

    // Both tables of the two-table phase: a half-applied transaction (acct
    // debited, customer never credited or vice versa) shows up here.
    let mut final_table: Vec<String> = pc
        .execute("SELECT * FROM acct ORDER BY id")?
        .rows()
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    final_table.extend(
        pc.execute("SELECT * FROM customer ORDER BY id")?
            .rows()
            .iter()
            .map(|r| format!("customer {r:?}")),
    );

    Ok(WorkloadOutput {
        replies,
        cursor_rows,
        final_table,
    })
}

fn fresh_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "phoenix-chaos-explore-{tag}-{}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The recovery tuning every explorer run uses: fast failure detection so a
/// full sweep stays fast, generous overall deadline so a slow restart never
/// masquerades as a violation.
pub fn explorer_config() -> PhoenixConfig {
    let mut c = PhoenixConfig::default();
    c.recovery.read_timeout = Some(Duration::from_millis(800));
    c.recovery.ping_interval = Duration::from_millis(10);
    c.recovery.max_wait = Duration::from_secs(10);
    c
}

/// The engine tuning every explorer run uses: a checkpoint interval small
/// enough that the canonical workload triggers several auto-checkpoints,
/// so the clean trace enumerates crash candidates at `wal.rotate`,
/// `checkpoint.write`, and `checkpoint.truncate`. The counter only
/// advances through the single client's statements, so checkpoint timing —
/// and therefore the visit trace — stays deterministic across runs.
pub fn explorer_engine_config() -> EngineConfig {
    EngineConfig {
        checkpoint_every: Some(24),
        ..EngineConfig::default()
    }
}

fn connect(h: &ServerHarness) -> PhoenixConnection {
    PhoenixConnection::connect(
        &Environment::new(),
        &h.addr(),
        "chaos",
        "test",
        explorer_config(),
    )
    .expect("connect to fresh harness")
}

/// Connect for the churn phase, retrying through a crash/restart window (a
/// scheduled fault can fire mid-login, before the client has any recovery
/// state to lean on).
fn connect_with_retry(addr: &str, user: &str) -> PhoenixConnection {
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        match PhoenixConnection::connect(&Environment::new(), addr, user, "test", explorer_config())
        {
            Ok(pc) => return pc,
            Err(e) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "churn connect never succeeded: {e}"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Run the workload with no faults, tracing every fault-point visit.
/// Returns the baseline output and the visit trace (the crash-point
/// enumeration). The durable-point sub-trace and all per-point visit
/// counts are deterministic; the global interleaving of wire-level visits
/// is not once the pipelined phase has requests and replies in flight
/// concurrently.
pub fn run_clean() -> (WorkloadOutput, Vec<Visit>) {
    let dir = fresh_dir("clean");
    // The server must start inside the plan to serve inside it.
    let guard = chaos::arm_traced(chaos::Schedule::new());
    let mut h = ServerHarness::start(&dir, explorer_engine_config()).unwrap();
    let mut pc = connect(&h);
    seed_workload(&mut pc).expect("seed");
    // Count only from now: visits during startup/connect/seed are not crash
    // candidates (recovery of an un-seeded session is covered elsewhere),
    // and skipping them keeps visit numbers aligned across runs.
    guard.reset(chaos::Schedule::new());
    let out = {
        let addr = h.addr();
        let churn_connect = move || connect_with_retry(&addr, "churn");
        canonical_workload(&mut pc, &churn_connect).expect("clean run must succeed")
    };
    let trace = guard.trace();
    drop(guard);
    pc.close();
    h.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    (out, trace)
}

/// Spawn the crash supervisor: polls [`FaultPlan::crash_requested`] and,
/// when a fatal fault fires, severs/crashes the harness, acknowledges the
/// crash (lifting the halt for the next incarnation), and restarts the
/// server on the same port. Returns `true` from its join handle iff a crash
/// was handled. Set `stop` after the workload finishes, then join.
pub fn spawn_supervisor(
    plan: Arc<FaultPlan>,
    harness: Arc<Mutex<ServerHarness>>,
    stop: Arc<AtomicBool>,
) -> JoinHandle<bool> {
    std::thread::spawn(move || loop {
        if plan.crash_requested() {
            {
                let mut h = harness.lock().unwrap();
                h.crash().expect("supervisor crash");
                // The dead incarnation is fully drained; the halt may lift
                // so the next incarnation can write and reply.
                plan.acknowledge_crash();
                std::thread::sleep(Duration::from_millis(20));
                h.restart().expect("supervisor restart");
            }
            return true;
        }
        if stop.load(Ordering::Relaxed) {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    })
}

/// One crash case: inject `spec` at the `nth` visit to `point`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashCase {
    /// Fault-point name (from the clean trace).
    pub point: &'static str,
    /// 1-based per-point visit number to fire at.
    pub nth: u64,
    /// What to inject there.
    pub spec: FaultSpec,
}

impl CrashCase {
    /// Stable human-readable id, used in violation reports.
    pub fn id(&self) -> String {
        format!("{}@{} [{}]", self.point, self.nth, self.spec.as_str())
    }
}

/// Outcome of one crashed run.
#[derive(Debug)]
pub struct CaseOutcome {
    /// The workload's observable output, or the error that ended it.
    pub output: Result<WorkloadOutput, String>,
    /// Did the injected fault actually fire?
    pub fired: bool,
    /// Did the supervisor handle a crash (sever + restart)?
    pub crashed: bool,
    /// Post-workload audit of every secondary index against its table's
    /// rows (`Engine::verify_indexes` on the surviving incarnation) — a
    /// recovery that rebuilt an index wrong fails here even if no workload
    /// statement happened to read through the damage.
    pub index_check: Result<(), String>,
    /// Phoenix client counters at the end of the run.
    pub stats: PhoenixStats,
}

/// Run the canonical workload with `case` injected, supervising the crash
/// and letting Phoenix recover. Fully deterministic for a given case.
pub fn run_case(case: &CrashCase) -> CaseOutcome {
    let dir = fresh_dir("case");
    // As in `run_clean`: the server starts inside the plan.
    let guard = chaos::arm(chaos::Schedule::new());
    let harness = Arc::new(Mutex::new(
        ServerHarness::start(&dir, explorer_engine_config()).unwrap(),
    ));
    let mut pc = {
        let h = harness.lock().unwrap();
        connect(&h)
    };
    seed_workload(&mut pc).expect("seed");

    guard.reset(chaos::Schedule::new().rule(
        chaos::Target::Point {
            point: case.point,
            nth: case.nth,
        },
        case.spec,
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let supervisor = spawn_supervisor(guard.plan(), Arc::clone(&harness), Arc::clone(&stop));

    let output = {
        let addr = { harness.lock().unwrap().addr() };
        let churn_connect = move || connect_with_retry(&addr, "churn");
        canonical_workload(&mut pc, &churn_connect).map_err(|e| e.to_string())
    };

    stop.store(true, Ordering::Relaxed);
    let crashed = supervisor.join().expect("supervisor join");
    let fired = !guard.fired().is_empty();
    drop(guard);

    let index_check = {
        let h = harness.lock().unwrap();
        h.with_engine(|e| e.verify_indexes())
            .unwrap_or_else(|| Err("no live engine for index audit".to_string()))
    };

    let stats = pc.stats().clone();
    pc.close();
    harness.lock().unwrap().shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    CaseOutcome {
        output,
        fired,
        crashed,
        index_check,
        stats,
    }
}

/// Compare a crashed run's output against the clean baseline; returns one
/// line per divergence (empty = all invariants hold).
pub fn verify(baseline: &WorkloadOutput, got: &WorkloadOutput) -> Vec<String> {
    let mut diffs = Vec::new();
    let mut cmp = |what: &str, base: &[String], got: &[String]| {
        if base.len() != got.len() {
            diffs.push(format!(
                "{what}: {} entries, expected {}",
                got.len(),
                base.len()
            ));
        }
        for (i, (b, g)) in base.iter().zip(got.iter()).enumerate() {
            if b != g {
                diffs.push(format!("{what}[{i}]: got {g}, expected {b}"));
            }
        }
    };
    cmp("reply", &baseline.replies, &got.replies);
    cmp("cursor", &baseline.cursor_rows, &got.cursor_rows);
    cmp("final_table", &baseline.final_table, &got.final_table);
    diffs
}

/// Options for [`explore`].
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Maximum crash cases to execute; `0` = all of them. When the budget
    /// is smaller than the case list, a deterministic seed-offset stride
    /// picks an even sample.
    pub budget: usize,
    /// Seed for the budgeted sample selection (and printed with every
    /// violation for reproduction).
    pub seed: u64,
    /// Also generate torn-write variants at the write-shaped points
    /// (`wal.append`, `server.reply_send`, `wire.write_frame`).
    pub torn_writes: bool,
    /// Print per-case progress to stderr.
    pub verbose: bool,
}

impl Default for ExploreOptions {
    fn default() -> ExploreOptions {
        ExploreOptions {
            budget: 0,
            seed: 1,
            torn_writes: true,
            verbose: false,
        }
    }
}

/// Wall-clock bound on one case. A case still running past it prints its
/// schedule and ends the process with status 3 (see [`CaseWatchdog`]): a
/// hung case fails the sweep, it does not hang it.
pub const CASE_TIMEOUT: Duration = Duration::from_secs(120);

/// A wall-clock bound on one crash case. Armed before the case runs and
/// dropped when it returns; if the bound passes first, `on_expiry` runs on
/// the watchdog's own thread. The sweeps print the case's schedule and
/// exit the process there: a case stuck inside the server or the client
/// cannot be unwound from outside.
pub struct CaseWatchdog {
    /// Dropped with the watchdog, which wakes its thread before the bound.
    disarm: Option<mpsc::Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl CaseWatchdog {
    /// Start watching: `on_expiry` runs unless the watchdog is dropped
    /// within `bound`.
    pub fn arm(bound: Duration, on_expiry: impl FnOnce() + Send + 'static) -> CaseWatchdog {
        let (disarm, disarmed) = mpsc::channel::<()>();
        let thread = std::thread::spawn(move || {
            if let Err(mpsc::RecvTimeoutError::Timeout) = disarmed.recv_timeout(bound) {
                on_expiry();
            }
        });
        CaseWatchdog {
            disarm: Some(disarm),
            thread: Some(thread),
        }
    }
}

impl Drop for CaseWatchdog {
    fn drop(&mut self) {
        drop(self.disarm.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Watch one case of a sweep: past [`CASE_TIMEOUT`], print the case's
/// schedule and the seed that reproduces the sweep, and exit with status 3.
pub(crate) fn watch_case(opts: &ExploreOptions, case_id: String) -> CaseWatchdog {
    let seed = opts.seed;
    CaseWatchdog::arm(CASE_TIMEOUT, move || {
        eprintln!(
            "phoenix-chaos-explore: case {case_id} still running after {CASE_TIMEOUT:?}; \
             reproduce with --seed {seed}. Exiting instead of hanging the sweep."
        );
        std::process::exit(3);
    })
}

/// One invariant violation, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// `point@nth [spec]` of the case that failed.
    pub case_id: String,
    /// The sweep seed (reproduces the sample selection).
    pub seed: u64,
    /// The divergences (or the run-level error).
    pub details: Vec<String>,
}

/// Sweep results.
#[derive(Debug)]
pub struct Report {
    /// Crash candidates enumerated from the clean trace (before budgeting).
    pub enumerated: usize,
    /// Cases actually executed.
    pub executed: usize,
    /// Cases in which the supervisor handled a real crash/restart.
    pub crashed: usize,
    /// Cases answered (at least partially) from the status table.
    pub replayed: usize,
    /// Invariant violations (empty = the guarantee held everywhere).
    pub violations: Vec<Violation>,
}

/// Enumerate the crash candidates for a given clean-run `trace`.
pub fn enumerate_cases(trace: &[Visit], torn_writes: bool) -> Vec<CrashCase> {
    let mut cases: Vec<CrashCase> = trace
        .iter()
        .map(|v| CrashCase {
            point: v.point,
            nth: v.nth,
            spec: FaultSpec::CrashNow,
        })
        .collect();
    if torn_writes {
        for v in trace {
            let write_shaped = v.point == "wal.append"
                || v.point == "server.reply_send"
                || v.point == "wire.write_frame";
            if !write_shaped {
                continue;
            }
            cases.push(CrashCase {
                point: v.point,
                nth: v.nth,
                // Vary the torn length deterministically with the visit so
                // the sweep covers header-only and mid-payload tears.
                spec: FaultSpec::TornWrite {
                    n_bytes: 1 + (v.nth as usize % 7),
                },
            });
        }
    }
    cases
}

/// Pick the budgeted subset of `cases`: all of them when `budget == 0` or
/// covers the list, otherwise an even stride with a seed-derived offset.
pub fn select_cases(cases: Vec<CrashCase>, budget: usize, seed: u64) -> Vec<CrashCase> {
    if budget == 0 || cases.len() <= budget {
        return cases;
    }
    let stride = cases.len() / budget;
    let offset = (seed as usize) % stride.max(1);
    cases
        .into_iter()
        .skip(offset)
        .step_by(stride.max(1))
        .take(budget)
        .collect()
}

/// Run the full pipeline: clean run, enumeration, budgeted crash sweep,
/// verification. See the crate docs for the invariants.
pub fn explore(opts: &ExploreOptions) -> Report {
    let (baseline, trace) = run_clean();
    let cases = enumerate_cases(&trace, opts.torn_writes);
    let enumerated = cases.len();
    let selected = select_cases(cases, opts.budget, opts.seed);

    let mut report = Report {
        enumerated,
        executed: 0,
        crashed: 0,
        replayed: 0,
        violations: Vec::new(),
    };
    for (i, case) in selected.iter().enumerate() {
        let watchdog = watch_case(opts, case.id());
        let outcome = run_case(case);
        drop(watchdog);
        report.executed += 1;
        if outcome.crashed {
            report.crashed += 1;
        }
        if outcome.stats.replied_from_status > 0 {
            report.replayed += 1;
        }
        let mut details = match &outcome.output {
            Ok(out) => verify(&baseline, out),
            Err(e) => vec![format!("workload failed: {e}")],
        };
        if let Err(e) = &outcome.index_check {
            details.push(format!("index audit: {e}"));
        }
        if !outcome.fired {
            details.push("scheduled fault never fired".to_string());
        }
        if opts.verbose {
            eprintln!(
                "[{}/{}] {} crashed={} recoveries={} replayed={} {}",
                i + 1,
                selected.len(),
                case.id(),
                outcome.crashed,
                outcome.stats.recoveries,
                outcome.stats.replied_from_status,
                if details.is_empty() {
                    "ok"
                } else {
                    "VIOLATION"
                },
            );
        }
        if !details.is_empty() {
            report.violations.push(Violation {
                case_id: case.id(),
                seed: opts.seed,
                details,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_fires_only_past_its_bound() {
        let fired = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&fired);
        // Dropping joins the watchdog's thread, so it has decided by now.
        drop(CaseWatchdog::arm(Duration::from_secs(5), move || {
            flag.store(true, Ordering::SeqCst)
        }));
        assert!(!fired.load(Ordering::SeqCst), "dropped in time, yet fired");

        let (tx, rx) = std::sync::mpsc::channel();
        let _watchdog = CaseWatchdog::arm(Duration::from_millis(20), move || tx.send(()).unwrap());
        rx.recv_timeout(Duration::from_secs(5))
            .expect("a case past its bound must fire the watchdog");
    }
}
