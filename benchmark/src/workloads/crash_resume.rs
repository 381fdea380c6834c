//! `crash_resume`: the paper's Figure 2 plus ROADMAP item 3. Each cycle
//! starts the server on a fresh copy of one prepared data directory (a
//! checkpointed table, then an un-checkpointed WAL tail); a Phoenix session
//! writes wrapped DML into a primary-keyed ledger, opens a cursor over a
//! 5 000-row materialised result and fetches to row 4 000; the supervisor
//! thread `SIGKILL`s the server — in even cycles while the session is idle
//! at row 4 000, in odd cycles at a seeded instant inside the DML burst —
//! and respawns it at once on the same port and directory. The
//! application's next call simply returns. The same query is then recomputed
//! and re-fetched to row 4 001 on a native connection, for the baseline.
//!
//! Why: nothing but recovery — WAL replay to listening, reconnect, context
//! reinstall, cursor reposition — is on the clock. Steady-state optimisations
//! must not move it, and the one-applier / instant-recovery work has nowhere
//! else to show.
//!
//! The operation the generic end-to-end metrics count here is the one call
//! of each cycle that spans the crash, timed from the kill to the moment the
//! application holds its reply: `op_p50_us` is the paper's Figure 2 recovery
//! time (`recovery_p50_ms` names it again in the traced run), and
//! `server_cpu_us_per_op` is what the restarted server spent until then.

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::adapter::{Local, Native, Phoenix, Row, Value};
use crate::gen::{self, Rng};
use crate::harness::{self, Calls, Ctx, Ready, RunResult};
use crate::layers;
use crate::server::{self, Server};
use crate::stats;
use crate::trace::Recorder;

const TABLE_ROWS: u64 = 50_000;
const TAIL_INSERTS: u64 = 10_000;
const SMOKE_TABLE_ROWS: u64 = 10_000;
const SMOKE_TAIL_INSERTS: u64 = 1_000;
const TAIL_TABLES: u64 = 40;

const RESULT_ROWS: u64 = 5_000;
const FETCH_TO: u64 = 4_000;
const BLOCK: usize = 500;
const DML_PER_CYCLE: u64 = 10;

fn weight(id: u64) -> f64 {
    ((id * 37) % 1000) as f64 + 0.25
}

/// The Q11-shaped query of the paper's recovery experiment: self-join,
/// product sum, grouped and ordered; `RESULT_ROWS` rows, row `k` has id `k`.
fn query() -> String {
    format!(
        "SELECT a.id, SUM(a.weight * b.weight) AS value, MAX(a.payload) AS payload \
         FROM cr_items a, cr_items b WHERE a.id = b.id AND a.id < {RESULT_ROWS} \
         GROUP BY a.id ORDER BY a.id"
    )
}

/// Rows `first..` of the result, exactly as the query computes them.
fn rows_ok(seed: u64, first: u64, rows: &[Row]) -> bool {
    rows.iter().enumerate().all(|(i, row)| {
        let id = first + i as u64;
        matches!(row.as_slice(), [Value::Int(got), Value::Float(value), Value::Text(p)]
            if *got as u64 == id
                && (value - weight(id) * weight(id)).abs() < 1e-6
                && *p == gen::payload(seed, id))
    })
}

struct Sizes {
    table_rows: u64,
    tail_inserts: u64,
}

/// The prepared directory: `cr_items` and the empty ledger in the snapshot,
/// then `tail_inserts` single-row autocommit inserts (two log records each:
/// the row and the commit) left in the log. Returns `(bytes written into the
/// directory, row bytes the user wrote)`.
fn prepare(dir: &Path, seed: u64, sizes: &Sizes) -> Result<(u64, u64), String> {
    const BATCH: u64 = 5_000;
    let db = Local::open_loader(dir)?;
    db.exec(
        "CREATE TABLE cr_items (id INT NOT NULL, weight FLOAT, payload TEXT, PRIMARY KEY (id))",
    )?;
    db.exec("CREATE TABLE ledger (id INT NOT NULL, v INT NOT NULL, PRIMARY KEY (id))")?;
    for t in 0..TAIL_TABLES {
        db.exec(&format!(
            "CREATE TABLE cr_tail_{t} (id INT NOT NULL, v INT NOT NULL, PRIMARY KEY (id))"
        ))?;
    }
    let mut user_bytes = 0;
    for b in 0..sizes.table_rows.div_ceil(BATCH) {
        let values: Vec<String> = (b * BATCH..((b + 1) * BATCH).min(sizes.table_rows))
            .map(|id| {
                let p = gen::payload(seed, id);
                user_bytes += gen::row_bytes(p.len());
                format!("({id}, {}, '{p}')", weight(id))
            })
            .collect();
        db.exec(&format!(
            "INSERT INTO cr_items VALUES {}",
            values.join(", ")
        ))?;
    }
    let (log, _) = harness::log_and_rest(dir);
    db.checkpoint()?;
    let mut rng = Rng::new(seed, 7);
    for i in 0..sizes.tail_inserts {
        db.exec(&format!(
            "INSERT INTO cr_tail_{} VALUES ({i}, {})",
            i % TAIL_TABLES,
            rng.below(1_000_000)
        ))?;
        user_bytes += 16;
    }
    drop(db);
    // Written: the log the checkpoint cut, the snapshot, and the tail.
    let (tail, snapshot) = harness::log_and_rest(dir);
    Ok((log + snapshot + tail, user_bytes))
}

/// What the supervisor reports about one kill.
struct Kill {
    /// Peak RSS of the incarnation that was killed.
    peak_rss_mb: f64,
    /// Respawn → first successful login.
    ready_ms: f64,
}

/// The supervisor: wait `delay`, `SIGKILL`, respawn at once on the same port
/// and directory, tell the application when the kill happened and which
/// process serves it now, then poll until a login succeeds.
fn kill_and_respawn(
    server: &mut Server,
    dir: &Path,
    log: &Path,
    delay: Duration,
    killed: mpsc::Sender<(Instant, u32)>,
) -> Result<Kill, String> {
    std::thread::sleep(delay);
    let (peak_rss_mb, port) = (server.peak_rss_mb(), server.port);
    let kill_at = Instant::now();
    server.kill();
    let respawn_at = Instant::now();
    *server = Server::spawn(dir, port, log).map_err(|e| e.to_string())?;
    let _ = killed.send((kill_at, server.pid()));
    let addr = server.addr();
    loop {
        if let Some(conn) = Native::try_connect(&addr) {
            let ready_ms = respawn_at.elapsed().as_secs_f64() * 1e3;
            conn.close();
            return Ok(Kill {
                peak_rss_mb,
                ready_ms,
            });
        }
        if respawn_at.elapsed() > Duration::from_secs(60) {
            return Err("respawned server did not accept a login".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Everything the cycles add up.
#[derive(Default)]
struct Totals {
    /// One per cycle: kill → the application holds its next reply, and the
    /// CPU the restarted server had used by then.
    recoveries: Calls,
    /// Right calls of the Phoenix session.
    session_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    /// Per cycle, the larger peak of its two incarnations.
    peak_rss_mb: Vec<f64>,
    recovery_ms: Vec<f64>,
    ready_ms: Vec<f64>,
    recompute_ms: Vec<f64>,
    virtual_session_ms: Vec<f64>,
    sql_state_ms: Vec<f64>,
    reconnect_attempts: u64,
    replied_from_status: u64,
    resubmissions: u64,
}

impl Totals {
    /// One session call: timed, checked, recorded as a span when traced.
    fn call<T>(
        &mut self,
        rec: &mut Option<&mut Recorder>,
        span: &'static str,
        cycle: u64,
        f: impl FnOnce() -> Result<T, String>,
        ok: impl FnOnce(&T) -> bool,
    ) -> Option<T> {
        let t0 = Instant::now();
        let out = match rec.as_mut() {
            Some(r) => r.child(span, -1, cycle, f),
            None => f(),
        };
        let elapsed = t0.elapsed();
        self.attempted += 1;
        match out {
            Ok(v) if ok(&v) => {
                self.session_ns.push(elapsed.as_nanos() as u64);
                Some(v)
            }
            _ => {
                self.failed += 1;
                None
            }
        }
    }
}

struct Cycle<'a> {
    ctx: &'a Ctx,
    template: &'a Path,
    log: PathBuf,
    n: u64,
}

impl Cycle<'_> {
    fn run(&self, t: &mut Totals, mut rec: Option<&mut Recorder>) -> Result<(), String> {
        let (ctx, n) = (self.ctx, self.n);
        let dir = ctx.scratch.dir("cycle");
        server::copy_dir(self.template, &dir).map_err(|e| e.to_string())?;
        let mut server = harness::start_server(&dir, 0, &self.log)?;
        let addr = server.addr();
        let mut session = Phoenix::connect(&addr)?;
        let mut rng = Rng::new(ctx.seed, 1_000 + n);
        // Odd cycles: the kill lands at a seeded instant inside the DML
        // burst. Even cycles: the session is idle at row 4 000.
        let in_flight = n % 2 == 1;
        let delay = Duration::from_micros(if in_flight { 300 + rng.below(2_700) } else { 0 });
        let mut acked = 0u64;
        let mut dml =
            |t: &mut Totals, rec: &mut Option<&mut Recorder>, session: &mut Phoenix, i: u64| {
                let sql = format!(
                    "INSERT INTO ledger VALUES ({}, {})",
                    n * 1_000 + i,
                    rng.below(1 << 40)
                );
                let done = t.call(
                    rec,
                    "core.PhoenixConnection::execute",
                    n,
                    || session.exec(&sql),
                    |r| r.affected() == 1,
                );
                acked += done.is_some() as u64;
            };
        let fetch_ok =
            |first: u64, rows: &Vec<Row>| rows.len() == BLOCK && rows_ok(ctx.seed, first, rows);

        let (go_tx, go_rx) = mpsc::channel::<()>();
        let (killed_tx, killed_rx) = mpsc::channel();
        let kill = std::thread::scope(|scope| -> Result<Kill, String> {
            // Dropped on every way out of this closure, which releases a
            // supervisor that was never told to go.
            let go = go_tx;
            let (server, dir, log) = (&mut server, &dir, &self.log);
            let supervisor = scope.spawn(move || {
                go_rx
                    .recv()
                    .map_err(|_| "cycle abandoned before the kill")?;
                kill_and_respawn(server, dir, log, delay, killed_tx)
            });
            let killed = || {
                killed_rx
                    .recv()
                    .map_err(|_| "the supervisor failed".to_string())
            };

            // Kill → reply, and the restarted server's CPU at the reply.
            let mut recovery: Option<(Duration, u64)> = None;
            let replied =
                |(kill_at, pid): (Instant, u32)| (kill_at.elapsed(), server::cpu_us_of(pid));
            if in_flight {
                let _ = go.send(());
            }
            let mut sent = 0;
            while sent < DML_PER_CYCLE || (in_flight && recovery.is_none()) {
                dml(t, &mut rec, &mut session, sent);
                sent += 1;
                if in_flight && recovery.is_none() && session.counters().recoveries > 0 {
                    recovery = Some(replied(killed()?));
                }
                if sent > 5_000 {
                    return Err("the server was killed and no call noticed".into());
                }
            }

            let q = query();
            let mut cursor_ok = false;
            if let Some(mut cursor) = t.call(
                &mut rec,
                "core.PhoenixStatement::execute",
                n,
                || session.open(&q, BLOCK),
                |_| true,
            ) {
                cursor_ok = true;
                for at in (0..FETCH_TO).step_by(BLOCK) {
                    let rows = t.call(
                        &mut rec,
                        "core.PhoenixStatement::fetch",
                        n,
                        || cursor.fetch(BLOCK),
                        |r| fetch_ok(at, r),
                    );
                    cursor_ok &= rows.is_some();
                }
                // At row 4 000. In an idle cycle the server dies now; either
                // way the next call must deliver row 4 001 onwards.
                let kill = if in_flight {
                    None
                } else {
                    let _ = go.send(());
                    Some(killed()?)
                };
                let next = t.call(
                    &mut rec,
                    "core.PhoenixStatement::fetch",
                    n,
                    || cursor.fetch(BLOCK),
                    |r| fetch_ok(FETCH_TO, r),
                );
                if let Some(kill) = kill {
                    recovery = Some(replied(kill));
                }
                cursor_ok &= next.is_some();
            }
            if !cursor_ok {
                eprintln!(
                    "   cycle {n}: the cursor did not deliver row {} next",
                    FETCH_TO + 1
                );
            }
            if let Some((took, cpu_us)) = recovery {
                t.recovery_ms.push(took.as_secs_f64() * 1e3);
                // A traced run reports the end-to-end metrics of its
                // untraced half.
                if rec.is_none() {
                    t.recoveries.lat_ns.push(took.as_nanos() as u64);
                    t.recoveries.seconds += took.as_secs_f64();
                    t.recoveries.server_cpu_us += cpu_us;
                }
            }
            drop(go);
            supervisor
                .join()
                .map_err(|_| "supervisor panicked".to_string())?
        })?;

        let c = session.counters();
        t.virtual_session_ms
            .push(c.last_virtual_session_us as f64 / 1e3);
        if !in_flight {
            t.sql_state_ms.push(c.last_sql_state_us as f64 / 1e3);
        }
        t.reconnect_attempts += c.reconnect_attempts;
        t.replied_from_status += c.replied_from_status;
        t.resubmissions += c.resubmissions;
        session.close();
        t.ready_ms.push(kill.ready_ms);

        // The recompute baseline, and the ledger: exactly the acknowledged
        // DML, once each (the primary key turns a double-apply into an error).
        let mut native = Native::connect(&addr)?;
        let t0 = Instant::now();
        let rows = native.cursor_fetch(&query(), FETCH_TO as usize + 1, BLOCK)?;
        t.recompute_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        t.attempted += 1;
        t.failed += !(rows.len() as u64 == FETCH_TO + 1 && rows_ok(ctx.seed, 0, &rows)) as u64;
        let ledger = native.exec("SELECT COUNT(*) FROM ledger")?;
        let in_ledger = match ledger.rows().first().and_then(|r| r.first()) {
            Some(Value::Int(n)) => *n as u64,
            _ => u64::MAX,
        };
        t.attempted += acked;
        t.failed += in_ledger.abs_diff(acked).min(acked.max(1));
        native.close();

        t.peak_rss_mb
            .push(kill.peak_rss_mb.max(server.peak_rss_mb()));
        drop(server);
        ctx.scratch.remove(&dir);
        Ok(())
    }
}

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let sizes = if ctx.smoke {
        Sizes {
            table_rows: SMOKE_TABLE_ROWS,
            tail_inserts: SMOKE_TAIL_INSERTS,
        }
    } else {
        Sizes {
            table_rows: TABLE_ROWS,
            tail_inserts: TAIL_INSERTS,
        }
    };
    // Set-up builds the directory, keeps a pristine copy for the cycles and
    // starts a server on it once (which replays the tail).
    let template = ctx.scratch.dir("template");
    let mut user_bytes = 0;
    let ready = harness::set_up(ctx, |dir| {
        let written;
        (written, user_bytes) = prepare(dir, ctx.seed, &sizes)?;
        ctx.scratch.remove(&template);
        server::copy_dir(dir, &template).map_err(|e| e.to_string())?;
        Ok(written)
    })?;
    let Ready {
        server,
        dir,
        prepared_bytes,
        setup_s,
        ..
    } = ready;
    drop(server);
    ctx.scratch.remove(&dir);

    let mut r = RunResult::default();
    let mut t = Totals::default();
    let mut rec = Recorder::new(ctx.epoch);
    let min_cycles = if ctx.smoke { 5 } else { 10 };
    let (mut half_ops, mut half_s) = ([0u64; 2], [0f64; 2]);
    let (t0, client_cpu0) = (Instant::now(), server::self_cpu_us());
    let mut n = 0;
    while n < min_cycles || (!ctx.smoke && t0.elapsed().as_secs_f64() < ctx.seconds) {
        let traced = ctx.trace && t0.elapsed().as_secs_f64() >= ctx.seconds / 2.0;
        let ops0 = t.session_ns.len();
        let cycle = Cycle {
            ctx,
            template: &template,
            log: ctx.server_log(),
            n,
        };
        cycle.run(&mut t, if traced { Some(&mut rec) } else { None })?;
        half_ops[traced as usize] += (t.session_ns.len() - ops0) as u64;
        half_s[traced as usize] += t.session_ns[ops0..].iter().sum::<u64>() as f64 / 1e9;
        n += 1;
    }

    r.attempted = t.attempted;
    r.failed = t.failed;
    harness::call_metrics(&mut r, &mut t.recoveries);
    // The median cycle's, not the largest of a hundred: about one run in
    // three has a single incarnation that peaks a quarter higher.
    r.note(
        "peak_rss_mb_largest_cycle",
        t.peak_rss_mb.iter().fold(0.0f64, |a, b| a.max(*b)),
    );
    r.metrics
        .insert("peak_rss_mb", stats::median_f64(&mut t.peak_rss_mb));
    r.metrics.insert(
        "disk_bytes_per_user_byte",
        stats::ratio(prepared_bytes as f64, user_bytes as f64),
    );
    r.metrics.insert("setup_s", setup_s);
    r.metrics.insert(
        "driver.client_cpu_us_per_op",
        stats::ratio(
            (server::self_cpu_us() - client_cpu0) as f64,
            t.session_ns.len() as f64,
        ),
    );

    r.note("kill_cycles", n);
    r.note("recovery_samples", t.recovery_ms.len());
    let mut recovery_ns: Vec<u64> = t.recovery_ms.iter().map(|ms| (ms * 1e6) as u64).collect();
    let recovery_p50 = stats::median(&mut recovery_ns) / 1e6;
    let recompute_p50 = stats::median_f64(&mut t.recompute_ms);
    r.metrics.insert("recovery_p50_ms", recovery_p50);
    r.metrics.insert(
        "recovery_p80_ms",
        stats::quantile(&mut recovery_ns, 0.80) / 1e6,
    );
    r.metrics
        .insert("server_ready_p50_ms", stats::median_f64(&mut t.ready_ms));
    r.metrics.insert(
        "recovery_over_recompute",
        stats::ratio(recovery_p50, recompute_p50),
    );
    r.note("recompute_p50_ms", format!("{recompute_p50:.3}"));
    r.metrics.insert(
        "core.virtual_session_ms",
        stats::median_f64(&mut t.virtual_session_ms),
    );
    r.metrics
        .insert("core.sql_state_ms", stats::median_f64(&mut t.sql_state_ms));
    r.metrics
        .insert("core.reconnect_attempts", t.reconnect_attempts as f64);
    r.metrics
        .insert("core.replied_from_status", t.replied_from_status as f64);
    r.metrics
        .insert("core.resubmissions", t.resubmissions as f64);

    if ctx.trace {
        layers::replay_probe(ctx, &mut r, &template)?;
        // The generic layer probes, on a server over one more copy: the
        // cursor's query and ledger inserts.
        let dir = ctx.scratch.dir("probe");
        server::copy_dir(&template, &dir).map_err(|e| e.to_string())?;
        let server = harness::start_server(&dir, 0, &ctx.server_log())?;
        let mut control = Native::connect(&server.addr())?;
        let probe = Ready {
            server,
            dir,
            prepared_bytes,
            setup_s,
            load_s: 0.0,
        };
        let mut stream = vec![query(); 5];
        stream.extend((0..200).map(|i| format!("INSERT INTO ledger VALUES ({i}, {i})")));
        let mut recorders = vec![rec];
        let call_us = stats::median(&mut t.session_ns) / 1e3;
        layers::native_probes(
            ctx,
            &mut r,
            &probe,
            &mut control,
            &stream,
            call_us,
            &mut recorders,
        )?;
        control.close();
        layers::finish_trace(
            ctx,
            &mut r,
            stats::ratio(half_ops[0] as f64, half_s[0]),
            stats::ratio(half_ops[1] as f64, half_s[1]),
            &recorders,
        )?;
    }
    Ok(r)
}
