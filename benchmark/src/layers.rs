//! Per-layer numbers of the traced run, all taken from outside the crates:
//! counts by diffing the server's own `phoenix_*` counters, times by calling
//! each layer's public functions directly with the workload's own seeded
//! statements. Layer = crate.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::adapter::{self, Counters, Local, Native, Reply, WirePair};
use crate::harness::{self, Client, Ctx, OpLog, Ready, RunResult, Window, CLIENTS};
use crate::server;
use crate::stats;
use crate::trace::{self, Recorder};

/// Statements of the workload's stream replayed by the one-client probes.
pub const PROBE_STMTS: usize = 2_000;

fn is_read(sql: &str) -> bool {
    sql.starts_with("SELECT")
}

fn is_write(sql: &str) -> bool {
    ["INSERT", "UPDATE", "DELETE"]
        .iter()
        .any(|k| sql.starts_with(k))
}

/// How long one closed-loop window of a native workload lasts: all of
/// `--seconds`, or a third of it in a traced run (untraced window, traced
/// window, probes).
fn window_length(ctx: &Ctx) -> Duration {
    Duration::from_secs_f64(if ctx.trace {
        ctx.seconds / 3.0
    } else {
        ctx.seconds
    })
}

/// The gated window of a native closed-loop workload, tracing off, and what
/// every such workload reports from it.
pub fn gated_window<C: Client>(
    ctx: &Ctx,
    r: &mut RunResult,
    ready: &Ready,
    control: &mut Native,
    clients: &mut [(Native, C)],
) -> Result<Window, String> {
    let mut w = harness::run_window(
        ready,
        control,
        clients,
        ctx.warmup(),
        window_length(ctx),
        None,
    )?;
    r.attempted = w.attempted();
    r.failed = w.failed;
    harness::call_metrics(r, &mut w.calls);
    r.metrics.insert("peak_rss_mb", ready.server.peak_rss_mb());
    r.metrics.insert("setup_s", ready.setup_s);
    r.note(
        "checkpoints_in_window",
        w.counters.sum("phoenix_checkpoints_total"),
    );
    r.metrics.insert(
        "driver.client_cpu_us_per_op",
        stats::ratio(w.client_cpu_us as f64, w.ok_calls() as f64),
    );
    Ok(w)
}

/// The traced two thirds of a native workload's traced run: the same closed
/// loop with spans on, then `stream` — the same seeded generator once more,
/// one client — for the counts that must repeat exactly and the in-process
/// layer probes.
pub fn traced_window<C: Client>(
    ctx: &Ctx,
    r: &mut RunResult,
    ready: &Ready,
    control: &mut Native,
    clients: &mut [(Native, C)],
    untraced: &Window,
    stream: &[String],
) -> Result<(), String> {
    let mut traced = harness::run_window(
        ready,
        control,
        clients,
        Duration::ZERO,
        window_length(ctx),
        Some(ctx.epoch),
    )?;
    r.attempted += traced.attempted();
    r.failed += traced.failed;
    window_counters(r, &traced.counters);
    // Checkpoints are a hundred thousand records apart, and a traced window
    // is a third of the run: count them over the server's whole life.
    checkpoint_counters(r, &control.counters()?);
    let mut recorders = std::mem::take(&mut traced.recorders);
    let call_us = r.metrics["op_p50_us"];
    native_probes(ctx, r, ready, control, stream, call_us, &mut recorders)?;
    finish_trace(
        ctx,
        r,
        untraced.throughput(),
        traced.throughput(),
        &recorders,
    )
}

/// Counters that need concurrent clients to mean anything, from the traced
/// window: the group-commit batch (records made durable per leader flush —
/// the ROADMAP's 1.00 anomaly) and the server's own latency histograms.
pub fn window_counters(r: &mut RunResult, c: &Counters) {
    r.metrics.insert(
        "storage.group_commit_batch",
        stats::ratio(
            c.sum("phoenix_group_commit_records_total") as f64,
            c.sum("phoenix_group_commit_syncs_total") as f64,
        ),
    );
    r.metrics.insert(
        "storage.fsync_p50_bucket_us",
        c.p50_bucket_us(&["phoenix_wal_fsync_us"]),
    );
    r.metrics.insert(
        "engine.stmt_p50_bucket_us.read",
        c.p50_bucket_us(&["phoenix_stmt_latency_us{class=\"select\"}"]),
    );
    r.metrics.insert(
        "engine.stmt_p50_bucket_us.write",
        c.p50_bucket_us(&[
            "phoenix_stmt_latency_us{class=\"insert\"}",
            "phoenix_stmt_latency_us{class=\"update\"}",
            "phoenix_stmt_latency_us{class=\"delete\"}",
        ]),
    );
}

/// Automatic checkpoints taken and the writers' pause for the median one.
pub fn checkpoint_counters(r: &mut RunResult, c: &Counters) {
    r.metrics.insert(
        "storage.checkpoints",
        c.sum("phoenix_checkpoints_total") as f64,
    );
    r.metrics.insert(
        "storage.checkpoint_pause_p50_bucket_us",
        c.p50_bucket_us(&["phoenix_checkpoint_pause_us"]),
    );
}

/// Requests the server dispatched, without the benchmark's own stats calls.
pub fn requests(c: &Counters) -> u64 {
    c.sum("phoenix_requests_total") - c.get("phoenix_requests_total{type=\"stats\"}")
}

/// The exact counts of one client sending `stream` with nothing else
/// running: every request, fsync, log append and snapshot publish the
/// server spent on it. Returns the replies for the wire probe.
fn exact_pass(
    r: &mut RunResult,
    conn: &mut Native,
    stream: &[String],
) -> Result<Vec<Reply>, String> {
    let before = conn.counters()?;
    let mut replies = Vec::with_capacity(stream.len());
    for sql in stream {
        replies.push(conn.exec(sql)?);
    }
    let d = conn.counters()?.since(&before);
    let n = stream.len() as f64;
    r.metrics.insert(
        "server.requests_per_op",
        stats::ratio(requests(&d) as f64, n),
    );
    r.metrics.insert(
        "storage.fsyncs_per_op",
        stats::ratio(d.sum("phoenix_wal_fsyncs_total") as f64, n),
    );
    r.metrics.insert(
        "storage.wal_appends_per_op",
        stats::ratio(d.sum("phoenix_wal_appends_total") as f64, n),
    );
    r.metrics.insert(
        "storage.snapshot_publishes_per_op",
        stats::ratio(d.sum("phoenix_snapshot_publishes_total") as f64, n),
    );
    Ok(replies)
}

/// A closed-loop client that sends no workload statement: `Connection::ping`
/// (the front-end alone — a round trip with no SQL) or `EXPLAIN` of the
/// workload's reads (parse and plan, no execution).
enum Probe {
    Ping,
    Explain { reads: Vec<String>, next: usize },
}

impl Client for Probe {
    fn step(&mut self, conn: &mut Native, log: &mut OpLog, rec: Option<&mut Recorder>) {
        let t0 = Instant::now();
        let (name, ok) = match self {
            Probe::Ping => ("driver.Connection::ping", conn.ping().is_ok()),
            Probe::Explain { reads, next } => {
                *next = (*next + 1) % reads.len();
                (
                    "driver.Connection::explain",
                    conn.explain(&reads[*next]).is_ok(),
                )
            }
        };
        let end = Instant::now();
        log.call((end - t0).as_nanos() as u64, ok, 0);
        if let Some(rec) = rec {
            rec.record(name, t0, end);
        }
    }
}

/// Run a probe under the workload's own conditions — the same number of
/// client threads in the same closed loop, so the host is as busy as it was
/// when `op_p50_us` was measured. Returns `(p50 µs, server CPU µs per call)`.
fn closed_loop_probe(
    ctx: &Ctx,
    ready: &Ready,
    control: &mut Native,
    recorders: &mut Vec<Recorder>,
    probe: impl Fn() -> Probe,
) -> Result<(f64, f64), String> {
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        clients.push((Native::connect(&ready.server.addr())?, probe()));
    }
    let window = Duration::from_secs_f64(if ctx.smoke { 0.25 } else { 1.5 });
    let w = harness::run_window(
        ready,
        control,
        &mut clients,
        window / 10,
        window,
        Some(ctx.epoch),
    )?;
    for (conn, _) in clients {
        conn.close();
    }
    if w.failed > 0 {
        return Err(format!("{} probe calls failed", w.failed));
    }
    let mut calls = w.calls;
    recorders.extend(w.recorders);
    Ok((
        stats::median(&mut calls.lat_ns) / 1e3,
        stats::ratio(calls.server_cpu_us as f64, calls.lat_ns.len() as f64),
    ))
}

fn login_probe(r: &mut RunResult, addr: &str, n: usize) -> Result<(), String> {
    let mut times = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        let conn = Native::connect(addr)?;
        times.push(t0.elapsed().as_nanos() as u64);
        conn.close();
    }
    r.metrics
        .insert("server.login_us", stats::median(&mut times) / 1e3);
    r.note("login_samples", n);
    Ok(())
}

/// Everything a running native server and a prepared directory can tell
/// about the layers under `stream`, the workload's own statements:
/// exact counts, front-end round trip, login, `EXPLAIN`, and — in this
/// process, no socket — parse, wire codec, `Engine::execute` and the
/// durability layer alone. `call_us` is the client-observed median of one
/// driver call in the workload's window, which the shares are shares of.
pub fn native_probes(
    ctx: &Ctx,
    r: &mut RunResult,
    ready: &Ready,
    conn: &mut Native,
    stream: &[String],
    call_us: f64,
    recorders: &mut Vec<Recorder>,
) -> Result<(), String> {
    let mut rec = Recorder::new(ctx.epoch);

    // Copy the directory before the exact pass changes it, so the
    // in-process engine replays the same stream on the same data.
    let copy = ctx.scratch.dir("inproc");
    server::copy_dir(&ready.dir, &copy).map_err(|e| e.to_string())?;

    let replies = exact_pass(r, conn, stream)?;

    let (ping_us, ping_cpu) = closed_loop_probe(ctx, ready, conn, recorders, || Probe::Ping)?;
    r.metrics.insert("server.ping_p50_us", ping_us);
    r.metrics.insert("server.cpu_us_per_ping", ping_cpu);
    login_probe(r, &ready.server.addr(), if ctx.smoke { 5 } else { 40 })?;

    // EXPLAIN parses and plans but does not execute; less the front-end's
    // round trip it is the planner's share of a read.
    let reads: Vec<String> = stream
        .iter()
        .filter(|s| is_read(s))
        .take(300)
        .cloned()
        .collect();
    let explain_us = if reads.is_empty() {
        0.0
    } else {
        let probe = || Probe::Explain {
            reads: reads.clone(),
            next: 0,
        };
        closed_loop_probe(ctx, ready, conn, recorders, probe)?.0 - ping_us
    };
    r.metrics.insert("engine.explain_us", explain_us);

    // In process from here on.
    let db = Local::open_default(&copy)?;
    let wal0 = harness::log_and_rest(&copy).0;
    let (mut parse, mut codec, mut reads, mut writes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut wire_bytes, mut scratch) = (0usize, Vec::new());
    for (i, (sql, reply)) in stream.iter().zip(&replies).enumerate() {
        let op = i as u64;
        let root = rec.begin("probe.statement", -1, op);

        let t0 = Instant::now();
        rec.child("sql.parse_statement", root, op, || adapter::parse(sql));
        parse.push(t0.elapsed().as_nanos() as u64);

        let pair = WirePair::new(sql, reply);
        let t0 = Instant::now();
        wire_bytes += rec.child("wire.encode+frame+decode", root, op, || {
            pair.roundtrip(&mut scratch)
        });
        codec.push(t0.elapsed().as_nanos() as u64);

        let t0 = Instant::now();
        rec.child("engine.Engine::execute", root, op, || db.exec(sql))?;
        let ns = t0.elapsed().as_nanos() as u64;
        if is_read(sql) {
            reads.push(ns);
        } else if is_write(sql) {
            writes.push(ns);
        }
        rec.end(root);
    }
    let n = stream.len() as f64;
    let mean_us = |v: &[u64]| stats::ratio(v.iter().sum::<u64>() as f64 / 1e3, v.len() as f64);
    r.metrics.insert("sql.parse_us_per_stmt", mean_us(&parse));
    r.metrics
        .insert("wire.codec_us_per_roundtrip", mean_us(&codec));
    r.metrics
        .insert("wire.bytes_per_op", stats::ratio(wire_bytes as f64, n));
    r.metrics
        .insert("engine.exec_read_us", stats::median(&mut reads) / 1e3);
    r.metrics
        .insert("engine.exec_write_us", stats::median(&mut writes) / 1e3);
    r.metrics.insert(
        "storage.wal_bytes_per_op",
        stats::ratio(
            (harness::log_and_rest(&copy).0 - wal0) as f64,
            writes.len() as f64,
        ),
    );
    r.note("probe_statements", stream.len());
    drop(db);
    ctx.scratch.remove(&copy);

    commit_probe(ctx, r, &mut rec)?;

    // What the outside view cannot attribute: the client-observed median
    // less the front-end round trip, the in-process execute (parse and plan
    // included) and the codec.
    let exec_us = if reads.len() >= writes.len() {
        r.metrics["engine.exec_read_us"]
    } else {
        r.metrics["engine.exec_write_us"]
    };
    r.metrics
        .insert("server.frontend_share", stats::ratio(ping_us, call_us));
    r.metrics.insert(
        "trace.unattributed_share",
        if call_us > 0.0 {
            1.0 - (ping_us + exec_us + r.metrics["wire.codec_us_per_roundtrip"]) / call_us
        } else {
            0.0
        },
    );
    recorders.push(rec);
    Ok(())
}

/// `Durable::{begin,insert,commit}` with nothing above it, one thread,
/// fsync on. Returns the syncs per commit, which must be exactly 1.
pub fn commit_probe(ctx: &Ctx, r: &mut RunResult, rec: &mut Recorder) -> Result<f64, String> {
    let n = if ctx.smoke { 50 } else { 400 };
    let dir = ctx.scratch.dir("commit");
    let s = rec.begin("storage.Durable::begin+insert+commit", -1, 0);
    let (mut times, syncs) = adapter::durable_commit_pass(&dir, n)?;
    rec.end(s);
    ctx.scratch.remove(&dir);
    r.metrics
        .insert("storage.commit_us", stats::median(&mut times) / 1e3);
    r.note(
        "commit_probe_syncs_per_commit",
        stats::ratio(syncs as f64, n as f64),
    );
    Ok(stats::ratio(syncs as f64, n as f64))
}

/// `Engine::open` on a copy of a directory with an un-checkpointed tail:
/// the replay the restarted server runs before it listens.
pub fn replay_probe(ctx: &Ctx, r: &mut RunResult, dir: &Path) -> Result<(), String> {
    let copy = ctx.scratch.dir("replay");
    server::copy_dir(dir, &copy).map_err(|e| e.to_string())?;
    let db = Local::open_default(&copy)?;
    let replay = db.replay();
    drop(db);
    ctx.scratch.remove(&copy);
    r.metrics
        .insert("storage.replay_ms", replay.replay_us as f64 / 1e3);
    r.metrics.insert(
        "storage.replay_records_per_s",
        stats::ratio(replay.records_applied as f64, replay.replay_us as f64 / 1e6),
    );
    r.note("replay_wal_frames", replay.wal_frames);
    Ok(())
}

/// Close the traced run: tracing overhead from the two windows, self time
/// per span name, and the span file.
pub fn finish_trace(
    ctx: &Ctx,
    r: &mut RunResult,
    untraced_ops_s: f64,
    traced_ops_s: f64,
    recorders: &[Recorder],
) -> Result<(), String> {
    r.metrics.insert(
        "trace.overhead_ratio",
        stats::ratio(untraced_ops_s, traced_ops_s),
    );
    for (name, self_ns, count) in trace::self_times(recorders) {
        r.note(
            &format!("self_time_us[{name}]"),
            format!(
                "{:.3} mean over {count} spans",
                self_ns as f64 / 1e3 / count as f64
            ),
        );
    }
    let path = ctx.out.join(format!("trace-{}.jsonl", ctx.workload));
    trace::write_jsonl(&path, recorders).map_err(|e| e.to_string())?;
    r.note("span_file", path.display());
    r.note(
        "spans",
        recorders.iter().map(|r| r.spans.len()).sum::<usize>(),
    );
    Ok(())
}
