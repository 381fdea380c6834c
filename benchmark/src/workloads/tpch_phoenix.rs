//! `tpch_phoenix`: the paper's Table 1. The TPC-H-style power suite (Q1 Q3
//! Q5 Q6 Q10 Q11 Q12 Q14 Q16 Q19, then RF1 and RF2) in alternating passes on
//! a native connection and on a Phoenix persistent session, one client,
//! paired per round.
//!
//! Why: `engine` plan and execute dominate the absolute time and the paired
//! ratio isolates what `phoenix-core` adds — materialising each result set
//! into a persistent table, wrapping each update with its status record. The
//! front-end and the fsync path are a small share, so a front-end change
//! should not move it.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::adapter::{self, Native, Phoenix, Reply};
use crate::gen::{self, Rng};
use crate::harness::{self, Calls, Ctx, RunResult};
use crate::layers;
use crate::server;
use crate::stats;
use crate::trace::Recorder;

const SCALE: f64 = 0.5;
const SMOKE_SCALE: f64 = 0.25;

/// One statement's outcome, reduced to what the two sessions must agree on.
#[derive(PartialEq)]
struct Answer {
    rows: u64,
    checksum: u64,
}

fn answer(reply: &Reply) -> Answer {
    match reply {
        // Row count plus an order-independent checksum: a tie in an ORDER BY
        // may legitimately come back in another order.
        Reply::Rows(rows) => Answer {
            rows: rows.len() as u64,
            checksum: rows
                .iter()
                .map(|r| gen::stream_hash(std::iter::once(format!("{r:?}").as_str())))
                .fold(0, u64::wrapping_add),
        },
        Reply::Affected(n) => Answer {
            rows: *n,
            checksum: 0,
        },
        Reply::Done => Answer {
            rows: 0,
            checksum: 0,
        },
    }
}

/// The suite as `(name, sql, is_update)` in execution order.
fn statements(suite: &adapter::PowerSuite) -> Vec<(String, String, bool)> {
    let named = |prefix: &str, stmts: &[String]| -> Vec<(String, String, bool)> {
        stmts
            .iter()
            .enumerate()
            .map(|(i, s)| (format!("{prefix}.{}", i + 1), s.clone(), true))
            .collect()
    };
    let mut out: Vec<_> = suite
        .queries
        .iter()
        .map(|(n, s)| (n.clone(), s.clone(), false))
        .collect();
    out.extend(named("RF1", &suite.rf1));
    out.extend(named("RF2", &suite.rf2));
    out
}

/// One pass of the suite on one session.
struct Pass {
    query_ns: u64,
    update_ns: u64,
    /// Per statement, in the suite's own order whatever order the pass ran
    /// in: time and answer (`None` when the call failed).
    calls: Vec<(u64, Option<Answer>)>,
}

fn pass(
    stmts: &[(String, String, bool)],
    order: &[usize],
    span: &'static str,
    round: u64,
    mut rec: Option<&mut Recorder>,
    mut exec: impl FnMut(&str) -> Result<Reply, String>,
) -> Pass {
    let mut p = Pass {
        query_ns: 0,
        update_ns: 0,
        calls: Vec::new(),
    };
    p.calls.resize_with(stmts.len(), || (0, None));
    for &i in order {
        let (_, sql, is_update) = &stmts[i];
        let op_id = round * 100 + i as u64;
        let t0 = Instant::now();
        let reply = match rec.as_mut() {
            Some(r) => {
                let root = r.begin("tpch.statement", -1, op_id);
                let reply = r.child(span, root, op_id, || exec(sql));
                r.end(root);
                reply
            }
            None => exec(sql),
        };
        let ns = t0.elapsed().as_nanos() as u64;
        if *is_update {
            p.update_ns += ns;
        } else {
            p.query_ns += ns;
        }
        p.calls[i] = (ns, reply.ok().as_ref().map(answer));
    }
    p
}

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let suite = adapter::power_suite(if ctx.smoke { SMOKE_SCALE } else { SCALE });
    let stmts = statements(&suite);
    let ready = harness::set_up(ctx, |dir| {
        harness::load(dir, suite.setup_sql.iter().cloned(), std::iter::empty())
    })?;
    let addr = ready.server.addr();
    let mut native = Native::connect(&addr)?;
    let mut control = Native::connect(&addr)?;
    let mut r = RunResult::default();
    let queries = suite.queries.len();

    // One untimed round as warm-up, then rounds until the window is over.
    let mut rec = Recorder::new(ctx.epoch);
    let min_rounds = if ctx.smoke { 2 } else { 4 };
    // The operation the generic end-to-end metrics count here is one pass of
    // the suite on the Phoenix session, so `op_p50_us` is the paper's
    // Table 1 figure for a persistent session. The native pass is its paired
    // baseline and is reported with the layers: it is not pooled in, and a
    // native slowdown cannot hide, because the Phoenix pass runs the same
    // statements through the same driver.
    let mut phoenix_passes = Calls::default();
    let (mut native_ms, mut phoenix_ms) = (Vec::new(), Vec::new());
    // Every right statement of either session, for the layer shares.
    let mut stmt_ns = Vec::new();
    let (mut query_ratio, mut update_ratio) = (Vec::new(), Vec::new());
    let mut per_stmt: BTreeMap<usize, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
    let (mut core_requests, mut core_fsyncs, mut phoenix_stmts) = (0u64, 0u64, 0u64);
    let (mut half_ops, mut half_s) = ([0u64; 2], [0f64; 2]);

    let mut round = 0u64;
    let mut counters0 = control.counters()?;
    let mut t0 = Instant::now();
    let mut client_cpu0 = server::self_cpu_us();
    loop {
        let warmup = round == 0;
        let elapsed = t0.elapsed().as_secs_f64();
        if !warmup && elapsed >= ctx.seconds && round > min_rounds {
            break;
        }
        // In a traced run the first half of the window is untraced, and the
        // difference between the halves is the tracing overhead.
        let traced = ctx.trace && !warmup && elapsed >= ctx.seconds / 2.0;
        let round_t0 = Instant::now();

        // The seed draws the order of the queries in each round, as TPC-H's
        // own streams do; both sessions of a round run the same order, and
        // the refresh functions stay at the end. The data itself is the
        // crate's one database at this scale: another seed must not mean
        // another amount of work.
        let mut order: Vec<usize> = (0..stmts.len()).collect();
        let mut rng = Rng::new(ctx.seed, round);
        for i in (1..queries).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }

        let mut session = Phoenix::connect(&addr)?;
        let mut passes: [Option<Pass>; 2] = [None, None];
        let (mut phoenix_s, mut phoenix_cpu_us) = (0.0, 0);
        // Alternate which session goes first, so neither always runs on the
        // caches the other warmed.
        for side in [round % 2, 1 - round % 2] {
            let tracer = if traced { Some(&mut rec) } else { None };
            passes[side as usize] = Some(if side == 0 {
                pass(
                    &stmts,
                    &order,
                    "driver.Connection::execute",
                    round,
                    tracer,
                    |sql| native.exec(sql),
                )
            } else {
                let before = if ctx.trace {
                    Some(control.counters()?)
                } else {
                    None
                };
                let (pass_t0, cpu0) = (Instant::now(), ready.server.cpu_us());
                let p = pass(
                    &stmts,
                    &order,
                    "core.PhoenixConnection::execute",
                    round,
                    tracer,
                    |sql| session.exec(sql),
                );
                phoenix_s = pass_t0.elapsed().as_secs_f64();
                phoenix_cpu_us = ready.server.cpu_us() - cpu0;
                if let Some(before) = before {
                    let d = control.counters()?.since(&before);
                    core_requests += layers::requests(&d);
                    core_fsyncs += d.sum("phoenix_wal_fsyncs_total");
                    phoenix_stmts += stmts.len() as u64;
                }
                p
            });
        }
        session.close();
        let [Some(n), Some(p)] = passes else {
            unreachable!("both sides ran")
        };

        if warmup {
            round += 1;
            t0 = Instant::now();
            client_cpu0 = server::self_cpu_us();
            counters0 = control.counters()?;
            continue;
        }
        // The oracle: both sessions answer every statement, and the same.
        let failed_before = r.failed;
        for (i, ((n_ns, n_ans), (p_ns, p_ans))) in n.calls.iter().zip(&p.calls).enumerate() {
            r.attempted += 2;
            match (n_ans, p_ans) {
                (Some(a), Some(b)) if a == b && (!stmts[i].2 || a.rows > 0) => {
                    stmt_ns.extend([*n_ns, *p_ns]);
                    let entry = per_stmt.entry(i).or_default();
                    entry.0.push(*n_ns);
                    entry.1.push(*p_ns);
                }
                (Some(_), Some(_)) => r.failed += 1,
                (a, b) => r.failed += a.is_none() as u64 + b.is_none() as u64,
            }
        }
        native_ms.push((n.query_ns + n.update_ns) as f64 / 1e6);
        phoenix_ms.push((p.query_ns + p.update_ns) as f64 / 1e6);
        query_ratio.push(stats::ratio(p.query_ns as f64, n.query_ns as f64));
        update_ratio.push(stats::ratio(p.update_ns as f64, n.update_ns as f64));
        half_ops[traced as usize] += 2 * stmts.len() as u64;
        half_s[traced as usize] += round_t0.elapsed().as_secs_f64();
        // A traced run reports the end-to-end metrics of its untraced half.
        if !traced && r.failed == failed_before {
            phoenix_passes.lat_ns.push((phoenix_s * 1e9) as u64);
            phoenix_passes.seconds += phoenix_s;
            phoenix_passes.server_cpu_us += phoenix_cpu_us;
        }
        round += 1;
    }
    let client_cpu = server::self_cpu_us() - client_cpu0;
    native.close();

    harness::call_metrics(&mut r, &mut phoenix_passes);
    r.metrics.insert("peak_rss_mb", ready.server.peak_rss_mb());
    // The rows as the user wrote them: the INSERT statements of the load
    // script. Refresh functions move rows the server already holds.
    let user_bytes: usize = suite
        .setup_sql
        .iter()
        .filter(|s| s.starts_with("INSERT"))
        .map(String::len)
        .sum();
    r.metrics.insert(
        "disk_bytes_per_user_byte",
        stats::ratio(ready.prepared_bytes as f64, user_bytes as f64),
    );
    r.metrics.insert("setup_s", ready.setup_s);

    r.note("rounds", native_ms.len());
    r.metrics
        .insert("power_native_ms", stats::median_f64(&mut native_ms));
    r.metrics
        .insert("power_phoenix_ms", stats::median_f64(&mut phoenix_ms));
    r.metrics.insert(
        "phoenix_overhead_ratio",
        stats::median_f64(&mut query_ratio),
    );
    r.metrics.insert(
        "phoenix_dml_overhead_ratio",
        stats::median_f64(&mut update_ratio),
    );
    r.metrics.insert("tpch.load_s", ready.load_s);

    // Phoenix minus native, statement by statement, on identical statements.
    let (mut wrap, mut materialize) = (Vec::new(), Vec::new());
    for (i, (n, p)) in per_stmt.iter_mut() {
        let diff = (stats::median(p) - stats::median(n)) / 1e3;
        if stmts[*i].2 {
            wrap.push(diff);
        } else {
            materialize.push(diff);
        }
    }
    let mean = |v: &[f64]| stats::ratio(v.iter().sum::<f64>(), v.len() as f64);
    r.metrics.insert("core.wrap_overhead_us", mean(&wrap));
    r.metrics
        .insert("core.materialize_overhead_us", mean(&materialize));

    r.metrics.insert(
        "driver.client_cpu_us_per_op",
        stats::ratio(client_cpu as f64, (half_ops[0] + half_ops[1]) as f64),
    );
    if ctx.trace {
        let window = control.counters()?.since(&counters0);
        layers::window_counters(&mut r, &window);
        layers::checkpoint_counters(&mut r, &window);
        r.metrics.insert(
            "core.server_requests_per_app_stmt",
            stats::ratio(core_requests as f64, phoenix_stmts as f64),
        );
        r.metrics.insert(
            "core.fsyncs_per_app_stmt",
            stats::ratio(core_fsyncs as f64, phoenix_stmts as f64),
        );
        // The suite three times over: RF2 undoes RF1, so it can repeat.
        let stream: Vec<String> = (0..3)
            .flat_map(|_| stmts.iter().map(|s| s.1.clone()))
            .collect();
        let mut recorders = vec![rec];
        let call_us = stats::median(&mut stmt_ns) / 1e3;
        layers::native_probes(
            ctx,
            &mut r,
            &ready,
            &mut control,
            &stream,
            call_us,
            &mut recorders,
        )?;
        layers::finish_trace(
            ctx,
            &mut r,
            stats::ratio(half_ops[0] as f64, half_s[0]),
            stats::ratio(half_ops[1] as f64, half_s[1]),
            &recorders,
        )?;
    }
    control.close();
    Ok(r)
}
