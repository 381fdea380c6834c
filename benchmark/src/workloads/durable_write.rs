//! `durable_write`: native connection, single-row 30 % `INSERT` / 40 %
//! `UPDATE` by primary key / 30 % `DELETE`, sent four operations in five as
//! an explicit transaction of 16 statements (every tenth also writes a table
//! in another log partition, a `CommitMulti`) and one in five as a lone
//! autocommit statement. Each client owns a disjoint key range, so the last
//! acknowledged value of every key is known.
//!
//! Why: the write path — WAL append, snapshot publish, table copy, commit,
//! fsync, group commit and checkpoint — does the work while parse and plan
//! are trivial: the same `storage` and `server` layers as `point_read`, used
//! the opposite way, so a read-path gain paid for by writers (or the
//! reverse) shows.
//!
//! Why transactions and not autocommit alone: with two autocommit clients
//! the commits alternate — each waits out the other's `fdatasync`, then its
//! own — so the median call was two device flushes and little else, and the
//! device of a shared host moved it by a third between runs of one commit
//! (the driver refused the benchmark for it). One call in fifteen waits for
//! the device here: the median call is a logged write inside a transaction,
//! which the program decides, and the commits are the slowest fifteenth,
//! which `op_p99_us` and `throughput_ops_s` report.

use std::time::Instant;

use crate::adapter::{self, Native};
use crate::gen::{self, WriteClient};
use crate::harness::{self, Client, Ctx, OpLog, RunResult, CLIENTS};
use crate::layers;
use crate::stats;
use crate::trace::Recorder;

/// Rows of `dw_a` each key range starts with and stays at (`dw_b` a tenth).
/// Small on purpose: this server copies the table a statement writes to, so
/// with 1 000 rows per range a write cost 2 ms of copying, the log was idle
/// and a window held a third of one checkpoint interval.
const PRELOAD: u64 = 20;
/// Autocommit statements of one more key range that set-up leaves in the log
/// behind the snapshot (about 1.9 records each): the server replays them when
/// it starts, and its first automatic checkpoint (every 100 000 records, its
/// default) comes early in the window, which crosses at least three.
const TAIL_OPS: usize = 40_000;
const SMOKE_TAIL_OPS: usize = 1_000;

struct Writer {
    model: WriteClient,
    op_id: u64,
}

impl Client for Writer {
    fn step(&mut self, conn: &mut Native, log: &mut OpLog, mut rec: Option<&mut Recorder>) {
        self.op_id += 1;
        let root = rec
            .as_mut()
            .map_or(-1, |r| r.begin("durable_write.op", -1, self.op_id));
        for stmt in self.model.next_op() {
            let t0 = Instant::now();
            let reply = match rec.as_mut() {
                Some(r) => r.child("driver.Connection::execute", root, self.op_id, || {
                    conn.exec(&stmt.sql)
                }),
                None => conn.exec(&stmt.sql),
            };
            let ns = t0.elapsed().as_nanos() as u64;
            let ok = match (&reply, stmt.expect_affected) {
                (Ok(r), Some(n)) => r.affected() == n,
                (Ok(_), None) => true,
                (Err(_), _) => false,
            };
            log.call(ns, ok, stmt.user_bytes);
        }
        if let Some(r) = rec {
            r.end(root);
        }
    }
}

/// The crash at the end: `SIGKILL`, restart on the same directory, and every
/// key of every client read back. A key is wrong when an acknowledged insert
/// is missing or there twice, an acknowledged delete is back, or the value is
/// not the last acknowledged one. (Against process kill — the OS cache is
/// intact — not against power loss.)
fn crash_and_verify(
    ctx: &Ctx,
    ready: &mut harness::Ready,
    models: &[&WriteClient],
) -> Result<(u64, u64), String> {
    let port = ready.server.port;
    ready.server.kill();
    ready.server = harness::start_server(&ready.dir, port, &ctx.server_log())?;
    let mut conn = Native::connect(&ready.server.addr())?;
    let (mut checked, mut wrong) = (0, 0);
    for model in models {
        let (lo, hi) = model.key_range();
        checked += model.deleted;
        for (table, live) in [("dw_a", &model.live_a), ("dw_b", &model.live_b)] {
            let rows = conn.exec(&format!(
                "SELECT id, v FROM {table} WHERE id BETWEEN {lo} AND {hi}"
            ))?;
            checked += live.len() as u64;
            wrong += gen::write_mismatches(live, rows.rows());
        }
    }
    conn.close();
    Ok((checked, wrong))
}

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let tail_ops = if ctx.smoke { SMOKE_TAIL_OPS } else { TAIL_OPS };
    // Two more key ranges than clients: the traced run's one-client probe
    // writes into one, the log tail of set-up into the other.
    let ranges = CLIENTS as u64 + 2;
    let mut history = WriteClient::new(ctx.seed, CLIENTS as u64 + 1, PRELOAD);
    let tail: Vec<_> = (0..tail_ops).map(|_| history.single_row()).collect();
    let mut ready = harness::set_up(ctx, |dir| {
        harness::load(
            dir,
            gen::write_setup_sql(ctx.seed, ranges, PRELOAD).into_iter(),
            tail.iter().map(|stmt| stmt.sql.clone()),
        )
    })?;
    let addr = ready.server.addr();
    let mut control = Native::connect(&addr)?;
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let model = WriteClient::new(ctx.seed, c as u64, PRELOAD);
        clients.push((Native::connect(&addr)?, Writer { model, op_id: 0 }));
    }

    let mut r = RunResult::default();
    let parts = adapter::default_partitions();
    r.note(
        "cross_partition_txn",
        format!(
            "dw_a in partition {}, dw_b in partition {} of {parts}",
            adapter::partition_of("dw_a", parts),
            adapter::partition_of("dw_b", parts)
        ),
    );

    let w = layers::gated_window(ctx, &mut r, &ready, &mut control, &mut clients)?;
    // The window's own bytes over the window's own rows, so the ratio does
    // not depend on how many calls the window held.
    r.metrics.insert(
        "disk_bytes_per_user_byte",
        stats::ratio(w.dir_written as f64, w.user_bytes as f64),
    );

    let mut probe = WriteClient::new(ctx.seed, CLIENTS as u64, PRELOAD);
    if ctx.trace {
        let mut stream = Vec::with_capacity(layers::PROBE_STMTS + 20);
        while stream.len() < layers::PROBE_STMTS {
            stream.extend(probe.next_op().into_iter().map(|s| s.sql));
        }
        layers::traced_window(ctx, &mut r, &ready, &mut control, &mut clients, &w, &stream)?;
    }
    control.close();

    let mut models = Vec::new();
    for (conn, client) in clients {
        conn.close();
        models.push(client.model);
    }
    let mut all: Vec<&WriteClient> = models.iter().collect();
    all.extend([&probe, &history]);
    let (checked, wrong) = crash_and_verify(ctx, &mut ready, &all)?;
    r.attempted += checked;
    r.failed += wrong;
    r.note("keys_verified_after_kill", checked);
    Ok(r)
}
