//! `point_read`: native connection, 90 % primary-key `SELECT`, 10 % 20-row
//! secondary-index range `SELECT`, uniform keys over a table much larger
//! than the client count, no writes.
//!
//! Why: the front-end, the wire, `sql` parse and the planner do all the work
//! and `storage`'s log does none. A WAL or group-commit change must move
//! nothing here; a front-end or protocol change shows here first.

use std::time::Instant;

use crate::adapter::Native;
use crate::gen::{PointRead, ReadOp, Rng};
use crate::harness::{self, Client, Ctx, OpLog, RunResult, CLIENTS};
use crate::layers;
use crate::stats;
use crate::trace::Recorder;

pub const ROWS: u64 = 200_000;
const SMOKE_ROWS: u64 = 20_000;

struct Reader {
    table: PointRead,
    rng: Rng,
    op_id: u64,
}

impl Reader {
    fn new(table: &PointRead, client: usize) -> Reader {
        Reader {
            table: table.clone(),
            rng: Rng::new(table.seed, client as u64),
            op_id: 0,
        }
    }

    fn next_sql(&mut self) -> (ReadOp, String) {
        let op = self.table.next_op(&mut self.rng);
        (op, self.table.sql(op))
    }
}

impl Client for Reader {
    fn step(&mut self, conn: &mut Native, log: &mut OpLog, rec: Option<&mut Recorder>) {
        let (op, sql) = self.next_sql();
        self.op_id += 1;
        let t0 = Instant::now();
        let reply = match rec {
            Some(rec) => {
                let root = rec.begin("point_read.op", -1, self.op_id);
                let reply = rec.child("driver.Connection::execute", root, self.op_id, || {
                    conn.exec(&sql)
                });
                rec.end(root);
                reply
            }
            None => conn.exec(&sql),
        };
        let ns = t0.elapsed().as_nanos() as u64;
        let ok = matches!(&reply, Ok(r) if self.table.check(op, r.rows()));
        log.call(ns, ok, 0);
    }
}

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let table = PointRead::new(ctx.seed, if ctx.smoke { SMOKE_ROWS } else { ROWS });
    let ready = harness::set_up(ctx, |dir| {
        harness::load(dir, table.setup_sql(), std::iter::empty())
    })?;
    let addr = ready.server.addr();
    let mut control = Native::connect(&addr)?;
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        clients.push((Native::connect(&addr)?, Reader::new(&table, c)));
    }

    let mut r = RunResult::default();
    let w = layers::gated_window(ctx, &mut r, &ready, &mut control, &mut clients)?;
    r.metrics.insert(
        "disk_bytes_per_user_byte",
        stats::ratio(ready.prepared_bytes as f64, table.user_bytes() as f64),
    );
    if ctx.trace {
        let mut probe = Reader::new(&table, CLIENTS);
        let stream: Vec<String> = (0..layers::PROBE_STMTS)
            .map(|_| probe.next_sql().1)
            .collect();
        layers::traced_window(ctx, &mut r, &ready, &mut control, &mut clients, &w, &stream)?;
    }
    control.close();
    Ok(r)
}
