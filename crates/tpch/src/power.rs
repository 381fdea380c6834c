//! The TPC-H power test (paper §4).
//!
//! "The TPC-H power test executes all queries and update functions defined
//! in the benchmark one at a time in order and their running time is
//! measured individually." The runner is generic over [`SqlExecutor`], so
//! the same code measures the native driver and Phoenix — the comparison
//! that produces the paper's Table 1.

use std::time::Instant;

use crate::gen::Tpch;
use crate::queries::QUERIES;
use crate::refresh::{rf1, rf2};

/// Anything that can execute SQL and report how many rows came back or were
/// affected. Implemented for the native driver connection and for
/// [`phoenix_core::PhoenixConnection`] by the benchmark harness.
pub trait SqlExecutor {
    /// Execute `sql`, returning rows returned/affected or an error string.
    fn exec_sql(&mut self, sql: &str) -> Result<u64, String>;
}

impl SqlExecutor for phoenix_driver::Connection {
    fn exec_sql(&mut self, sql: &str) -> Result<u64, String> {
        let r = self.execute(sql).map_err(|e| e.to_string())?;
        Ok(match &r.outcome {
            phoenix_wire::message::Outcome::ResultSet { rows, .. } => rows.len() as u64,
            phoenix_wire::message::Outcome::RowsAffected(n) => *n,
            phoenix_wire::message::Outcome::Done => 0,
        })
    }
}

impl SqlExecutor for phoenix_core::PhoenixConnection {
    fn exec_sql(&mut self, sql: &str) -> Result<u64, String> {
        let r = self.execute(sql).map_err(|e| e.to_string())?;
        Ok(match &r.outcome {
            phoenix_wire::message::Outcome::ResultSet { rows, .. } => rows.len() as u64,
            phoenix_wire::message::Outcome::RowsAffected(n) => *n,
            phoenix_wire::message::Outcome::Done => 0,
        })
    }
}

/// One measured row of the power test.
#[derive(Debug, Clone)]
pub struct PowerRow {
    /// Query or refresh-function name.
    pub name: String,
    /// Rows returned (queries) or modified (refresh functions), from the
    /// last repetition.
    pub rows: u64,
    /// Mean elapsed seconds across repetitions.
    pub seconds_mean: f64,
    /// Sample standard deviation.
    pub seconds_std: f64,
    /// Is this a refresh function (vs. a query)?
    pub is_update: bool,
}

/// A complete power-test report.
#[derive(Debug, Clone)]
pub struct PowerReport {
    /// Per-item results, in execution order.
    pub rows: Vec<PowerRow>,
    /// Sum of query means (the paper's "Total Query" row).
    pub total_query_seconds: f64,
    /// Sum of refresh-function means ("Total Updates").
    pub total_update_seconds: f64,
}

impl PowerReport {
    /// Look an item up by name.
    pub fn row(&self, name: &str) -> Option<&PowerRow> {
        self.rows.iter().find(|r| r.name.eq_ignore_ascii_case(name))
    }
}

fn mean_std(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    if samples.len() < 2 {
        return (mean, 0.0);
    }
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

/// Run the power test `iterations` times on every executor and report each
/// one's per-item mean/stddev, in `execs` order.
///
/// Each iteration runs every query in order, then RF1, then RF2 — RF2
/// removes exactly the rows RF1 added, so the database is in the same state
/// at the start of every iteration (and for every executor). The executors
/// take turns inside each iteration, and the turn order rotates from one
/// iteration to the next (for two: whichever went second goes first next),
/// so drift of the host over a run lands on every executor alike.
pub fn run_power_test(
    execs: &mut [&mut dyn SqlExecutor],
    workload: &Tpch,
    iterations: usize,
) -> Result<Vec<PowerReport>, String> {
    let (lo, hi) = workload.refresh_key_range();
    let items: Vec<(String, Vec<String>, bool)> = QUERIES
        .iter()
        .map(|q| (q.name.to_string(), vec![q.sql.to_string()], false))
        .chain([
            ("RF1".to_string(), rf1(lo, hi), true),
            ("RF2".to_string(), rf2(lo, hi), true),
        ])
        .collect();

    let n = execs.len();
    let mut samples = vec![vec![Vec::with_capacity(iterations); items.len()]; n];
    let mut rows = vec![vec![0; items.len()]; n];
    for it in 0..iterations {
        for turn in 0..n {
            let e = (it + turn) % n;
            for (i, (name, stmts, _)) in items.iter().enumerate() {
                let start = Instant::now();
                let mut item_rows = 0;
                for sql in stmts {
                    item_rows += execs[e]
                        .exec_sql(sql)
                        .map_err(|err| format!("{name}: {err}"))?;
                }
                samples[e][i].push(start.elapsed().as_secs_f64());
                rows[e][i] = item_rows;
            }
        }
    }
    Ok((0..n)
        .map(|e| report(&items, &samples[e], &rows[e]))
        .collect())
}

/// One executor's report from its samples and last row counts per item.
fn report(
    items: &[(String, Vec<String>, bool)],
    samples: &[Vec<f64>],
    rows: &[u64],
) -> PowerReport {
    let mut report_rows = Vec::with_capacity(items.len());
    let mut total_query = 0.0;
    let mut total_update = 0.0;
    for (i, (name, _, is_update)) in items.iter().enumerate() {
        let (mean, std) = mean_std(&samples[i]);
        if *is_update {
            total_update += mean;
        } else {
            total_query += mean;
        }
        report_rows.push(PowerRow {
            name: name.clone(),
            rows: rows[i],
            seconds_mean: mean,
            seconds_std: std,
            is_update: *is_update,
        });
    }
    PowerReport {
        rows: report_rows,
        total_query_seconds: total_query,
        total_update_seconds: total_update,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-9);
        assert!((s - 2.138089935299395).abs() < 1e-9);
        let (m, s) = mean_std(&[3.0]);
        assert_eq!((m, s), (3.0, 0.0));
    }

    /// Records which executor ran each statement, into a shared log.
    struct Logged<'a>(char, &'a std::cell::RefCell<String>);

    impl SqlExecutor for Logged<'_> {
        fn exec_sql(&mut self, sql: &str) -> Result<u64, String> {
            let mut log = self.1.borrow_mut();
            if !log.ends_with(self.0) {
                log.push(self.0);
            }
            Ok(sql.len() as u64)
        }
    }

    #[test]
    fn executors_alternate_which_goes_first() {
        let log = std::cell::RefCell::new(String::new());
        let workload = Tpch::new(crate::TpchConfig::default().with_scale(0.01));
        let (mut a, mut b) = (Logged('a', &log), Logged('b', &log));
        let reports = run_power_test(&mut [&mut a, &mut b], &workload, 4).unwrap();
        // Turns a|b, b|a, a|b, b|a: each a whole pass, the log keeping one
        // letter per run of turns by the same executor (a fixed order would
        // log "abababab").
        assert_eq!(log.into_inner(), "ababa");
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].rows.len(), QUERIES.len() + 2);
    }
}
