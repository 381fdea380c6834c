//! TPC-H query bench: the cost-aware planner's index wins, measured and
//! proven by access path.
//!
//! Runs Q1/Q6/Q11/Q16 against the same loaded database twice — first with
//! no secondary indexes (every table access is a scan), then after `CREATE
//! INDEX` on the columns the predicates and joins touch — and records the
//! best-of-N latency plus the EXPLAIN access-path summary for each run.
//! Q1's range predicate covers nearly the whole of LINEITEM, so the cost
//! model must keep it on a scan; Q6 (selective date range), Q11 (nation →
//! supplier → partsupp join chain) and Q16 (size IN-list + partsupp probe)
//! must flip to index-backed plans and get faster.
//!
//! ```text
//! cargo run --release -p phoenix-bench --bin tpch -- --quick --check
//! cargo run --release -p phoenix-bench --bin tpch -- --out BENCH_tpch.json
//! ```
//!
//! The JSON record goes to stdout, and to a file only when `--out` names
//! one, so a quick run never overwrites the checked-in `BENCH_tpch.json`.
//!
//! `--check` exits non-zero unless the indexed plans for Q6/Q11/Q16 are
//! index-backed, Q1 stays on a scan, row counts agree between runs, and
//! each index-backed query beat its unindexed time.

use std::time::Instant;

use phoenix_bench::BenchEnv;
use phoenix_driver::Connection;
use phoenix_storage::types::Value;
use phoenix_tpch::queries;

/// The queries this bench reports (a subset of the full suite: the paper's
/// Table 1 names plus Q6, the canonical selective-range query).
const BENCH_QUERIES: &[&str] = &["Q1", "Q6", "Q11", "Q16"];

/// Secondary indexes for the second pass: predicate columns (Q6's date
/// range, Q16's size IN-list, Q11's nation filter reached through
/// supplier) and the join columns the planner can turn into index
/// nested-loop probes.
const INDEXES: &[&str] = &[
    "CREATE INDEX ix_l_shipdate ON lineitem(l_shipdate)",
    "CREATE INDEX ix_s_nationkey ON supplier(s_nationkey)",
    "CREATE INDEX ix_ps_suppkey ON partsupp(ps_suppkey)",
    "CREATE INDEX ix_ps_partkey ON partsupp(ps_partkey)",
    "CREATE INDEX ix_p_size ON part(p_size)",
];

struct QueryRun {
    name: &'static str,
    rows: usize,
    best_ms: f64,
    /// EXPLAIN access summary, e.g. `scan+probe(ix_ps_suppkey)`.
    access: String,
}

fn text(v: &Value) -> String {
    match v {
        Value::Text(t) => t.clone(),
        Value::Null => String::new(),
        other => other.to_string(),
    }
}

/// Render the EXPLAIN rows as a compact access-path summary: one entry per
/// plan step (`access` or `access(index)`), `+`-joined, ORDER BY trailer
/// rows dropped.
fn access_summary(conn: &mut Connection, sql: &str) -> String {
    let plan = conn.explain(sql).expect("EXPLAIN");
    plan.rows()
        .iter()
        .filter_map(|r| {
            let access = text(&r[3]);
            if access.starts_with("order-by") {
                return None;
            }
            let index = text(&r[4]);
            Some(if index.is_empty() {
                access
            } else {
                format!("{access}({index})")
            })
        })
        .collect::<Vec<_>>()
        .join("+")
}

fn run_queries(conn: &mut Connection, reps: usize) -> Vec<QueryRun> {
    BENCH_QUERIES
        .iter()
        .map(|name| {
            let q = queries::by_name(name).expect("known query");
            let access = access_summary(conn, q.sql);
            let mut rows = 0;
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let t0 = Instant::now();
                let r = conn.execute(q.sql).expect(name);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                rows = r.rows().len();
                best = best.min(ms);
            }
            eprintln!("tpch: {name} {access} -> {best:.2} ms, {rows} rows");
            QueryRun {
                name,
                rows,
                best_ms: best,
                access,
            }
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut check = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--out" => out = Some(it.next().expect("--out needs a path").clone()),
            other => panic!("unknown flag {other} (expected --quick/--check/--out)"),
        }
    }
    let (scale, reps) = if quick { (1.0, 3) } else { (4.0, 5) };

    eprintln!("# loading TPC-H-style database (scale {scale}) …");
    let env = BenchEnv::tpch(scale);
    let mut conn = env.native();

    eprintln!("# pass 1: no secondary indexes");
    let unindexed = run_queries(&mut conn, reps);

    for ddl in INDEXES {
        conn.execute(ddl).expect("CREATE INDEX");
    }
    eprintln!("# pass 2: {} secondary indexes", INDEXES.len());
    let indexed = run_queries(&mut conn, reps);
    conn.close();

    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mode = if quick { "quick" } else { "full" };

    let mut body = String::new();
    body.push_str("{\n");
    body.push_str("  \"bench\": \"tpch\",\n");
    body.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    body.push_str(&format!("  \"host_parallelism\": {host_parallelism},\n"));
    body.push_str(&format!("  \"scale\": {scale},\n"));
    body.push_str(&format!("  \"unit\": \"ms_per_query_best_of_{reps}\",\n"));
    body.push_str("  \"indexes\": [\n");
    body.push_str(
        &INDEXES
            .iter()
            .map(|d| format!("    \"{d}\""))
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    body.push_str("\n  ],\n");
    body.push_str("  \"queries\": {\n");
    let entries: Vec<String> = unindexed
        .iter()
        .zip(indexed.iter())
        .map(|(u, i)| {
            format!(
                "    \"{}\": {{\n      \"rows\": {},\n      \"unindexed_ms\": {:.3},\n      \
                 \"indexed_ms\": {:.3},\n      \"speedup\": {:.2},\n      \
                 \"plan_unindexed\": \"{}\",\n      \"plan_indexed\": \"{}\"\n    }}",
                u.name,
                u.rows,
                u.best_ms,
                i.best_ms,
                u.best_ms / i.best_ms,
                u.access,
                i.access
            )
        })
        .collect();
    body.push_str(&entries.join(",\n"));
    body.push_str("\n  }\n}\n");

    if let Some(out) = out {
        std::fs::write(&out, &body).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    }
    println!("{body}");

    if check {
        let mut failures = Vec::new();
        for (u, i) in unindexed.iter().zip(indexed.iter()) {
            if u.rows != i.rows {
                failures.push(format!(
                    "{}: row count changed with indexes ({} -> {})",
                    u.name, u.rows, i.rows
                ));
            }
            if u.access.contains("ix_") {
                failures.push(format!(
                    "{}: unindexed plan references an index: {}",
                    u.name, u.access
                ));
            }
        }
        for (u, i) in unindexed.iter().zip(indexed.iter()) {
            match i.name {
                // Q1's predicate covers ~98% of LINEITEM: the cost model
                // must keep scanning.
                "Q1" => {
                    if i.access.contains("ix_") {
                        failures.push(format!("Q1 must stay on a scan, got {}", i.access));
                    }
                }
                _ => {
                    if !i.access.contains("ix_") {
                        failures.push(format!("{} must be index-backed, got {}", i.name, i.access));
                    }
                    if i.best_ms >= u.best_ms {
                        failures.push(format!(
                            "{}: indexed plan not faster ({:.3} ms vs {:.3} ms scan)",
                            i.name, i.best_ms, u.best_ms
                        ));
                    }
                }
            }
        }
        if !failures.is_empty() {
            eprintln!("tpch: CHECK FAILED");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        eprintln!("tpch: check passed (Q6/Q11/Q16 index-backed and faster, Q1 stays scan)");
    }
}
