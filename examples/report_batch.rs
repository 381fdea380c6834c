//! A nightly report runner: SQL command batches, scrollable result review,
//! and a persistent session that shrugs off a mid-report server crash.
//!
//! Demonstrates the two Phoenix APIs the other examples don't:
//! [`PhoenixConnection::execute_batch`] (the paper's "SQL Command Batch"
//! session-state element) and [`PhoenixStatement::fetch_scroll`]
//! (crash-proof scrolling over the materialized result).
//!
//! ```text
//! cargo run -p phoenix-bench --example report_batch
//! ```

use std::time::Duration;

use phoenix_core::{PhoenixConfig, PhoenixConnection, PhoenixFetch};
use phoenix_driver::Environment;
use phoenix_engine::EngineConfig;
use phoenix_server::ServerHarness;

fn main() {
    let data_dir = std::env::temp_dir().join(format!("phoenix-report-{}", std::process::id()));
    std::fs::create_dir_all(&data_dir).unwrap();
    let mut server = ServerHarness::start(&data_dir, EngineConfig::default()).unwrap();

    let mut db = PhoenixConnection::connect(
        &Environment::new(),
        &server.addr(),
        "report-runner",
        "sales",
        PhoenixConfig::default(),
    )
    .unwrap();

    // One batch sets up the whole reporting schema and staging data.
    println!("running setup batch (6 statements)…");
    let results = db
        .execute_batch(
            "CREATE TABLE sales (id INT PRIMARY KEY, region TEXT, amount FLOAT); \
             CREATE TABLE #staging (id INT, region TEXT, amount FLOAT); \
             INSERT INTO #staging VALUES \
               (1, 'north', 120.0), (2, 'south', 80.5), (3, 'north', 200.0), \
               (4, 'east', 45.25), (5, 'south', 310.0), (6, 'west', 99.99), \
               (7, 'north', 12.5), (8, 'east', 400.0), (9, 'west', 250.0); \
             INSERT INTO sales SELECT id, region, amount FROM #staging; \
             DROP TABLE #staging; \
             PRINT 'staging loaded and folded in'",
        )
        .unwrap();
    for r in &results {
        for m in &r.messages {
            println!("  server: {m}");
        }
    }

    // The report query, delivered through a persistent statement.
    let mut report = db.statement();
    report
        .execute(
            "SELECT region, COUNT(*) AS orders, SUM(amount) AS revenue \
             FROM sales GROUP BY region ORDER BY revenue DESC",
        )
        .unwrap();

    println!("\ntop region:");
    let top = report.fetch_scroll(PhoenixFetch::Next, 1).unwrap();
    println!(
        "  {} — {} orders, {:.2} revenue",
        top[0][0], top[0][1], top[0][2]
    );

    // The server dies while the analyst is scrolling around the report.
    println!("\n*** server crashes while the report is open ***");
    server.crash().unwrap();
    let restarter = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(250));
        server.restart().unwrap();
        server
    });

    println!("scrolling to the bottom of the report (masked recovery happens here):");
    let tail = report.fetch_scroll(PhoenixFetch::Absolute(2), 10).unwrap();
    for row in &tail {
        println!("  {} — {} orders, {:.2} revenue", row[0], row[1], row[2]);
    }
    println!("…and back to the top:");
    let head = report.fetch_scroll(PhoenixFetch::Absolute(0), 2).unwrap();
    for row in &head {
        println!("  {} — {} orders, {:.2} revenue", row[0], row[1], row[2]);
    }

    report.close();
    let stats = db.stats().clone();
    println!(
        "\nsession stats: {} recoveries, {} materializations, {} wrapped DML",
        stats.recoveries, stats.materialized_result_sets, stats.wrapped_dml
    );
    assert!(stats.recoveries >= 1, "the crash should have been absorbed");

    db.close();
    let server = restarter.join().unwrap();
    drop(server);
    let _ = std::fs::remove_dir_all(&data_dir);
}
