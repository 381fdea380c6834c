//! Regenerates **Table 1** of the paper: selected results from the TPC-H
//! power test using the native driver and Phoenix.
//!
//! ```text
//! cargo run --release -p phoenix-bench --bin table1 [scale] [iterations]
//! ```
//!
//! Prints per-query/update rows (result size, native seconds, Phoenix
//! seconds, difference, ratio) plus the Total Query and Total Updates rows —
//! the same columns as the paper's table. Absolute numbers differ from the
//! 1999 testbed; the shape to check is: Phoenix query overhead small
//! (paper: ≈1% total, ~1s per query on their scale), update overhead
//! negligible (paper: <0.5%).

use phoenix_bench::BenchEnv;
use phoenix_tpch::power::{run_power_test, PowerReport};

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let iterations: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(5);

    eprintln!("# loading TPC-H-style database (scale {scale}) …");
    let env = BenchEnv::tpch(scale);
    eprintln!(
        "# orders={} lineitem≈{} — running power test ×{iterations} (native and Phoenix, alternating)",
        env.workload.orders, env.workload.lineitems_approx
    );

    let mut conn = env.native();
    let mut pc = env.phoenix(BenchEnv::bench_phoenix_config());
    let mut reports =
        run_power_test(&mut [&mut conn, &mut pc], &env.workload, iterations).expect("power test");
    conn.close();
    pc.close();
    let phoenix = reports.pop().expect("phoenix report");
    let native = reports.pop().expect("native report");

    print_table1(&native, &phoenix, scale, iterations);
}

fn print_table1(native: &PowerReport, phoenix: &PowerReport, scale: f64, iterations: usize) {
    println!(
        "Table 1. Selected results from TPC-H-style power test using native driver and Phoenix."
    );
    println!("(scale factor {scale}, mean of {iterations} runs; times in seconds)");
    println!();
    println!(
        "{:<10} {:>12} {:>14} {:>14} {:>12} {:>8}",
        "Query/", "Result Set/", "Native", "Phoenix", "Difference", "Ratio"
    );
    println!(
        "{:<10} {:>12} {:>14} {:>14} {:>12} {:>8}",
        "Update", "Updates", "seconds", "seconds", "seconds", ""
    );
    println!("{}", "-".repeat(76));

    for n in &native.rows {
        let p = phoenix.row(&n.name).expect("phoenix row");
        println!(
            "{:<10} {:>12} {:>14.4} {:>14.4} {:>12.4} {:>8.3}",
            n.name,
            n.rows,
            n.seconds_mean,
            p.seconds_mean,
            p.seconds_mean - n.seconds_mean,
            if n.seconds_mean > 0.0 {
                p.seconds_mean / n.seconds_mean
            } else {
                f64::NAN
            }
        );
    }
    println!("{}", "-".repeat(76));
    println!(
        "{:<10} {:>12} {:>14.4} {:>14.4} {:>12.4} {:>8.3}",
        "TotalQry",
        "",
        native.total_query_seconds,
        phoenix.total_query_seconds,
        phoenix.total_query_seconds - native.total_query_seconds,
        phoenix.total_query_seconds / native.total_query_seconds
    );
    println!(
        "{:<10} {:>12} {:>14.4} {:>14.4} {:>12.4} {:>8.3}",
        "TotalUpd",
        "",
        native.total_update_seconds,
        phoenix.total_update_seconds,
        phoenix.total_update_seconds - native.total_update_seconds,
        phoenix.total_update_seconds / native.total_update_seconds
    );
    println!();
    println!(
        "paper shape check: query ratio ≈ 1.0x (paper: ~1.01), update ratio ≈ 1.0x (paper: <1.005)"
    );
}
