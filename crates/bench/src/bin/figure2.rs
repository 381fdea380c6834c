//! Regenerates **Figure 2** of the paper: elapsed time for session recovery
//! over varying result-set sizes, decomposed into the *Virtual Session*
//! component (re-establishing connections and session context — constant;
//! the paper measured 0.37 s) and the *SQL State* component (the first
//! window of the interrupted delivery after the recovery: the server skips
//! to the position in one descent of the result table's row map, so it costs
//! one block whatever the position).
//!
//! Also prints the §4 claim check: total recovery time vs. the cost of
//! simply re-computing the query and re-delivering its rows (the paper:
//! "less than a tenth of the time required to simply recompute Q11"), and
//! the tables loaded from their snapshot segments between the restarted
//! server's open and the end of that first window (the storage journal's
//! `segment_load` events): a load there is part of the SQL-state time.
//!
//! ```text
//! cargo run --release -p phoenix-bench --bin figure2 [sizes,comma,separated]
//! ```

use std::time::Instant;

use phoenix_bench::{figure2_query, load_figure2_table, BenchEnv};
use phoenix_core::PhoenixCursorKind;

fn main() {
    let sizes: Vec<u64> = std::env::args()
        .nth(1)
        .map(|s| s.split(',').filter_map(|x| x.parse().ok()).collect())
        .unwrap_or_else(|| vec![500, 1000, 2500, 5000, 10000]);

    println!("Figure 2. Elapsed time for session recovery over varying result sizes.");
    println!("(fetch to 200 rows before the end, crash the server, restart, measure)");
    println!();
    println!(
        "{:>9} {:>17} {:>13} {:>13} {:>14} {:>8}  loads in the window",
        "rows", "virtual sess. ms", "SQL state ms", "recovery ms", "recompute ms", "ratio"
    );
    println!("{}", "-".repeat(96));

    for &n in &sizes {
        let (virtual_s, sql_state_s, recompute_s, loads) = measure(n);
        let total = virtual_s + sql_state_s;
        println!(
            "{:>9} {:>17.3} {:>13.3} {:>13.3} {:>14.3} {:>8.3}  {}",
            n,
            virtual_s * 1e3,
            sql_state_s * 1e3,
            total * 1e3,
            recompute_s * 1e3,
            total / recompute_s,
            if loads.is_empty() {
                "-".into()
            } else {
                loads.join("; ")
            }
        );
    }
    println!("{}", "-".repeat(96));
    println!(
        "paper shape check: virtual-session time constant across sizes (paper: 0.37 s on 1999"
    );
    println!(
        "hardware); SQL-state time small (flat: one block); recovery ≪ recompute (paper: <0.1x)."
    );
}

/// Run one recovery experiment at result size `n`. Returns
/// `(virtual_session_seconds, sql_state_seconds, recompute_seconds, loads)`,
/// `loads` being the `segment_load` events journaled between the restarted
/// server's open and the end of the first fetch.
fn measure(n: u64) -> (f64, f64, f64, Vec<String>) {
    let mut env = BenchEnv::empty();
    {
        let mut loader = env.native();
        load_figure2_table(&mut loader, "f2", n);
        loader.close();
    }

    // Baseline: recompute the (Q11-shaped, compute-heavy) query natively
    // and deliver every row.
    let query = figure2_query("f2");
    let recompute_s = {
        let mut conn = env.native();
        let t0 = Instant::now();
        let r = conn.execute(&query).unwrap();
        assert_eq!(r.rows().len() as u64, n);
        let s = t0.elapsed().as_secs_f64();
        conn.close();
        s
    };

    // Phoenix session: materialize, fetch to near the end, crash, restart,
    // and measure the recovery that the next fetch triggers.
    let mut pc = env.phoenix(BenchEnv::bench_phoenix_config());
    let mut stmt = pc.statement();
    stmt.set_cursor_type(PhoenixCursorKind::ForwardOnly);
    stmt.set_fetch_block(64);
    stmt.execute(&query).unwrap();
    // Leave more unread rows than the client read-ahead block buffers, so
    // the crash interrupts genuine server-side delivery.
    let to_fetch = n.saturating_sub(200);
    for _ in 0..to_fetch {
        stmt.fetch().unwrap().unwrap();
    }

    env.harness.crash().unwrap();
    env.harness.restart().unwrap();
    let opened = phoenix_obs::journal().events().last().map_or(0, |e| e.seq);

    // The next fetch detects the failure, recovers the virtual session and
    // re-positions delivery; the instrumented stats decompose the cost.
    let row = stmt.fetch().unwrap().expect("rows remain");
    let loads = phoenix_obs::journal()
        .events_of(phoenix_obs::EventKind::Other)
        .into_iter()
        .filter(|e| e.seq > opened && e.component == "storage")
        .filter_map(|e| e.detail.strip_prefix("segment_load ").map(str::to_owned))
        .collect();
    assert_eq!(
        row[0],
        phoenix_storage::types::Value::Int(to_fetch as i64),
        "seamless delivery broken"
    );
    // Drain the rest to prove the tail arrives intact.
    let rest = stmt.fetch_all().unwrap();
    assert_eq!(rest.len() as u64, n - to_fetch - 1);

    let stats = pc.stats().clone();
    pc.close();

    (
        stats.last_recovery_virtual_us as f64 / 1e6,
        stats.last_reposition_us as f64 / 1e6,
        recompute_s,
        loads,
    )
}
