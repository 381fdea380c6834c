//! `phoenix-chaos-explore` — run the crash-schedule sweep from the command
//! line.
//!
//! ```text
//! phoenix-chaos-explore [--failover] [--budget N] [--seed N] [--no-torn] [--quiet]
//! ```
//!
//! * `--budget N` — execute at most N crash cases (0 = the full sweep;
//!   default 0). CI uses a small fixed budget; the full sweep runs behind
//!   an opt-in env var (see `.github/workflows/ci.yml`).
//! * `--seed N` — seed for the budgeted sample selection (default 1).
//!   Printed with every violation; re-running with the same seed and budget
//!   reproduces the identical sweep.
//! * `--no-torn` — crash-only sweep, skip torn-write variants.
//! * `--quiet` — suppress per-case progress.
//! * `--failover` — sweep server *loss* instead of crash/restart: each case
//!   kills a semi-sync primary at the scheduled visit and promotes its
//!   WAL-shipping standby; the workload must ride the failover unchanged.
//!
//! Every case runs under a wall-clock bound (`CASE_TIMEOUT`, two minutes):
//! a case still running past it prints its schedule and the
//! reproducing seed, and the process exits with status 3 instead of hanging
//! the sweep.
//!
//! Exit status: 0 when every invariant held at every crash point, 1
//! otherwise, 3 when a case hung.

use phoenix_chaos_explore::{explore, ExploreOptions};

fn main() {
    let mut opts = ExploreOptions {
        verbose: true,
        ..ExploreOptions::default()
    };
    let mut failover = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--failover" => failover = true,
            "--budget" => {
                let v = args.next().unwrap_or_default();
                opts.budget = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad --budget '{v}'")));
            }
            "--seed" => {
                let v = args.next().unwrap_or_default();
                opts.seed = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad --seed '{v}'")));
            }
            "--no-torn" => opts.torn_writes = false,
            "--quiet" => opts.verbose = false,
            "--help" | "-h" => {
                usage("");
            }
            other => usage(&format!("unknown argument '{other}'")),
        }
    }

    eprintln!(
        "phoenix-chaos-explore: sweeping {} schedules (budget={}, seed={}, torn={})",
        if failover {
            "kill-primary/promote"
        } else {
            "crash"
        },
        opts.budget,
        opts.seed,
        opts.torn_writes
    );
    let report = if failover {
        phoenix_chaos_explore::failover::explore_failover(&opts)
    } else {
        explore(&opts)
    };
    println!(
        "enumerated {} crash candidates; executed {}, real crash/restart in {}, \
         status-table replay in {}, violations: {}",
        report.enumerated,
        report.executed,
        report.crashed,
        report.replayed,
        report.violations.len()
    );
    if report.violations.is_empty() {
        println!("all invariants held at every injected crash point");
        return;
    }
    for v in &report.violations {
        println!(
            "VIOLATION at {} (reproduce with --seed {}):",
            v.case_id, v.seed
        );
        for d in &v.details {
            println!("    {d}");
        }
    }
    std::process::exit(1);
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: phoenix-chaos-explore [--failover] [--budget N] [--seed N] [--no-torn] [--quiet]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
