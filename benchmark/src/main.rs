//! The repo's scoreboard: four workloads against the shipped
//! `phoenix-server`, run as a child process with its defaults.
//!
//! ```text
//! phoenix-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! phoenix-benchmark --smoke          # every workload and oracle, no gated numbers
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. Everything else
//! (the metric table, the run record, progress) goes to standard error and
//! to `benchmark/out/`. See `benchmark/README.md`.

mod adapter;
mod gen;
mod harness;
mod layers;
mod metrics;
mod server;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use harness::{Ctx, RunResult, Scratch, CLIENTS};

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    /// The window: `--seconds` of a `--workload` run (`run_seconds` of
    /// `BENCHMARK.json` is the one place its value lives), 3 s in a smoke run.
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::NAN,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a name")?;
                let known = metrics::WORKLOADS.iter().find(|w| **w == name);
                args.workload = Some(known.ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value("0 or 1")? == "1",
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.smoke {
        args.seconds = 3.0;
    } else if args.workload.is_none() {
        return Err(format!(
            "--workload <{}> --seconds <s>, or --smoke",
            metrics::WORKLOADS.join("|")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds <a positive number> is required with --workload".into());
    }
    Ok(args)
}

fn run_workload(ctx: &Ctx) -> Result<RunResult, String> {
    match ctx.workload {
        "point_read" => workloads::point_read::run(ctx),
        "durable_write" => workloads::durable_write::run(ctx),
        "tpch_phoenix" => workloads::tpch_phoenix::run(ctx),
        "crash_resume" => workloads::crash_resume::run(ctx),
        other => unreachable!("'{other}' is not in metrics::WORKLOADS"),
    }
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn metrics_json(
    table: &[(&str, &str)],
    values: &std::collections::BTreeMap<&'static str, f64>,
) -> String {
    let items: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = values
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// The run record: the host and settings every number depends on.
fn disclosure(ctx: &Ctx, r: &RunResult) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut d = vec![
        ("workload".to_string(), ctx.workload.to_string()),
        ("seed".into(), ctx.seed.to_string()),
        ("seconds".into(), ctx.seconds.to_string()),
        ("trace".into(), ctx.trace.to_string()),
        ("smoke".into(), ctx.smoke.to_string()),
        ("nproc".into(), nproc.to_string()),
        ("git_rev".into(), git_rev()),
        (
            "server".into(),
            "phoenix-server child process, defaults, crash = SIGKILL".into(),
        ),
        (
            "durability".into(),
            "Fsync (server default; never --buffered)".into(),
        ),
        (
            "partitions".into(),
            adapter::default_partitions().to_string(),
        ),
        (
            "checkpoint_every".into(),
            "100000 records (server default)".into(),
        ),
        ("data_dir_fs".into(), server::fs_type(&ctx.out)),
        ("load".into(), "closed loop".into()),
        ("client_threads".into(), CLIENTS.to_string()),
        (
            "connections".into(),
            format!("{CLIENTS} + 1 idle control connection"),
        ),
        ("claim".into(), "null".into()),
    ];
    d.extend(r.notes.iter().map(|(k, v)| (k.clone(), v.clone())));
    d
}

fn report(ctx: &Ctx, r: &mut RunResult) -> String {
    let workload = ctx.workload;
    let error_rate = stats::ratio(r.failed as f64, r.attempted as f64);
    r.metrics.insert("error_rate", error_rate);
    let record = disclosure(ctx, r);

    eprintln!(
        "== {workload}  seed {}  {} s  trace {}",
        ctx.seed, ctx.seconds, ctx.trace as u8
    );
    for (k, v) in &record {
        eprintln!("   {k}: {v}");
    }
    let gated = !ctx.smoke && !ctx.trace;
    eprintln!(
        "   -- end to end{}",
        if gated {
            ""
        } else {
            " (not a gated measurement)"
        }
    );
    for (name, unit) in metrics::END_TO_END {
        eprintln!(
            "   {name:<42} {:>16.4} {unit}",
            r.metrics.get(name).copied().unwrap_or(0.0)
        );
    }
    eprintln!("   -- reported, not gated (what this run measured of it)");
    for (name, unit) in metrics::PER_LAYER {
        if let Some(v) = r.metrics.get(name) {
            eprintln!("   {name:<42} {v:>16.4} {unit}");
        }
    }
    eprintln!(
        "   attempted {}  failed {}  error_rate {error_rate}",
        r.attempted, r.failed
    );

    let metrics = if ctx.trace {
        metrics_json(metrics::PER_LAYER, &r.metrics)
    } else {
        metrics_json(metrics::END_TO_END, &r.metrics)
    };
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        r.failed == 0 && r.attempted > 0,
        r.attempted.max(1),
        r.failed
    );
    let record_json: Vec<String> = record
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    let full = format!(
        "{{\"record\": {{{}}}, \"end_to_end\": {}, \"per_layer\": {}, \"result\": {line}}}\n",
        record_json.join(", "),
        metrics_json(metrics::END_TO_END, &r.metrics),
        metrics_json(metrics::PER_LAYER, &r.metrics),
    );
    let path = ctx
        .out
        .join(format!("result-{workload}-trace{}.json", ctx.trace as u8));
    if let Err(e) = std::fs::write(&path, full) {
        eprintln!("   (could not write {}: {e})", path.display());
    }
    line
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("phoenix-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // `benchmark/out` relative to the checkout root the command runs from.
    let out = PathBuf::from("benchmark/out");
    let scratch = match std::fs::create_dir_all(&out).and_then(|_| Scratch::new(&out)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("phoenix-benchmark: cannot create {}: {e}", out.display());
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx {
        workload: args.workload.unwrap_or(metrics::WORKLOADS[0]),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        out,
        scratch,
        epoch: Instant::now(),
    };

    if args.smoke {
        // Every workload and every oracle in about twenty seconds: 3 s
        // windows, 5 kill cycles, traced, one set-up. Prints no gated number.
        ctx.trace = true;
        let mut bad = 0;
        for w in metrics::WORKLOADS {
            (ctx.workload, ctx.epoch) = (w, Instant::now());
            match run_workload(&ctx) {
                Ok(mut r) => {
                    report(&ctx, &mut r);
                    bad += (r.failed > 0 || r.attempted == 0) as u32;
                }
                Err(e) => {
                    eprintln!("phoenix-benchmark: {w}: {e}");
                    bad += 1;
                }
            }
        }
        println!("{{\"smoke\": true, \"workloads_failed\": {bad}}}");
        return if bad == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    match run_workload(&ctx) {
        Ok(mut r) => {
            println!("{}", report(&ctx, &mut r));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("phoenix-benchmark: {}: {e}", ctx.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests run in parallel in one process: each takes its own directory.
    fn smoke_ctx(workload: &'static str, tag: &str) -> Ctx {
        let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{tag}"));
        std::fs::create_dir_all(&out).expect("create test output directory");
        Ctx {
            workload,
            seed: 7,
            seconds: 1.5,
            trace: true,
            smoke: true,
            scratch: Scratch::new(&out).expect("scratch"),
            out,
            epoch: Instant::now(),
        }
    }

    fn traced(workload: &'static str) -> RunResult {
        let ctx = smoke_ctx(workload, workload);
        let r = run_workload(&ctx).unwrap_or_else(|e| panic!("{workload}: {e}"));
        assert!(
            r.attempted > 0 && r.failed == 0,
            "{workload}: {} of {} failed",
            r.failed,
            r.attempted
        );
        r
    }

    /// The counts a claim may rest on repeat exactly: the same seed twice
    /// gives the same requests, fsyncs and log appends per statement — and a
    /// native workload sends exactly one request per driver call, and a
    /// read-only one writes nothing at all.
    ///
    /// Needs `phoenix-server` built into the same target directory
    /// (`benchmark/run.sh --smoke` does that).
    #[test]
    fn exact_counts_repeat() {
        const EXACT: &[&str] = &[
            "server.requests_per_op",
            "storage.fsyncs_per_op",
            "storage.wal_appends_per_op",
            "storage.snapshot_publishes_per_op",
            "storage.wal_bytes_per_op",
            "core.server_requests_per_app_stmt",
            "core.fsyncs_per_app_stmt",
        ];
        for workload in ["point_read", "durable_write", "tpch_phoenix"] {
            let (a, b) = (traced(workload), traced(workload));
            for name in EXACT {
                assert_eq!(
                    a.metrics.get(name),
                    b.metrics.get(name),
                    "{workload}: {name} did not repeat"
                );
            }
            assert_eq!(
                a.metrics["server.requests_per_op"], 1.0,
                "{workload}: one request per driver call"
            );
            if workload == "point_read" {
                for name in a
                    .metrics
                    .keys()
                    .filter(|n| n.starts_with("storage.") && **n != "storage.commit_us")
                {
                    assert_eq!(
                        a.metrics[name], 0.0,
                        "point_read must not touch the log: {name}"
                    );
                }
            }
        }
    }

    /// `Durable::{begin,insert,commit}` on one thread syncs the log exactly
    /// once per commit, every time.
    #[test]
    fn commit_probe_syncs_once_per_commit() {
        let ctx = smoke_ctx("point_read", "commit");
        for _ in 0..2 {
            let mut r = RunResult::default();
            let mut rec = trace::Recorder::new(ctx.epoch);
            assert_eq!(layers::commit_probe(&ctx, &mut r, &mut rec).unwrap(), 1.0);
        }
    }
}
