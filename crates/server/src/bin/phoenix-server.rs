//! Standalone Phoenix database server.
//!
//! ```text
//! phoenix-server [--data <dir>] [--port <port>] [--buffered] [--stats-port <port>]
//! ```
//!
//! Takes the given port, announces it, opens (and crash-recovers) the
//! database in the data directory, then serves until SIGINT/EOF on stdin:
//! clients that connect while recovery runs wait in the listen backlog
//! instead of being refused. A checkpoint is taken on orderly shutdown. With `--stats-port`, a second listener serves
//! Prometheus-style metrics text over HTTP on that port (`curl
//! localhost:<port>` to scrape).

use std::io::{BufRead, Write};

use phoenix_engine::{CommitMode, Engine, EngineConfig};
use phoenix_server::{RunningServer, StatsListener};
use phoenix_storage::db::Durability;

fn main() {
    let mut data_dir = std::path::PathBuf::from("./phoenix-data");
    let mut port: u16 = 54321;
    let mut stats_port: Option<u16> = None;
    let mut durability = Durability::Fsync;
    let mut partitions: Option<usize> = None;
    let mut group_commit_window_us: u64 = 0;
    let mut max_sessions: Option<usize> = None;
    let mut commit_mode = CommitMode::Async;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--data" => data_dir = args.next().expect("--data needs a path").into(),
            "--partitions" => {
                partitions = Some(
                    args.next()
                        .expect("--partitions needs a number")
                        .parse()
                        .expect("bad partition count"),
                )
            }
            "--group-commit-window-us" => {
                group_commit_window_us = args
                    .next()
                    .expect("--group-commit-window-us needs a number")
                    .parse()
                    .expect("bad window")
            }
            "--port" => {
                port = args
                    .next()
                    .expect("--port needs a number")
                    .parse()
                    .expect("bad port")
            }
            "--buffered" => durability = Durability::Buffered,
            "--semi-sync" => commit_mode = CommitMode::SemiSync,
            "--max-sessions" => {
                max_sessions = Some(
                    args.next()
                        .expect("--max-sessions needs a number")
                        .parse()
                        .expect("bad session cap"),
                )
            }
            "--stats-port" => {
                stats_port = Some(
                    args.next()
                        .expect("--stats-port needs a number")
                        .parse()
                        .expect("bad stats port"),
                )
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: phoenix-server [--data <dir>] [--port <port>] [--buffered] \
                     [--stats-port <port>] [--partitions <n>] [--group-commit-window-us <us>] \
                     [--max-sessions <n>] [--semi-sync]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument '{other}' (try --help)");
                std::process::exit(2);
            }
        }
    }

    let config = EngineConfig {
        durability,
        checkpoint_every: Some(100_000),
        partitions,
        group_commit_window_us,
        max_sessions,
        commit_mode,
    };
    // The port first: a client reconnecting after a crash then queues in the
    // listen backlog while the log is read, and is served the moment
    // recovery ends, instead of polling a refused port.
    let bound = RunningServer::bind(port).unwrap_or_else(|e| {
        eprintln!("cannot listen on port {port}: {e}");
        std::process::exit(1);
    });
    // One write: standard error is unbuffered, and whoever starts this
    // process reads the port off this line — never half of it.
    let announce = format!("phoenix-server: listening on 127.0.0.1:{}\n", bound.port);
    let _ = std::io::stderr().write_all(announce.as_bytes());
    eprintln!(
        "phoenix-server: opening {} (recovery may replay the log)…",
        data_dir.display()
    );
    let engine = Engine::open(&data_dir, config).unwrap_or_else(|e| {
        eprintln!("cannot open database: {e}");
        std::process::exit(1);
    });
    let r = engine.recovery_report().clone();
    let server = bound.serve(engine).unwrap_or_else(|e| {
        eprintln!("cannot start serving: {e}");
        std::process::exit(1);
    });
    eprintln!("phoenix-server: recovered: {r}");
    // The tables recovery did not need are loading in the background: say so
    // once they are in, and which of them could not be read.
    let engine = server.engine.read().clone();
    if let Some(engine) = engine.filter(|_| r.segments_loaded_at_open < r.segments_total) {
        std::thread::spawn(move || {
            eprintln!("phoenix-server: drained: {}", engine.drain_report());
        });
    }
    let _stats = stats_port.map(|p| {
        let listener = StatsListener::start(p).unwrap_or_else(|e| {
            eprintln!("cannot listen on stats port {p}: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "phoenix-server: serving metrics on http://127.0.0.1:{}/",
            listener.port
        );
        listener
    });
    eprintln!("phoenix-server: press Enter (or close stdin) to shut down gracefully");

    // Block until stdin yields a line or closes.
    let stdin = std::io::stdin();
    let _ = stdin.lock().lines().next();

    eprintln!("phoenix-server: shutting down (checkpointing)…");
    if let Some(engine) = server.stop() {
        if let Err(e) = engine.checkpoint() {
            eprintln!("checkpoint failed: {e}");
        }
    }
    eprintln!("phoenix-server: bye");
}
