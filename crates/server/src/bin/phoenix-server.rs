//! Standalone Phoenix database server.
//!
//! ```text
//! phoenix-server [--data <dir>] [--port <port>] [--buffered] [--stats-port <port>]
//!                [--max-sessions <n>]
//! ```
//!
//! Takes the given port, announces it, opens (and crash-recovers) the
//! database in the data directory, then serves until SIGINT/EOF on stdin:
//! clients that connect while recovery runs wait in the listen backlog
//! instead of being refused. A checkpoint is taken on orderly shutdown.
//! Availability after a crash comes from restarting this process on the
//! same directory: recovery replays the log, and Phoenix clients reconnect
//! and reinstall their sessions. There is no standby to fail over to.
//!
//! * `--buffered` leaves log flushing to the OS instead of an fsync per
//!   commit.
//! * `--stats-port` starts a second listener serving Prometheus-style
//!   metrics text over HTTP on that port (`curl localhost:<port>` to
//!   scrape).
//! * `--max-sessions` caps open sessions: a login past the cap is refused
//!   with a retryable `Busy` until a session closes.

use std::io::{BufRead, Write};

use phoenix_engine::{Engine, EngineConfig};
use phoenix_server::{RunningServer, StatsListener};
use phoenix_storage::db::Durability;

fn main() {
    let mut data_dir = std::path::PathBuf::from("./phoenix-data");
    let mut port: u16 = 54321;
    let mut stats_port: Option<u16> = None;
    let mut durability = Durability::Fsync;
    let mut max_sessions: Option<usize> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        match flag {
            "--data" => data_dir = value(&mut args, flag),
            "--port" => port = value(&mut args, flag),
            "--buffered" => durability = Durability::Buffered,
            "--max-sessions" => max_sessions = Some(value(&mut args, flag)),
            "--stats-port" => stats_port = Some(value(&mut args, flag)),
            "--help" | "-h" => {
                eprintln!(
                    "usage: phoenix-server [--data <dir>] [--port <port>] [--buffered] \
                     [--stats-port <port>] [--max-sessions <n>]\n\
                     \x20 max-sessions <n>: a login past n open sessions is refused \
                     with a retryable Busy until one closes"
                );
                return;
            }
            other => usage_error(&format!("unknown argument '{other}'")),
        }
    }

    let config = EngineConfig {
        durability,
        max_sessions,
        ..EngineConfig::default()
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

/// A bad command line ends the process with status 2 and one line on
/// standard error — never a panic.
fn usage_error(message: &str) -> ! {
    eprintln!("{message} (try --help)");
    std::process::exit(2);
}

/// The value after `flag`, parsed.
fn value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let Some(raw) = args.next() else {
        usage_error(&format!("{flag} needs a value"))
    };
    raw.parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag}: bad value '{raw}'")))
}
