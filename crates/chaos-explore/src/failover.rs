//! The failover sweep: primary *loss* (not restart) at every enumerated
//! workload instant, masked by WAL-shipping replication and standby
//! promotion instead of local recovery.
//!
//! Reuses the canonical explorer pipeline: the clean (no-fault,
//! single-server) run is still the baseline, because failover must be
//! *fully* masked — a workload that rides a kill-primary/promote phase has
//! to produce byte-identical replies, cursor rows, and final tables.
//!
//! Each case runs the canonical workload against a semi-sync primary with
//! a live standby. The injected fault kills the primary exactly once at the
//! scheduled visit; the failover supervisor then crashes the harness,
//! acknowledges the chaos halt, and **promotes the standby** — the primary
//! never comes back. The Phoenix session's server list carries both
//! addresses, so recovery rotates onto the promoted standby and the
//! workload continues there.
//!
//! On top of the kill-anywhere cases, the sweep injects replication-layer
//! faults (`repl.ship`, `repl.apply`, `repl.promote` — transient I/O
//! errors, torn standby batches, failed promotions) combined with a fixed
//! mid-workload kill, so re-attach/re-ship and promote-retry paths face a
//! real failover too.
//!
//! Semi-sync is the only mode swept: under async commit, the tail between
//! the primary's fsync and the standby's receive is *legitimately* lost on
//! server loss, so "no acknowledged write lost" only holds semi-sync.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use phoenix_chaos as chaos;
use phoenix_chaos::{FaultSpec, Visit};
use phoenix_core::PhoenixConnection;
use phoenix_driver::Environment;
use phoenix_engine::{CommitMode, EngineConfig};
use phoenix_repl::{Shipper, Standby, StandbyConfig};
use phoenix_server::ServerHarness;

use crate::{
    canonical_workload, enumerate_cases, explorer_config, explorer_engine_config, run_clean,
    seed_workload, select_cases, watch_case, CaseOutcome, CrashCase, ExploreOptions, Report,
    Violation,
};

/// Engine tuning for failover cases: the canonical explorer config plus
/// semi-sync commit (see the module docs for why async is out of scope).
/// Used for the primary *and* for the standby's promoted engine.
pub fn failover_engine_config() -> EngineConfig {
    EngineConfig {
        commit_mode: CommitMode::SemiSync,
        ..explorer_engine_config()
    }
}

/// One failover case: the kill (a [`CrashCase`] against the primary) plus
/// an optional replication-layer fault injected earlier in the same run.
#[derive(Debug, Clone)]
pub struct FailoverCase {
    /// Where the primary dies for good.
    pub kill: CrashCase,
    /// Optional `(point, nth, spec)` replication fault riding along.
    pub repl: Option<(&'static str, u64, FaultSpec)>,
}

impl FailoverCase {
    /// Stable human-readable id, used in violation reports.
    pub fn id(&self) -> String {
        match &self.repl {
            None => format!("failover:{}", self.kill.id()),
            Some((point, nth, spec)) => format!(
                "failover:{} + {}@{} [{}]",
                self.kill.id(),
                point,
                nth,
                spec.as_str()
            ),
        }
    }
}

/// Connect a Phoenix session over the `[primary, standby]` server list,
/// retrying through crash/promotion windows (a scheduled kill can land
/// mid-login; an unpromoted standby answers `Fenced`, which the retry
/// rides out).
fn connect_multi_retry(addrs: &[String], user: &str) -> PhoenixConnection {
    let refs: Vec<&str> = addrs.iter().map(|a| a.as_str()).collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        match PhoenixConnection::connect_multi(
            &Environment::new(),
            &refs,
            user,
            "test",
            explorer_config(),
        ) {
            Ok(pc) => return pc,
            Err(e) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "failover connect never succeeded: {e}"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Spawn the failover supervisor: when the scheduled kill halts the
/// primary, crash the harness (sever + drop, no restart), acknowledge the
/// chaos halt, and promote the standby — retrying promotion, since a
/// `repl.promote` fault may be scheduled to fail the first attempt.
/// Returns `true` from its join handle iff a failover was performed.
fn spawn_failover_supervisor(
    harness: Arc<Mutex<ServerHarness>>,
    standby: Arc<Standby>,
    promoted: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
) -> JoinHandle<bool> {
    std::thread::spawn(move || loop {
        if chaos::crash_requested() {
            {
                let mut h = harness.lock().unwrap();
                h.crash().expect("supervisor crash of primary");
                chaos::acknowledge_crash();
            }
            // The primary is gone for good: promote the standby. A
            // scheduled repl.promote fault can fail an attempt; keep
            // trying — an operator would.
            loop {
                match standby.promote(0) {
                    Ok(_) => break,
                    Err(e) => {
                        if e.to_string().contains("already promoted") {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            }
            promoted.store(true, Ordering::SeqCst);
            return true;
        }
        if stop.load(Ordering::Relaxed) {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    })
}

/// Run the canonical workload under one failover case. The primary dies at
/// the scheduled visit and never returns; the standby takes over.
pub fn run_failover_case(case: &FailoverCase) -> CaseOutcome {
    let pdir = crate::fresh_dir("failover-p");
    let sdir = crate::fresh_dir("failover-s");
    let harness = Arc::new(Mutex::new(
        ServerHarness::start(&pdir, failover_engine_config()).unwrap(),
    ));
    let standby = Arc::new(
        Standby::start(
            &sdir,
            StandbyConfig {
                engine_config: failover_engine_config(),
                port: 0,
                auto_promote_after: None,
            },
        )
        .unwrap(),
    );
    let addrs = {
        let h = harness.lock().unwrap();
        vec![h.addr(), standby.addr()]
    };
    let shipper = {
        let h = harness.lock().unwrap();
        Shipper::start(h.shared_engine().unwrap(), standby.addr())
    };

    let mut pc = connect_multi_retry(&addrs, "chaos");
    seed_workload(&mut pc).expect("seed");
    // Let the standby absorb the seed before arming, so visits during
    // catch-up are not crash candidates (mirrors run_clean's arming point).
    {
        let target = harness
            .lock()
            .unwrap()
            .with_engine(|e| e.last_gsn())
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while standby.applied_gsn() < target {
            assert!(
                std::time::Instant::now() < deadline,
                "standby never caught up with the seed"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    let mut schedule = chaos::Schedule::new().rule(
        chaos::Target::Point {
            point: case.kill.point,
            nth: case.kill.nth,
        },
        case.kill.spec,
    );
    if let Some((point, nth, spec)) = case.repl {
        schedule = schedule.rule(chaos::Target::Point { point, nth }, spec);
    }
    let guard = chaos::arm(schedule);
    let stop = Arc::new(AtomicBool::new(false));
    let promoted = Arc::new(AtomicBool::new(false));
    let supervisor = spawn_failover_supervisor(
        Arc::clone(&harness),
        Arc::clone(&standby),
        Arc::clone(&promoted),
        Arc::clone(&stop),
    );

    let output = {
        let churn_addrs = addrs.clone();
        let churn_connect = move || connect_multi_retry(&churn_addrs, "churn");
        canonical_workload(&mut pc, &churn_connect).map_err(|e| e.to_string())
    };

    stop.store(true, Ordering::Relaxed);
    let crashed = supervisor.join().expect("supervisor join");
    let fired = !guard.fired().is_empty();
    drop(guard);

    // Audit secondary indexes on whichever incarnation ended up serving —
    // a promoted standby must have replayed the index DDL and maintenance
    // into a consistent catalog just like a restarted primary.
    let index_check = if promoted.load(Ordering::SeqCst) {
        standby
            .with_engine(|e| e.verify_indexes())
            .unwrap_or_else(|| Err("no live engine for index audit".to_string()))
    } else {
        let h = harness.lock().unwrap();
        h.with_engine(|e| e.verify_indexes())
            .unwrap_or_else(|| Err("no live engine for index audit".to_string()))
    };

    let stats = pc.stats().clone();
    pc.close();
    drop(shipper);
    harness.lock().unwrap().shutdown();
    if let Some(standby) = Arc::into_inner(standby) {
        standby.stop();
    }
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&sdir);

    CaseOutcome {
        output,
        fired,
        crashed,
        index_check,
        stats,
    }
}

/// Enumerate the failover cases for a clean-run `trace`: every canonical
/// crash candidate becomes a kill-the-primary case, plus replication-layer
/// fault variants anchored to a fixed mid-trace kill.
pub fn enumerate_failover_cases(trace: &[Visit], torn_writes: bool) -> Vec<FailoverCase> {
    let mut cases: Vec<FailoverCase> = enumerate_cases(trace, torn_writes)
        .into_iter()
        .map(|kill| FailoverCase { kill, repl: None })
        .collect();

    // Anchor kill for the repl-fault variants: a mid-trace WAL append, so
    // replication traffic exists both before and after the injected fault.
    let appends: Vec<&Visit> = trace.iter().filter(|v| v.point == "wal.append").collect();
    if let Some(anchor) = appends.get(appends.len() / 2) {
        let kill = CrashCase {
            point: anchor.point,
            nth: anchor.nth,
            spec: FaultSpec::CrashNow,
        };
        let repl_faults: &[(&'static str, u64, FaultSpec)] = &[
            // Shipper stream dies mid-ship: reconnect + re-attach + re-ship.
            ("repl.ship", 1, FaultSpec::IoError),
            ("repl.ship", 3, FaultSpec::IoError),
            // Standby refuses / tears a batch: nothing acked, duplicate
            // GSNs skipped on the re-ship.
            ("repl.apply", 1, FaultSpec::IoError),
            ("repl.apply", 2, FaultSpec::TornWrite { n_bytes: 1 }),
            ("repl.apply", 4, FaultSpec::IoError),
            // First promotion attempt fails; the supervisor retries.
            ("repl.promote", 1, FaultSpec::IoError),
        ];
        for &(point, nth, spec) in repl_faults {
            cases.push(FailoverCase {
                kill: kill.clone(),
                repl: Some((point, nth, spec)),
            });
        }
    }
    cases
}

/// Run the failover sweep: clean single-server baseline, failover-case
/// enumeration, budgeted kill-and-promote sweep, verification against the
/// baseline. Zero violations means server *loss* is as invisible to the
/// application as the server *crashes* the canonical sweep covers.
pub fn explore_failover(opts: &ExploreOptions) -> Report {
    let (baseline, trace) = run_clean();
    let all = enumerate_failover_cases(&trace, opts.torn_writes);
    let enumerated = all.len();
    // Reuse the canonical budget selection over the kill cases by index:
    // wrap each case in its position, select, then map back.
    let selected: Vec<FailoverCase> = {
        let kills: Vec<CrashCase> = all
            .iter()
            .enumerate()
            .map(|(i, c)| CrashCase {
                point: c.kill.point,
                nth: i as u64, // stand-in key for selection only
                spec: c.kill.spec,
            })
            .collect();
        select_cases(kills, opts.budget, opts.seed)
            .into_iter()
            .map(|k| all[k.nth as usize].clone())
            .collect()
    };

    let mut report = Report {
        enumerated,
        executed: 0,
        crashed: 0,
        replayed: 0,
        violations: Vec::new(),
    };
    for (i, case) in selected.iter().enumerate() {
        let watchdog = watch_case(opts, case.id());
        let outcome = run_failover_case(case);
        drop(watchdog);
        report.executed += 1;
        if outcome.crashed {
            report.crashed += 1;
        }
        if outcome.stats.replied_from_status > 0 {
            report.replayed += 1;
        }
        let mut details = match &outcome.output {
            Ok(out) => crate::verify(&baseline, out),
            Err(e) => vec![format!("workload failed: {e}")],
        };
        if !outcome.fired {
            details.push("scheduled fault never fired".to_string());
        }
        if !outcome.crashed {
            details.push("the primary was never killed — no failover happened".to_string());
        }
        if opts.verbose {
            eprintln!(
                "[{}/{}] {} crashed={} recoveries={} replayed={} {}",
                i + 1,
                selected.len(),
                case.id(),
                outcome.crashed,
                outcome.stats.recoveries,
                outcome.stats.replied_from_status,
                if details.is_empty() {
                    "ok"
                } else {
                    "VIOLATION"
                },
            );
        }
        if !details.is_empty() {
            report.violations.push(Violation {
                case_id: case.id(),
                seed: opts.seed,
                details,
            });
        }
    }
    report
}
