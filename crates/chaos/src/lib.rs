#![warn(missing_docs)]

//! # phoenix-chaos
//!
//! Deterministic fault injection for the Phoenix database stack.
//!
//! The paper's headline guarantee is that a client session survives a server
//! crash at **any** instant. Hand-written crash tests only exercise the
//! instants someone thought of; this crate makes the instants enumerable.
//! Named *fault points* are compiled into the stack's hot paths (WAL append,
//! fsync, checkpoint write, snapshot publish, wire frame read/write, server
//! reply send). Each point costs **one relaxed atomic load** when the
//! subsystem is disarmed — cheap enough to ship in release builds and keep
//! under the benchmarks — and, when armed, consults a deterministic
//! [`Schedule`] that can fire [`FaultSpec::CrashNow`],
//! [`FaultSpec::TornWrite`], [`FaultSpec::IoError`] or [`FaultSpec::Delay`]
//! at the k-th visit to a point.
//!
//! ## Determinism contract
//!
//! * No wall-clock anywhere: rules are keyed by *visit counts*, and
//!   seed-driven selection uses the crate's own [`rng::XorShift64`].
//! * With a single sequential client, the global visit order is a pure
//!   function of the workload: instrumentation sites fire *after* blocking
//!   reads complete and *before* writes start, so there is no
//!   read-side/write-side race on the ordering.
//! * A schedule plus a workload therefore reproduces the same fault at the
//!   same instant, every run — violation reports print the `(seed, point,
//!   nth)` triple and that triple *is* the reproducer.
//!
//! ## Crash semantics
//!
//! A fatal spec ([`FaultSpec::is_fatal`]) simulates process death, not a
//! transient error, so firing one flips a sticky **halted** flag:
//!
//! * every durable-write point ([`durable_fault`]) fails from then on — a
//!   dead process writes no more bytes to disk;
//! * the server refuses to send replies ([`halted`] is checked before every
//!   reply) — a dead process emits no more frames;
//! * [`crash_requested`] turns true so a supervisor (e.g. the explorer's
//!   harness thread) can sever sockets, drop the engine, and restart it,
//!   then call [`acknowledge_crash`] to lift the halt for the next
//!   incarnation.
//!
//! ## Usage
//!
//! ```
//! use phoenix_chaos as chaos;
//!
//! // Arm a schedule: crash at the 2nd WAL append.
//! let _guard = chaos::arm(chaos::Schedule::new().crash_at("wal.append", 2));
//! // ... run the workload; the fault fires deterministically ...
//! assert!(!chaos::crash_requested()); // (nothing visited in this doctest)
//! // Dropping the guard disarms and resets all chaos state.
//! ```
//!
//! Arming is process-global and serialized: [`arm`] blocks until any other
//! armed session's guard drops, so concurrent `#[test]`s cannot interleave
//! schedules.

pub mod rng;
pub mod schedule;

pub use schedule::{FaultAction, FaultSpec, Fired, Rule, Schedule, Target, Visit};

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use phoenix_obs::{journal, registry, EventKind};

/// Fast-path switch: a single relaxed load of this is the entire cost of a
/// fault point while disarmed.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Sticky "the process died" flag; see the crate docs for its semantics.
static HALTED: AtomicBool = AtomicBool::new(false);
/// Set together with `HALTED`; cleared by [`acknowledge_crash`]. The
/// supervisor polls this to know it must sever/restart the server.
static CRASH_REQUESTED: AtomicBool = AtomicBool::new(false);

struct Inner {
    schedule: Schedule,
    per_point: HashMap<&'static str, u64>,
    global: u64,
    trace: Option<Vec<Visit>>,
    fired: Vec<Fired>,
}

impl Inner {
    fn reset(&mut self) {
        self.schedule = Schedule::new();
        self.per_point.clear();
        self.global = 0;
        self.trace = None;
        self.fired.clear();
    }
}

fn inner() -> &'static Mutex<Inner> {
    static INNER: OnceLock<Mutex<Inner>> = OnceLock::new();
    INNER.get_or_init(|| {
        Mutex::new(Inner {
            schedule: Schedule::new(),
            per_point: HashMap::new(),
            global: 0,
            trace: None,
            fired: Vec::new(),
        })
    })
}

fn lock_inner() -> MutexGuard<'static, Inner> {
    inner().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Serializes chaos sessions: held (inside the [`ChaosGuard`]) from [`arm`]
/// until the guard drops.
fn session_mutex() -> &'static Mutex<()> {
    static SESSION: OnceLock<Mutex<()>> = OnceLock::new();
    SESSION.get_or_init(|| Mutex::new(()))
}

/// Holds the armed chaos session. Dropping it disarms the subsystem and
/// resets every counter, flag and recorded trace, then releases the global
/// session lock so another test can arm.
pub struct ChaosGuard {
    _session: MutexGuard<'static, ()>,
}

impl ChaosGuard {
    /// The visits recorded so far (empty unless armed with
    /// [`arm_traced`]).
    pub fn trace(&self) -> Vec<Visit> {
        lock_inner().trace.clone().unwrap_or_default()
    }

    /// The faults fired so far in this session.
    pub fn fired(&self) -> Vec<Fired> {
        lock_inner().fired.clone()
    }
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::SeqCst);
        HALTED.store(false, Ordering::SeqCst);
        CRASH_REQUESTED.store(false, Ordering::SeqCst);
        lock_inner().reset();
    }
}

fn arm_with(schedule: Schedule, traced: bool) -> ChaosGuard {
    let session = session_mutex()
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    {
        let mut inner = lock_inner();
        inner.reset();
        inner.schedule = schedule;
        if traced {
            inner.trace = Some(Vec::new());
        }
    }
    HALTED.store(false, Ordering::SeqCst);
    CRASH_REQUESTED.store(false, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    ChaosGuard { _session: session }
}

/// Arm the subsystem with `schedule`. Blocks until no other chaos session is
/// active (sessions are process-global). Disarm by dropping the returned
/// guard.
pub fn arm(schedule: Schedule) -> ChaosGuard {
    arm_with(schedule, false)
}

/// Arm with `schedule` *and* record every fault-point visit; read the trace
/// from [`ChaosGuard::trace`]. Arming with [`Schedule::new`] gives the pure
/// observation mode the explorer uses for its clean run.
pub fn arm_traced(schedule: Schedule) -> ChaosGuard {
    arm_with(schedule, true)
}

/// Is a chaos session currently armed?
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Has a fatal fault fired, simulating process death? While true, durable
/// points fail and the server must not let any reply escape.
pub fn halted() -> bool {
    ARMED.load(Ordering::Relaxed) && HALTED.load(Ordering::Relaxed)
}

/// Has a fatal fault fired that a supervisor has not yet acknowledged?
pub fn crash_requested() -> bool {
    ARMED.load(Ordering::Relaxed) && CRASH_REQUESTED.load(Ordering::Relaxed)
}

/// Supervisor acknowledgement: the crashed server incarnation has been torn
/// down, lift the halt so the *next* incarnation can write and reply again.
pub fn acknowledge_crash() {
    HALTED.store(false, Ordering::SeqCst);
    CRASH_REQUESTED.store(false, Ordering::SeqCst);
}

/// The `io::Error` every injected failure surfaces as. The message carries
/// the point name so test failures and logs are self-explanatory.
pub fn injected_error(point: &str) -> io::Error {
    io::Error::other(format!("phoenix-chaos: injected fault at {point}"))
}

/// Visit the fault point `point` and return the action the site must carry
/// out. Disarmed cost: one relaxed atomic load.
///
/// Sites that perform writes must call this *before* writing; sites that
/// perform blocking reads must call it *after* the read completes (see the
/// crate docs' determinism contract).
pub fn fault(point: &'static str) -> FaultAction {
    if !ARMED.load(Ordering::Relaxed) {
        return FaultAction::Continue;
    }
    fault_slow(point)
}

/// Like [`fault`], for durable-write points (WAL, checkpoint): once the
/// subsystem is [`halted`], every call fails with [`FaultAction::IoError`] —
/// a dead process writes no more bytes to disk, even from request threads
/// still in flight when the crash fired.
pub fn durable_fault(point: &'static str) -> FaultAction {
    if !ARMED.load(Ordering::Relaxed) {
        return FaultAction::Continue;
    }
    if HALTED.load(Ordering::Relaxed) {
        return FaultAction::IoError;
    }
    fault_slow(point)
}

/// [`durable_fault`] for sites without torn-write support: `Continue`/
/// `Delay` proceed, anything else becomes an `Err` carrying
/// [`injected_error`].
pub fn check_durable(point: &'static str) -> io::Result<()> {
    match durable_fault(point) {
        FaultAction::Continue => Ok(()),
        FaultAction::Delay(d) => {
            std::thread::sleep(d);
            Ok(())
        }
        FaultAction::Crash | FaultAction::Torn(_) | FaultAction::IoError => {
            Err(injected_error(point))
        }
    }
}

#[cold]
fn fault_slow(point: &'static str) -> FaultAction {
    let spec = {
        let mut inner = lock_inner();
        inner.global += 1;
        let global = inner.global;
        let nth = {
            let c = inner.per_point.entry(point).or_insert(0);
            *c += 1;
            *c
        };
        if let Some(trace) = inner.trace.as_mut() {
            trace.push(Visit { point, nth, global });
        }
        match inner.schedule.take_match(point, nth, global) {
            Some(spec) => {
                inner.fired.push(Fired {
                    point,
                    nth,
                    global,
                    spec,
                });
                spec
            }
            None => return FaultAction::Continue,
        }
    };
    // Emission happens outside the inner lock: the journal and registry
    // take their own locks and firings are rare.
    faults_injected(point).inc();
    journal().record(
        "chaos",
        EventKind::FaultInjected,
        format!("{} at {point}", spec.as_str()),
    );
    if spec.is_fatal() {
        HALTED.store(true, Ordering::SeqCst);
        CRASH_REQUESTED.store(true, Ordering::SeqCst);
    }
    spec.into()
}

/// The `phoenix_faults_injected_total{point=...}` counter for one point.
fn faults_injected(point: &'static str) -> std::sync::Arc<phoenix_obs::Counter> {
    registry().counter_with(
        "phoenix_faults_injected_total",
        "Faults fired by phoenix-chaos, by fault point",
        &[("point", point)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_points_do_nothing() {
        // Hold the session lock a guard would hold, so no sibling test can
        // arm meanwhile: every call is the fast path.
        let _session = session_mutex()
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        assert_eq!(fault("wal.append"), FaultAction::Continue);
        assert_eq!(durable_fault("wal.append"), FaultAction::Continue);
        assert!(check_durable("wal.fsync").is_ok());
        assert!(!armed());
        assert!(!halted());
        assert!(!crash_requested());
    }

    #[test]
    fn per_point_counting_and_firing() {
        let guard = arm(Schedule::new().crash_at("p.a", 2).io_error_at("p.b", 1));
        assert_eq!(fault("p.a"), FaultAction::Continue); // visit 1
        assert_eq!(fault("p.b"), FaultAction::IoError); // fires
        assert!(!halted(), "IoError is transient, not fatal");
        assert_eq!(fault("p.a"), FaultAction::Crash); // visit 2 fires
        assert!(halted());
        assert!(crash_requested());
        let fired = guard.fired();
        assert_eq!(fired.len(), 2);
        assert_eq!(fired[1].point, "p.a");
        assert_eq!(fired[1].nth, 2);
        assert_eq!(fired[1].global, 3);
        drop(guard);
        assert!(!armed());
        assert!(!crash_requested());
    }

    #[test]
    fn halt_blocks_durable_points_until_acknowledged() {
        let _guard = arm(Schedule::new().crash_at("w", 1));
        assert_eq!(fault("w"), FaultAction::Crash);
        // Every durable point now fails, without consuming schedule state.
        assert_eq!(durable_fault("x"), FaultAction::IoError);
        assert!(check_durable("y").is_err());
        // Non-durable points keep counting normally.
        assert_eq!(fault("z"), FaultAction::Continue);
        acknowledge_crash();
        assert!(!halted());
        assert_eq!(durable_fault("x"), FaultAction::Continue);
    }

    #[test]
    fn trace_records_every_visit_in_order() {
        let guard = arm_traced(Schedule::new());
        fault("a");
        fault("b");
        fault("a");
        durable_fault("c");
        let trace = guard.trace();
        assert_eq!(
            trace,
            vec![
                Visit {
                    point: "a",
                    nth: 1,
                    global: 1
                },
                Visit {
                    point: "b",
                    nth: 1,
                    global: 2
                },
                Visit {
                    point: "a",
                    nth: 2,
                    global: 3
                },
                Visit {
                    point: "c",
                    nth: 1,
                    global: 4
                },
            ]
        );
    }

    #[test]
    fn torn_write_action_carries_byte_count() {
        let _guard = arm(Schedule::new().torn_at("t", 1, 5));
        assert_eq!(fault("t"), FaultAction::Torn(5));
        assert!(halted(), "a torn write is process death");
    }

    #[test]
    fn delay_action_sleeps_and_continues() {
        let _guard = arm(Schedule::new().delay_at("d", 1, 1));
        let start = std::time::Instant::now();
        assert!(check_durable("d").is_ok());
        assert!(start.elapsed() >= std::time::Duration::from_millis(1));
    }

    #[test]
    fn global_visit_rules_fire_across_points() {
        let guard = arm(Schedule::new().crash_at_global(3));
        assert_eq!(fault("a"), FaultAction::Continue);
        assert_eq!(fault("b"), FaultAction::Continue);
        assert_eq!(fault("c"), FaultAction::Crash);
        assert_eq!(guard.fired()[0].global, 3);
    }

    #[test]
    fn guard_drop_resets_counters() {
        {
            let _g = arm(Schedule::new());
            fault("reset.me");
            fault("reset.me");
        }
        let guard = arm_traced(Schedule::new());
        fault("reset.me");
        assert_eq!(guard.trace()[0].nth, 1, "counters reset between sessions");
    }

    #[test]
    fn fired_faults_emit_journal_and_metrics() {
        let before = journal().events_of(EventKind::FaultInjected).len();
        let counter = faults_injected("emit.test");
        let count_before = counter.get();
        {
            let _g = arm(Schedule::new().io_error_at("emit.test", 1));
            assert_eq!(fault("emit.test"), FaultAction::IoError);
        }
        assert_eq!(counter.get(), count_before + 1);
        let events = journal().events_of(EventKind::FaultInjected);
        assert_eq!(events.len(), before + 1);
        assert!(events.last().unwrap().detail.contains("emit.test"));
    }

    #[test]
    fn injected_error_names_the_point() {
        let e = injected_error("wal.append");
        assert!(e.to_string().contains("wal.append"));
        assert!(e.to_string().contains("phoenix-chaos"));
    }
}
