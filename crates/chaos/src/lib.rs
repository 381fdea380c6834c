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
//! reply send). A visit from a thread outside every plan costs **one
//! thread-local read** — cheap enough to ship in release builds and keep
//! under the benchmarks. A visit from a thread inside a [`FaultPlan`]
//! consults the plan's deterministic [`Schedule`], which can fire
//! [`FaultSpec::CrashNow`], [`FaultSpec::TornWrite`], [`FaultSpec::IoError`]
//! or [`FaultSpec::Delay`] at the k-th visit to a point.
//!
//! ## Whose visits a plan counts
//!
//! [`arm`] creates a plan and enters it on the calling thread until the
//! returned [`ChaosGuard`] drops (on unwind too). A thread hands its plan to
//! the threads it spawns in one [`Scope`] — [`Scope::current`], then
//! [`Scope::enter`] on the new thread — together with its observability
//! instance ([`phoenix_obs::Obs`]): a server started inside a plan serves
//! inside it, and counts into the instance it was started in. Two tests
//! never see each other's schedule, counters, halt or metrics, so armed
//! tests run in parallel.
//!
//! ## Determinism contract
//!
//! * No wall-clock anywhere: rules are keyed by *visit counts*, and
//!   seed-driven selection uses the crate's own [`rng::XorShift64`].
//! * With a single sequential client, the plan's visit order is a pure
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
//! transient error, so firing one flips the plan's sticky **halted** flag:
//!
//! * every durable-write point ([`durable_fault`]) visited inside the plan
//!   fails from then on — a dead process writes no more bytes to disk;
//! * the server refuses to send replies ([`halted`] is checked before every
//!   reply) — a dead process emits no more frames;
//! * [`FaultPlan::crash_requested`] turns true so a supervisor (e.g. the
//!   explorer's harness thread) can sever sockets, drop the engine, and
//!   restart it, then call [`FaultPlan::acknowledge_crash`] to lift the halt
//!   for the next incarnation.
//!
//! ## Usage
//!
//! ```
//! use phoenix_chaos as chaos;
//!
//! // Arm a schedule: crash at the 2nd WAL append of this thread's work.
//! let guard = chaos::arm(chaos::Schedule::new().crash_at("wal.append", 2));
//! // ... run the workload; the fault fires deterministically ...
//! assert!(!guard.crash_requested()); // (nothing visited in this doctest)
//! // Dropping the guard leaves the plan and disarms it.
//! ```

pub mod rng;
pub mod schedule;

pub use schedule::{FaultAction, FaultSpec, Fired, Rule, Schedule, Target, Visit};

use std::cell::RefCell;
use std::collections::HashMap;
use std::io;
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use phoenix_obs::{EventKind, Obs};

thread_local! {
    /// The plan this thread's visits count toward, if any.
    static CURRENT: RefCell<Option<Arc<FaultPlan>>> = const { RefCell::new(None) };
}

/// One test's fault schedule and everything its visits record: visit
/// counters, the optional trace, the faults fired, and the halt. Created by
/// [`arm`]; shared by every thread that enters it (see [`Scope`]).
#[derive(Default)]
pub struct FaultPlan {
    state: Mutex<PlanState>,
    /// Sticky "the process died" flag, set by a fatal fault and lifted by
    /// [`FaultPlan::acknowledge_crash`]; see the crate docs.
    halted: AtomicBool,
}

#[derive(Default)]
struct PlanState {
    schedule: Schedule,
    per_point: HashMap<&'static str, u64>,
    global: u64,
    trace: Option<Vec<Visit>>,
    fired: Vec<Fired>,
}

impl FaultPlan {
    fn lock(&self) -> MutexGuard<'_, PlanState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Start over with `schedule`: counters, trace and fired list clear and
    /// the halt lifts. A test whose setup must not count arms an empty
    /// schedule, starts its server inside the plan, then resets it.
    pub fn reset(&self, schedule: Schedule) {
        let mut state = self.lock();
        let trace = state.trace.as_ref().map(|_| Vec::new());
        *state = PlanState {
            schedule,
            trace,
            ..PlanState::default()
        };
        self.acknowledge_crash();
    }

    /// The visits recorded so far (empty unless armed with [`arm_traced`]).
    pub fn trace(&self) -> Vec<Visit> {
        self.lock().trace.clone().unwrap_or_default()
    }

    /// The faults fired so far.
    pub fn fired(&self) -> Vec<Fired> {
        self.lock().fired.clone()
    }

    /// Has a fatal fault fired, simulating process death? While true,
    /// durable points inside the plan fail and its server lets no reply
    /// escape.
    pub fn halted(&self) -> bool {
        self.halted.load(Ordering::Relaxed)
    }

    /// Has a fatal fault fired that a supervisor has not yet acknowledged?
    /// The supervisor's name for [`FaultPlan::halted`].
    pub fn crash_requested(&self) -> bool {
        self.halted()
    }

    /// Supervisor acknowledgement: the crashed server incarnation has been
    /// torn down, lift the halt so the *next* incarnation can write and
    /// reply again.
    pub fn acknowledge_crash(&self) {
        self.halted.store(false, Ordering::SeqCst);
    }

    /// Count one visit to `point` and fire the rule it matches, if any.
    #[cold]
    fn visit(&self, point: &'static str) -> FaultAction {
        let spec = {
            let mut state = self.lock();
            state.global += 1;
            let global = state.global;
            let nth = {
                let c = state.per_point.entry(point).or_insert(0);
                *c += 1;
                *c
            };
            if let Some(trace) = state.trace.as_mut() {
                trace.push(Visit { point, nth, global });
            }
            match state.schedule.take_match(point, nth, global) {
                Some(spec) => {
                    state.fired.push(Fired {
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
        // Emission happens outside the plan's lock: the journal and registry
        // take their own locks and firings are rare. They go to the
        // visiting thread's instance.
        let obs = phoenix_obs::current();
        faults_injected(&obs, point).inc();
        obs.journal().record(
            "chaos",
            EventKind::FaultInjected,
            format!("{} at {point}", spec.as_str()),
        );
        if spec.is_fatal() {
            self.halted.store(true, Ordering::SeqCst);
        }
        spec.into()
    }
}

/// The calling thread's membership in a plan, from entering until drop,
/// which restores the thread's previous plan — on unwind too.
#[must_use = "the thread leaves the plan when this is dropped"]
struct Entered {
    previous: Option<Arc<FaultPlan>>,
    /// Membership is per thread: the guard must drop where it was made.
    _thread: PhantomData<*const ()>,
}

impl Drop for Entered {
    fn drop(&mut self) {
        CURRENT.with(|c| c.replace(self.previous.take()));
    }
}

/// Make `plan` (or no plan) the one the calling thread's visits count
/// toward until the returned guard drops.
fn enter(plan: Option<Arc<FaultPlan>>) -> Entered {
    Entered {
        previous: CURRENT.with(|c| c.replace(plan)),
        _thread: PhantomData,
    }
}

/// The plan the calling thread is in, if any.
fn current() -> Option<Arc<FaultPlan>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// What a thread hands to the threads it spawns: its fault plan, if any,
/// and its observability instance. A server, its connection threads and
/// every incarnation a harness restarts live in the scope the server was
/// started in.
#[derive(Clone)]
pub struct Scope {
    plan: Option<Arc<FaultPlan>>,
    obs: Arc<Obs>,
}

impl Scope {
    /// The calling thread's plan and instance.
    pub fn current() -> Scope {
        Scope {
            plan: current(),
            obs: phoenix_obs::current(),
        }
    }

    /// The scope's observability instance.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Enter the plan and the instance on the calling thread until the
    /// returned guard drops.
    pub fn enter(self) -> InScope {
        InScope {
            _obs: phoenix_obs::enter(self.obs),
            _plan: enter(self.plan),
        }
    }
}

/// The calling thread's membership in a [`Scope`], until drop.
#[must_use = "the thread leaves the scope when this is dropped"]
pub struct InScope {
    _obs: phoenix_obs::Entered,
    _plan: Entered,
}

/// An armed plan, entered on the thread that armed it; derefs to the
/// [`FaultPlan`]. Dropping it leaves the plan and disarms it, so a server
/// that inherited the plan fires nothing more and is not halted by it.
pub struct ChaosGuard {
    plan: Arc<FaultPlan>,
    _entered: Entered,
}

impl ChaosGuard {
    /// The plan, for a thread that must watch it (a crash supervisor).
    pub fn plan(&self) -> Arc<FaultPlan> {
        Arc::clone(&self.plan)
    }
}

impl Deref for ChaosGuard {
    type Target = FaultPlan;

    fn deref(&self) -> &FaultPlan {
        &self.plan
    }
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        self.plan.lock().schedule = Schedule::new();
        self.plan.acknowledge_crash();
    }
}

fn arm_with(schedule: Schedule, traced: bool) -> ChaosGuard {
    let plan = Arc::new(FaultPlan::default());
    *plan.lock() = PlanState {
        schedule,
        trace: traced.then(Vec::new),
        ..PlanState::default()
    };
    ChaosGuard {
        _entered: enter(Some(Arc::clone(&plan))),
        plan,
    }
}

/// Arm a new plan with `schedule` and enter it on the calling thread.
/// Disarm by dropping the returned guard.
pub fn arm(schedule: Schedule) -> ChaosGuard {
    arm_with(schedule, false)
}

/// Arm with `schedule` *and* record every visit inside the plan; read the
/// trace from [`FaultPlan::trace`]. Arming with [`Schedule::new`] gives the
/// pure observation mode the explorer uses for its clean run.
pub fn arm_traced(schedule: Schedule) -> ChaosGuard {
    arm_with(schedule, true)
}

/// Is the calling thread's plan [halted](FaultPlan::halted)? False outside
/// every plan. The server checks this before every reply.
pub fn halted() -> bool {
    CURRENT.with(|c| c.borrow().as_deref().is_some_and(FaultPlan::halted))
}

/// The `io::Error` every injected failure surfaces as. The message carries
/// the point name so test failures and logs are self-explanatory.
pub fn injected_error(point: &str) -> io::Error {
    io::Error::other(format!("phoenix-chaos: injected fault at {point}"))
}

/// Visit the fault point `point` and return the action the site must carry
/// out. Outside every plan: one thread-local read, then `Continue`.
///
/// Sites that perform writes must call this *before* writing; sites that
/// perform blocking reads must call it *after* the read completes (see the
/// crate docs' determinism contract).
pub fn fault(point: &'static str) -> FaultAction {
    CURRENT.with(|c| match c.borrow().as_deref() {
        None => FaultAction::Continue,
        Some(plan) => plan.visit(point),
    })
}

/// Like [`fault`], for durable-write points (WAL, checkpoint): once the
/// plan is [halted](FaultPlan::halted), every call inside it fails with
/// [`FaultAction::IoError`] — a dead process writes no more bytes to disk,
/// even from request threads still in flight when the crash fired.
pub fn durable_fault(point: &'static str) -> FaultAction {
    CURRENT.with(|c| match c.borrow().as_deref() {
        None => FaultAction::Continue,
        Some(plan) if plan.halted() => FaultAction::IoError,
        Some(plan) => plan.visit(point),
    })
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

/// The `phoenix_faults_injected_total{point=...}` counter for one point.
fn faults_injected(obs: &Obs, point: &'static str) -> Arc<phoenix_obs::Counter> {
    obs.registry().counter_with(
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
        assert!(current().is_none());
        assert_eq!(fault("wal.append"), FaultAction::Continue);
        assert_eq!(durable_fault("wal.append"), FaultAction::Continue);
        assert!(check_durable("wal.fsync").is_ok());
        assert!(!halted());
    }

    #[test]
    fn per_point_counting_and_firing() {
        let guard = arm(Schedule::new().crash_at("p.a", 2).io_error_at("p.b", 1));
        assert_eq!(fault("p.a"), FaultAction::Continue); // visit 1
        assert_eq!(fault("p.b"), FaultAction::IoError); // fires
        assert!(!guard.halted(), "IoError is transient, not fatal");
        assert_eq!(fault("p.a"), FaultAction::Crash); // visit 2 fires
        assert!(halted());
        assert!(guard.crash_requested());
        let fired = guard.fired();
        assert_eq!(fired.len(), 2);
        assert_eq!(fired[1].point, "p.a");
        assert_eq!(fired[1].nth, 2);
        assert_eq!(fired[1].global, 3);
        let plan = guard.plan();
        drop(guard);
        assert!(current().is_none());
        assert!(!plan.crash_requested(), "dropping the guard disarms");
    }

    #[test]
    fn halt_blocks_durable_points_until_acknowledged() {
        let guard = arm(Schedule::new().crash_at("w", 1));
        assert_eq!(fault("w"), FaultAction::Crash);
        // Every durable point now fails, without consuming schedule state.
        assert_eq!(durable_fault("x"), FaultAction::IoError);
        assert!(check_durable("y").is_err());
        // Non-durable points keep counting normally.
        assert_eq!(fault("z"), FaultAction::Continue);
        guard.acknowledge_crash();
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
        let guard = arm(Schedule::new().torn_at("t", 1, 5));
        assert_eq!(fault("t"), FaultAction::Torn(5));
        assert!(guard.halted(), "a torn write is process death");
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
        assert_eq!(guard.trace()[0].nth, 1, "a new plan counts from 1");
        fault("reset.me");
        guard.reset(Schedule::new());
        fault("reset.me");
        assert_eq!(guard.trace().len(), 1, "reset clears the trace");
        assert_eq!(guard.trace()[0].nth, 1, "and the counters");
    }

    #[test]
    fn fired_faults_emit_journal_and_metrics() {
        let obs = Arc::new(Obs::new());
        let _in = phoenix_obs::enter(Arc::clone(&obs));
        {
            let _g = arm(Schedule::new().io_error_at("emit.test", 1));
            assert_eq!(fault("emit.test"), FaultAction::IoError);
        }
        assert_eq!(faults_injected(&obs, "emit.test").get(), 1);
        let events = obs.journal().events_of(EventKind::FaultInjected);
        assert_eq!(events.len(), 1);
        assert!(events[0].detail.contains("emit.test"));
    }

    #[test]
    fn a_plan_is_invisible_to_threads_outside_it() {
        let guard = arm(Schedule::new().crash_at("p", 1));
        let outside = std::thread::spawn(|| fault("p")).join().unwrap();
        assert_eq!(outside, FaultAction::Continue, "a visit outside the plan");
        assert_eq!(fault("p"), FaultAction::Crash, "the plan's own first visit");
        assert_eq!(guard.fired().len(), 1);
    }

    #[test]
    fn an_entered_plan_counts_the_spawned_thread() {
        let guard = arm(Schedule::new().crash_at("q", 2));
        fault("q");
        let scope = Scope::current();
        let inside = std::thread::spawn(move || {
            let _in = scope.enter();
            fault("q")
        });
        assert_eq!(inside.join().unwrap(), FaultAction::Crash);
        assert!(guard.crash_requested());
        // The spawned thread reported the firing to this thread's instance.
        let fired = phoenix_obs::current()
            .journal()
            .events_of(EventKind::FaultInjected);
        assert_eq!(fired.len(), 1);
    }

    #[test]
    fn the_guard_leaves_the_thread_on_unwind() {
        let unwound = std::panic::catch_unwind(|| {
            let _guard = arm(Schedule::new().crash_at("u", 1));
            panic!("test body fails while armed");
        });
        assert!(unwound.is_err());
        assert!(current().is_none());
        assert_eq!(fault("u"), FaultAction::Continue);
    }

    #[test]
    fn injected_error_names_the_point() {
        let e = injected_error("wal.append");
        assert!(e.to_string().contains("wal.append"));
        assert!(e.to_string().contains("phoenix-chaos"));
    }
}
