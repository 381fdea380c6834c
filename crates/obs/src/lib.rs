#![warn(missing_docs)]

//! # phoenix-obs
//!
//! The observability core for the Phoenix database stack: the paper's whole
//! value proposition is *measurable* — normal-operation overhead versus
//! time-to-restore-a-session — and this crate is what turns both into
//! numbers a test or a benchmark harness can assert on.
//!
//! Three pieces, held together by one [`Obs`] value per instance:
//!
//! * [`metrics`] — lock-free [`Counter`], [`Gauge`] and fixed-bucket
//!   log-scale [`Histogram`]. Recording a sample is a **single atomic
//!   `fetch_add`**; no mutex, no rwlock, no allocation anywhere on the hot
//!   path. Each owner (a durable store, an engine, a server, a driver
//!   environment, a Phoenix connection) registers its `Arc` handles once,
//!   when it is built, so steady-state instrumentation never touches the
//!   registry again.
//! * [`mod@registry`] — a [`Registry`] of named (optionally labeled) metric
//!   families with a Prometheus-style text exposition
//!   ([`Registry::render_text`]) and a structured [`StatsSnapshot`] for the
//!   wire.
//! * [`mod@journal`] — a bounded ring-buffer [`Journal`] of timestamped events,
//!   used to record *recovery timelines*: crash detected → reconnect
//!   attempts → session context re-installed → cursors and reply buffers
//!   restored. Events are rare (failures, lifecycle edges), so the journal
//!   trades a short mutex for perfectly ordered, monotonic timestamps.
//!
//! ## Whose metrics an instance reports
//!
//! There is no process-wide registry or journal. A thread is *in* one
//! [`Obs`] at a time: [`current`] returns it, and [`enter`] makes another
//! one current until the returned guard drops. A thread that has entered
//! none gets a fresh instance of its own on first use. Owners take their
//! handles from the current instance when they are built, and a server
//! hands its instance to the threads it spawns (with its fault plan, in
//! one `phoenix_chaos::Scope`), so two servers in one process — two tests,
//! or two harnesses of one test — count apart, and each `Stats` reply
//! reports only its own server. The shipped binary is one instance.
//!
//! The crate is dependency-free on purpose: every other crate in the
//! workspace (storage, engine, server, driver, core, bench) links it, so it
//! must sit at the very bottom of the dependency graph, next to std.

pub mod journal;
pub mod metrics;
pub mod registry;
pub mod snapshot;

pub use journal::{Event, EventKind, Journal};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{MetricValue, Registry};
pub use snapshot::StatsSnapshot;

use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One instance's observability: the registry its owners' metrics live in
/// and the journal its events go to. A `Stats` reply or a stats listener
/// reports exactly one of these.
#[derive(Default)]
pub struct Obs {
    registry: Registry,
    journal: Journal,
}

impl Obs {
    /// An empty instance.
    pub fn new() -> Obs {
        Obs::default()
    }

    /// The instance's metric registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The instance's event journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Every metric of the instance and its retained journal, as one
    /// wire-encodable value.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::capture_from(&self.registry, &self.journal)
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs").finish_non_exhaustive()
    }
}

thread_local! {
    /// The instance this thread's owners take their handles from.
    static CURRENT: RefCell<Option<Arc<Obs>>> = const { RefCell::new(None) };
}

/// The instance the calling thread is in. A thread that has entered none
/// is given a fresh one, which stays its instance until it enters another.
pub fn current() -> Arc<Obs> {
    CURRENT.with(|c| Arc::clone(c.borrow_mut().get_or_insert_with(Default::default)))
}

/// The calling thread's membership in an instance, from [`enter`] until
/// drop, which restores the thread's previous instance — on unwind too.
#[must_use = "the thread leaves the instance when this is dropped"]
pub struct Entered {
    previous: Option<Arc<Obs>>,
    /// Membership is per thread: the guard must drop where it was made.
    _thread: PhantomData<*const ()>,
}

impl Drop for Entered {
    fn drop(&mut self) {
        CURRENT.with(|c| c.replace(self.previous.take()));
    }
}

/// Make `obs` the calling thread's instance until the returned guard drops.
/// With [`current`], this is how a thread hands its instance to the threads
/// it spawns.
pub fn enter(obs: Arc<Obs>) -> Entered {
    Entered {
        previous: CURRENT.with(|c| c.replace(Some(obs))),
        _thread: PhantomData,
    }
}

/// Microseconds elapsed since the process-wide observability epoch (the
/// first call to any phoenix-obs timestamp). Monotonic: backed by
/// [`Instant`], never by wall-clock time, so recovery timelines can assert
/// strict ordering even across NTP steps.
pub fn now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Convenience guard that records the elapsed time into a histogram when
/// dropped — the one-liner for latency instrumentation:
///
/// ```
/// # let h = std::sync::Arc::new(phoenix_obs::Histogram::new());
/// let _t = phoenix_obs::Timer::new(&h);
/// // ... the code being timed ...
/// // histogram sample recorded when `_t` drops
/// ```
pub struct Timer<'a> {
    start: Instant,
    histogram: &'a Histogram,
}

impl<'a> Timer<'a> {
    /// Start timing; the sample lands in `histogram` (in microseconds) when
    /// the guard drops.
    pub fn new(histogram: &'a Histogram) -> Timer<'a> {
        Timer {
            start: Instant::now(),
            histogram,
        }
    }
}

impl Drop for Timer<'_> {
    fn drop(&mut self) {
        self.histogram
            .record(self.start.elapsed().as_micros() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_us_is_monotonic() {
        let a = now_us();
        let b = now_us();
        let c = now_us();
        assert!(a <= b && b <= c);
    }

    #[test]
    fn a_thread_is_in_one_instance_until_it_enters_another() {
        let mine = current();
        assert!(Arc::ptr_eq(&mine, &current()), "the default stays put");
        let other = Arc::new(Obs::new());
        {
            let _in = enter(Arc::clone(&other));
            assert!(Arc::ptr_eq(&current(), &other));
            current().registry().counter("entered_total", "t").inc();
        }
        assert!(Arc::ptr_eq(&current(), &mine), "the guard restores");
        assert_eq!(other.snapshot().counter("entered_total"), Some(1));
        assert_eq!(mine.snapshot().counter("entered_total"), None);
        let spawned = std::thread::spawn(current).join().unwrap();
        assert!(!Arc::ptr_eq(&spawned, &mine), "a new thread starts apart");
    }

    #[test]
    fn timer_records_on_drop() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        {
            let _t = Timer::new(&h);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(h.count(), 1);
        // 1 ms sleep must land at or above the ~1024 µs bucket's range.
        assert!(h.snapshot().approx_mean_us() >= 256.0);
    }
}
