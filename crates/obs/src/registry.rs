//! A registry of named metric families: one per [`crate::Obs`] instance.
//!
//! The registry's mutex guards *registration and collection only*. The
//! intended pattern — used by every instrumented crate in this workspace —
//! is that an owner registers its struct of `Arc` handles once, when it is
//! built, and keeps it:
//!
//! ```
//! use std::sync::Arc;
//! use phoenix_obs::{Counter, Obs};
//!
//! struct WalMetrics {
//!     appends: Arc<Counter>,
//! }
//!
//! impl WalMetrics {
//!     fn new(obs: &Obs) -> WalMetrics {
//!         WalMetrics {
//!             appends: obs.registry().counter("phoenix_wal_appends_total", "WAL records appended"),
//!         }
//!     }
//! }
//!
//! let m = WalMetrics::new(&phoenix_obs::current());
//! m.appends.inc(); // steady state: one atomic op, no registry lock
//! ```
//!
//! After registration the hot path touches only the atomics inside the
//! `Arc`s — the registry lock is never taken again.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

/// A point-in-time reading of one registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(i64),
    /// Histogram bucket snapshot (boxed: 64 buckets dwarf the scalar
    /// variants).
    Histogram(Box<HistogramSnapshot>),
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }

    fn read(&self) -> MetricValue {
        match self {
            Metric::Counter(c) => MetricValue::Counter(c.get()),
            Metric::Gauge(g) => MetricValue::Gauge(g.get()),
            Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
        }
    }
}

struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    help: String,
    metric: Metric,
}

impl Entry {
    /// `name` or `name{k="v",...}` — the identity used for idempotent
    /// registration, text exposition, and wire snapshots.
    fn key(name: &str, labels: &[(String, String)]) -> String {
        if labels.is_empty() {
            return name.to_string();
        }
        let mut out = String::with_capacity(name.len() + 16);
        out.push_str(name);
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(v);
            out.push('"');
        }
        out.push('}');
        out
    }
}

#[derive(Default)]
struct Inner {
    /// Registration order, for stable exposition output.
    entries: Vec<Entry>,
    /// Full key (name + labels) → index into `entries`.
    index: HashMap<String, usize>,
}

/// A collection of named metrics with idempotent get-or-register semantics.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_register<T, F, G>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: F,
        downcast: G,
    ) -> Arc<T>
    where
        F: FnOnce(Arc<T>) -> Metric,
        G: Fn(&Metric) -> Option<Arc<T>>,
        T: Default,
    {
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let key = Entry::key(name, &labels);
        let mut inner = self.inner.lock().unwrap();
        if let Some(&i) = inner.index.get(&key) {
            let entry = &inner.entries[i];
            return downcast(&entry.metric).unwrap_or_else(|| {
                panic!(
                    "metric {key:?} already registered as {}",
                    entry.metric.type_name()
                )
            });
        }
        let handle = Arc::new(T::default());
        let i = inner.entries.len();
        inner.entries.push(Entry {
            name: name.to_string(),
            labels,
            help: help.to_string(),
            metric: make(Arc::clone(&handle)),
        });
        inner.index.insert(key, i);
        handle
    }

    /// Get or register an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Get or register a counter with labels (e.g. `requests_total{type="exec"}`).
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.get_or_register(name, help, labels, Metric::Counter, |m| match m {
            Metric::Counter(c) => Some(Arc::clone(c)),
            _ => None,
        })
    }

    /// Get or register an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Get or register a gauge with labels.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.get_or_register(name, help, labels, Metric::Gauge, |m| match m {
            Metric::Gauge(g) => Some(Arc::clone(g)),
            _ => None,
        })
    }

    /// Get or register an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[])
    }

    /// Get or register a histogram with labels (e.g. `stmt_latency_us{class="select"}`).
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        self.get_or_register(name, help, labels, Metric::Histogram, |m| match m {
            Metric::Histogram(h) => Some(Arc::clone(h)),
            _ => None,
        })
    }

    /// Read every registered metric: `(key, help, value)` in registration
    /// order, where `key` is `name` or `name{k="v",...}`.
    pub fn collect(&self) -> Vec<(String, String, MetricValue)> {
        let inner = self.inner.lock().unwrap();
        inner
            .entries
            .iter()
            .map(|e| {
                (
                    Entry::key(&e.name, &e.labels),
                    e.help.clone(),
                    e.metric.read(),
                )
            })
            .collect()
    }

    /// Prometheus-style text exposition: `# HELP` / `# TYPE` headers once per
    /// family, histograms as cumulative `_bucket{le="..."}` series plus
    /// `_sum` (midpoint-approximate) and `_count`.
    pub fn render_text(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::new();
        let mut seen_family: HashMap<&str, ()> = HashMap::new();
        for e in inner.entries.iter() {
            if seen_family.insert(&e.name, ()).is_none() {
                out.push_str(&format!("# HELP {} {}\n", e.name, e.help));
                out.push_str(&format!("# TYPE {} {}\n", e.name, e.metric.type_name()));
            }
            let key = Entry::key(&e.name, &e.labels);
            match e.metric.read() {
                MetricValue::Counter(v) => out.push_str(&format!("{key} {v}\n")),
                MetricValue::Gauge(v) => out.push_str(&format!("{key} {v}\n")),
                MetricValue::Histogram(s) => {
                    render_histogram(&mut out, &e.name, &e.labels, &s);
                }
            }
        }
        out
    }
}

fn render_histogram(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    s: &HistogramSnapshot,
) {
    let label_prefix: String = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{v}\","))
        .collect();
    let mut cumulative = 0u64;
    for (i, &n) in s.buckets.iter().enumerate() {
        if n == 0 && i != s.buckets.len() - 1 {
            cumulative += n;
            continue; // keep the exposition compact: skip empty interior buckets
        }
        cumulative += n;
        let le = if i == s.buckets.len() - 1 {
            "+Inf".to_string()
        } else {
            HistogramSnapshot::upper_bound(i).to_string()
        };
        out.push_str(&format!(
            "{name}_bucket{{{label_prefix}le=\"{le}\"}} {cumulative}\n"
        ));
    }
    out.push_str(&format!(
        "{name}_sum{{{label_prefix_trim}}} {sum}\n",
        label_prefix_trim = label_prefix.trim_end_matches(','),
        sum = s.approx_sum()
    ));
    out.push_str(&format!(
        "{name}_count{{{label_prefix_trim}}} {count}\n",
        label_prefix_trim = label_prefix.trim_end_matches(','),
        count = s.count()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn registration_is_idempotent() {
        let r = Registry::new();
        let a = r.counter("c", "a counter");
        let b = r.counter("c", "a counter");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn labels_distinguish_series() {
        let r = Registry::new();
        let sel = r.counter_with("stmts", "statements", &[("class", "select")]);
        let ins = r.counter_with("stmts", "statements", &[("class", "insert")]);
        assert!(!Arc::ptr_eq(&sel, &ins));
        sel.add(3);
        ins.add(5);
        let collected = r.collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(collected[0].0, "stmts{class=\"select\"}");
        assert_eq!(collected[0].2, MetricValue::Counter(3));
        assert_eq!(collected[1].0, "stmts{class=\"insert\"}");
        assert_eq!(collected[1].2, MetricValue::Counter(5));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("m", "as counter");
        let _ = r.gauge("m", "as gauge");
    }

    #[test]
    fn render_text_exposition() {
        let r = Registry::new();
        r.counter("reqs_total", "requests").add(7);
        r.gauge("inflight", "in-flight").set(2);
        let h = r.histogram_with("lat_us", "latency", &[("op", "fsync")]);
        h.record(100);
        h.record(3000);
        let text = r.render_text();
        assert!(text.contains("# HELP reqs_total requests"));
        assert!(text.contains("# TYPE reqs_total counter"));
        assert!(text.contains("reqs_total 7"));
        assert!(text.contains("inflight 2"));
        assert!(text.contains("# TYPE lat_us histogram"));
        assert!(text.contains("lat_us_bucket{op=\"fsync\",le=\"127\"} 1"));
        assert!(text.contains("lat_us_bucket{op=\"fsync\",le=\"+Inf\"} 2"));
        assert!(text.contains("lat_us_count{op=\"fsync\"} 2"));
    }

    /// Acceptance-criterion test: 8 threads hammer the registry
    /// concurrently — mixing first-registration races with steady-state
    /// recording — and every single increment must be accounted for.
    #[test]
    fn eight_thread_registry_hammer() {
        let r = Arc::new(Registry::new());
        const PER_THREAD: u64 = 25_000;
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let r = Arc::clone(&r);
            handles.push(thread::spawn(move || {
                // Every thread races to register the same families, then
                // records through whichever Arc it got back.
                let c = r.counter("hammer_total", "hammered");
                let g = r.gauge("hammer_level", "level");
                let h = r.histogram_with("hammer_lat", "lat", &[("t", "shared")]);
                for i in 0..PER_THREAD {
                    c.inc();
                    g.inc();
                    h.record(i % 4096 + t);
                }
            }));
        }
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(r.counter("hammer_total", "hammered").get(), 8 * PER_THREAD);
        assert_eq!(
            r.gauge("hammer_level", "level").get(),
            (8 * PER_THREAD) as i64
        );
        assert_eq!(
            r.histogram_with("hammer_lat", "lat", &[("t", "shared")])
                .count(),
            8 * PER_THREAD
        );
        // Races produced exactly three families, not duplicates.
        assert_eq!(r.collect().len(), 3);
    }
}
