//! Recovery-layer metric handles, registered when a
//! [`crate::PhoenixConnection`] connects.
//!
//! These aggregate over every Phoenix connection of one observability
//! instance (that of the connection's driver environment); the
//! per-connection [`crate::PhoenixStats`] remains the fine-grained view.
//! The counters pair with the event journal: the counters say *how much*
//! recovery happened, the journal says *in what order*.

use std::sync::Arc;

use phoenix_obs::{Counter, Histogram, Obs};

/// The handles of every recovery metric, held by the connection that counts
/// them.
pub struct CoreMetrics {
    /// Reconnect attempts inside ping loops
    /// (`phoenix_reconnect_attempts_total`).
    pub reconnect_attempts: Arc<Counter>,
    /// Sleeps taken between reconnect attempts
    /// (`phoenix_backoff_sleeps_total`). Always `attempts - successes` —
    /// the successful attempt never sleeps.
    pub backoff_sleeps: Arc<Counter>,
    /// Completed recovery passes (`phoenix_recoveries_total`).
    pub recoveries: Arc<Counter>,
    /// End-to-end virtual-session recovery latency
    /// (`phoenix_recovery_us`): failure detection to re-established,
    /// verified session.
    pub recovery_us: Arc<Histogram>,
    /// Requests answered from the status table instead of re-execution
    /// (`phoenix_replayed_replies_total`) — the paper's reply-buffer hits.
    pub replayed_replies: Arc<Counter>,
}

impl CoreMetrics {
    /// Register (or find) the recovery metrics in `obs`.
    pub fn new(obs: &Obs) -> CoreMetrics {
        let r = obs.registry();
        CoreMetrics {
            reconnect_attempts: r.counter(
                "phoenix_reconnect_attempts_total",
                "reconnect attempts made inside ping loops",
            ),
            backoff_sleeps: r.counter(
                "phoenix_backoff_sleeps_total",
                "sleeps taken between reconnect attempts",
            ),
            recoveries: r.counter(
                "phoenix_recoveries_total",
                "completed virtual-session recovery passes",
            ),
            recovery_us: r.histogram(
                "phoenix_recovery_us",
                "end-to-end virtual-session recovery latency (us)",
            ),
            replayed_replies: r.counter(
                "phoenix_replayed_replies_total",
                "requests answered from the status table (reply-buffer hits)",
            ),
        }
    }
}
