//! Driver-side metric handles, registered when an
//! [`crate::Environment`] is built and shared by its connections.
//!
//! The driver itself stays recovery-unaware; these count only what the
//! driver layer can see directly (connection lifecycle). Recovery metrics
//! live in `phoenix-core`, which owns the crash/reconnect machinery.

use std::sync::Arc;

use phoenix_obs::{Counter, Obs};

/// The handles of every driver metric.
#[derive(Debug)]
pub struct DriverMetrics {
    /// Connections opened successfully (`phoenix_driver_connects_total`).
    pub connects: Arc<Counter>,
    /// `Connection::close` calls, clean or not
    /// (`phoenix_driver_closes_total`).
    pub closes: Arc<Counter>,
    /// Closes whose Logout round trip failed
    /// (`phoenix_driver_failed_closes_total`). Best effort by design, but a
    /// rash of these means sessions are being abandoned to server-side
    /// cleanup.
    pub failed_closes: Arc<Counter>,
}

impl DriverMetrics {
    /// Register (or find) the driver metrics in `obs`.
    pub fn new(obs: &Obs) -> DriverMetrics {
        let r = obs.registry();
        DriverMetrics {
            connects: r.counter(
                "phoenix_driver_connects_total",
                "connections opened successfully",
            ),
            closes: r.counter(
                "phoenix_driver_closes_total",
                "Connection::close calls (clean or best-effort)",
            ),
            failed_closes: r.counter(
                "phoenix_driver_failed_closes_total",
                "closes whose Logout round trip failed",
            ),
        }
    }
}
