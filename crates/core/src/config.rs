//! Phoenix configuration: recovery tuning, the delivery block size and
//! eager cleanup.

use std::time::Duration;

/// Recovery behaviour.
#[derive(Debug, Clone)]
pub struct RecoverySettings {
    /// Interval between reconnect attempts while the server is down.
    pub ping_interval: Duration,
    /// Give up after this long and surface the communication error to the
    /// application (the paper: "if after a period of time Phoenix/ODBC is
    /// unable to connect … it passes the communication error on").
    pub max_wait: Duration,
    /// Read timeout applied to Phoenix's connections; a request exceeding it
    /// triggers failure detection.
    pub read_timeout: Option<Duration>,
}

impl Default for RecoverySettings {
    fn default() -> Self {
        RecoverySettings {
            ping_interval: Duration::from_millis(50),
            max_wait: Duration::from_secs(30),
            read_timeout: Some(Duration::from_secs(5)),
        }
    }
}

/// Full Phoenix configuration.
#[derive(Debug, Clone)]
pub struct PhoenixConfig {
    /// Failure-detection and reconnect tuning.
    pub recovery: RecoverySettings,
    /// Rows per block when Phoenix delivers result sets from its persistent
    /// tables.
    pub fetch_block: usize,
    /// Drop a statement's persistent result/key tables as soon as the
    /// result is consumed (or the statement is re-executed/closed), instead
    /// of only at session termination as the paper does. Bounds server-side
    /// growth for long sessions; an extension beyond the paper, off by
    /// default for fidelity.
    pub eager_cleanup: bool,
}

impl Default for PhoenixConfig {
    fn default() -> Self {
        PhoenixConfig {
            recovery: RecoverySettings::default(),
            fetch_block: 64,
            eager_cleanup: false,
        }
    }
}

impl PhoenixConfig {
    /// Builder: delivery block size (min 1).
    pub fn with_fetch_block(mut self, n: usize) -> Self {
        self.fetch_block = n.max(1);
        self
    }

    /// Builder: eager cleanup of consumed result-set objects.
    pub fn with_eager_cleanup(mut self, on: bool) -> Self {
        self.eager_cleanup = on;
        self
    }
}
