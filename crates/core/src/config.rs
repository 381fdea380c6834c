//! Phoenix configuration: recovery tuning and the delivery block size.

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
}

impl Default for PhoenixConfig {
    fn default() -> Self {
        PhoenixConfig {
            recovery: RecoverySettings::default(),
            fetch_block: 64,
        }
    }
}

impl PhoenixConfig {
    /// Builder: delivery block size (min 1).
    pub fn with_fetch_block(mut self, n: usize) -> Self {
        self.fetch_block = n.max(1);
        self
    }
}
