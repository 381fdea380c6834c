//! Phoenix configuration: capture/reposition strategies and recovery tuning.

use std::time::Duration;

/// How result sets are materialized into the persistent table (paper §3,
/// "Default Result Set").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureStrategy {
    /// The paper's strategy: create a stored procedure
    /// `CREATE PROCEDURE p AS INSERT INTO t <select>` and EXEC it — "all
    /// data is moved locally at the server, not sent first to the client",
    /// one round trip, atomic.
    ServerProc,
    /// Direct `INSERT INTO t <select>` — still server-side and atomic, one
    /// fewer object to manage; ablation A2 variant.
    ServerInsert,
    /// Anti-pattern baseline for ablation A2: run the SELECT, pull every row
    /// to the client, and push them back with batched INSERTs. Demonstrates
    /// why the paper insists on server-side capture.
    ClientRoundTrip,
}

/// How delivery is re-positioned after recovery (paper §4, Figure 2 uses a
/// server-side stored-procedure advance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepositionStrategy {
    /// Re-open delivery with a server-side skip (`… OFFSET <delivered>`):
    /// no tuples are shipped while repositioning. Matches the paper's
    /// "advancing through the result set on the server without passing
    /// tuples to the client".
    ServerSide,
    /// Re-open from the start and fetch-and-discard up to the remembered
    /// position. Ablation A1 baseline; cost grows with position.
    ClientScan,
}

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
    /// How result sets are captured into persistent tables.
    pub capture: CaptureStrategy,
    /// How interrupted delivery is re-positioned after recovery.
    pub reposition: RepositionStrategy,
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
            capture: CaptureStrategy::ServerProc,
            reposition: RepositionStrategy::ServerSide,
            recovery: RecoverySettings::default(),
            fetch_block: 64,
            eager_cleanup: false,
        }
    }
}

impl PhoenixConfig {
    /// Builder: capture strategy.
    pub fn with_capture(mut self, c: CaptureStrategy) -> Self {
        self.capture = c;
        self
    }

    /// Builder: reposition strategy.
    pub fn with_reposition(mut self, r: RepositionStrategy) -> Self {
        self.reposition = r;
        self
    }

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
