//! Driver environment: defaults and connection allocation (the ODBC
//! environment-handle analogue).

use std::sync::Arc;
use std::time::Duration;

use crate::connection::Connection;
use crate::error::Result;
use crate::metrics::DriverMetrics;
use phoenix_obs::Obs;
use phoenix_storage::types::Value;

/// Driver-wide defaults. Cloneable so Phoenix can allocate its private
/// connection from the same environment the application configured.
///
/// An environment belongs to the observability instance of the thread that
/// built it: its connections count into that instance and journal there.
#[derive(Debug, Clone)]
pub struct Environment {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-request read timeout. Reads that exceed it surface as `Comm`
    /// timeouts — the ambiguous "server busy, connection slow, or crashed?"
    /// state the paper describes.
    pub read_timeout: Option<Duration>,
    /// Rows fetched per block on cursor statements.
    pub fetch_block: usize,
    obs: Arc<Obs>,
    pub(crate) metrics: Arc<DriverMetrics>,
}

impl Default for Environment {
    fn default() -> Self {
        let obs = phoenix_obs::current();
        Environment {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Some(Duration::from_secs(10)),
            fetch_block: 64,
            metrics: Arc::new(DriverMetrics::new(&obs)),
            obs,
        }
    }
}

impl Environment {
    /// Defaults: 5 s connect timeout, 10 s read timeout, 64-row blocks.
    pub fn new() -> Environment {
        Environment::default()
    }

    /// The observability instance the environment's connections report to.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Builder: per-request read timeout (`None` = block forever).
    pub fn with_read_timeout(mut self, t: Option<Duration>) -> Environment {
        self.read_timeout = t;
        self
    }

    /// Builder: TCP connect timeout.
    pub fn with_connect_timeout(mut self, t: Duration) -> Environment {
        self.connect_timeout = t;
        self
    }

    /// Builder: rows per block on cursor fetches (min 1).
    pub fn with_fetch_block(mut self, n: usize) -> Environment {
        self.fetch_block = n.max(1);
        self
    }

    /// Open a connection (performs the login handshake).
    pub fn connect(&self, addr: &str, user: &str, database: &str) -> Result<Connection> {
        Connection::open(self, addr, user, database, Vec::new())
    }

    /// Open a connection with initial session options (applied server-side
    /// as SETs during login).
    pub fn connect_with_options(
        &self,
        addr: &str,
        user: &str,
        database: &str,
        options: Vec<(String, Value)>,
    ) -> Result<Connection> {
        Connection::open(self, addr, user, database, options)
    }
}
