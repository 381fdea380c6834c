//! Shared setup for the benchmark harness: build a TPC-H-style database on
//! disk, start the crash-injectable server over it, and hand out native /
//! Phoenix connections.
//!
//! Every table and figure of the paper's evaluation is regenerated from
//! here:
//!
//! * `cargo run --release -p phoenix-bench --bin table1` — Table 1 (power
//!   test, native vs Phoenix).
//! * `cargo run --release -p phoenix-bench --bin figure2` — Figure 2
//!   (session-recovery time vs result size) plus the §4 recovery-vs-
//!   recompute claim.
//!
//! The scoreboard under `benchmark/` times the same paths end to end
//! (`tpch_phoenix` is Table 1, `crash_resume` is Figure 2).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use phoenix_core::{PhoenixConfig, PhoenixConnection};
use phoenix_driver::{Connection, Environment};
use phoenix_engine::{Engine, EngineConfig};
use phoenix_server::ServerHarness;
use phoenix_tpch::{Tpch, TpchConfig};

/// A loaded benchmark environment: data directory, running server, and the
/// workload description.
pub struct BenchEnv {
    pub harness: ServerHarness,
    pub dir: PathBuf,
    pub workload: Tpch,
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("phoenix-bench-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

impl BenchEnv {
    /// Build a TPC-H database at `scale` (loaded directly through the
    /// engine, checkpointed, then served over TCP).
    pub fn tpch(scale: f64) -> BenchEnv {
        let dir = temp_dir("tpch");
        let workload = Tpch::new(TpchConfig::default().with_scale(scale));
        {
            let engine = Engine::open(&dir, EngineConfig::default()).unwrap();
            let sid = engine.create_session("loader");
            for sql in workload.setup_sql() {
                engine
                    .execute(sid, &sql)
                    .unwrap_or_else(|e| panic!("load failed: {e}"));
            }
            engine.close_session(sid).unwrap();
            engine.checkpoint().unwrap();
        }
        let harness = ServerHarness::start(&dir, EngineConfig::default()).unwrap();
        BenchEnv {
            harness,
            dir,
            workload,
        }
    }

    /// An empty database (for synthetic experiments like Figure 2).
    pub fn empty() -> BenchEnv {
        let dir = temp_dir("empty");
        let harness = ServerHarness::start(&dir, EngineConfig::default()).unwrap();
        BenchEnv {
            harness,
            dir,
            workload: Tpch::new(TpchConfig::default()),
        }
    }

    fn environment() -> Environment {
        Environment::new().with_read_timeout(Some(Duration::from_secs(5)))
    }

    /// A native driver connection — the paper's "native ODBC" baseline.
    pub fn native(&self) -> Connection {
        Self::environment()
            .connect(&self.harness.addr(), "bench", "tpch")
            .unwrap()
    }

    /// A Phoenix persistent-session connection.
    pub fn phoenix(&self, config: PhoenixConfig) -> PhoenixConnection {
        PhoenixConnection::connect(
            &Self::environment(),
            &self.harness.addr(),
            "bench",
            "tpch",
            config,
        )
        .unwrap()
    }

    /// Recovery settings tuned for benchmarking (fast ping, generous window).
    pub fn bench_phoenix_config() -> PhoenixConfig {
        let mut c = PhoenixConfig::default();
        c.recovery.read_timeout = Some(Duration::from_secs(2));
        c.recovery.ping_interval = Duration::from_millis(10);
        c.recovery.max_wait = Duration::from_secs(30);
        c
    }
}

impl Drop for BenchEnv {
    fn drop(&mut self) {
        self.harness.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Populate the synthetic Figure 2 table with `n` rows (fixed-size payload
/// plus a numeric weight, primary-keyed, deterministic).
pub fn load_figure2_table(conn: &mut Connection, table: &str, n: u64) {
    conn.execute(&format!(
        "CREATE TABLE {table} (id INT NOT NULL, payload TEXT, weight FLOAT, PRIMARY KEY (id))"
    ))
    .unwrap();
    let mut batch = Vec::with_capacity(200);
    for i in 0..n {
        batch.push(format!(
            "({i}, 'payload-row-{i:08}-abcdefghijklmnop', {}.25)",
            (i * 37) % 1000
        ));
        if batch.len() == 200 || i + 1 == n {
            conn.execute(&format!("INSERT INTO {table} VALUES {}", batch.join(", ")))
                .unwrap();
            batch.clear();
        }
    }
}

/// The Q11-shaped query over the Figure 2 table: a self-join with a SUM
/// product, grouped and ordered — the same operator mix as the paper\'s
/// recovery-experiment query, with an `n`-row result over an `n`-row table.
pub fn figure2_query(table: &str) -> String {
    format!(
        "SELECT a.id, SUM(a.weight * b.weight) AS value, MAX(a.payload) AS payload \
         FROM {table} a, {table} b WHERE a.id = b.id \
         GROUP BY a.id ORDER BY a.id"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_tpch::power::SqlExecutor;

    #[test]
    fn tpch_env_serves_queries() {
        let env = BenchEnv::tpch(0.1);
        let mut conn = env.native();
        let n = conn.exec_sql("SELECT COUNT(*) FROM lineitem").unwrap();
        assert_eq!(n, 1);
        let mut pc = env.phoenix(BenchEnv::bench_phoenix_config());
        let n = pc
            .exec_sql(phoenix_tpch::queries::by_name("Q6").unwrap().sql)
            .unwrap();
        assert_eq!(n, 1);
        pc.close();
    }

    #[test]
    fn figure2_loader_counts() {
        let env = BenchEnv::empty();
        let mut conn = env.native();
        load_figure2_table(&mut conn, "f2", 501);
        let r = conn.execute("SELECT COUNT(*) FROM f2").unwrap();
        assert_eq!(r.rows()[0][0], phoenix_storage::types::Value::Int(501));
    }
}
