//! The driver's close accounting against a real TCP server.
//!
//! `closes` and `failed_closes` are process-global counters, so this test
//! has an integration-test binary — a process — of its own: a sibling test's
//! close can never land between its two readings.

use std::path::PathBuf;
use std::time::Duration;

use phoenix_driver::{DriverError, Environment};
use phoenix_engine::EngineConfig;
use phoenix_server::ServerHarness;

fn start() -> (ServerHarness, PathBuf) {
    let dir = std::env::temp_dir().join(format!("phoenix-driver-close-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let h = ServerHarness::start(&dir, EngineConfig::default()).unwrap();
    (h, dir)
}

#[test]
fn close_is_best_effort_and_counted() {
    use phoenix_driver::metrics::driver_metrics;
    use phoenix_obs::EventKind;

    let (mut h, dir) = start();
    let env = Environment::new().with_read_timeout(Some(Duration::from_millis(300)));

    // Clean close: counted, not a failed close.
    let closes_before = driver_metrics().closes.get();
    let failed_before = driver_metrics().failed_closes.get();
    let conn = env.connect(&h.addr(), "app", "test").unwrap();
    conn.close();
    assert_eq!(driver_metrics().closes.get(), closes_before + 1);
    assert_eq!(driver_metrics().failed_closes.get(), failed_before);

    // Poisoned close: the crash severs the socket mid-session; the next call
    // poisons the connection; close() must neither panic nor try Logout.
    let mut conn = env.connect(&h.addr(), "app", "test").unwrap();
    let session = conn.session_id();
    h.crash().unwrap();
    assert!(matches!(
        conn.execute("SELECT 1"),
        Err(DriverError::Comm(_))
    ));
    assert!(conn.is_poisoned());
    conn.close(); // must not panic
    assert_eq!(driver_metrics().closes.get(), closes_before + 2);
    assert_eq!(driver_metrics().failed_closes.get(), failed_before);

    // The poisoned close left a debug breadcrumb in the journal.
    let detail = format!("session {session} close: skipped (poisoned)");
    assert!(
        phoenix_obs::journal()
            .events_of(EventKind::ConnectionClose)
            .iter()
            .any(|e| e.component == "driver" && e.detail == detail),
        "expected journal event '{detail}'"
    );

    h.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
