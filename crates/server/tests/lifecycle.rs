//! Session admission seen through the server and the driver: a server at
//! its `max_sessions` cap answers a login with the retryable `Busy` until a
//! session leaves, and never holds more sessions than the cap.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use phoenix_driver::error::codes;
use phoenix_driver::Environment;
use phoenix_engine::EngineConfig;
use phoenix_server::ServerHarness;
use phoenix_storage::types::Value;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "phoenix-lifecycle-{tag}-{}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn login_past_the_cap_is_busy_until_a_session_leaves() {
    let dir = temp_dir("cap");
    let config = EngineConfig {
        max_sessions: Some(1),
        ..EngineConfig::default()
    };
    let mut h = ServerHarness::start(&dir, config).unwrap();
    let at_most_one = |h: &ServerHarness, step: &str| {
        let n = h.with_engine(|e| e.session_count()).unwrap();
        assert!(n <= 1, "{n} sessions open at cap 1 after {step}");
    };
    let env = Environment::new();
    let mut first = env.connect(&h.addr(), "app", "db").unwrap();
    first.execute("CREATE TABLE t (v INT)").unwrap();
    at_most_one(&h, "the first login");

    // The first session is idle, with no transaction open: a second login
    // is refused all the same.
    let err = match env.connect(&h.addr(), "other", "db") {
        Err(e) => e,
        Ok(_) => panic!("a login past the cap must be refused"),
    };
    assert_eq!(err.server_code(), Some(codes::BUSY), "{err}");
    assert!(err.is_retryable(), "a cap refusal must be retryable");
    at_most_one(&h, "the refused login");

    // The first session is untouched by the refusal.
    let r = first.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int(0));
    at_most_one(&h, "the first session's next request");

    // Once it leaves, a retry gets in.
    first.close();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut second = loop {
        match env.connect(&h.addr(), "other", "db") {
            Ok(c) => break c,
            Err(e) => {
                assert_eq!(e.server_code(), Some(codes::BUSY), "{e}");
                assert!(Instant::now() < deadline, "the retry never got in");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    };
    at_most_one(&h, "the retried login");
    second.execute("SELECT 1").unwrap();
    at_most_one(&h, "the second session's request");

    second.close();
    h.shutdown();
    std::fs::remove_dir_all(dir).unwrap();
}
