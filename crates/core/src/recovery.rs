//! Failure detection and the recovery primitives (paper §3, "Server and
//! Session Crash Recovery").
//!
//! Detection: Phoenix notices trouble by (i) intercepting communication
//! errors raised by the driver or (ii) timing out application requests
//! (timeouts surface as `Comm` errors from the driver, so both funnel into
//! one path).
//!
//! Once trouble is detected, Phoenix pings the server and periodically
//! attempts to reconnect. If it cannot connect within the configured window
//! it gives up and passes the communication error on to the application —
//! the paper's exact policy. When it does get through, the *liveness proxy*
//! (a genuine session temp table) distinguishes "our session still exists —
//! mere communication failure" from "the session was erased — the server
//! crashed", driving the cheap vs. full recovery path.

use std::time::{Duration, Instant};

use phoenix_driver::{error::codes, Connection, DriverError, Environment};
use phoenix_obs::{journal, EventKind};
use phoenix_sql::ast::ObjectName;
use phoenix_storage::types::Value;

use crate::config::RecoverySettings;
use crate::metrics::core_metrics;
use crate::Result;

/// The first sleep between reconnect attempts; each later one doubles, up
/// to `ping_interval`.
const FIRST_RETRY: Duration = Duration::from_millis(1);

/// The sleep after failed attempt `attempt` (1-based): 1 ms, doubled each
/// retry, capped at `ping_interval`. A server that is back within a few
/// milliseconds is found within a few milliseconds, not after a whole
/// ping interval; one that stays down is polled every `ping_interval`.
fn retry_sleep(attempt: u64, ping_interval: Duration) -> Duration {
    let doublings = attempt.saturating_sub(1).min(31) as u32;
    FIRST_RETRY
        .saturating_mul(1 << doublings)
        .min(ping_interval)
}

/// Attempt to (re)connect and log in until it succeeds or `settings.max_wait`
/// elapses, sleeping between attempts from 1 ms, doubled each retry, up to
/// `settings.ping_interval`. Returns the new connection and the number of
/// attempts made.
pub fn reconnect_loop(
    env: &Environment,
    addr: &str,
    user: &str,
    database: &str,
    options: Vec<(String, Value)>,
    settings: &RecoverySettings,
) -> Result<(Connection, u64)> {
    let deadline = Instant::now() + settings.max_wait;
    let m = core_metrics();
    let mut attempts = 0u64;
    loop {
        attempts += 1;
        m.reconnect_attempts.inc();
        journal().record(
            "core",
            EventKind::ReconnectAttempt,
            format!("attempt {attempts} to {addr}"),
        );
        match env.connect_with_options(addr, user, database, options.clone()) {
            Ok(conn) => {
                journal().record(
                    "core",
                    EventKind::Reconnected,
                    format!("connected to {addr} after {attempts} attempt(s)"),
                );
                return Ok((conn, attempts));
            }
            Err(e) => {
                // Only transient failures are worth waiting out: connection
                // refused / reset (`Comm`) or the server's retryable `Busy`
                // (at capacity, admission queue full). Anything else — a
                // rejected login, a protocol error — would fail identically
                // on every retry, so surface it immediately instead of
                // burning the whole recovery window on it.
                if !e.is_retryable() {
                    return Err(e);
                }
                let now = Instant::now();
                if now >= deadline {
                    // Give up: pass the communication error to the app.
                    return Err(e);
                }
                // Clamp the sleep to the remaining window so the loop never
                // overshoots max_wait by (almost) a whole ping interval —
                // the app asked to wait max_wait, not max_wait rounded up.
                m.backoff_sleeps.inc();
                std::thread::sleep(
                    retry_sleep(attempts, settings.ping_interval).min(deadline - now),
                );
            }
        }
    }
}

/// The liveness proxy test: does the session temp marker still exist on
/// `conn`'s session?
///
/// * `Ok(true)` — the marker is there: the session survived; whatever we
///   saw was a communication failure or delay, not a server crash.
/// * `Ok(false)` — the server answered but the marker is gone: the session
///   was erased (server crash, or the session was otherwise terminated).
/// * `Err` — could not even ask (connection dead too).
pub fn session_alive(conn: &mut Connection, marker: &ObjectName) -> Result<bool> {
    match conn.execute(&format!("SELECT COUNT(*) FROM {marker}")) {
        Ok(_) => Ok(true),
        Err(DriverError::Sql { code, .. }) if code == codes::NOT_FOUND => Ok(false),
        Err(e) => Err(e),
    }
}

/// Create the session liveness marker (a *real* temp table — it must die
/// with the session for the proxy test to mean anything).
pub fn create_marker(conn: &mut Connection, marker: &ObjectName) -> Result<()> {
    conn.execute(&format!("CREATE TABLE {marker} (alive INT)"))?;
    Ok(())
}

/// Verify that a Phoenix-materialized table still exists after recovery
/// (phase 2's "verifies that all application state materialized in tables on
/// the server was recovered by the database recovery mechanisms").
pub fn verify_table(conn: &mut Connection, table: &ObjectName) -> Result<bool> {
    match conn.execute(&format!("SELECT * FROM {table} WHERE 0 = 1")) {
        Ok(_) => Ok(true),
        Err(DriverError::Sql { code, .. }) if code == codes::NOT_FOUND => Ok(false),
        Err(e) => Err(e),
    }
}

/// Sleep helper used between dependent recovery stages.
pub fn backoff(settings: &RecoverySettings, since: Instant) -> Option<Duration> {
    if since.elapsed() >= settings.max_wait {
        None
    } else {
        Some(settings.ping_interval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The reconnect counters are process-global; serialize the tests that
    /// exercise `reconnect_loop` so their deltas stay exact.
    static RECONNECT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn reconnect_gives_up_after_max_wait() {
        let _g = RECONNECT_LOCK.lock().unwrap();
        let env = Environment::new().with_connect_timeout(Duration::from_millis(50));
        let settings = RecoverySettings {
            ping_interval: Duration::from_millis(10),
            max_wait: Duration::from_millis(100),
            read_timeout: None,
        };
        // Nothing listens on this port.
        let started = Instant::now();
        let r = reconnect_loop(&env, "127.0.0.1:1", "u", "d", Vec::new(), &settings);
        assert!(r.is_err());
        assert!(started.elapsed() >= Duration::from_millis(100));
    }

    #[test]
    fn reconnect_does_not_overshoot_max_wait() {
        let _g = RECONNECT_LOCK.lock().unwrap();
        let env = Environment::new().with_connect_timeout(Duration::from_millis(50));
        let settings = RecoverySettings {
            // A ping interval much larger than the window: without the
            // deadline clamp the final sleep alone would take 5 s.
            ping_interval: Duration::from_secs(5),
            max_wait: Duration::from_millis(100),
            read_timeout: None,
        };
        let started = Instant::now();
        let r = reconnect_loop(&env, "127.0.0.1:1", "u", "d", Vec::new(), &settings);
        assert!(r.is_err());
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "reconnect_loop overshot max_wait: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn reconnect_attempts_match_counter_and_sleeps_stay_clamped() {
        let _g = RECONNECT_LOCK.lock().unwrap();
        let m = core_metrics();
        let env = Environment::new().with_connect_timeout(Duration::from_millis(50));
        let settings = RecoverySettings {
            // A ping interval far beyond the window: every sleep must be
            // clamped to the remaining budget or the loop blows way past
            // max_wait.
            ping_interval: Duration::from_secs(30),
            max_wait: Duration::from_millis(120),
            read_timeout: None,
        };
        let attempts_before = m.reconnect_attempts.get();
        let sleeps_before = m.backoff_sleeps.get();
        let started = Instant::now();
        // Nothing listens on this port: every attempt fails fast.
        let r = reconnect_loop(&env, "127.0.0.1:1", "u", "d", Vec::new(), &settings);
        assert!(r.is_err());
        let elapsed = started.elapsed();
        assert!(
            elapsed >= settings.max_wait,
            "gave up before max_wait: {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_secs(2),
            "a sleep escaped the clamp: {elapsed:?}"
        );

        let attempts = m.reconnect_attempts.get() - attempts_before;
        let sleeps = m.backoff_sleeps.get() - sleeps_before;
        // Fast connection-refused + clamped sleeps: the window fits at
        // least an initial attempt and a post-sleep final attempt.
        assert!(attempts >= 2, "expected ≥ 2 attempts, got {attempts}");
        // Every attempt but the last (which hits the deadline and returns)
        // is followed by exactly one clamped sleep.
        assert_eq!(sleeps, attempts - 1);
    }

    #[test]
    fn retry_sleeps_double_from_one_millisecond_up_to_the_ping_interval() {
        let ms = Duration::from_millis;
        let sleeps: Vec<Duration> = (1..=9).map(|a| retry_sleep(a, ms(50))).collect();
        assert_eq!(
            sleeps,
            [
                ms(1),
                ms(2),
                ms(4),
                ms(8),
                ms(16),
                ms(32),
                ms(50),
                ms(50),
                ms(50)
            ]
        );
        // A server ready after 9 ms is found by the attempt after the
        // fourth sleep: 1 + 2 + 4 + 8 = 15 ms, not 50.
        let waited: Duration = sleeps[..4].iter().sum();
        assert_eq!(waited, ms(15));
        // A 1 ms interval never sleeps longer; a huge attempt count does
        // not overflow.
        assert!((1..=40).all(|a| retry_sleep(a, ms(1)) == ms(1)));
        assert_eq!(
            retry_sleep(u64::MAX, Duration::from_secs(30)),
            Duration::from_secs(30)
        );
        assert_eq!(retry_sleep(0, ms(50)), ms(1));
    }

    #[test]
    fn backoff_respects_deadline() {
        let settings = RecoverySettings {
            ping_interval: Duration::from_millis(5),
            max_wait: Duration::from_millis(50),
            read_timeout: None,
        };
        let t0 = Instant::now();
        assert!(backoff(&settings, t0).is_some());
        std::thread::sleep(Duration::from_millis(60));
        assert!(backoff(&settings, t0).is_none());
    }
}
