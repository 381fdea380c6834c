//! A minimal HTTP/1.0 exposition endpoint for the metrics registry.
//!
//! This is not a web server: it answers **every** request on its port with
//! `200 OK` and the Prometheus-style text rendering of the registry of the
//! instance it was started in (the shipped binary's one instance), which is
//! exactly what `curl` and a Prometheus scraper need and nothing more. It
//! lives on its own port (`--stats-port` on the server binary) so
//! observability traffic never competes with, or depends on, the database
//! protocol itself — stats stay reachable even if the engine is wedged,
//! precisely when they matter most.

use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use phoenix_obs::Obs;

/// A running stats listener. Dropping it stops the accept thread.
pub struct StatsListener {
    /// The TCP port being listened on.
    pub port: u16,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl StatsListener {
    /// Start serving the text exposition of the calling thread's instance
    /// on 127.0.0.1:`port` (0 = ephemeral).
    pub fn start(port: u16) -> io::Result<StatsListener> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        listener.set_nonblocking(true)?;
        let port = listener.local_addr()?.port();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let obs = phoenix_obs::current();
        let thread = std::thread::Builder::new()
            .name(format!("phx-stats-{port}"))
            .spawn(move || serve(listener, flag, &obs))?;
        Ok(StatsListener {
            port,
            shutdown,
            thread: Some(thread),
        })
    }
}

impl Drop for StatsListener {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn serve(listener: TcpListener, shutdown: Arc<AtomicBool>, obs: &Obs) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                // Drain whatever request line/headers arrived (best effort,
                // bounded) and answer unconditionally.
                let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
                let mut scratch = [0u8; 4096];
                let _ = stream.read(&mut scratch);
                let body = obs.registry().render_text();
                let response = format!(
                    "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                let _ = stream.write_all(response.as_bytes());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;

    #[test]
    fn serves_registry_text_over_http() {
        // Touch a metric so the body is non-empty.
        phoenix_obs::current()
            .registry()
            .counter("phoenix_stats_http_test_total", "test probe")
            .inc();
        let listener = StatsListener::start(0).unwrap();
        let mut stream = TcpStream::connect(("127.0.0.1", listener.port)).unwrap();
        stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.0 200 OK"), "{body}");
        assert!(body.contains("phoenix_stats_http_test_total"), "{body}");
    }
}
