//! The primary-side WAL shipper.
//!
//! One thread per primary/standby pair. The shipper attaches to the
//! engine's replication tap, catches the standby up from the on-disk logs,
//! then drains the tap's post-fsync stream into `ReplFrames` batches —
//! waiting for the standby's `ReplAck` after every batch, which is what
//! advances the ack high-water mark semi-sync commits block on.
//!
//! The shipper holds the server's *crash-switch* engine handle
//! ([`phoenix_server::server::SharedEngine`]), not a bare `Arc<Engine>`:
//! when the harness crashes the primary the handle goes observably dead and
//! the shipper thread exits, exactly as a shipper inside a dying process
//! would. Every iteration of the live loop also visits the `repl.ship`
//! durable fault point, so chaos schedules can kill the primary mid-ship.

use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use phoenix_engine::Engine;
use phoenix_server::server::SharedEngine;
use phoenix_storage::ShipFrame;
use phoenix_wire::frame::{read_frame, write_frame};
use phoenix_wire::{ReplFrame, Request, Response, PROTOCOL_V2};

use crate::metrics::repl_metrics;

/// Frames per `ReplFrames` batch. Bounds both the standby's per-batch fsync
/// cost and the shipper's memory while catching up from backlog.
const BATCH: usize = 512;
/// How long one `repl_poll` waits for traffic before the shipper sends an
/// empty `ReplFrames` heartbeat (which is also what keeps the standby's
/// heartbeat-timeout promoter at bay).
const POLL_WAIT: Duration = Duration::from_millis(100);
/// Backoff between reconnect attempts after a ship error.
const RETRY_DELAY: Duration = Duration::from_millis(50);

/// A running shipper thread. Dropping it (or calling [`Shipper::stop`])
/// detaches the tap and joins the thread.
pub struct Shipper {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

/// Why one shipping session (connect → hello → attach → live loop) ended.
enum ShipExit {
    /// [`Shipper::stop`] was called.
    Stopped,
    /// This primary was fenced (locally, or by a standby whose hello-ack
    /// carried a higher epoch). The shipper thread exits for good.
    Fenced,
    /// The crash switch fired: the engine was taken out of the shared
    /// handle. A real shipper thread dies with its process; ours exits.
    Gone,
}

impl Shipper {
    /// Start shipping the primary behind `engine` to the standby receiver
    /// at `standby_addr`. The thread exits on its own when the engine is
    /// crashed away or fenced; otherwise it reconnects with backoff until
    /// stopped.
    pub fn start(engine: SharedEngine, standby_addr: impl Into<String>) -> Shipper {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let addr = standby_addr.into();
        let thread = std::thread::Builder::new()
            .name("phx-repl-ship".into())
            .spawn(move || run(engine, addr, &flag))
            .expect("spawn shipper thread");
        Shipper {
            stop,
            thread: Some(thread),
        }
    }

    /// Stop shipping and join the thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Shipper {
    fn drop(&mut self) {
        self.halt();
    }
}

fn run(engine: SharedEngine, addr: String, stop: &AtomicBool) {
    let m = repl_metrics();
    while !stop.load(Ordering::Relaxed) {
        // A halted chaos session means this "process" is dead: do nothing
        // until the supervisor acknowledges the crash (at which point the
        // engine handle will be gone and we exit below).
        if phoenix_chaos::halted() {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        let Some(eng) = engine.read().clone() else {
            // The crash switch fired: the primary is gone, and with it us.
            return;
        };
        if eng.is_fenced() {
            return;
        }
        match ship_session(&eng, &engine, &addr, stop) {
            Ok(ShipExit::Stopped) => return,
            Ok(ShipExit::Fenced) => return,
            Ok(ShipExit::Gone) => return,
            Err(e) => {
                m.ship_errors.inc();
                phoenix_obs::journal().record(
                    "repl",
                    phoenix_obs::EventKind::Other,
                    format!("ship error, will reconnect: {e}"),
                );
                eng.repl_detach();
                drop(eng);
                std::thread::sleep(RETRY_DELAY);
            }
        }
    }
}

/// One shipping session: dial, handshake, catch up, then the live loop.
fn ship_session(
    eng: &Arc<Engine>,
    handle: &SharedEngine,
    addr: &str,
    stop: &AtomicBool,
) -> io::Result<ShipExit> {
    let m = repl_metrics();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;

    write_frame(
        &mut stream,
        &Request::ReplHello {
            epoch: eng.epoch(),
            protocol: PROTOCOL_V2,
        }
        .encode(),
    )
    .map_err(io_of_frame)?;
    let (ack_epoch, standby_last_gsn) =
        match decode_rsp(&read_frame(&mut stream).map_err(io_of_frame)?)? {
            Response::ReplHelloAck { epoch, last_gsn } => (epoch, last_gsn),
            Response::Err { message, .. } => {
                return Err(io::Error::other(format!(
                    "standby refused hello: {message}"
                )))
            }
            other => {
                return Err(io::Error::other(format!(
                    "unexpected hello reply: {other:?}"
                )))
            }
        };
    if ack_epoch > eng.epoch() {
        // The standby outranks us: a promotion happened while we were away.
        // We are the deposed primary — fence durably and stop shipping.
        eng.fence(ack_epoch);
        return Ok(ShipExit::Fenced);
    }

    let backlog = eng
        .repl_attach(standby_last_gsn)
        .map_err(|e| io::Error::other(e.to_string()))?;
    phoenix_obs::journal().record(
        "repl",
        phoenix_obs::EventKind::Other,
        format!(
            "shipper attached: standby at gsn {standby_last_gsn}, backlog {} frames",
            backlog.len()
        ),
    );
    for chunk in backlog.chunks(BATCH) {
        if stop.load(Ordering::Relaxed) {
            eng.repl_detach();
            return Ok(ShipExit::Stopped);
        }
        send_batch(&mut stream, eng, chunk)?;
    }

    loop {
        if stop.load(Ordering::Relaxed) {
            eng.repl_detach();
            return Ok(ShipExit::Stopped);
        }
        if eng.is_fenced() {
            eng.repl_detach();
            return Ok(ShipExit::Fenced);
        }
        if handle.read().is_none() {
            // The primary was crashed away. Our cloned handle would keep
            // the old engine technically alive — a dead process's thread
            // must not; stop touching it and let the incarnation die.
            eng.repl_detach();
            return Ok(ShipExit::Gone);
        }
        let frames = eng
            .repl_poll(BATCH, POLL_WAIT)
            .map_err(|e| io::Error::other(e.to_string()))?;
        // The primary-side kill point: a chaos schedule crashing here models
        // the primary dying between fsync and ship — the window async
        // commit mode deliberately leaves exposed.
        phoenix_chaos::check_durable("repl.ship")?;
        // An empty batch doubles as the heartbeat.
        send_batch(&mut stream, eng, &frames)?;
        m.lag_records
            .set(eng.last_gsn().saturating_sub(eng.repl_acked_gsn()) as i64);
    }
}

/// Ship one batch and wait for its ack.
fn send_batch(stream: &mut TcpStream, eng: &Arc<Engine>, frames: &[ShipFrame]) -> io::Result<()> {
    let m = repl_metrics();
    let bytes: usize = frames.iter().map(|(_, r)| r.len()).sum();
    let wire_frames: Vec<ReplFrame> = frames
        .iter()
        .map(|(gsn, record)| ReplFrame {
            gsn: *gsn,
            record: record.clone(),
        })
        .collect();
    write_frame(
        stream,
        &Request::ReplFrames {
            epoch: eng.epoch(),
            frames: wire_frames,
        }
        .encode(),
    )
    .map_err(io_of_frame)?;
    if let Some((gsn, _)) = frames.last() {
        m.frames_shipped.add(frames.len() as u64);
        m.bytes_shipped.add(bytes as u64);
        m.last_shipped_gsn.set(*gsn as i64);
    }
    match decode_rsp(&read_frame(stream).map_err(io_of_frame)?)? {
        Response::ReplAck { last_gsn } => {
            eng.repl_ack(last_gsn);
            m.acks.inc();
            m.last_acked_gsn.set(last_gsn as i64);
            Ok(())
        }
        Response::Err { message, .. } => Err(io::Error::other(format!(
            "standby refused frames: {message}"
        ))),
        other => Err(io::Error::other(format!("unexpected ack reply: {other:?}"))),
    }
}

fn decode_rsp(payload: &[u8]) -> io::Result<Response> {
    Response::decode(payload).map_err(|e| io::Error::other(e.to_string()))
}

fn io_of_frame(e: phoenix_wire::FrameError) -> io::Error {
    match e {
        phoenix_wire::FrameError::Io(io) => io,
        other => io::Error::other(other.to_string()),
    }
}
