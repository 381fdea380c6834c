//! The warm standby: receiver and promotion.
//!
//! A [`Standby`] owns a data directory and a TCP port. Until promoted it
//! speaks only the replication subset of the protocol: `ReplHello` (report
//! the highest GSN it holds), `ReplFrames` (append to its own per-partition
//! logs, feed the applier, fsync, ack), `Promote`, and `Ping`. Login
//! attempts are answered with the retryable `Fenced` error so a
//! failover-aware driver rotates on to the next address — or retries here
//! until promotion completes.
//!
//! # The warm image
//!
//! The standby turns log records into table state with the same
//! [`Applier`] crash recovery uses, loaded from its directory at start.
//! Frames are appended to disk **before** they are fed, and fed only if the
//! append succeeded, so the directory and the image never disagree: at any
//! instant, killing the standby and running ordinary recovery on its
//! directory reproduces the image. Promotion hands the applier to
//! `Engine::open_warm`, which reads back only frames the applier has not
//! seen — typically none — making promotion time independent of database
//! size.
//!
//! # Fencing
//!
//! Promotion durably bumps the directory's replication epoch to outrank
//! every epoch it has ever seen. A deposed primary learns the new epoch
//! from `Promote` (the supervisor's kill switch) or from this standby's
//! hello-ack, and its own engine then refuses every login and WAL append.

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use phoenix_engine::{read_epoch, write_epoch, Engine, EngineConfig, ErrorCode};
use phoenix_server::server::SharedEngine;
use phoenix_server::RunningServer;
use phoenix_storage::applier::{frame_payload, Applier};
use phoenix_storage::db::{Durable, MAX_PARTITIONS};
use phoenix_storage::record::LogRecord;
use phoenix_storage::wal::{Wal, WalPoints};
use phoenix_wire::frame::{read_frame, write_frame};
use phoenix_wire::{Request, Response};

use crate::metrics::repl_metrics;

/// Chaos fault-point names for the standby's own log streams — distinct
/// from the primary's `wal.*` points so schedules targeting the primary's
/// append windows don't also perturb (or get perturbed by) standby appends.
const STANDBY_POINTS: WalPoints = WalPoints {
    append: "repl.standby.append",
    fsync: "repl.standby.fsync",
    truncate: "repl.standby.truncate",
    rotate: "repl.standby.rotate",
};

/// Standby configuration.
#[derive(Debug, Clone, Default)]
pub struct StandbyConfig {
    /// Engine configuration used when this standby is promoted (and for
    /// the durability mode of its own log appends).
    pub engine_config: EngineConfig,
    /// TCP port for the receiver — and, after promotion, for the real
    /// server (0 = ephemeral; the bound port is reused across promotion so
    /// a client's server list stays valid).
    pub port: u16,
    /// Promote automatically if no primary traffic (hello, frames,
    /// heartbeats) arrives for this long. `None` = operator-only promotion.
    pub auto_promote_after: Option<Duration>,
}

/// State the receiver connections and the promoter contend over.
struct ReplState {
    /// `Some` until promotion consumes it.
    applier: Option<Applier>,
    /// Lazily-opened per-partition logs for shipped frames.
    wals: HashMap<usize, Wal>,
}

struct Shared {
    dir: PathBuf,
    config: StandbyConfig,
    port: u16,
    shutdown: AtomicBool,
    /// Set by the accept loop when it has exited (and the listener — and
    /// with it the port — has been released for the promoted server).
    accept_done: AtomicBool,
    promoted: AtomicBool,
    /// `phoenix_obs::now_us()` of the last primary traffic.
    last_traffic_us: AtomicU64,
    /// Highest epoch any primary has announced in a hello.
    primary_epoch: AtomicU64,
    /// This directory's own durable epoch (bumped by promotion).
    own_epoch: AtomicU64,
    state: Mutex<ReplState>,
    /// The real server, once promoted.
    server: Mutex<Option<RunningServer>>,
}

/// A running warm standby.
pub struct Standby {
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    monitor_thread: Option<JoinHandle<()>>,
}

impl Standby {
    /// Start a standby over `dir`: recover the directory into a warm image
    /// (an empty directory warms from nothing) and listen for a shipper.
    pub fn start(dir: impl AsRef<Path>, config: StandbyConfig) -> io::Result<Standby> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let applier = Applier::load(&dir).map_err(|e| io::Error::other(e.to_string()))?;
        repl_metrics().applied_gsn.set(applier.max_gsn() as i64);

        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        listener.set_nonblocking(true)?;
        let port = listener.local_addr()?.port();
        let own_epoch = read_epoch(&dir);

        let shared = Arc::new(Shared {
            dir,
            port,
            shutdown: AtomicBool::new(false),
            accept_done: AtomicBool::new(false),
            promoted: AtomicBool::new(false),
            last_traffic_us: AtomicU64::new(phoenix_obs::now_us()),
            primary_epoch: AtomicU64::new(0),
            own_epoch: AtomicU64::new(own_epoch),
            state: Mutex::new(ReplState {
                applier: Some(applier),
                wals: HashMap::new(),
            }),
            server: Mutex::new(None),
            config,
        });

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name(format!("phx-standby-{port}"))
            .spawn(move || accept_loop(listener, accept_shared))?;

        let monitor_thread = match shared.config.auto_promote_after {
            None => None,
            Some(timeout) => {
                let mon = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("phx-standby-mon".into())
                        .spawn(move || monitor_loop(mon, timeout))?,
                )
            }
        };

        Ok(Standby {
            shared,
            accept_thread: Some(accept_thread),
            monitor_thread,
        })
    }

    /// `host:port` of the receiver — and of the promoted server, which
    /// reuses the same port.
    pub fn addr(&self) -> String {
        format!("127.0.0.1:{}", self.shared.port)
    }

    /// The bound TCP port.
    pub fn port(&self) -> u16 {
        self.shared.port
    }

    /// The standby's data directory.
    pub fn data_dir(&self) -> &Path {
        &self.shared.dir
    }

    /// The directory's current replication epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.own_epoch.load(Ordering::SeqCst)
    }

    /// Has this standby been promoted to a serving primary?
    pub fn is_promoted(&self) -> bool {
        self.shared.promoted.load(Ordering::SeqCst)
    }

    /// Highest GSN this standby holds (pre-promotion: the applier's
    /// high-water; post-promotion: the serving engine's log).
    pub fn applied_gsn(&self) -> u64 {
        if let Some(a) = self.shared.state.lock().applier.as_ref() {
            return a.max_gsn();
        }
        self.with_engine(Engine::last_gsn).unwrap_or(0)
    }

    /// Records received but not yet materialized (the undecided tail).
    pub fn pending_records(&self) -> usize {
        self.shared
            .state
            .lock()
            .applier
            .as_ref()
            .map(Applier::pending_len)
            .unwrap_or(0)
    }

    /// Operator promotion: fence further frames, bump the durable epoch to
    /// outrank `epoch` (and everything seen so far), and start serving.
    /// Returns the new epoch.
    pub fn promote(&self, epoch: u64) -> io::Result<u64> {
        do_promote(&self.shared, epoch)
    }

    /// Run `f` against the promoted engine (None before promotion or after
    /// the engine is crashed away).
    pub fn with_engine<R>(&self, f: impl FnOnce(&Engine) -> R) -> Option<R> {
        let server = self.shared.server.lock();
        let engine = server.as_ref()?.engine.read().clone();
        engine.map(|e| f(&e))
    }

    /// The promoted server's crash-switch engine handle.
    pub fn shared_engine(&self) -> Option<SharedEngine> {
        let server = self.shared.server.lock();
        server.as_ref().map(|s| Arc::clone(&s.engine))
    }

    /// Take ownership of the promoted server (harness-style control: the
    /// caller can crash, restart, or stop it like any `RunningServer`).
    pub fn take_promoted_server(&self) -> Option<RunningServer> {
        self.shared.server.lock().take()
    }

    /// Stop the standby. If promoted, the server is stopped and its engine
    /// returned (for an orderly final checkpoint).
    pub fn stop(mut self) -> Option<Arc<Engine>> {
        self.halt();
        let server = self.shared.server.lock().take();
        server.and_then(RunningServer::stop)
    }

    fn halt(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.monitor_thread.take() {
            let _ = t.join();
        }
        // Sync whatever the receiver appended so an orderly stop leaves a
        // fully durable directory.
        let mut state = self.shared.state.lock();
        for wal in state.wals.values_mut() {
            let _ = wal.sync();
        }
        state.wals.clear();
    }
}

impl Drop for Standby {
    fn drop(&mut self) {
        self.halt();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) && !shared.promoted.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                // Bounded read so dead shippers release their threads; a
                // live shipper heartbeats every ~100ms, far inside this.
                let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                let conn_shared = Arc::clone(&shared);
                let _ = std::thread::Builder::new()
                    .name("phx-standby-conn".into())
                    .spawn(move || serve_repl_connection(stream, conn_shared));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    // Dropping the listener here releases the port for the promoted server.
    drop(listener);
    shared.accept_done.store(true, Ordering::SeqCst);
}

fn monitor_loop(shared: Arc<Shared>, timeout: Duration) {
    while !shared.shutdown.load(Ordering::SeqCst) && !shared.promoted.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(10));
        let idle_us =
            phoenix_obs::now_us().saturating_sub(shared.last_traffic_us.load(Ordering::SeqCst));
        if idle_us >= timeout.as_micros() as u64 {
            phoenix_obs::journal().record(
                "repl",
                phoenix_obs::EventKind::ServerLifecycle,
                format!("heartbeat timeout ({timeout:?} without primary traffic): promoting"),
            );
            let epoch = shared.primary_epoch.load(Ordering::SeqCst) + 1;
            if let Err(e) = do_promote(&shared, epoch) {
                // Lost a race with an operator promotion, or promotion
                // failed; either way the loop exits via the flags.
                phoenix_obs::journal().record(
                    "repl",
                    phoenix_obs::EventKind::Other,
                    format!("auto-promotion did not complete: {e}"),
                );
            }
            return;
        }
    }
}

/// Serve one replication connection until error, shutdown, or promotion.
fn serve_repl_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(_) => break, // peer gone, or read timeout on a dead shipper
        };
        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                let rsp = Response::Err {
                    code: ErrorCode::Parse as u16,
                    message: format!("malformed request: {e}"),
                };
                if write_frame(&mut stream, &rsp.encode()).is_err() {
                    break;
                }
                continue;
            }
        };
        let (response, done) = handle_request(&shared, request);
        if write_frame(&mut stream, &response.encode()).is_err() {
            break;
        }
        if done {
            break;
        }
    }
}

/// Handle one replication-protocol request. Returns the reply and whether
/// the connection should close after sending it.
fn handle_request(shared: &Shared, request: Request) -> (Response, bool) {
    match request {
        Request::Ping => (Response::Pong, false),
        Request::ReplHello { epoch, protocol: _ } => {
            if shared.promoted.load(Ordering::SeqCst) {
                return (fenced_reply("standby has been promoted"), true);
            }
            shared
                .last_traffic_us
                .store(phoenix_obs::now_us(), Ordering::SeqCst);
            shared.primary_epoch.fetch_max(epoch, Ordering::SeqCst);
            let state = shared.state.lock();
            let last_gsn = state.applier.as_ref().map(Applier::max_gsn).unwrap_or(0);
            // The ack's epoch is the best epoch this standby knows of: a
            // deposed primary helloing a standby that has seen a newer one
            // learns here that it must fence itself.
            let best = shared
                .own_epoch
                .load(Ordering::SeqCst)
                .max(shared.primary_epoch.load(Ordering::SeqCst));
            (
                Response::ReplHelloAck {
                    epoch: best,
                    last_gsn,
                },
                false,
            )
        }
        Request::ReplFrames { epoch, frames } => {
            if shared.promoted.load(Ordering::SeqCst) {
                return (fenced_reply("standby has been promoted"), true);
            }
            if epoch < shared.primary_epoch.load(Ordering::SeqCst) {
                return (fenced_reply("frames from a stale epoch"), true);
            }
            shared
                .last_traffic_us
                .store(phoenix_obs::now_us(), Ordering::SeqCst);
            match apply_batch(shared, &frames) {
                Ok(last_gsn) => (Response::ReplAck { last_gsn }, false),
                Err(e) => (
                    Response::Err {
                        code: ErrorCode::Storage as u16,
                        message: format!("standby apply failed: {e}"),
                    },
                    true,
                ),
            }
        }
        Request::Promote { epoch } => match do_promote(shared, epoch) {
            Ok(new_epoch) => (Response::Promoted { epoch: new_epoch }, true),
            Err(e) => (
                Response::Err {
                    code: ErrorCode::Internal as u16,
                    message: format!("promotion failed: {e}"),
                },
                true,
            ),
        },
        // Anything else is a client that reached the standby before
        // promotion: refuse with the retryable Fenced code so the driver
        // rotates (or backs off and retries until promotion lands).
        _ => (fenced_reply("standby: not promoted yet"), false),
    }
}

fn fenced_reply(why: &str) -> Response {
    Response::Err {
        code: ErrorCode::Fenced as u16,
        message: why.into(),
    }
}

/// Append a batch to the standby's logs, feed it to the applier, and fsync.
/// Returns the new high-water GSN to ack.
///
/// A frame is fed to the applier **iff** its append returned Ok, so disk
/// and image never disagree; a mid-batch failure acks nothing (the shipper
/// re-ships from the hello high-water after reconnecting, and the
/// already-appended prefix is skipped by the `gsn > max_gsn` guard — on
/// this incarnation via the applier, after a standby restart via its
/// reload of the directory, which holds the prefix).
fn apply_batch(shared: &Shared, frames: &[phoenix_wire::ReplFrame]) -> io::Result<u64> {
    let mut state = shared.state.lock();
    if shared.promoted.load(Ordering::SeqCst) {
        return Err(io::Error::other("promoted while batch in flight"));
    }
    // The standby-side chaos point. Torn(n) applies only an n-frame prefix
    // — the half-applied-batch window the failover sweep explores.
    let cut = match phoenix_chaos::fault("repl.apply") {
        phoenix_chaos::FaultAction::Continue => frames.len(),
        phoenix_chaos::FaultAction::Delay(d) => {
            std::thread::sleep(d);
            frames.len()
        }
        phoenix_chaos::FaultAction::Torn(n) => n.min(frames.len()),
        phoenix_chaos::FaultAction::Crash | phoenix_chaos::FaultAction::IoError => {
            return Err(phoenix_chaos::injected_error("repl.apply"));
        }
    };
    let torn = cut < frames.len();

    let state = &mut *state;
    let applier = state
        .applier
        .as_mut()
        .ok_or_else(|| io::Error::other("applier gone (promotion raced)"))?;
    let mut touched: HashSet<usize> = HashSet::new();
    let mut fed = 0u64;
    for frame in &frames[..cut] {
        let k = frame.partition as usize;
        if k >= MAX_PARTITIONS {
            return Err(io::Error::other(format!("bad partition {k}")));
        }
        if frame.gsn <= applier.max_gsn() {
            // Re-shipped after a reconnect: already held, skip.
            continue;
        }
        let rec = LogRecord::decode(&frame.record).map_err(|e| io::Error::other(e.to_string()))?;
        let wal = match state.wals.entry(k) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => v.insert(Wal::open_with_points(
                Durable::wal_path(&shared.dir, k),
                STANDBY_POINTS,
            )?),
        };
        wal.append(&frame_payload(frame.gsn, &frame.record))?;
        touched.insert(k);
        applier
            .feed(frame.partition as u32, frame.gsn, rec)
            .map_err(|e| io::Error::other(format!("standby apply diverged: {e}")))?;
        fed += 1;
    }
    // Receive-ack means *durable* receive: semi-sync primaries count on it.
    for k in &touched {
        state.wals.get_mut(k).expect("touched wal open").sync()?;
    }
    let m = repl_metrics();
    m.frames_applied.add(fed);
    m.applied_gsn.set(applier.max_gsn() as i64);
    if torn {
        return Err(phoenix_chaos::injected_error("repl.apply"));
    }
    Ok(applier.max_gsn())
}

/// Promote: fence frames, release the port, bump the durable epoch, build
/// the engine from the applier, start serving.
fn do_promote(shared: &Shared, requested_epoch: u64) -> io::Result<u64> {
    match phoenix_chaos::fault("repl.promote") {
        phoenix_chaos::FaultAction::Continue => {}
        phoenix_chaos::FaultAction::Delay(d) => std::thread::sleep(d),
        _ => return Err(phoenix_chaos::injected_error("repl.promote")),
    }
    let started = std::time::Instant::now();
    // Serialize against concurrent promoters and in-flight batches.
    let mut state = shared.state.lock();
    if shared.promoted.swap(true, Ordering::SeqCst) {
        return Err(io::Error::other("already promoted"));
    }
    // Stop accepting repl connections and wait for the listener (and the
    // port) to be released. Handler threads still parked on reads exit on
    // their own; the promoted flag refuses anything they send meanwhile.
    while !shared.accept_done.load(Ordering::SeqCst) {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Err(io::Error::other("standby shut down during promotion"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    // Everything received must be on stable storage before we serve.
    for wal in state.wals.values_mut() {
        wal.sync()?;
    }
    state.wals.clear();

    // Outrank every epoch this directory has ever seen — durably, before
    // the engine opens, so even a crash mid-promotion leaves the bump.
    let new_epoch = requested_epoch
        .max(shared.own_epoch.load(Ordering::SeqCst) + 1)
        .max(shared.primary_epoch.load(Ordering::SeqCst) + 1);
    write_epoch(&shared.dir, new_epoch)?;
    shared.own_epoch.store(new_epoch, Ordering::SeqCst);

    let applier = state
        .applier
        .take()
        .ok_or_else(|| io::Error::other("warm image already consumed"))?;
    let engine = Engine::open_warm(&shared.dir, shared.config.engine_config.clone(), applier)
        .map_err(|e| io::Error::other(format!("open_warm failed: {e}")))?;
    let server = RunningServer::start(engine, shared.port)?;
    *shared.server.lock() = Some(server);

    let m = repl_metrics();
    m.promotions.inc();
    phoenix_obs::journal().record(
        "repl",
        phoenix_obs::EventKind::ServerLifecycle,
        format!(
            "promoted to epoch {new_epoch} in {:?}, serving on port {}",
            started.elapsed(),
            shared.port
        ),
    );
    Ok(new_epoch)
}
