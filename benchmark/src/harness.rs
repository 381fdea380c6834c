//! What the four workloads share: the run's scratch space, set-up timing,
//! the data-directory write meter and the closed-loop window.

use std::collections::BTreeMap;
use std::fs;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::adapter::{Counters, Local, Native};
use crate::server::{self, Server};
use crate::stats;
use crate::trace::Recorder;

/// The load generator: one process, closed loop, this many client threads
/// with one connection each. Never more than `nproc` of the reference host.
pub const CLIENTS: usize = 2;

/// `setup_s` is the median of this many complete set-ups in one run (the
/// driver's contract asks for several and a median; a smoke run does one).
const SETUPS: usize = 3;

pub struct Ctx {
    /// One of `metrics::WORKLOADS`.
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// `benchmark/out`: span files, server logs, the run record.
    pub out: PathBuf,
    pub scratch: Scratch,
    pub epoch: Instant,
}

impl Ctx {
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64(if self.smoke { 0.2 } else { 1.0 })
    }

    pub fn server_log(&self) -> PathBuf {
        self.out.join(format!("server-{}.log", self.workload))
    }
}

/// What a workload hands back: `metrics` by the names of `metrics.rs`, which
/// says which of them are gated; `notes` is the disclosure printed beside
/// them (sample counts, stream hashes).
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: BTreeMap<String, String>,
}

impl RunResult {
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.insert(key.to_string(), value.to_string());
    }
}

// ---------------------------------------------------------------------------
// scratch space
// ---------------------------------------------------------------------------

/// Per-run data directories under `benchmark/out/`, removed on exit —
/// including the exit a panic takes.
pub struct Scratch {
    root: PathBuf,
    next: AtomicU64,
}

impl Scratch {
    pub fn new(out: &Path) -> std::io::Result<Scratch> {
        // A run that was killed outright could not clean up after itself.
        for entry in fs::read_dir(out)?.flatten() {
            let name = entry.file_name();
            if let Some(pid) = name.to_string_lossy().strip_prefix("run-") {
                if !Path::new("/proc").join(pid).exists() {
                    let _ = fs::remove_dir_all(entry.path());
                }
            }
        }
        let root = out.join(format!("run-{}", std::process::id()));
        fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: AtomicU64::new(0),
        })
    }

    /// A fresh, empty directory.
    pub fn dir(&self, tag: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let d = self.root.join(format!("{tag}-{n}"));
        fs::create_dir_all(&d).expect("create scratch directory");
        d
    }

    pub fn remove(&self, dir: &Path) {
        let _ = fs::remove_dir_all(dir);
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

// ---------------------------------------------------------------------------
// set-up
// ---------------------------------------------------------------------------

/// A prepared data directory with the server running on it.
pub struct Ready {
    pub server: Server,
    pub dir: PathBuf,
    /// Bytes written into `dir` while it was prepared.
    pub prepared_bytes: u64,
    /// Median over the set-ups of this run: data generation, load, server
    /// start and first login.
    pub setup_s: f64,
    /// Slowest part of the last set-up, for `tpch.load_s`.
    pub load_s: f64,
}

/// Load `stmts` into a fresh directory through an in-process engine (the
/// same parse/plan/execute/log path, without the socket), checkpoint, then
/// run `tail`, which stays in the log for the server to replay, and leave the
/// directory closed. Returns the bytes written into it: the log as it stood
/// before the checkpoint cut it, the snapshot, and the tail.
pub fn load(
    dir: &Path,
    stmts: impl Iterator<Item = String>,
    tail: impl Iterator<Item = String>,
) -> Result<u64, String> {
    let db = Local::open_loader(dir)?;
    for sql in stmts {
        db.exec(&sql).map_err(|e| format!("load failed: {e}"))?;
    }
    let (log, _) = log_and_rest(dir);
    db.checkpoint()?;
    for sql in tail {
        db.exec(&sql).map_err(|e| format!("load failed: {e}"))?;
    }
    drop(db);
    let (tail, snapshot) = log_and_rest(dir);
    Ok(log + snapshot + tail)
}

/// Bytes in a data directory: `(WAL streams, everything else)`.
pub fn log_and_rest(dir: &Path) -> (u64, u64) {
    let (mut log, mut rest) = (0, 0);
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        if let Ok(meta) = entry.metadata() {
            if entry
                .file_name()
                .to_string_lossy()
                .starts_with("phoenix.wal")
            {
                log += meta.len();
            } else if meta.is_file() {
                rest += meta.len();
            }
        }
    }
    (log, rest)
}

/// Set up `SETUPS` times (once in a smoke run) and keep the last: `prepare`
/// fills a fresh directory and says how many bytes it wrote, then the server
/// is started on it and the first login is awaited. Warm-up is not part of
/// `setup_s`: it is a fixed sleep-like span that would only dilute a real
/// change.
pub fn set_up(
    ctx: &Ctx,
    mut prepare: impl FnMut(&Path) -> Result<u64, String>,
) -> Result<Ready, String> {
    let mut times = Vec::new();
    let mut last: Option<Ready> = None;
    for _ in 0..if ctx.smoke { 1 } else { SETUPS } {
        if let Some(prev) = last.take() {
            let dir = prev.dir.clone();
            drop(prev);
            ctx.scratch.remove(&dir);
        }
        let t0 = Instant::now();
        let dir = ctx.scratch.dir(ctx.workload);
        let prepared_bytes = prepare(&dir)?;
        let load_s = t0.elapsed().as_secs_f64();
        let server = start_server(&dir, 0, &ctx.server_log())?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(Ready {
            server,
            dir,
            prepared_bytes,
            setup_s: 0.0,
            load_s,
        });
    }
    let mut ready = last.expect("at least one set-up");
    ready.setup_s = stats::median_f64(&mut times);
    Ok(ready)
}

/// Spawn the server and wait until a login succeeds.
pub fn start_server(dir: &Path, port: u16, log: &Path) -> Result<Server, String> {
    let mut server = Server::spawn(dir, port, log).map_err(|e| e.to_string())?;
    server
        .wait_listening(Duration::from_secs(60))
        .map_err(|e| e.to_string())?;
    Native::connect(&server.addr())?.close();
    Ok(server)
}

// ---------------------------------------------------------------------------
// bytes written into a data directory
// ---------------------------------------------------------------------------

/// Bytes written into a directory while the meter runs: the files' sizes
/// when it starts are the baseline, and every 20 ms each file's growth since
/// the last look is added up, files told apart by inode so a rotated log is
/// not counted twice and a truncated one is not subtracted. A checkpoint's
/// sawtooth in the directory's *size* therefore does not show: this is write
/// volume, which is what `disk_bytes_per_user_byte` divides.
pub struct DirMeter {
    stop: Arc<AtomicBool>,
    written: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

fn file_sizes(dir: &Path) -> Vec<(u64, u64)> {
    let entries = fs::read_dir(dir).into_iter().flatten().flatten();
    entries
        .filter_map(|e| e.metadata().ok())
        .filter(|meta| meta.is_file())
        .map(|meta| (meta.ino(), meta.len()))
        .collect()
}

impl DirMeter {
    pub fn start(dir: &Path) -> DirMeter {
        let stop = Arc::new(AtomicBool::new(false));
        let written = Arc::new(AtomicU64::new(0));
        let (dir, stop2, written2) = (dir.to_path_buf(), stop.clone(), written.clone());
        let mut seen: BTreeMap<u64, u64> = file_sizes(&dir).into_iter().collect();
        let handle = std::thread::spawn(move || loop {
            // Read the flag first: the last look happens after `stop`.
            let last = stop2.load(Ordering::SeqCst);
            for (ino, len) in file_sizes(&dir) {
                let before = seen.insert(ino, len).unwrap_or(0);
                written2.fetch_add(len.saturating_sub(before), Ordering::Relaxed);
            }
            if last {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        });
        DirMeter {
            stop,
            written,
            handle: Some(handle),
        }
    }

    pub fn stop(mut self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            h.join().expect("directory meter thread");
        }
        self.written.load(Ordering::Relaxed)
    }
}

impl Drop for DirMeter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// the calls of one timed window
// ---------------------------------------------------------------------------

/// The successful driver calls of a timed window, pooled over its clients,
/// with the time they took to make and the server CPU spent meanwhile.
#[derive(Default)]
pub struct Calls {
    pub lat_ns: Vec<u64>,
    pub seconds: f64,
    pub server_cpu_us: u64,
}

/// The four end-to-end metrics every workload takes from its calls, over the
/// pooled samples of the whole window; the sample count goes beside them.
pub fn call_metrics(r: &mut RunResult, calls: &mut Calls) {
    let n = calls.lat_ns.len() as f64;
    r.metrics
        .insert("throughput_ops_s", stats::ratio(n, calls.seconds));
    r.metrics
        .insert("op_p50_us", stats::quantile(&mut calls.lat_ns, 0.50) / 1e3);
    r.metrics
        .insert("op_p99_us", stats::quantile(&mut calls.lat_ns, 0.99) / 1e3);
    r.metrics.insert(
        "server_cpu_us_per_op",
        stats::ratio(calls.server_cpu_us as f64, n),
    );
    r.note("op_samples", calls.lat_ns.len());
}

// ---------------------------------------------------------------------------
// the closed-loop window
// ---------------------------------------------------------------------------

/// Per-thread record of the driver calls of one window.
pub struct OpLog {
    recording: bool,
    lat_ns: Vec<u64>,
    failed: u64,
    user_bytes: u64,
}

impl OpLog {
    /// One driver call: its client-observed time, whether its reply was
    /// right, and the user row bytes it wrote.
    pub fn call(&mut self, ns: u64, ok: bool, user_bytes: u64) {
        if !self.recording {
            return;
        }
        if ok {
            self.lat_ns.push(ns);
            self.user_bytes += user_bytes;
        } else {
            self.failed += 1;
        }
    }
}

/// One client of the closed loop: `step` sends the next operation of its
/// seeded stream and waits for every reply before returning.
pub trait Client: Send {
    fn step(&mut self, conn: &mut Native, log: &mut OpLog, rec: Option<&mut Recorder>);
}

/// What one timed window measured.
pub struct Window {
    pub calls: Calls,
    pub failed: u64,
    pub user_bytes: u64,
    /// Bytes written into the data directory between the first recorded call
    /// and the last.
    pub dir_written: u64,
    pub client_cpu_us: u64,
    /// Server counters over the window (the control connection's own stats
    /// request included; subtract `type="stats"` where it matters).
    pub counters: Counters,
    pub recorders: Vec<Recorder>,
}

impl Window {
    pub fn ok_calls(&self) -> u64 {
        self.calls.lat_ns.len() as u64
    }

    pub fn attempted(&self) -> u64 {
        self.ok_calls() + self.failed
    }

    pub fn throughput(&self) -> f64 {
        stats::ratio(self.ok_calls() as f64, self.calls.seconds)
    }
}

const WARMUP: u8 = 0;
const RECORD: u8 = 1;
const STOP: u8 = 2;

/// Run every client on its own thread and connection: `warmup` unrecorded,
/// then `window` recorded. `control` is a third connection that is idle
/// inside the window; it fetches the server's counters just before and just
/// after. With `epoch` given, spans are recorded around each driver call.
pub fn run_window<C: Client>(
    ready: &Ready,
    control: &mut Native,
    clients: &mut [(Native, C)],
    warmup: Duration,
    window: Duration,
    epoch: Option<Instant>,
) -> Result<Window, String> {
    let server = &ready.server;
    let phase = AtomicU8::new(WARMUP);
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|(conn, client)| {
                let phase = &phase;
                scope.spawn(move || {
                    let mut log = OpLog {
                        recording: false,
                        lat_ns: Vec::new(),
                        failed: 0,
                        user_bytes: 0,
                    };
                    let mut rec = epoch.map(Recorder::new);
                    loop {
                        match phase.load(Ordering::Acquire) {
                            STOP => break,
                            p => log.recording = p == RECORD,
                        }
                        let rec = if log.recording { rec.as_mut() } else { None };
                        client.step(conn, &mut log, rec);
                    }
                    (log, rec)
                })
            })
            .collect();

        std::thread::sleep(warmup);
        let before = control.counters();
        let (client_cpu0, server_cpu0) = (server::self_cpu_us(), server.cpu_us());
        let meter = DirMeter::start(&ready.dir);
        let t0 = Instant::now();
        phase.store(RECORD, Ordering::Release);
        std::thread::sleep(window);
        phase.store(STOP, Ordering::Release);
        let mut out = Window {
            calls: Calls {
                lat_ns: Vec::new(),
                seconds: t0.elapsed().as_secs_f64(),
                server_cpu_us: server.cpu_us() - server_cpu0,
            },
            failed: 0,
            user_bytes: 0,
            dir_written: meter.stop(),
            client_cpu_us: server::self_cpu_us() - client_cpu0,
            counters: Counters::default(),
            recorders: Vec::new(),
        };
        for h in handles {
            let (log, rec) = h.join().map_err(|_| "client thread panicked".to_string())?;
            out.calls.lat_ns.extend(log.lat_ns);
            out.failed += log.failed;
            out.user_bytes += log.user_bytes;
            out.recorders.extend(rec);
        }
        out.counters = control.counters()?.since(&before?);
        Ok(out)
    })
}
