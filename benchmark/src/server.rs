//! The system under test: the shipped `phoenix-server` binary as a child
//! process with its defaults (`Durability::Fsync`, default partitions,
//! checkpoint every 100 000 records) — never `--buffered`, no tuning flag.
//!
//! No orphan can outlive the benchmark: the child's stdin is a pipe this
//! process holds, and the server shuts down when that pipe closes — which the
//! kernel does for us on Ctrl-C, panic or `kill -9` of the benchmark. On
//! every ordinary path `Drop` kills the child and waits for it.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Find the server binary next to the benchmark's own executable, where
/// `run.sh` builds both (`$CARGO_TARGET_DIR/release`).
pub fn server_binary() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    // The benchmark sits in `<target>/release/`, its tests in
    // `<target>/<profile>/deps/`.
    for dir in exe.ancestors().skip(1).take(3) {
        for candidate in [
            dir.join("phoenix-server"),
            dir.join("release/phoenix-server"),
        ] {
            if candidate.is_file() {
                return Ok(candidate);
            }
        }
    }
    Err(io::Error::new(
        io::ErrorKind::NotFound,
        "phoenix-server not found beside the benchmark; build it with \
         `cargo build --release -p phoenix-server` into the same target directory",
    ))
}

pub struct Server {
    child: Option<Child>,
    log: PathBuf,
    log_offset: u64,
    pub port: u16,
}

impl Server {
    /// Start the server on `data`. `port` 0 asks the kernel for a free port;
    /// a restart passes the port of the incarnation it replaces. Standard
    /// error is appended to `log`.
    pub fn spawn(data: &Path, port: u16, log: &Path) -> io::Result<Server> {
        let bin = server_binary()?;
        let stderr = OpenOptions::new().create(true).append(true).open(log)?;
        let log_offset = stderr.metadata()?.len();
        let child = Command::new(bin)
            .arg("--data")
            .arg(data)
            .arg("--port")
            .arg(port.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()?;
        Ok(Server {
            child: Some(child),
            log: log.to_path_buf(),
            log_offset,
            port,
        })
    }

    /// Block until this incarnation prints its `listening on` line, and
    /// learn the port from it.
    pub fn wait_listening(&mut self, timeout: Duration) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        loop {
            let mut text = String::new();
            let mut f = File::open(&self.log)?;
            f.seek(SeekFrom::Start(self.log_offset))?;
            f.read_to_string(&mut text)?;
            if let Some(port) = text
                .lines()
                .find_map(|l| l.split("listening on 127.0.0.1:").nth(1))
                .and_then(|p| p.trim().parse().ok())
            {
                self.port = port;
                return Ok(());
            }
            if let Some(status) = self.child.as_mut().expect("running").try_wait()? {
                return Err(io::Error::other(format!(
                    "phoenix-server exited during start ({status}): {}",
                    text.trim()
                )));
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "phoenix-server did not start listening",
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn addr(&self) -> String {
        format!("127.0.0.1:{}", self.port)
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("running").id()
    }

    /// The crash: `SIGKILL`, then reap.
    pub fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// CPU time (user + system) the server has used, in microseconds.
    pub fn cpu_us(&self) -> u64 {
        cpu_us_of(self.pid())
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// CPU time of process `pid`, in microseconds.
pub fn cpu_us_of(pid: u32) -> u64 {
    process_cpu_us(&format!("/proc/{pid}/stat"))
}

/// CPU time of this process, in microseconds.
pub fn self_cpu_us() -> u64 {
    process_cpu_us("/proc/self/stat")
}

fn process_cpu_us(stat_path: &str) -> u64 {
    let stat = fs::read_to_string(stat_path).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, in clock ticks (USER_HZ is 100 on Linux).
    let rest = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) * 10_000
}

/// Copy a prepared data directory (flat: WAL streams, manifest, segments).
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.metadata()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Filesystem type of `path`, from `/proc/mounts` (longest mount-point
/// prefix wins).
pub fn fs_type(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best = (0usize, "unknown".to_string());
    for line in mounts.lines() {
        let mut f = line.split_whitespace();
        if let (Some(_), Some(mount), Some(kind)) = (f.next(), f.next(), f.next()) {
            if path.starts_with(mount) && mount.len() >= best.0 {
                best = (mount.len(), kind.to_string());
            }
        }
    }
    best.1
}
