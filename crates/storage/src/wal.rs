//! Append-only write-ahead log with length + CRC framing.
//!
//! Frame layout on disk:
//!
//! ```text
//! frame := len:u32 LE | crc:u32 LE | payload[len]
//! ```
//!
//! The reader stops at the first frame whose header is truncated, whose
//! payload is shorter than `len`, or whose CRC does not match — all three are
//! the signature of a crash mid-append (a *torn tail*), and everything before
//! the torn frame is still valid. This is the same discipline real engines
//! use for their log tails.

use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::crc::crc32;
use crate::metrics::storage_metrics;

/// Maximum accepted payload size (64 MiB). A length field larger than this is
/// treated as tail corruption rather than an attempt to allocate wildly, and
/// [`Wal::append`] refuses to write a larger frame — it would look committed
/// in memory but vanish as a "corrupt tail" on the next recovery.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Chaos fault-point names for one log stream. Each WAL partition carries
/// its own set so a crash-schedule can target (say) `wal.append.p1` without
/// touching partition 0 — the per-partition windows `chaos-explore`
/// enumerates for partial cross-partition commits.
#[derive(Debug, Clone, Copy)]
pub struct WalPoints {
    /// Fault point hit inside [`Wal::append`].
    pub append: &'static str,
    /// Fault point hit inside [`Wal::sync`].
    pub fsync: &'static str,
    /// Fault point hit inside [`Wal::truncate`].
    pub truncate: &'static str,
    /// Fault point hit inside [`Wal::rotate_to`].
    pub rotate: &'static str,
}

impl Default for WalPoints {
    /// The legacy (single-stream / partition-0) names.
    fn default() -> WalPoints {
        WalPoints {
            append: "wal.append",
            fsync: "wal.fsync",
            truncate: "wal.truncate",
            rotate: "wal.rotate",
        }
    }
}

/// An open write-ahead log.
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Chaos fault-point names this stream fires.
    points: WalPoints,
    /// Bytes appended since the last sync, used by tests and stats.
    unsynced: usize,
    /// Number of `sync_data` calls issued over the log's lifetime — the
    /// probe group-commit tests use to assert that concurrent commits
    /// coalesce into fewer syncs.
    sync_calls: u64,
}

impl Wal {
    /// Open (creating if necessary) the log at `path` for appending, with
    /// the default (partition-0) fault-point names.
    ///
    /// Any torn or corrupt tail left by a crash mid-append is **truncated
    /// away** before the log accepts its first new frame. The reader already
    /// ignores a bad tail, but without the truncation a post-recovery append
    /// would land *after* the garbage bytes, where the tail-scan discipline
    /// would silently discard it — committed work lost on the following
    /// recovery.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Wal> {
        Self::open_with_points(path, WalPoints::default())
    }

    /// [`Wal::open`] with explicit chaos fault-point names (per-partition
    /// streams use suffixed names like `wal.append.p1`).
    pub fn open_with_points(path: impl AsRef<Path>, points: WalPoints) -> io::Result<Wal> {
        let valid = Self::scan(&path, |_| {})?;
        Self::open_at(path, points, valid)
    }

    /// [`Wal::open_with_points`] for a caller that has just scanned the log
    /// itself: `valid` is the valid-prefix length its [`Wal::scan`] returned,
    /// so the file is not read a second time.
    pub(crate) fn open_at(
        path: impl AsRef<Path>,
        points: WalPoints,
        valid: u64,
    ) -> io::Result<Wal> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        if valid < file.metadata()?.len() {
            file.set_len(valid)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok(Wal {
            file,
            path,
            points,
            unsynced: 0,
            sync_calls: 0,
        })
    }

    /// Append one framed record. The bytes are written to the OS but not
    /// necessarily forced to stable storage; call [`Wal::sync`] (commit) for
    /// that.
    ///
    /// A payload larger than [`MAX_FRAME`] is refused: the reader treats such
    /// a length as a corrupt tail, so writing it would silently drop the
    /// record (and everything after it) at the next recovery.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        if payload.len() > MAX_FRAME as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "WAL frame of {} bytes exceeds the {MAX_FRAME}-byte cap",
                    payload.len()
                ),
            ));
        }
        let m = storage_metrics();
        let _t = phoenix_obs::Timer::new(&m.wal_append_us);
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        match phoenix_chaos::durable_fault(self.points.append) {
            phoenix_chaos::FaultAction::Continue => {}
            phoenix_chaos::FaultAction::Delay(d) => std::thread::sleep(d),
            phoenix_chaos::FaultAction::Torn(n) => {
                // Persist a strict prefix of the frame — the on-disk image a
                // power cut mid-write(2) leaves behind — then die.
                let n = n.min(frame.len() - 1);
                self.file.write_all(&frame[..n])?;
                let _ = self.file.sync_data();
                return Err(phoenix_chaos::injected_error(self.points.append));
            }
            phoenix_chaos::FaultAction::Crash | phoenix_chaos::FaultAction::IoError => {
                return Err(phoenix_chaos::injected_error(self.points.append));
            }
        }
        self.file.write_all(&frame)?;
        self.unsynced += frame.len();
        m.wal_appends.inc();
        Ok(())
    }

    /// Force all appended frames to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        phoenix_chaos::check_durable(self.points.fsync)?;
        let m = storage_metrics();
        let _t = phoenix_obs::Timer::new(&m.wal_fsync_us);
        self.file.sync_data()?;
        self.sync_calls += 1;
        self.unsynced = 0;
        m.wal_fsyncs.inc();
        Ok(())
    }

    /// Number of `sync_data` calls issued so far (stats/test probe).
    pub fn sync_count(&self) -> u64 {
        self.sync_calls
    }

    /// Truncate the log to zero length (after a successful checkpoint).
    pub fn truncate(&mut self) -> io::Result<()> {
        phoenix_chaos::check_durable(self.points.truncate)?;
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::End(0))?;
        self.file.sync_data()?;
        self.unsynced = 0;
        Ok(())
    }

    /// Rotate the live log aside to `old_path` and restart the live log
    /// empty. Used by incremental checkpoints: the rotated frames are the
    /// records the snapshot being written will cover, while new mutations
    /// keep appending to the (fresh) live log. Recovery reads `old_path`
    /// first, then the live log, so replay order is preserved.
    ///
    /// If `old_path` already exists — a previous checkpoint rotated but died
    /// before completing — the live frames are *merged* onto the healed tail
    /// of the old file instead, so no generation of records is ever dropped.
    pub fn rotate_to(&mut self, old_path: &Path) -> io::Result<()> {
        phoenix_chaos::check_durable(self.points.rotate)?;
        // Only full, valid frames may move: a torn tail (possible only via
        // injected faults, which kill the process, but cheap to respect)
        // stays behind to be discarded.
        let live_valid = valid_prefix_len(&mut self.file)?;
        if old_path.exists() {
            let mut old = OpenOptions::new().read(true).write(true).open(old_path)?;
            let old_valid = valid_prefix_len(&mut old)?;
            if old_valid < old.metadata()?.len() {
                old.set_len(old_valid)?;
            }
            old.seek(SeekFrom::Start(old_valid))?;
            let mut live = vec![0u8; live_valid as usize];
            self.file.seek(SeekFrom::Start(0))?;
            read_exact_or_eof(&mut self.file, &mut live)?;
            old.write_all(&live)?;
            old.sync_data()?;
            self.file.set_len(0)?;
            self.file.seek(SeekFrom::End(0))?;
            self.file.sync_data()?;
        } else {
            self.file.sync_data()?;
            std::fs::rename(&self.path, old_path)?;
            // `self.file` now refers to the renamed inode; reopen the live
            // path fresh and persist the rename.
            let file = OpenOptions::new()
                .create(true)
                .read(true)
                .append(true)
                .open(&self.path)?;
            if let Some(dir) = self.path.parent() {
                if let Ok(d) = File::open(dir) {
                    let _ = d.sync_data();
                }
            }
            self.file = file;
        }
        self.unsynced = 0;
        Ok(())
    }

    /// Current size of the log file in bytes.
    pub fn len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Hand every valid frame payload currently in the log at `path` to
    /// `sink`, stopping silently at a torn or corrupt tail — the **same**
    /// tail-validation [`Wal::open`] uses to heal the file, so recovery
    /// (which reads the log *before* reopening it for appends) can never
    /// error on a tail that open() would simply have truncated away.
    /// Returns the byte length of the valid prefix; a missing file is an
    /// empty log.
    pub fn scan(path: impl AsRef<Path>, sink: impl FnMut(&[u8])) -> io::Result<u64> {
        match File::open(path) {
            Ok(file) => scan_valid_frames(BufReader::with_capacity(1 << 16, file), sink),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(e),
        }
    }

    /// Every valid frame currently in the log (see [`Wal::scan`]).
    pub fn read_all(path: impl AsRef<Path>) -> io::Result<Vec<Vec<u8>>> {
        let mut frames = Vec::new();
        Self::scan(path, |payload| frames.push(payload.to_vec()))?;
        Ok(frames)
    }
}

/// The tail-scan discipline, shared by every reader of the frame format:
/// consume frames from `reader` until EOF or the first torn header, torn
/// payload, over-long length, or CRC mismatch — the signatures of a crash
/// mid-append — handing each valid payload to `sink`. Returns the byte
/// length of the valid prefix.
fn scan_valid_frames(mut reader: impl Read, mut sink: impl FnMut(&[u8])) -> io::Result<u64> {
    let mut valid: u64 = 0;
    let mut payload = Vec::new();
    loop {
        let mut header = [0u8; 8];
        match read_exact_or_eof(&mut reader, &mut header)? {
            ReadOutcome::Full => {}
            _ => break, // EOF or torn header
        }
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if len > MAX_FRAME {
            break; // corrupt length — treat as tail
        }
        payload.resize(len as usize, 0);
        match read_exact_or_eof(&mut reader, &mut payload)? {
            ReadOutcome::Full => {}
            _ => break, // torn payload
        }
        if crc32(&payload) != crc {
            break; // corrupt payload — treat as tail
        }
        valid += 8 + len as u64;
        sink(&payload);
    }
    Ok(valid)
}

/// Byte length of the longest prefix of the file that consists solely of
/// valid frames. Leaves the file cursor wherever the scan stopped; callers
/// reposition.
fn valid_prefix_len(file: &mut File) -> io::Result<u64> {
    file.seek(SeekFrom::Start(0))?;
    scan_valid_frames(BufReader::new(&mut *file), |_| {})
}

enum ReadOutcome {
    Full,
    Partial,
    Eof,
}

/// Read exactly `buf.len()` bytes, reporting whether we got all, some, or
/// none before EOF.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<ReadOutcome> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Partial
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "phoenix-wal-test-{}-{tag}-{n}.log",
            std::process::id()
        ))
    }

    #[test]
    fn append_and_read_back() {
        let path = temp_path("basic");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"one").unwrap();
        wal.append(b"two").unwrap();
        wal.append(b"").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let frames = Wal::read_all(&path).unwrap();
        assert_eq!(frames, vec![b"one".to_vec(), b"two".to_vec(), Vec::new()]);
        fs::remove_file(&path).unwrap();
    }

    /// No format change: a frame checksummed with the byte-at-a-time CRC
    /// every earlier build used is valid, and a frame this build appends
    /// carries that same checksum.
    #[test]
    fn frames_carry_the_reference_crc() {
        use crate::crc::tests::crc32_bytewise;
        let path = temp_path("refcrc");
        let payload = b"a frame an earlier build appended";
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&crc32_bytewise(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        fs::write(&path, &bytes).unwrap();
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.len().unwrap(), bytes.len() as u64, "nothing trimmed");
        wal.append(payload).unwrap();
        drop(wal);
        assert_eq!(Wal::read_all(&path).unwrap(), [payload, payload]);
        assert_eq!(fs::read(&path).unwrap(), [&bytes[..], &bytes[..]].concat());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_reads_as_empty() {
        let frames = Wal::read_all(temp_path("missing")).unwrap();
        assert!(frames.is_empty());
    }

    #[test]
    fn torn_tail_is_ignored() {
        let path = temp_path("torn");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"keep me").unwrap();
        wal.append(b"tear me").unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Chop 3 bytes off the end, simulating a crash mid-append.
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let frames = Wal::read_all(&path).unwrap();
        assert_eq!(frames, vec![b"keep me".to_vec()]);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_payload_is_ignored() {
        let path = temp_path("corrupt");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"good record").unwrap();
        wal.append(b"bad record!").unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Flip a byte inside the second record's payload.
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let frames = Wal::read_all(&path).unwrap();
        assert_eq!(frames, vec![b"good record".to_vec()]);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncate_empties_the_log() {
        let path = temp_path("trunc");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"x").unwrap();
        wal.truncate().unwrap();
        assert!(wal.is_empty().unwrap());
        wal.append(b"y").unwrap();
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(Wal::read_all(&path).unwrap(), vec![b"y".to_vec()]);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_truncates_torn_tail_so_appends_survive() {
        let path = temp_path("open-trunc");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"keep me").unwrap();
        wal.append(b"tear me").unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Crash mid-append: the last frame loses its final 3 bytes.
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        // Recovery reopens the log and appends new work. Without tail
        // truncation the new frame would sit after the torn bytes and be
        // unreadable.
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.len().unwrap(), 8 + 7, "torn tail trimmed on open");
        wal.append(b"after crash").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let frames = Wal::read_all(&path).unwrap();
        assert_eq!(frames, vec![b"keep me".to_vec(), b"after crash".to_vec()]);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_truncates_corrupt_payload_tail() {
        let path = temp_path("open-corrupt");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"good").unwrap();
        wal.append(b"evil").unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Bit-rot in the last frame's payload.
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"new").unwrap();
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(
            Wal::read_all(&path).unwrap(),
            vec![b"good".to_vec(), b"new".to_vec()]
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_keeps_fully_valid_log_intact() {
        let path = temp_path("open-clean");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"a").unwrap();
        wal.append(b"b").unwrap();
        wal.sync().unwrap();
        let len_before = wal.len().unwrap();
        drop(wal);
        let wal = Wal::open(&path).unwrap();
        assert_eq!(wal.len().unwrap(), len_before);
        drop(wal);
        assert_eq!(
            Wal::read_all(&path).unwrap(),
            vec![b"a".to_vec(), b"b".to_vec()]
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rotate_moves_frames_aside_and_restarts_empty() {
        let path = temp_path("rotate");
        let old = path.with_extension("old");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"a").unwrap();
        wal.append(b"b").unwrap();
        wal.sync().unwrap();
        wal.rotate_to(&old).unwrap();
        assert!(wal.is_empty().unwrap());
        wal.append(b"c").unwrap();
        wal.sync().unwrap();
        assert_eq!(
            Wal::read_all(&old).unwrap(),
            vec![b"a".to_vec(), b"b".to_vec()]
        );
        assert_eq!(Wal::read_all(&path).unwrap(), vec![b"c".to_vec()]);
        fs::remove_file(&path).unwrap();
        fs::remove_file(&old).unwrap();
    }

    #[test]
    fn rotate_merges_into_leftover_old_file() {
        let path = temp_path("rotate-merge");
        let old = path.with_extension("old");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"gen1").unwrap();
        wal.sync().unwrap();
        wal.rotate_to(&old).unwrap();
        // A checkpoint died here: `old` still exists. New appends land in
        // the live log, then the next checkpoint rotates again.
        wal.append(b"gen2").unwrap();
        wal.sync().unwrap();
        wal.rotate_to(&old).unwrap();
        assert!(wal.is_empty().unwrap());
        assert_eq!(
            Wal::read_all(&old).unwrap(),
            vec![b"gen1".to_vec(), b"gen2".to_vec()],
            "both generations merged in order"
        );
        fs::remove_file(&path).unwrap();
        fs::remove_file(&old).unwrap();
    }

    #[test]
    fn rotate_merge_heals_torn_old_tail() {
        let path = temp_path("rotate-heal");
        let old = path.with_extension("old");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"keep").unwrap();
        wal.sync().unwrap();
        wal.rotate_to(&old).unwrap();
        // Tear the old file's tail (crash mid-append before the rotation
        // that created it — simulated by chopping bytes).
        let mut bytes = fs::read(&old).unwrap();
        bytes.extend_from_slice(&[9, 9, 9]); // garbage partial header
        fs::write(&old, &bytes).unwrap();
        wal.append(b"live").unwrap();
        wal.sync().unwrap();
        wal.rotate_to(&old).unwrap();
        assert_eq!(
            Wal::read_all(&old).unwrap(),
            vec![b"keep".to_vec(), b"live".to_vec()],
            "merge trims the torn tail before appending"
        );
        fs::remove_file(&path).unwrap();
        fs::remove_file(&old).unwrap();
    }

    #[test]
    fn absurd_length_field_treated_as_tail() {
        let path = temp_path("len");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"ok").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let mut bytes = fs::read(&path).unwrap();
        // Append a frame header claiming a gigantic payload.
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert_eq!(Wal::read_all(&path).unwrap(), vec![b"ok".to_vec()]);
        fs::remove_file(&path).unwrap();
    }
}
