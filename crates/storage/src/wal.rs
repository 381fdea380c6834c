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
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::crc::crc32;

/// Maximum accepted payload size (64 MiB). A length field larger than this is
/// treated as tail corruption rather than an attempt to allocate wildly, and
/// [`Wal::append`] refuses to write a larger frame — it would look committed
/// in memory but vanish as a "corrupt tail" on the next recovery.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Chaos fault point hit inside [`Wal::append`].
const APPEND_POINT: &str = "wal.append";
/// Chaos fault point hit inside [`Flusher::sync`].
const FSYNC_POINT: &str = "wal.fsync";
/// Chaos fault point hit inside [`Wal::truncate`].
const TRUNCATE_POINT: &str = "wal.truncate";
/// Chaos fault point hit inside [`Wal::rotate_to`].
const ROTATE_POINT: &str = "wal.rotate";

/// An open write-ahead log.
pub struct Wal {
    file: File,
    path: PathBuf,
    flusher: Flusher,
    /// Length of the valid prefix: where the next frame goes.
    end: u64,
    /// An append that failed may have left part of its frames past `end`;
    /// they are cut off before anything else is written.
    torn: bool,
}

/// Forces the log's frames to stable storage through a second handle on the
/// live file, so a flush need not hold the log. A checkpoint that rotates
/// the log meanwhile has synced the frames it moved, so a flush through the
/// rotated file's handle loses nothing.
#[derive(Clone)]
pub struct Flusher(Arc<File>);

impl Flusher {
    /// Force every frame appended before this call to stable storage.
    pub fn sync(&self) -> io::Result<()> {
        phoenix_chaos::check_durable(FSYNC_POINT)?;
        self.0.sync_data()
    }
}

impl Wal {
    /// Open (creating if necessary) the log at `path` for appending.
    ///
    /// Any torn or corrupt tail left by a crash mid-append is **truncated
    /// away** before the log accepts its first new frame. The reader already
    /// ignores a bad tail, but without the truncation a post-recovery append
    /// would land *after* the garbage bytes, where the tail-scan discipline
    /// would silently discard it — committed work lost on the following
    /// recovery.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Wal> {
        let valid = Self::scan(&path, |_| {})?;
        Self::open_at(path, valid)
    }

    /// [`Wal::open`] for a caller that has just scanned the log itself:
    /// `valid` is the valid-prefix length its [`Wal::scan`] returned, so the
    /// file is not read a second time.
    pub(crate) fn open_at(path: impl AsRef<Path>, valid: u64) -> io::Result<Wal> {
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
            flusher: Flusher(Arc::new(file.try_clone()?)),
            file,
            path,
            end: valid,
            torn: false,
        })
    }

    /// Append one framed record (see [`Wal::append_all`]).
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        self.append_all([payload])
    }

    /// Append one frame per payload with a single `write(2)`: a
    /// transaction's records and its commit record reach the file together.
    /// The bytes are written to the OS but not necessarily forced to stable
    /// storage; call [`Flusher::sync`] (commit) for that.
    ///
    /// A payload larger than [`MAX_FRAME`] is refused: the reader treats such
    /// a length as a corrupt tail, so writing it would silently drop the
    /// record (and everything after it) at the next recovery.
    ///
    /// A write that fails may still have put a prefix of the frames on disk,
    /// where recovery would stop at it and every later frame would sit
    /// behind it. The log is cut back to where the append began: at once
    /// for an I/O error, and before the next append when the process is
    /// meant to have died mid-write (the torn-write fault). While that cut
    /// cannot be made, every append fails.
    pub fn append_all(
        &mut self,
        payloads: impl IntoIterator<Item = impl AsRef<[u8]>>,
    ) -> io::Result<()> {
        let mut frames = Vec::new();
        for payload in payloads {
            let payload = payload.as_ref();
            if payload.len() > MAX_FRAME as usize {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "WAL frame of {} bytes exceeds the {MAX_FRAME}-byte cap",
                        payload.len()
                    ),
                ));
            }
            frames.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frames.extend_from_slice(&crc32(payload).to_le_bytes());
            frames.extend_from_slice(payload);
        }
        if frames.is_empty() {
            return Ok(());
        }
        if self.torn {
            self.file.set_len(self.end)?;
            self.torn = false;
        }
        match phoenix_chaos::durable_fault(APPEND_POINT) {
            phoenix_chaos::FaultAction::Continue => {}
            phoenix_chaos::FaultAction::Delay(d) => std::thread::sleep(d),
            phoenix_chaos::FaultAction::Torn(n) => {
                // Persist a strict prefix of the frames — the on-disk image
                // a power cut mid-write(2) leaves behind — then die.
                let n = n.min(frames.len() - 1);
                self.torn = true;
                self.file.write_all(&frames[..n])?;
                let _ = self.file.sync_data();
                return Err(phoenix_chaos::injected_error(APPEND_POINT));
            }
            phoenix_chaos::FaultAction::Crash | phoenix_chaos::FaultAction::IoError => {
                return Err(phoenix_chaos::injected_error(APPEND_POINT));
            }
        }
        if let Err(e) = self.file.write_all(&frames) {
            self.torn = self.file.set_len(self.end).is_err();
            return Err(e);
        }
        self.end += frames.len() as u64;
        Ok(())
    }

    /// A handle that syncs the log without holding it (see [`Flusher`]).
    pub fn flusher(&self) -> Flusher {
        self.flusher.clone()
    }

    /// Truncate the log to zero length (after a successful checkpoint).
    pub fn truncate(&mut self) -> io::Result<()> {
        phoenix_chaos::check_durable(TRUNCATE_POINT)?;
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::End(0))?;
        self.file.sync_data()?;
        (self.end, self.torn) = (0, false);
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
        phoenix_chaos::check_durable(ROTATE_POINT)?;
        // Only full, valid frames may move: a torn tail (possible only via
        // injected faults, which kill the process, but cheap to respect)
        // stays behind to be discarded.
        let live_valid = Self::scan(&self.path, |_| {})?;
        if old_path.exists() {
            let old_valid = Self::scan(old_path, |_| {})?;
            let mut old = OpenOptions::new().read(true).write(true).open(old_path)?;
            if old_valid < old.metadata()?.len() {
                old.set_len(old_valid)?;
            }
            old.seek(SeekFrom::Start(old_valid))?;
            let mut live = vec![0u8; live_valid as usize];
            self.file.seek(SeekFrom::Start(0))?;
            self.file.read_exact(&mut live)?;
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
            self.flusher = Flusher(Arc::new(file.try_clone()?));
            self.file = file;
        }
        (self.end, self.torn) = (0, false);
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
            Ok(file) => {
                let len = file.metadata()?.len();
                scan_valid_frames(file, len, sink)
            }
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

/// How much of the log one read takes: the walker's buffer, reused for every
/// chunk, and grown only for a frame larger than it.
const CHUNK: usize = 64 * 1024;

/// The tail-scan discipline, shared by every reader of the frame format:
/// consume frames from `reader`, which holds `len` bytes, until EOF or the
/// first torn header, torn payload, over-long length, or CRC mismatch — the
/// signatures of a crash mid-append — handing each valid payload to `sink`.
/// Returns the byte length of the valid prefix. A length field is believed
/// only as far as the bytes left: a payload the file cannot hold is torn,
/// and nothing is allocated for it.
///
/// The log is read [`CHUNK`] bytes at a time into one buffer, and each frame
/// is checked and handed to `sink` where it lies in it. A frame that
/// straddles the end of a chunk is carried to the front of the buffer and
/// completed by the next read; no read asks for bytes past `len`.
fn scan_valid_frames(
    mut reader: impl Read,
    len: u64,
    mut sink: impl FnMut(&[u8]),
) -> io::Result<u64> {
    let mut buf = Vec::new();
    // `buf[at..filled]` is read and unchecked; `valid` is the file offset of
    // `buf[at]`.
    let (mut at, mut filled, mut valid) = (0, 0, 0u64);
    loop {
        // Every whole frame in the buffer; then how many bytes, from `at`,
        // the next one needs.
        let need = loop {
            let Some((&[l0, l1, l2, l3, c0, c1, c2, c3], body)) =
                buf[at..filled].split_first_chunk::<8>()
            else {
                break 8;
            };
            let frame = u32::from_le_bytes([l0, l1, l2, l3]);
            let crc = u32::from_le_bytes([c0, c1, c2, c3]);
            if frame > MAX_FRAME || valid + 8 + frame as u64 > len {
                return Ok(valid); // corrupt length, or one the file cannot hold
            }
            let Some(payload) = body.get(..frame as usize) else {
                break 8 + frame as usize;
            };
            if crc32(payload) != crc {
                return Ok(valid); // corrupt payload — treat as tail
            }
            sink(payload);
            at += 8 + frame as usize;
            valid += 8 + frame as u64;
        };
        // Carry the partial frame to the front and read on: a chunk, or the
        // whole frame if it is larger, but never past the file's end.
        buf.copy_within(at..filled, 0);
        (filled, at) = (filled - at, 0);
        let want = (need.max(CHUNK) as u64).min(len - valid) as usize;
        if want < need {
            return Ok(valid); // the end of the log, or a torn header
        }
        if buf.len() < want {
            buf.resize(want, 0);
        }
        while filled < want {
            match reader.read(&mut buf[filled..want]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if filled < need {
            return Ok(valid); // the file ended early: a torn frame
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::tests::SplitMix;
    use std::fs;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The per-frame scanner the in-place walker replaced, kept as its
    /// reference: a `read_exact` for each header and each payload, the
    /// payload copied out, and the same tail rules.
    fn scan_frame_by_frame(
        mut reader: impl Read,
        len: u64,
        mut sink: impl FnMut(&[u8]),
    ) -> io::Result<u64> {
        let mut valid: u64 = 0;
        let mut payload = Vec::new();
        loop {
            let mut header = [0u8; 8];
            match read_exact_or_eof(&mut reader, &mut header)? {
                ReadOutcome::Full => {}
                _ => break, // EOF or torn header
            }
            let frame = u32::from_le_bytes(header[0..4].try_into().unwrap());
            let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
            if frame > MAX_FRAME {
                break; // corrupt length — treat as tail
            }
            if valid + 8 + frame as u64 > len {
                break; // torn payload, or a length the file cannot hold
            }
            payload.resize(frame as usize, 0);
            match read_exact_or_eof(&mut reader, &mut payload)? {
                ReadOutcome::Full => {}
                _ => break, // torn payload
            }
            if crc32(&payload) != crc {
                break; // corrupt payload — treat as tail
            }
            valid += 8 + frame as u64;
            sink(&payload);
        }
        Ok(valid)
    }

    enum ReadOutcome {
        Full,
        Partial,
        Eof,
    }

    /// Read exactly `buf.len()` bytes, reporting whether we got all, some,
    /// or none before EOF.
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
        wal.flusher().sync().unwrap();
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
        wal.flusher().sync().unwrap();
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
        wal.flusher().sync().unwrap();
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
        wal.flusher().sync().unwrap();
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
        wal.flusher().sync().unwrap();
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
        wal.flusher().sync().unwrap();
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
        wal.flusher().sync().unwrap();
        drop(wal);
        // Bit-rot in the last frame's payload.
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"new").unwrap();
        wal.flusher().sync().unwrap();
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
        wal.flusher().sync().unwrap();
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
        wal.flusher().sync().unwrap();
        wal.rotate_to(&old).unwrap();
        assert!(wal.is_empty().unwrap());
        wal.append(b"c").unwrap();
        wal.flusher().sync().unwrap();
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
        wal.flusher().sync().unwrap();
        wal.rotate_to(&old).unwrap();
        // A checkpoint died here: `old` still exists. New appends land in
        // the live log, then the next checkpoint rotates again.
        wal.append(b"gen2").unwrap();
        wal.flusher().sync().unwrap();
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
        wal.flusher().sync().unwrap();
        wal.rotate_to(&old).unwrap();
        // Tear the old file's tail (crash mid-append before the rotation
        // that created it — simulated by chopping bytes).
        let mut bytes = fs::read(&old).unwrap();
        bytes.extend_from_slice(&[9, 9, 9]); // garbage partial header
        fs::write(&old, &bytes).unwrap();
        wal.append(b"live").unwrap();
        wal.flusher().sync().unwrap();
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
        wal.flusher().sync().unwrap();
        drop(wal);
        let mut bytes = fs::read(&path).unwrap();
        // Append a frame header claiming a gigantic payload.
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert_eq!(Wal::read_all(&path).unwrap(), vec![b"ok".to_vec()]);
        fs::remove_file(&path).unwrap();
    }

    /// A reader that remembers the largest buffer it was asked to fill.
    struct Recording<'a> {
        bytes: &'a [u8],
        largest: usize,
    }

    impl Read for Recording<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.bytes.read(buf)
        }
    }

    /// A length field that lies — in range for a frame, far past the end of
    /// the file — is a torn tail found without filling a buffer of that
    /// size: the scan asks for no more than the file holds.
    #[test]
    fn a_length_lie_allocates_no_more_than_the_file_holds() {
        let mut log = Vec::new();
        for payload in [&b"first"[..], &[7u8; 900][..]] {
            log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            log.extend_from_slice(&crc32(payload).to_le_bytes());
            log.extend_from_slice(payload);
        }
        let valid = log.len() as u64;
        log.extend_from_slice(&(MAX_FRAME - 1).to_le_bytes());
        log.extend_from_slice(&0u32.to_le_bytes());
        log.resize(1024, 0xAB);
        let mut reader = Recording {
            bytes: &log,
            largest: 0,
        };
        let mut frames = 0;
        let scanned = scan_valid_frames(&mut reader, log.len() as u64, |_| frames += 1).unwrap();
        assert_eq!((scanned, frames), (valid, 2));
        assert!(
            reader.largest <= 1024,
            "asked to fill {} bytes",
            reader.largest
        );
    }

    /// A reader that hands out at most `max` bytes a call.
    struct Trickle<'a> {
        bytes: &'a [u8],
        max: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.max);
            self.bytes.read(&mut buf[..n])
        }
    }

    /// What breaks the frame placed across a chunk boundary.
    #[derive(Debug, Clone, Copy)]
    enum Fault {
        None,
        /// The log ends inside the frame's header.
        TornHeader,
        /// The log ends inside the frame's payload.
        TornPayload,
        /// One bit of the frame's checksum or payload flipped.
        CrcFlip,
        /// The length field claims more than the log holds, or more than
        /// `MAX_FRAME`.
        LengthLie,
    }

    fn frame(log: &mut Vec<u8>, payload: &[u8]) {
        log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        log.extend_from_slice(&crc32(payload).to_le_bytes());
        log.extend_from_slice(payload);
    }

    /// A payload of 0 to 3 × `CHUNK` bytes, mostly short.
    fn payload(rng: &mut SplitMix) -> Vec<u8> {
        let len = match rng.below(4) {
            0 => rng.below(3 * CHUNK as u64 + 1),
            _ => rng.below(100),
        };
        rng.bytes(len as usize)
    }

    /// A random log whose frame at `start` carries `fault`, which touches
    /// byte `at`, a chunk boundary or a byte either side of it; returns the
    /// log and `start`, where its valid prefix ends (the log's end when
    /// nothing is broken).
    fn log_with_fault(rng: &mut SplitMix, fault: Fault, at: usize) -> (Vec<u8>, usize) {
        let len = rng.below(3 * CHUNK as u64) as usize + 1;
        let body = rng.bytes(len);
        // How far into the broken frame `at` lies: the frame may start no
        // earlier than a filler frame's header after the log's start.
        let room = at as u64 - 8;
        let mut into = |first: u64, end: u64| first + rng.below(end.min(room + 1) - first);
        let into = match fault {
            Fault::None => into(0, 8 + body.len() as u64),
            Fault::TornHeader => into(1, 8),
            Fault::TornPayload => into(8, 8 + body.len() as u64),
            Fault::CrcFlip => into(4, 8 + body.len() as u64),
            Fault::LengthLie => into(0, 4),
        } as usize;
        let start = at - into;
        // Random frames, then one filler frame that ends exactly at `start`.
        let mut log = Vec::new();
        loop {
            let p = payload(rng);
            if log.len() + 8 + p.len() + 8 > start {
                break;
            }
            frame(&mut log, &p);
        }
        let filler = rng.bytes(start - log.len() - 8);
        frame(&mut log, &filler);
        frame(&mut log, &body);
        for _ in 0..rng.below(4) {
            frame(&mut log, &payload(rng));
        }
        match fault {
            Fault::None => return (log.clone(), log.len()),
            Fault::TornHeader | Fault::TornPayload => log.truncate(at),
            Fault::CrcFlip => log[at] ^= 1 << rng.below(8),
            Fault::LengthLie => {
                let past_end = (log.len() - start - 8) as u32 + 1;
                let lie = [past_end, past_end.max(MAX_FRAME), MAX_FRAME + 1, u32::MAX];
                let lie = lie[rng.below(4) as usize].to_le_bytes();
                log[start..start + 4].copy_from_slice(&lie);
            }
        }
        (log, start)
    }

    /// The in-place walker against the per-frame reference on random logs
    /// whose frames run from empty to three chunks long, each with one
    /// fault at a chunk boundary, one byte before it or one byte after it,
    /// read through short reads as well as whole ones: the same payloads,
    /// and the same valid prefix, which ends where the fault is.
    fn walker_agrees_with_reference(seed: u64, cases: usize) {
        let mut rng = SplitMix(seed);
        let faults = [
            Fault::None,
            Fault::TornHeader,
            Fault::TornPayload,
            Fault::CrcFlip,
            Fault::LengthLie,
        ];
        for case in 0..cases {
            let fault = faults[case % faults.len()];
            let at = (rng.below(3) as usize + 1) * CHUNK + rng.below(3) as usize - 1;
            let (log, valid) = log_with_fault(&mut rng, fault, at);
            let max = [1, 7, 4096, CHUNK + 3, usize::MAX][rng.below(5) as usize];
            let what = format!("seed {seed} case {case}: {fault:?} at {at}, reads of {max}");
            let (mut want, mut got) = (Vec::new(), Vec::new());
            let len = log.len() as u64;
            let reference = scan_frame_by_frame(&log[..], len, |p| want.push(p.to_vec())).unwrap();
            let reader = Trickle { bytes: &log, max };
            let walked = scan_valid_frames(reader, len, |p| got.push(p.to_vec())).unwrap();
            assert_eq!(walked, reference, "{what}");
            assert_eq!(got, want, "{what}");
            assert_eq!(reference, valid as u64, "{what}");
        }
    }

    #[test]
    fn the_walker_equals_the_per_frame_scanner_at_chunk_boundaries() {
        walker_agrees_with_reference(1, 60);
    }

    /// [`walker_agrees_with_reference`] at 2 000 cases: run with
    /// `-- --include-ignored`.
    #[test]
    #[ignore = "long: run with --release -- --include-ignored"]
    fn the_walker_equals_the_per_frame_scanner_at_a_raised_case_count() {
        for seed in 2..22 {
            walker_agrees_with_reference(seed, 100);
        }
    }
}
