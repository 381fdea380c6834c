//! Length-prefixed framing over a byte stream.
//!
//! ```text
//! frame := len:u32 LE | payload[len]
//! ```
//!
//! TCP already guarantees integrity, so unlike the WAL no checksum is
//! carried; what this layer must get right is clean failure: a peer that
//! dies mid-frame produces `UnexpectedEof`, which the driver classifies as a
//! communication failure (the trigger for Phoenix's recovery machinery).

use std::io::{self, IoSlice, Read, Write};

/// Maximum frame payload (64 MiB) — guards against garbage length fields.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Framing error.
#[derive(Debug)]
pub enum FrameError {
    /// Transport failure (including EOF mid-frame).
    Io(io::Error),
    /// Frame length exceeds [`MAX_FRAME`].
    TooLarge(u32),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame io error: {e}"),
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Write one frame.
///
/// Fault point `wire.write_frame` fires *before* any byte is written, so an
/// injected failure means the peer saw nothing (clean loss) or — for a torn
/// write — a strict prefix of the frame (the half-frame a dying sender
/// leaves on the socket).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() as u32 > MAX_FRAME {
        return Err(FrameError::TooLarge(payload.len() as u32));
    }
    match phoenix_chaos::fault("wire.write_frame") {
        phoenix_chaos::FaultAction::Continue => {}
        phoenix_chaos::FaultAction::Delay(d) => std::thread::sleep(d),
        // Crash is delivered asynchronously (socket sever by the harness
        // supervisor): the local side proceeds — this point fires on both
        // client and server, and the client must outlive the crash.
        phoenix_chaos::FaultAction::Crash => {}
        phoenix_chaos::FaultAction::IoError => {
            return Err(FrameError::Io(phoenix_chaos::injected_error(
                "wire.write_frame",
            )))
        }
        phoenix_chaos::FaultAction::Torn(n) => {
            let mut bytes = Vec::with_capacity(payload.len() + 4);
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(payload);
            let n = n.min(bytes.len() - 1);
            w.write_all(&bytes[..n])?;
            w.flush()?;
            return Err(FrameError::Io(phoenix_chaos::injected_error(
                "wire.write_frame",
            )));
        }
    }
    // Header and payload leave in one write. On a TCP_NODELAY socket two
    // writes are two segments, and the 4-byte header alone wakes the peer:
    // it runs (preempting this thread if they share a CPU), reads the
    // length and blocks again until the payload follows — a thread switch
    // per message that comes and goes with the scheduler's placement.
    let header = (payload.len() as u32).to_le_bytes();
    let sent = loop {
        match w.write_vectored(&[IoSlice::new(&header), IoSlice::new(payload)]) {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero).into()),
            Ok(n) => break n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    };
    // What the one write did not take: a full socket buffer, or a writer
    // without vectored writes, which takes the header alone.
    if sent < header.len() {
        w.write_all(&header[sent..])?;
        w.write_all(payload)?;
    } else {
        w.write_all(&payload[sent - header.len()..])?;
    }
    w.flush()?;
    Ok(())
}

/// Read one frame, blocking. EOF before a complete frame is an `Io` error
/// with kind `UnexpectedEof`.
///
/// Fault point `wire.read_frame` fires *after* the blocking read completes:
/// a visit marks the arrival of a whole frame, which keeps visit order a
/// pure function of the workload (no race against the peer's next write).
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 4];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    match phoenix_chaos::fault("wire.read_frame") {
        phoenix_chaos::FaultAction::Continue | phoenix_chaos::FaultAction::Crash => {}
        phoenix_chaos::FaultAction::Delay(d) => std::thread::sleep(d),
        phoenix_chaos::FaultAction::IoError | phoenix_chaos::FaultAction::Torn(_) => {
            return Err(FrameError::Io(phoenix_chaos::injected_error(
                "wire.read_frame",
            )))
        }
    }
    Ok(payload)
}

/// Write one *tagged* frame: an ordinary frame whose payload starts with the
/// request tag as a `u64` LE, followed by the message bytes.
///
/// The tag travels *inside* the frame — a single [`write_frame`] call — so a
/// torn write under fault injection tears the whole unit exactly as it does
/// for an untagged frame; the chaos layer needs no cases of its own for tags.
pub fn write_tagged_frame(w: &mut impl Write, tag: u64, payload: &[u8]) -> Result<(), FrameError> {
    let mut buf = Vec::with_capacity(8 + payload.len());
    buf.extend_from_slice(&tag.to_le_bytes());
    buf.extend_from_slice(payload);
    write_frame(w, &buf)
}

/// Read one tagged frame, returning `(tag, message bytes)`.
///
/// A frame shorter than the 8-byte tag prefix is a protocol violation and
/// surfaces as an `Io` error of kind `InvalidData` (not `UnexpectedEof`, so
/// it is never mistaken for a clean peer death).
pub fn read_tagged_frame(r: &mut impl Read) -> Result<(u64, Vec<u8>), FrameError> {
    let mut payload = read_frame(r)?;
    if payload.len() < 8 {
        return Err(FrameError::Io(io::Error::new(
            io::ErrorKind::InvalidData,
            "tagged frame shorter than its tag prefix",
        )));
    }
    let tag = u64::from_le_bytes(payload[..8].try_into().expect("8-byte slice"));
    payload.drain(..8);
    Ok((tag, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[0xAB; 1000]).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), vec![0xAB; 1000]);
        // Stream exhausted → UnexpectedEof.
        match read_frame(&mut r) {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("{other:?}"),
        }
    }

    /// A sink that takes at most `cap` bytes per call and counts the calls;
    /// `vectored` says whether it gathers or, like `Write`'s default, takes
    /// the first buffer only.
    struct Sink {
        bytes: Vec<u8>,
        calls: usize,
        cap: usize,
        vectored: bool,
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            let n = buf.len().min(self.cap);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            if !self.vectored {
                let first = bufs.iter().find(|b| !b.is_empty());
                return self.write(first.map_or(&[][..], |b| b));
            }
            self.calls += 1;
            let mut left = self.cap;
            for b in bufs {
                let n = b.len().min(left);
                self.bytes.extend_from_slice(&b[..n]);
                left -= n;
            }
            Ok(self.cap - left)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        let mut sink = Sink {
            bytes: Vec::new(),
            calls: 0,
            cap: usize::MAX,
            vectored: true,
        };
        write_frame(&mut sink, b"SELECT 1").unwrap();
        assert_eq!(sink.calls, 1, "length and payload must leave together");
        assert_eq!(
            read_frame(&mut Cursor::new(sink.bytes)).unwrap(),
            b"SELECT 1"
        );
    }

    #[test]
    fn short_writes_still_deliver_the_whole_frame() {
        let payload: Vec<u8> = (0..=40u8).collect();
        for vectored in [true, false] {
            for cap in 1..=50 {
                let mut sink = Sink {
                    bytes: Vec::new(),
                    calls: 0,
                    cap,
                    vectored,
                };
                write_frame(&mut sink, &payload).unwrap();
                write_frame(&mut sink, b"").unwrap();
                let mut r = Cursor::new(sink.bytes);
                assert_eq!(read_frame(&mut r).unwrap(), payload, "cap {cap}");
                assert_eq!(read_frame(&mut r).unwrap(), b"", "cap {cap}");
            }
        }
    }

    #[test]
    fn truncated_payload_is_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"full frame").unwrap();
        buf.truncate(buf.len() - 3);
        let mut r = Cursor::new(buf);
        match read_frame(&mut r) {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tagged_roundtrip_interleaves_with_plain_frames() {
        let mut buf = Vec::new();
        write_tagged_frame(&mut buf, 7, b"first").unwrap();
        write_tagged_frame(&mut buf, u64::MAX, b"").unwrap();
        write_frame(&mut buf, b"plain").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_tagged_frame(&mut r).unwrap(), (7, b"first".to_vec()));
        assert_eq!(read_tagged_frame(&mut r).unwrap(), (u64::MAX, Vec::new()));
        // The tag rides inside the ordinary frame layer, so a plain read
        // after tagged frames still works.
        assert_eq!(read_frame(&mut r).unwrap(), b"plain");
    }

    #[test]
    fn short_tagged_frame_is_invalid_data_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[1, 2, 3]).unwrap(); // < 8 bytes: no room for a tag
        let mut r = Cursor::new(buf);
        match read_tagged_frame(&mut r) {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn absurd_length_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = Cursor::new(buf);
        assert!(matches!(read_frame(&mut r), Err(FrameError::TooLarge(_))));
    }
}
