//! Frames: the byte framing every message travels in, the same shape as
//! an on-disk segment ([`etable_relational::storage::codec`]):
//!
//! ```text
//! payload_len: u64 LE | payload bytes | crc32(payload): u32 LE
//! ```
//!
//! A length above [`MAX_FRAME_LEN`] is refused on both sides: the writer
//! before any byte leaves, the reader before any allocation.

use super::MAX_FRAME_LEN;
use etable_relational::storage::codec::crc32;
use etable_relational::{Error, Result};
use std::io::{ErrorKind, IoSlice, Read, Write};

/// Refuses a payload of `len` bytes when it exceeds `limit`.
pub(super) fn refuse_oversized(len: usize, limit: u64) -> Result<()> {
    if len as u64 > limit {
        return Err(Error::Protocol(format!(
            "a frame of {len} payload bytes exceeds the {limit}-byte limit"
        )));
    }
    Ok(())
}

/// Writes one frame — length, payload, checksum — in one vectored write,
/// so a frame leaves as one segment, not three, on a `TCP_NODELAY`
/// socket. A payload over [`MAX_FRAME_LEN`] is refused before any byte
/// is written: the peer would reject its header and leave its body in the
/// stream, garbling every later frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    refuse_oversized(payload.len(), MAX_FRAME_LEN)?;
    let io = |e: std::io::Error| Error::Protocol(format!("write failed: {e}"));
    let len = (payload.len() as u64).to_le_bytes();
    let crc = crc32(payload).to_le_bytes();
    let mut parts = [
        IoSlice::new(&len),
        IoSlice::new(payload),
        IoSlice::new(&crc),
    ];
    let mut rest = &mut parts[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(io(ErrorKind::WriteZero.into())),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(io(e)),
        }
    }
    w.flush().map_err(io)
}

/// What one attempt to read a frame produced.
#[derive(Debug)]
pub enum FrameEvent {
    /// A whole, checksum-verified frame payload.
    Frame(Vec<u8>),
    /// Clean end-of-stream at a frame boundary.
    Eof,
    /// The socket's read timeout elapsed **before any frame byte**
    /// arrived (poll tick — only possible with a read timeout set).
    /// A timeout *inside* a frame keeps waiting: frames are atomic.
    IdleTimeout,
}

/// Reads one frame's payload, verifying length bound and checksum.
/// Returns `Ok(None)` on a clean end-of-stream **at a frame boundary**;
/// EOF anywhere inside a frame is a protocol error, and so is an idle
/// timeout (use [`read_frame_event`] on sockets with read timeouts).
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    match read_frame_event(r)? {
        FrameEvent::Frame(p) => Ok(Some(p)),
        FrameEvent::Eof => Ok(None),
        FrameEvent::IdleTimeout => Err(Error::Protocol("read timed out".into())),
    }
}

/// Timeout-aware [`read_frame`]: idle timeouts at a frame boundary come
/// back as [`FrameEvent::IdleTimeout`] so a server can poll its shutdown
/// flag without ever abandoning a partially received frame.
pub fn read_frame_event(r: &mut impl Read) -> Result<FrameEvent> {
    let mut len_bytes = [0u8; 8];
    match read_exact_or_eof(r, &mut len_bytes)? {
        ReadOutcome::Eof => return Ok(FrameEvent::Eof),
        ReadOutcome::IdleTimeout => return Ok(FrameEvent::IdleTimeout),
        ReadOutcome::Filled => {}
    }
    let len = u64::from_le_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(Error::Protocol(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte limit"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    read_fully(r, &mut payload, "frame payload")?;
    let mut crc_bytes = [0u8; 4];
    read_fully(r, &mut crc_bytes, "frame checksum")?;
    let expect = u32::from_le_bytes(crc_bytes);
    let got = crc32(&payload);
    if got != expect {
        return Err(Error::Protocol(format!(
            "frame checksum mismatch (stored {expect:#010x}, computed {got:#010x})"
        )));
    }
    Ok(FrameEvent::Frame(payload))
}

enum ReadOutcome {
    Filled,
    Eof,
    IdleTimeout,
}

/// True for the two error kinds a socket read timeout produces
/// (`WouldBlock` on unix, `TimedOut` on windows).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// `read_exact`, except a clean EOF or a read timeout **before the first
/// byte** is reported as its own outcome instead of an error, and a
/// timeout after the first byte keeps waiting (frames are atomic).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<ReadOutcome> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(ReadOutcome::Eof),
            Ok(0) => {
                return Err(Error::Protocol(format!(
                    "connection closed mid-frame ({filled} of {} header bytes)",
                    buf.len()
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) && filled == 0 => return Ok(ReadOutcome::IdleTimeout),
            Err(e) if is_timeout(&e) => {}
            Err(e) => return Err(Error::Protocol(format!("read failed: {e}"))),
        }
    }
    Ok(ReadOutcome::Filled)
}

/// `read_exact` that rides out interrupts and read timeouts — once a
/// frame header arrived, the body read must not be abandoned part-way.
fn read_fully(r: &mut impl Read, buf: &mut [u8], what: &str) -> Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(Error::Protocol(format!(
                    "connection closed reading {what} ({filled} of {} bytes)",
                    buf.len()
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted || is_timeout(&e) => {}
            Err(e) => return Err(Error::Protocol(format!("read failed reading {what}: {e}"))),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use etable_relational::storage::codec::write_segment;

    /// Counts the writes it is handed and keeps their bytes.
    #[derive(Default)]
    struct Recorder {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.writes += 1;
            for b in bufs {
                self.bytes.extend_from_slice(b);
            }
            Ok(bufs.iter().map(|b| b.len()).sum())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_of_the_segment_bytes() {
        for payload in [&b"\x03"[..], b"", &[7u8; 4099]] {
            let mut rec = Recorder::default();
            write_frame(&mut rec, payload).unwrap();
            assert_eq!(rec.writes, 1, "{} payload bytes", payload.len());
            let mut segment = Vec::new();
            write_segment(&mut segment, payload);
            assert_eq!(rec.bytes, segment);
        }
    }

    /// A writer that accepts at most `max` bytes per call.
    struct Dribble {
        bytes: Vec<u8>,
        max: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.max);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_still_send_the_whole_frame() {
        let payload: Vec<u8> = (0..=255).collect();
        let mut segment = Vec::new();
        write_segment(&mut segment, &payload);
        for max in [1, 3, 7, 8, 13, 300] {
            let mut w = Dribble {
                bytes: Vec::new(),
                max,
            };
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.bytes, segment, "at most {max} bytes per write");
        }
    }

    #[test]
    fn an_oversized_payload_writes_nothing_and_is_refused() {
        // Zeroed pages: never touched, since the refusal comes first.
        let payload = vec![0u8; MAX_FRAME_LEN as usize + 1];
        let mut rec = Recorder::default();
        let e = write_frame(&mut rec, &payload).unwrap_err();
        assert_eq!(e.code().as_u16(), 500, "{e}");
        assert!(e.to_string().contains("limit"), "{e}");
        assert_eq!((rec.writes, rec.bytes.len()), (0, 0));
    }
}
