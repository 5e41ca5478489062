//! Byte-level primitives for the on-disk table format: little-endian
//! encode/decode helpers, the CRC32 used to checksum every segment, and
//! the one reader and one writer of the `len | payload | crc32` segment
//! framing ([`read_segment`], [`write_segment`]) that table files, the
//! manifest and join-spill partition files all share.
//!
//! Everything here is bounds-checked and returns typed [`Error::Storage`]
//! values naming the file and segment a malformed read came from — the
//! corrupt-input contract of [`crate::storage`] (never a panic) is enforced
//! at this layer, so the format layer above can decode without per-field
//! error plumbing.

use crate::{Error, Result};
use std::io::Read;

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial), table-driven and
/// incremental so large segments can be checksummed in streamed chunks.
/// Eight tables implement "slicing-by-8": the update loop folds eight
/// input bytes per iteration instead of one, which matters because `open`
/// checksums every byte of every snapshot file before trusting it — the
/// checksum sits directly on the cold-start path the snapshot cache exists
/// to shorten.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    // tables[t][i]: the CRC of byte i followed by t zero bytes — lets the
    // slicing loop account for each input byte's final position at once.
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

/// Incremental CRC-32 state; feed bytes with [`Crc32::update`], read the
/// checksum with [`Crc32::finish`].
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh checksum state.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Folds `bytes` into the checksum (slicing-by-8: eight bytes per
    /// loop iteration, identical checksums to the byte-at-a-time form).
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for w in &mut chunks {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
            c = CRC_TABLES[7][(lo & 0xFF) as usize]
                ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ CRC_TABLES[4][(lo >> 24) as usize]
                ^ CRC_TABLES[3][w[4] as usize]
                ^ CRC_TABLES[2][w[5] as usize]
                ^ CRC_TABLES[1][w[6] as usize]
                ^ CRC_TABLES[0][w[7] as usize];
        }
        for &b in chunks.remainder() {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// Appends one `payload_len u64 | payload | crc32(payload) u32` segment to
/// a file image — the only writer of the framing.
pub fn write_segment(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Reads the next segment from `src` and returns its checksum-verified
/// payload, or `None` at a clean end of file — the only parser of the
/// framing. `left` is how many bytes of the file remain unread; it is
/// counted down here, and the declared payload length is bounded against
/// it *before* the payload is allocated, so a corrupt length can never
/// size an allocation past the real file. `ctx` (`"<path>: <segment>"`)
/// names the source in every error.
pub fn read_segment(src: &mut impl Read, left: &mut u64, ctx: &str) -> Result<Option<Vec<u8>>> {
    if *left == 0 {
        return Ok(None);
    }
    if *left < 8 {
        return Err(Error::Storage(format!(
            "{ctx}: truncated length prefix ({left} bytes remain)"
        )));
    }
    let read_failed = |e| Error::Storage(format!("{ctx}: read failed: {e}"));
    let mut lenbuf = [0u8; 8];
    src.read_exact(&mut lenbuf).map_err(read_failed)?;
    *left -= 8;
    let len = u64::from_le_bytes(lenbuf);
    let n = match usize::try_from(len) {
        Ok(n) if len.checked_add(4).is_some_and(|need| need <= *left) => n,
        _ => {
            return Err(Error::Storage(format!(
                "{ctx}: declared payload of {len} bytes overruns the file ({left} bytes remain)"
            )))
        }
    };
    let mut payload = vec![0u8; n];
    src.read_exact(&mut payload).map_err(read_failed)?;
    let mut crcbuf = [0u8; 4];
    src.read_exact(&mut crcbuf).map_err(read_failed)?;
    *left -= len + 4;
    let (stored, computed) = (u32::from_le_bytes(crcbuf), crc32(&payload));
    if stored != computed {
        return Err(Error::Storage(format!(
            "{ctx}: checksum mismatch (stored {stored:08x}, computed {computed:08x})"
        )));
    }
    Ok(Some(payload))
}

/// Little-endian payload builder for segment bodies.
#[derive(Debug, Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// An empty payload.
    pub fn new() -> Self {
        PayloadWriter::default()
    }

    /// An empty payload with room for `bytes` bytes, for a writer that
    /// knows its exact size up front and should never reallocate.
    pub fn with_capacity(bytes: usize) -> Self {
        PayloadWriter {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// The finished payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far (spill writers use this to bound batch sizes).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True iff nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (NaN payloads survive).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string (`u32` byte length + bytes).
    pub fn str(&mut self, s: &str) {
        self.u32(u32::try_from(s.len()).expect("string exceeds u32 length"));
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Copies a length-checked slice into a fixed array (the slices come from
/// [`PayloadReader::take`], which already verified the length).
fn arr<const N: usize>(b: &[u8]) -> [u8; N] {
    let mut a = [0u8; N];
    a.copy_from_slice(b);
    a
}

/// Bounds-checked little-endian reader over one decoded segment payload.
///
/// Carries a context string (`"<path>: <segment> segment"`) so every
/// malformed-input error names exactly where in which file it tripped.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
    ctx: &'a str,
}

impl<'a> PayloadReader<'a> {
    /// Wraps a payload; `ctx` names the file and segment for errors.
    pub fn new(buf: &'a [u8], ctx: &'a str) -> Self {
        PayloadReader { buf, pos: 0, ctx }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(Error::Storage(format!(
                "{}: truncated payload reading {what} at offset {} (need {n} bytes, {} left)",
                self.ctx,
                self.pos,
                self.buf.len() - self.pos
            ))),
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(arr(self.take(4, what)?)))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(arr(self.take(8, what)?)))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self, what: &str) -> Result<i64> {
        Ok(i64::from_le_bytes(arr(self.take(8, what)?)))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads a `u64` and narrows it to `usize`, rejecting counts that are
    /// absurd for the payload that holds them (a corrupted length would
    /// otherwise drive a giant allocation before the truncation check).
    pub fn count(&mut self, what: &str) -> Result<usize> {
        let v = self.u64(what)?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if v > remaining {
            return Err(Error::Storage(format!(
                "{}: implausible {what} count {v} (only {remaining} payload bytes remain)",
                self.ctx
            )));
        }
        Ok(v as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> Result<String> {
        self.str_ref(what).map(str::to_owned)
    }

    /// Reads a length-prefixed UTF-8 string in place: validated, borrowed
    /// from the payload, not copied.
    pub fn str_ref(&mut self, what: &str) -> Result<&'a str> {
        let n = self.u32(what)? as usize;
        let bytes = self.take(n, what)?;
        std::str::from_utf8(bytes).map_err(|_| {
            Error::Storage(format!(
                "{}: invalid UTF-8 in {what} at offset {}",
                self.ctx,
                self.pos - n
            ))
        })
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the payload was consumed exactly (trailing bytes mean the
    /// declared lengths and the actual content disagree — corruption).
    pub fn expect_end(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(Error::Storage(format!(
                "{}: {} trailing bytes after payload end",
                self.ctx,
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_matches_known_vectors() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc_is_incremental() {
        let mut c = Crc32::new();
        c.update(b"1234");
        c.update(b"56789");
        assert_eq!(c.finish(), crc32(b"123456789"));
    }

    #[test]
    fn sliced_crc_matches_bytewise_at_every_alignment() {
        // The slicing-by-8 fast path must agree with the reference
        // byte-at-a-time recurrence for every length mod 8 and across
        // split points that land mid-word.
        let data: Vec<u8> = (0u32..257)
            .map(|i| (i.wrapping_mul(151) >> 3) as u8)
            .collect();
        let reference = |bytes: &[u8]| -> u32 {
            let mut c = !0u32;
            for &b in bytes {
                c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            !c
        };
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
        for split in [1, 3, 7, 8, 9, 63] {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), reference(&data), "split {split}");
        }
    }

    #[test]
    fn round_trips_every_primitive() {
        let mut w = PayloadWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.i64(-42);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.str("héllo");
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes, "test");
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(r.i64("d").unwrap(), -42);
        assert_eq!(r.f64("e").unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64("f").unwrap().is_nan());
        assert_eq!(r.str("g").unwrap(), "héllo");
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_reads_name_context_and_field() {
        let mut r = PayloadReader::new(&[1, 2], "f.etb: schema segment");
        let err = r.u32("row count").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("f.etb: schema segment"), "{msg}");
        assert!(msg.contains("row count"), "{msg}");
    }

    #[test]
    fn implausible_count_is_rejected() {
        let mut w = PayloadWriter::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes, "f.etb: arena segment");
        let msg = r.count("string").unwrap_err().to_string();
        assert!(msg.contains("implausible"), "{msg}");
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let mut w = PayloadWriter::new();
        w.u32(2);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = PayloadReader::new(&bytes, "f.etb: schema segment");
        let msg = r.str("table name").unwrap_err().to_string();
        assert!(msg.contains("invalid UTF-8"), "{msg}");
    }
}
