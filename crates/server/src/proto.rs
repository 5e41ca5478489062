//! The wire protocol: byte-exact framing and message codecs.
//!
//! Every message travels as one **frame** with the same shape as an
//! on-disk segment (the framing deliberately reuses
//! [`etable_relational::storage::codec`], so checksum behavior and its
//! tests carry over):
//!
//! ```text
//! payload_len: u64 LE | payload bytes | crc32(payload): u32 LE
//! ```
//!
//! The payload's first byte is the message type; the rest is the typed
//! body, little-endian, strings length-prefixed (`u32` + UTF-8 bytes).
//! See DESIGN.md "Wire protocol" for the full byte-exact layout of every
//! message. Versioning: the client's `Hello` carries a magic and a
//! protocol version; the server answers `HelloOk` with its own version
//! or a `PROTOCOL` error frame — nothing else is interpreted before the
//! handshake completes. Result sets are encoded **column-major** with a
//! per-message string dictionary (each distinct string once, cells carry
//! `u32` dictionary indices — the same idiom as the table format's
//! string arena).
//!
//! Corruption handling: an oversized length, a checksum mismatch, an
//! unknown message type or a truncated body all decode to
//! [`Error::Protocol`] (never a panic), and the peer that detects them
//! closes the connection. Counts inside a `Result` body (columns, rows,
//! dictionary entries) are attacker-controlled until proven otherwise:
//! each is bounded against the bytes still remaining in the payload
//! **before** it sizes any allocation, so a tiny frame claiming
//! `u64::MAX` rows is a typed refusal, not a giant allocation.

use etable_relational::intern::Sym;
use etable_relational::relation::{RelColumn, Relation};
use etable_relational::storage::codec::{crc32, PayloadReader, PayloadWriter};
use etable_relational::value::{DataType, Value};
use etable_relational::{Error, ErrorCode, Result};
use std::collections::HashMap;
use std::io::{Read, Write};

/// Protocol magic carried by `Hello`/`HelloOk` ("ETWP" LE).
pub const WIRE_MAGIC: u32 = u32::from_le_bytes(*b"ETWP");
/// Current protocol version. Bump on any layout change.
pub const WIRE_VERSION: u32 = 1;
/// Upper bound on a single frame's payload; larger lengths are rejected
/// before any allocation (a corrupt length must not drive a huge alloc).
pub const MAX_FRAME_LEN: u64 = 64 * 1024 * 1024;

/// Message-type bytes. Client-to-server types are `0x0_`, server-to-
/// client types have the high bit set.
mod tag {
    pub const HELLO: u8 = 0x01;
    pub const QUERY: u8 = 0x02;
    pub const QUIT: u8 = 0x03;
    pub const HELLO_OK: u8 = 0x81;
    pub const RESULT: u8 = 0x82;
    pub const ERROR: u8 = 0x83;
}

/// One decoded protocol message (either direction).
#[derive(Debug, Clone)]
pub enum Message {
    /// Client handshake: magic + the protocol version it speaks.
    Hello {
        /// Must equal [`WIRE_MAGIC`].
        magic: u32,
        /// Must equal [`WIRE_VERSION`].
        version: u32,
    },
    /// One SQL statement to execute.
    Query {
        /// The SQL text.
        sql: String,
    },
    /// Orderly goodbye; the server closes the connection after it.
    Quit,
    /// Server handshake answer: its magic/version plus the current epoch.
    HelloOk {
        /// Echoes [`WIRE_MAGIC`].
        magic: u32,
        /// The version the server speaks.
        version: u32,
        /// The shared database's epoch at accept time.
        epoch: u64,
    },
    /// A successful statement's result batch.
    Result {
        /// The epoch the statement observed (reads) or published (writes).
        epoch: u64,
        /// The decoded result relation.
        relation: Relation,
    },
    /// A failed statement or protocol violation, as a stable numeric
    /// [`ErrorCode`] plus the human-readable message.
    Error {
        /// The error class code ([`ErrorCode::as_u16`]).
        code: u16,
        /// The class's message payload.
        message: String,
    },
}

/// Remaps codec bounds-check errors (typed `Storage` because the codec's
/// home is the on-disk format) onto the wire's own error class.
fn as_protocol(e: Error) -> Error {
    match e {
        Error::Storage(m) => Error::Protocol(m),
        other => other,
    }
}

/// Writes one frame: length, payload, checksum.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    let io = |e: std::io::Error| Error::Protocol(format!("write failed: {e}"));
    w.write_all(&(payload.len() as u64).to_le_bytes())
        .map_err(io)?;
    w.write_all(payload).map_err(io)?;
    w.write_all(&crc32(payload).to_le_bytes()).map_err(io)?;
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
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
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
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
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
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted || is_timeout(&e) => {}
            Err(e) => return Err(Error::Protocol(format!("read failed reading {what}: {e}"))),
        }
    }
    Ok(())
}

/// Type codes for [`DataType`] on the wire (pinned by proto tests).
fn type_code(ty: DataType) -> u8 {
    match ty {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Text => 2,
        DataType::Bool => 3,
    }
}

fn type_from_code(code: u8) -> Result<DataType> {
    Ok(match code {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Text,
        3 => DataType::Bool,
        other => return Err(Error::Protocol(format!("unknown column type code {other}"))),
    })
}

/// Encodes a message into a frame payload (pass to [`write_frame`]).
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    match msg {
        Message::Hello { magic, version } => {
            w.u8(tag::HELLO);
            w.u32(*magic);
            w.u32(*version);
        }
        Message::Query { sql } => {
            w.u8(tag::QUERY);
            w.str(sql);
        }
        Message::Quit => w.u8(tag::QUIT),
        Message::HelloOk {
            magic,
            version,
            epoch,
        } => {
            w.u8(tag::HELLO_OK);
            w.u32(*magic);
            w.u32(*version);
            w.u64(*epoch);
        }
        Message::Result { epoch, relation } => {
            w.u8(tag::RESULT);
            w.u64(*epoch);
            encode_relation(&mut w, relation);
        }
        Message::Error { code, message } => {
            w.u8(tag::ERROR);
            w.u32(u32::from(*code));
            w.str(message);
        }
    }
    w.into_bytes()
}

/// Column-major relation body with a per-message string dictionary:
///
/// ```text
/// ncols: u32 | ncols × (qualified_name: str, type_code: u8)
/// nrows: u64
/// dict_len: u32 | dict_len × str          -- distinct strings, first use
/// ncols × nrows × cell                    -- column-major
/// cell: tag u8 (0 NULL | 1 Int i64 | 2 Float f64 | 3 Text u32-dict-index
///               | 4 Bool u8)
/// ```
fn encode_relation(w: &mut PayloadWriter, rel: &Relation) {
    w.u32(rel.columns.len() as u32);
    for c in &rel.columns {
        w.str(&c.qualified_name());
        w.u8(type_code(c.data_type));
    }
    w.u64(rel.rows.len() as u64);
    // Dictionary: each distinct string once, in first-use order.
    let mut ids: HashMap<Sym, u32> = HashMap::new();
    let mut dict: Vec<Sym> = Vec::new();
    for row in &rel.rows {
        for v in row {
            if let Value::Text(s) = v {
                ids.entry(*s).or_insert_with(|| {
                    dict.push(*s);
                    (dict.len() - 1) as u32
                });
            }
        }
    }
    w.u32(dict.len() as u32);
    for s in &dict {
        w.str(s.as_str());
    }
    for col in 0..rel.columns.len() {
        for row in &rel.rows {
            match row[col] {
                Value::Null => w.u8(0),
                Value::Int(i) => {
                    w.u8(1);
                    w.i64(i);
                }
                Value::Float(f) => {
                    w.u8(2);
                    w.f64(f);
                }
                Value::Text(s) => {
                    w.u8(3);
                    w.u32(ids[&s]);
                }
                Value::Bool(b) => {
                    w.u8(4);
                    w.u8(u8::from(b));
                }
            }
        }
    }
}

/// Rejects a decoded element count that could not possibly fit the
/// reader's remaining payload (each element needs at least `min_bytes`
/// of encoding). Counts come off the wire attacker-controlled, so every
/// one must fail here **before** it sizes an allocation — a ~25-byte
/// frame claiming `u64::MAX` rows must cost nothing.
fn bounded_count(n: u64, min_bytes: usize, r: &PayloadReader<'_>, what: &str) -> Result<usize> {
    let fits = n
        .checked_mul(min_bytes as u64)
        .is_some_and(|need| need <= r.remaining() as u64);
    if !fits {
        return Err(Error::Protocol(format!(
            "implausible {what} {n} (only {} payload bytes remain)",
            r.remaining()
        )));
    }
    Ok(n as usize)
}

fn decode_relation(r: &mut PayloadReader<'_>) -> Result<Relation> {
    // Minimum encoded sizes backing the bounds below: a column header is
    // a u32 name length + a type byte (5), a dictionary entry a u32
    // length (4), a cell its tag byte (1). A row therefore needs at
    // least `ncols` cell bytes; zero-column relations (which the engine
    // never produces for SQL results) must still pay one byte per
    // claimed row so a count can never outrun the payload.
    let raw_ncols = r.u32("column count").map_err(as_protocol)?;
    let ncols = bounded_count(u64::from(raw_ncols), 5, r, "column count")?;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name = r.str("column name").map_err(as_protocol)?;
        let ty = type_from_code(r.u8("column type").map_err(as_protocol)?)?;
        columns.push(RelColumn::bare(name, ty));
    }
    let raw_nrows = r.u64("row count").map_err(as_protocol)?;
    let nrows = bounded_count(raw_nrows, ncols.max(1), r, "row count")?;
    let raw_dict = r.u32("dictionary length").map_err(as_protocol)?;
    let dict_len = bounded_count(u64::from(raw_dict), 4, r, "dictionary length")?;
    let mut dict = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        dict.push(Sym::intern(
            &r.str("dictionary string").map_err(as_protocol)?,
        ));
    }
    // Column-major cells back into row-major rows.
    let mut rows = vec![vec![Value::Null; ncols]; nrows];
    for col in 0..ncols {
        for row in rows.iter_mut() {
            row[col] = match r.u8("cell tag").map_err(as_protocol)? {
                0 => Value::Null,
                1 => Value::Int(r.i64("int cell").map_err(as_protocol)?),
                2 => Value::Float(r.f64("float cell").map_err(as_protocol)?),
                3 => {
                    let idx = r.u32("text cell index").map_err(as_protocol)? as usize;
                    let s = dict.get(idx).ok_or_else(|| {
                        Error::Protocol(format!(
                            "text cell references dictionary entry {idx} of {dict_len}"
                        ))
                    })?;
                    Value::Text(*s)
                }
                4 => Value::Bool(r.u8("bool cell").map_err(as_protocol)? != 0),
                t => return Err(Error::Protocol(format!("unknown cell tag {t}"))),
            };
        }
    }
    Ok(Relation::new(columns, rows))
}

/// Decodes a frame payload into a message.
pub fn decode(payload: &[u8]) -> Result<Message> {
    let mut r = PayloadReader::new(payload, "wire frame");
    let t = r.u8("message type").map_err(as_protocol)?;
    let msg = match t {
        tag::HELLO => Message::Hello {
            magic: r.u32("hello magic").map_err(as_protocol)?,
            version: r.u32("hello version").map_err(as_protocol)?,
        },
        tag::QUERY => Message::Query {
            sql: r.str("query text").map_err(as_protocol)?,
        },
        tag::QUIT => Message::Quit,
        tag::HELLO_OK => Message::HelloOk {
            magic: r.u32("hello-ok magic").map_err(as_protocol)?,
            version: r.u32("hello-ok version").map_err(as_protocol)?,
            epoch: r.u64("hello-ok epoch").map_err(as_protocol)?,
        },
        tag::RESULT => Message::Result {
            epoch: r.u64("result epoch").map_err(as_protocol)?,
            relation: decode_relation(&mut r)?,
        },
        tag::ERROR => {
            let code32 = r.u32("error code").map_err(as_protocol)?;
            let code = u16::try_from(code32)
                .map_err(|_| Error::Protocol(format!("error code {code32} exceeds u16")))?;
            Message::Error {
                code,
                message: r.str("error message").map_err(as_protocol)?,
            }
        }
        other => {
            return Err(Error::Protocol(format!(
                "unknown message type {other:#04x}"
            )))
        }
    };
    r.expect_end().map_err(as_protocol)?;
    Ok(msg)
}

/// Encodes an engine error as a wire error message. The message carries
/// the class-free payload ([`Error::message`]); the class itself travels
/// as the numeric code, so rehydration renders identically to the
/// original (no stacked class prefixes).
pub fn error_message(e: &Error) -> Message {
    Message::Error {
        code: e.code().as_u16(),
        message: e.message().to_string(),
    }
}

/// Rehydrates a wire error into the engine error class its code names
/// (unknown codes fall back to the protocol class so nothing is lost).
pub fn error_from_wire(code: u16, message: String) -> Error {
    match ErrorCode::from_u16(code) {
        Some(c) => Error::from_code(c, message),
        None => Error::Protocol(format!("server error with unknown code {code}: {message}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Message) -> Message {
        let payload = encode(&msg);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut cur = &buf[..];
        let got = read_frame(&mut cur).unwrap().expect("one frame");
        assert!(read_frame(&mut cur).unwrap().is_none(), "clean EOF after");
        decode(&got).unwrap()
    }

    #[test]
    fn control_messages_round_trip() {
        for msg in [
            Message::Hello {
                magic: WIRE_MAGIC,
                version: WIRE_VERSION,
            },
            Message::Query {
                sql: "SELECT 1 FROM t".into(),
            },
            Message::Quit,
            Message::HelloOk {
                magic: WIRE_MAGIC,
                version: WIRE_VERSION,
                epoch: 42,
            },
            Message::Error {
                code: 300,
                message: "SQL parse error: nope".into(),
            },
        ] {
            // Relation has no PartialEq; debug form is an exact canon
            // for the control variants under test here.
            assert_eq!(format!("{:?}", round_trip(msg.clone())), format!("{msg:?}"));
        }
    }

    #[test]
    fn relations_round_trip_with_nulls_and_dictionary() {
        let rel = Relation::new(
            vec![
                RelColumn::bare("id", DataType::Int),
                RelColumn::bare("name", DataType::Text),
                RelColumn::bare("score", DataType::Float),
                RelColumn::bare("ok", DataType::Bool),
            ],
            vec![
                vec![
                    Value::Int(1),
                    Value::from("alpha"),
                    Value::Float(1.5),
                    Value::Bool(true),
                ],
                vec![
                    Value::Null,
                    Value::from("alpha"),
                    Value::Null,
                    Value::Bool(false),
                ],
                vec![
                    Value::Int(-3),
                    Value::from("beta"),
                    Value::Float(-0.0),
                    Value::Null,
                ],
            ],
        );
        let got = round_trip(Message::Result {
            epoch: 7,
            relation: rel.clone(),
        });
        let Message::Result { epoch, relation } = got else {
            panic!("wrong message type back");
        };
        assert_eq!(epoch, 7);
        assert_eq!(relation.rows, rel.rows);
        assert_eq!(
            relation
                .columns
                .iter()
                .map(|c| (c.qualified_name(), c.data_type))
                .collect::<Vec<_>>(),
            rel.columns
                .iter()
                .map(|c| (c.qualified_name(), c.data_type))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn corrupt_frames_are_typed_protocol_errors() {
        let payload = encode(&Message::Quit);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();

        // Flip a payload bit: checksum mismatch.
        let mut bad = buf.clone();
        bad[8] ^= 0x40;
        let e = read_frame(&mut &bad[..]).unwrap_err();
        assert_eq!(e.code().as_u16(), 500, "{e}");
        assert!(e.to_string().contains("checksum"), "{e}");

        // Truncate mid-frame: protocol error, not clean EOF.
        let e = read_frame(&mut &buf[..buf.len() - 2]).unwrap_err();
        assert_eq!(e.code().as_u16(), 500, "{e}");

        // Absurd length: rejected before allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let e = read_frame(&mut &huge[..]).unwrap_err();
        assert!(e.to_string().contains("limit"), "{e}");

        // Unknown message type.
        let e = decode(&[0x7f]).unwrap_err();
        assert!(e.to_string().contains("unknown message type"), "{e}");
    }

    #[test]
    fn hostile_result_counts_are_rejected_before_allocation() {
        // Each payload claims a count wildly beyond its own byte length;
        // decode must answer with a typed protocol error (it would
        // panic with "capacity overflow" or allocate gigabytes if the
        // counts were trusted).
        let result_header = |w: &mut PayloadWriter| {
            w.u8(tag::RESULT);
            w.u64(7); // epoch
        };

        // u64::MAX rows behind a single one-column header.
        let mut w = PayloadWriter::new();
        result_header(&mut w);
        w.u32(1); // ncols
        w.str("c");
        w.u8(0);
        w.u64(u64::MAX); // nrows
        let e = decode(&w.into_bytes()).unwrap_err();
        assert_eq!(e.code().as_u16(), 500, "{e}");
        assert!(e.to_string().contains("row count"), "{e}");

        // Huge rows with zero columns (rows still cost >= 1 byte each).
        let mut w = PayloadWriter::new();
        result_header(&mut w);
        w.u32(0); // ncols
        w.u64(1 << 40); // nrows
        let e = decode(&w.into_bytes()).unwrap_err();
        assert!(e.to_string().contains("row count"), "{e}");

        // A column count no payload this size could encode.
        let mut w = PayloadWriter::new();
        result_header(&mut w);
        w.u32(u32::MAX); // ncols
        let e = decode(&w.into_bytes()).unwrap_err();
        assert!(e.to_string().contains("column count"), "{e}");

        // A dictionary length past the remaining bytes.
        let mut w = PayloadWriter::new();
        result_header(&mut w);
        w.u32(1); // ncols
        w.str("c");
        w.u8(0);
        w.u64(0); // nrows
        w.u32(u32::MAX); // dict_len
        let e = decode(&w.into_bytes()).unwrap_err();
        assert!(e.to_string().contains("dictionary length"), "{e}");
    }

    #[test]
    fn type_codes_are_pinned() {
        // Wire layout freeze: these numbers are protocol, not implementation.
        assert_eq!(type_code(DataType::Int), 0);
        assert_eq!(type_code(DataType::Float), 1);
        assert_eq!(type_code(DataType::Text), 2);
        assert_eq!(type_code(DataType::Bool), 3);
        assert_eq!(WIRE_MAGIC, 0x5057_5445); // "ETWP" little-endian
        assert_eq!(WIRE_VERSION, 1);
        for ty in [
            DataType::Int,
            DataType::Float,
            DataType::Text,
            DataType::Bool,
        ] {
            assert_eq!(type_from_code(type_code(ty)).unwrap(), ty);
        }
    }
}
