//! The wire protocol: byte-exact framing and message codecs.
//!
//! Every message travels as one **frame** with the same shape as an
//! on-disk segment (`frame`; the framing deliberately reuses
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
//! handshake completes.
//!
//! Result sets are encoded **column-major**, and their text cells carry
//! `u32` indices into a **connection dictionary**: the server's
//! [`Encoder`] and the client's [`Decoder`] each keep one per connection,
//! and a `Result` carries only the strings this connection has not been
//! sent yet (a delta), so a repeated result costs its cells, not its
//! strings. [`encode`] and [`decode`] are the same codec over a fresh
//! dictionary.
//!
//! Corruption handling: an oversized length, a checksum mismatch, an
//! unknown message type or a truncated body all decode to
//! [`Error::Protocol`] (never a panic), and the peer that detects them
//! closes the connection. Counts inside a `Result` body (columns, rows,
//! dictionary entries) are attacker-controlled until proven otherwise:
//! each is bounded against the bytes still remaining in the payload
//! **before** it sizes any allocation, so a tiny frame claiming
//! `u64::MAX` rows is a typed refusal, not a giant allocation.

mod frame;

pub use frame::{read_frame, read_frame_event, write_frame, FrameEvent};

use etable_relational::intern::{intern_all, Sym, SymMap};
use etable_relational::relation::{RelColumn, Relation};
use etable_relational::storage::codec::{PayloadReader, PayloadWriter};
use etable_relational::value::{DataType, Value};
use etable_relational::{Error, ErrorCode, Result};
use std::collections::hash_map::Entry;

/// Protocol magic carried by `Hello`/`HelloOk` ("ETWP" LE).
pub const WIRE_MAGIC: u32 = u32::from_le_bytes(*b"ETWP");
/// Current protocol version. Bump on any layout change.
pub const WIRE_VERSION: u32 = 2;
/// Upper bound on a single frame's payload; larger lengths are rejected
/// before any allocation (a corrupt length must not drive a huge alloc).
pub const MAX_FRAME_LEN: u64 = 64 * 1024 * 1024;
/// Entries a connection dictionary may reach through deltas. A `Result`
/// whose new strings would take it past this starts the dictionary over
/// (`reset = 1`). Per connection that bounds the server's index map at
/// ≈ 4.5 MiB (2^18 `Sym → u32` entries in 2^19 hash slots of 9 bytes) and
/// the client's at 1 MiB (2^18 `Sym`s); the strings themselves live in
/// the process-wide interner either way. Only a single result holding
/// more distinct strings than this takes a dictionary past it, for that
/// one frame: the next `Result` resets again.
pub const DICT_CAP: usize = 1 << 18;

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

/// Encodes a message into a frame payload (pass to [`write_frame`]); a
/// `Result` is encoded against a fresh dictionary, so it carries every
/// string it holds.
pub fn encode(msg: &Message) -> Vec<u8> {
    Encoder::new().prepare(msg).0
}

/// Decodes a frame payload into a message; a `Result` is decoded against
/// a fresh dictionary.
pub fn decode(payload: &[u8]) -> Result<Message> {
    Decoder::new().decode(payload)
}

/// The sending end of one connection's dictionary: which strings the
/// peer already holds, and at which index.
#[derive(Debug)]
pub struct Encoder {
    /// `Sym` → its index; the indices are `0..len`, in first-send order.
    ids: SymMap<u32>,
    /// [`DICT_CAP`], smaller in tests.
    cap: usize,
    /// [`MAX_FRAME_LEN`], smaller in tests.
    max_payload: u64,
}

/// The strings a `Result` sends, and the indices it gives them.
struct Delta {
    /// The dictionary starts over with this frame.
    reset: bool,
    /// New strings, in row-major first-use order.
    strings: Vec<Sym>,
    /// `strings[i]` ↦ its index: `i` after a reset, else dictionary
    /// length + `i`.
    ids: SymMap<u32>,
}

/// How one relation's cells are written against the dictionary.
struct Plan {
    delta: Delta,
    /// The dictionary index of every text cell, column-major (`0` for
    /// other cells).
    text_idx: Vec<u32>,
    /// Encoded size of all cells, in bytes.
    cell_bytes: usize,
}

/// Encoded size of one cell: its tag byte plus its value.
fn cell_len(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Int(_) | Value::Float(_) => 9,
        Value::Text(_) => 5,
        Value::Bool(_) => 2,
    }
}

impl Default for Encoder {
    fn default() -> Self {
        Encoder::new()
    }
}

impl Encoder {
    /// A connection's encoder, with an empty dictionary.
    pub fn new() -> Encoder {
        Encoder::with_limits(DICT_CAP, MAX_FRAME_LEN)
    }

    fn with_limits(cap: usize, max_payload: u64) -> Encoder {
        Encoder {
            ids: SymMap::default(),
            cap,
            max_payload,
        }
    }

    /// Encodes `msg` into a frame payload against this connection's
    /// dictionary, which takes in the new strings of a `Result`. A payload
    /// over [`MAX_FRAME_LEN`] is refused with [`Error::Protocol`] and
    /// leaves the dictionary exactly as it was, so the connection stays
    /// usable: the peer never sees the frame, and both ends still agree.
    pub fn encode(&mut self, msg: &Message) -> Result<Vec<u8>> {
        let (payload, delta) = self.prepare(msg);
        frame::refuse_oversized(payload.len(), self.max_payload)?;
        match delta {
            Some(d) if d.reset || self.ids.is_empty() => self.ids = d.ids,
            Some(d) => self.ids.extend(d.ids),
            None => {}
        }
        Ok(payload)
    }

    /// The payload of `msg`, and for a `Result` the dictionary change it
    /// assumes, not yet applied.
    fn prepare(&self, msg: &Message) -> (Vec<u8>, Option<Delta>) {
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
                let mut reset = false;
                let plan = loop {
                    match self.plan(relation, reset) {
                        Some(plan) => break plan,
                        None => reset = true,
                    }
                };
                return (write_result(*epoch, relation, &plan), Some(plan.delta));
            }
            Message::Error { code, message } => {
                w.u8(tag::ERROR);
                w.u32(u32::from(*code));
                w.str(message);
            }
        }
        (w.into_bytes(), None)
    }

    /// One row-major pass over `rel`: gives each string new to the
    /// dictionary (all of them, after a `reset`) the next index, and sizes
    /// the cells. `None` when the dictionary would end up past the cap,
    /// which calls for a reset.
    fn plan(&self, rel: &Relation, reset: bool) -> Option<Plan> {
        let known = (!reset).then_some(&self.ids);
        let base = known.map_or(0, |k| k.len());
        if base > self.cap {
            return None;
        }
        let (ncols, nrows) = (rel.columns.len(), rel.rows.len());
        let mut delta = Delta {
            reset,
            strings: Vec::new(),
            ids: SymMap::default(),
        };
        let mut text_idx = vec![0u32; ncols * nrows];
        let mut cell_bytes = 0;
        for (r, row) in rel.rows.iter().enumerate() {
            for (c, v) in row.iter().enumerate().take(ncols) {
                cell_bytes += cell_len(v);
                let Value::Text(s) = *v else { continue };
                let idx = match known.and_then(|k| k.get(&s)) {
                    Some(&i) => i,
                    None => match delta.ids.entry(s) {
                        Entry::Occupied(e) => *e.get(),
                        Entry::Vacant(e) => {
                            if !reset && base + delta.strings.len() >= self.cap {
                                return None;
                            }
                            delta.strings.push(s);
                            *e.insert((base + delta.strings.len() - 1) as u32)
                        }
                    },
                };
                text_idx[c * nrows + r] = idx;
            }
        }
        Some(Plan {
            delta,
            text_idx,
            cell_bytes,
        })
    }
}

/// A `Result` payload, written into a buffer of its exact size:
///
/// ```text
/// epoch: u64
/// ncols: u32 | ncols × (qualified_name: str, type_code: u8)
/// nrows: u64
/// reset: u8 | delta_len: u32 | delta_len × str   -- strings new to the
///                                                   connection, first use
/// ncols × nrows × cell                           -- column-major
/// cell: tag u8 (0 NULL | 1 Int i64 | 2 Float f64 | 3 Text u32 index into
///               the connection dictionary | 4 Bool u8)
/// ```
fn write_result(epoch: u64, rel: &Relation, plan: &Plan) -> Vec<u8> {
    let names: Vec<String> = rel.columns.iter().map(RelColumn::qualified_name).collect();
    let header: usize = 1 + 8 + 4 + names.iter().map(|n| 4 + n.len() + 1).sum::<usize>() + 8;
    let delta = &plan.delta.strings;
    let dict: usize = 1 + 4 + delta.iter().map(|s| 4 + s.as_str().len()).sum::<usize>();
    let size = header + dict + plan.cell_bytes;
    let mut w = PayloadWriter::with_capacity(size);
    w.u8(tag::RESULT);
    w.u64(epoch);
    w.u32(rel.columns.len() as u32);
    for (name, c) in names.iter().zip(&rel.columns) {
        w.str(name);
        w.u8(type_code(c.data_type));
    }
    let nrows = rel.rows.len();
    w.u64(nrows as u64);
    w.u8(u8::from(plan.delta.reset));
    w.u32(delta.len() as u32);
    for s in delta {
        w.str(s.as_str());
    }
    for col in 0..rel.columns.len() {
        let idx = &plan.text_idx[col * nrows..(col + 1) * nrows];
        for (row, &i) in rel.rows.iter().zip(idx) {
            match row[col] {
                Value::Null => w.u8(0),
                Value::Int(v) => {
                    w.u8(1);
                    w.i64(v);
                }
                Value::Float(f) => {
                    w.u8(2);
                    w.f64(f);
                }
                Value::Text(_) => {
                    w.u8(3);
                    w.u32(i);
                }
                Value::Bool(b) => {
                    w.u8(4);
                    w.u8(u8::from(b));
                }
            }
        }
    }
    debug_assert_eq!(w.len(), size, "Result payload sized up front");
    w.into_bytes()
}

/// The receiving end of one connection's dictionary: index → symbol.
#[derive(Debug, Clone)]
pub struct Decoder {
    dict: Vec<Sym>,
    /// [`DICT_CAP`], smaller in tests.
    cap: usize,
}

impl Default for Decoder {
    fn default() -> Self {
        Decoder::new()
    }
}

impl Decoder {
    /// A connection's decoder, with an empty dictionary.
    pub fn new() -> Decoder {
        Decoder::with_cap(DICT_CAP)
    }

    fn with_cap(cap: usize) -> Decoder {
        Decoder {
            dict: Vec::new(),
            cap,
        }
    }

    /// Decodes a frame payload into a message against this connection's
    /// dictionary. A `Result`'s new strings join the dictionary only once
    /// the whole payload has decoded: a refused frame leaves it as it was.
    pub fn decode(&mut self, payload: &[u8]) -> Result<Message> {
        let mut r = PayloadReader::new(payload, "wire frame");
        let t = r.u8("message type").map_err(as_protocol)?;
        let mut delta = None;
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
            tag::RESULT => {
                let epoch = r.u64("result epoch").map_err(as_protocol)?;
                let (relation, new) = self.decode_relation(&mut r)?;
                delta = Some(new);
                Message::Result { epoch, relation }
            }
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
        match delta {
            Some((true, strings)) => self.dict = strings,
            Some((false, strings)) => self.dict.extend(strings),
            None => {}
        }
        Ok(msg)
    }

    /// The relation body after the epoch, and the dictionary change it
    /// carries (`reset`, new symbols), not yet applied.
    fn decode_relation(&self, r: &mut PayloadReader<'_>) -> Result<(Relation, (bool, Vec<Sym>))> {
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
        let reset = r.u8("dictionary reset").map_err(as_protocol)?;
        let raw_delta = r.u32("dictionary length").map_err(as_protocol)?;
        let reset = match reset {
            0 => false,
            1 => true,
            b => {
                return Err(Error::Protocol(format!(
                    "dictionary reset byte {b} is neither 0 nor 1"
                )))
            }
        };
        let delta_len = bounded_count(u64::from(raw_delta), 4, r, "dictionary length")?;
        let base: &[Sym] = if reset { &[] } else { &self.dict };
        if !reset && base.len() + delta_len > self.cap {
            return Err(Error::Protocol(format!(
                "a dictionary delta of {delta_len} strings onto {} would pass the \
                 {}-entry cap without a reset",
                base.len(),
                self.cap
            )));
        }
        let mut strings = Vec::with_capacity(delta_len);
        for _ in 0..delta_len {
            strings.push(r.str_ref("dictionary string").map_err(as_protocol)?);
        }
        let delta = intern_all(&strings);
        let dict_len = base.len() + delta.len();
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
                        let s = base
                            .get(idx)
                            .or_else(|| delta.get(idx - base.len()))
                            .ok_or_else(|| {
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
        Ok((Relation::new(columns, rows), (reset, delta)))
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
    use crate::load::canon;
    use etable_relational::storage::codec::write_segment;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn round_trip(msg: Message) -> Message {
        let payload = encode(&msg);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        // The frame is byte-for-byte an on-disk segment.
        let mut segment = Vec::new();
        write_segment(&mut segment, &payload);
        assert_eq!(buf, segment);
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
        assert_eq!(WIRE_VERSION, 2);
        assert_eq!(DICT_CAP, 1 << 18);
        for ty in [
            DataType::Int,
            DataType::Float,
            DataType::Text,
            DataType::Bool,
        ] {
            assert_eq!(type_from_code(type_code(ty)).unwrap(), ty);
        }
    }

    /// A one-column TEXT relation, one row per word (`None` is NULL).
    fn words(ws: &[Option<&str>]) -> Relation {
        Relation::new(
            vec![RelColumn::bare("w", DataType::Text)],
            ws.iter()
                .map(|w| vec![w.map_or(Value::Null, Value::from)])
                .collect(),
        )
    }

    fn result(epoch: u64, relation: Relation) -> Message {
        Message::Result { epoch, relation }
    }

    /// The relation a decoded message carries.
    fn relation_of(msg: Message) -> Relation {
        match msg {
            Message::Result { relation, .. } => relation,
            other => panic!("expected a Result, got {other:?}"),
        }
    }

    /// `(reset, delta_len)` of a `Result` payload, read past its header.
    fn dict_header(payload: &[u8]) -> (u8, u32) {
        let mut r = PayloadReader::new(payload, "test");
        r.u8("tag").unwrap();
        r.u64("epoch").unwrap();
        for _ in 0..r.u32("ncols").unwrap() {
            r.str("name").unwrap();
            r.u8("type").unwrap();
        }
        r.u64("nrows").unwrap();
        (r.u8("reset").unwrap(), r.u32("delta_len").unwrap())
    }

    /// Both ends map every index to the same symbol.
    fn in_step(enc: &Encoder, dec: &Decoder) -> bool {
        enc.ids.len() == dec.dict.len()
            && enc
                .ids
                .iter()
                .all(|(s, &i)| dec.dict.get(i as usize) == Some(s))
    }

    #[test]
    fn result_layout_is_pinned() {
        let rel = Relation::new(
            vec![
                RelColumn::qualified("t", "w", DataType::Text),
                RelColumn::bare("n", DataType::Int),
            ],
            vec![
                vec![Value::from("pin-b"), Value::Int(1)],
                vec![Value::Null, Value::Null],
                vec![Value::from("pin-a"), Value::Int(2)],
                vec![Value::from("pin-b"), Value::Int(3)],
            ],
        );
        let expect = |delta: &[&str]| {
            let mut w = PayloadWriter::new();
            w.u8(0x82);
            w.u64(5);
            w.u32(2);
            w.str("t.w");
            w.u8(2);
            w.str("n");
            w.u8(0);
            w.u64(4);
            w.u8(0); // reset
            w.u32(delta.len() as u32);
            for s in delta {
                w.str(s);
            }
            for (tag, idx) in [(3, 0), (0, 0), (3, 1), (3, 0)] {
                w.u8(tag);
                if tag == 3 {
                    w.u32(idx);
                }
            }
            for n in [Some(1), None, Some(2), Some(3)] {
                match n {
                    Some(n) => {
                        w.u8(1);
                        w.i64(n);
                    }
                    None => w.u8(0),
                }
            }
            w.into_bytes()
        };
        let mut enc = Encoder::new();
        let msg = result(5, rel);
        // First use, row-major: "pin-b" is 0, "pin-a" is 1.
        assert_eq!(enc.encode(&msg).unwrap(), expect(&["pin-b", "pin-a"]));
        assert_eq!(encode(&msg), expect(&["pin-b", "pin-a"]));
        // Sent again on the same connection: no strings, same indices.
        assert_eq!(enc.encode(&msg).unwrap(), expect(&[]));
    }

    #[test]
    fn a_refused_result_leaves_both_dictionaries_as_they_were() {
        let mut enc = Encoder::with_limits(DICT_CAP, 200);
        let mut dec = Decoder::new();
        let first = result(1, words(&[Some("refuse-a"), Some("refuse-b")]));
        dec.decode(&enc.encode(&first).unwrap()).unwrap();

        let long = "refuse-long-".repeat(20);
        let big = result(2, words(&[Some("refuse-c"), Some(&long), Some("refuse-a")]));
        let e = enc.encode(&big).unwrap_err();
        assert_eq!(e.code().as_u16(), 500, "{e}");
        assert!(e.to_string().contains("limit"), "{e}");
        assert!(in_step(&enc, &dec));

        // The next Result shares a string with the refused one: it is sent
        // again, at the index the client expects.
        let next = words(&[Some("refuse-c"), Some("refuse-b"), None]);
        let payload = enc.encode(&result(3, next.clone())).unwrap();
        assert_eq!(dict_header(&payload), (0, 1));
        let got = relation_of(dec.decode(&payload).unwrap());
        assert_eq!(canon(&got), canon(&next));
        assert!(in_step(&enc, &dec));
    }

    #[test]
    fn the_dictionary_resets_at_the_cap() {
        let mut enc = Encoder::with_limits(3, MAX_FRAME_LEN);
        let mut dec = Decoder::with_cap(3);
        // Each result's words, and the `(reset, delta_len)` it is sent with.
        type Step = (&'static [Option<&'static str>], (u8, u32));
        let steps: [Step; 6] = [
            (&[Some("cap-a"), Some("cap-b"), Some("cap-a")], (0, 2)),
            (&[Some("cap-c"), Some("cap-b")], (0, 1)),
            (&[Some("cap-a"), None], (0, 0)),
            // A fourth string would pass the cap: start over.
            (&[Some("cap-b"), Some("cap-d")], (1, 2)),
            // One result above the cap travels as a reset...
            (
                &[Some("cap-a"), Some("cap-b"), Some("cap-c"), Some("cap-d")],
                (1, 4),
            ),
            // ...and so does the next one, even with no new string.
            (&[Some("cap-d")], (1, 1)),
        ];
        for (i, (ws, header)) in steps.into_iter().enumerate() {
            let rel = words(ws);
            let payload = enc.encode(&result(i as u64, rel.clone())).unwrap();
            assert_eq!(dict_header(&payload), header, "step {i}");
            let got = relation_of(dec.decode(&payload).unwrap());
            assert_eq!(canon(&got), canon(&rel), "step {i}");
            assert!(in_step(&enc, &dec), "step {i}");
        }
    }

    #[test]
    fn hostile_dictionaries_are_refused() {
        // A one-column TEXT result of one row up to its cells.
        let head = |reset: u8, delta: &[&str]| {
            let mut w = PayloadWriter::new();
            w.u8(tag::RESULT);
            w.u64(7);
            w.u32(1);
            w.str("c");
            w.u8(2);
            w.u64(1);
            w.u8(reset);
            w.u32(delta.len() as u32);
            for s in delta {
                w.str(s);
            }
            w
        };
        let text_cell = |mut w: PayloadWriter, idx: u32| {
            w.u8(3);
            w.u32(idx);
            w.into_bytes()
        };
        let refused = |dec: &mut Decoder, payload: &[u8], why: &str| {
            let before = dec.dict.clone();
            let e = dec.decode(payload).unwrap_err();
            assert_eq!(e.code().as_u16(), 500, "{e}");
            assert!(e.to_string().contains(why), "{e}");
            assert_eq!(dec.dict, before, "a refused frame changes nothing");
        };

        let mut dec = Decoder::with_cap(2);
        refused(&mut dec, &text_cell(head(2, &["h-a"]), 0), "reset byte 2");
        refused(&mut dec, &text_cell(head(0, &["h-a"]), 1), "entry 1 of 1");
        let mut bytes = text_cell(head(0, &[]), 0);
        let n = bytes.len();
        // A delta length past the bytes that remain.
        bytes[n - 9..n - 5].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
        refused(&mut dec, &bytes, "dictionary length");
        // A whole, valid body with a byte after it.
        let mut bytes = text_cell(head(0, &["h-a"]), 0);
        bytes.push(0);
        refused(&mut dec, &bytes, "trailing");
        // Valid: two strings fill the cap; an index into the previous
        // frame's strings resolves.
        dec.decode(&text_cell(head(0, &["h-a", "h-b"]), 1)).unwrap();
        let got = relation_of(dec.decode(&text_cell(head(0, &[]), 0)).unwrap());
        assert_eq!(got.rows, vec![vec![Value::from("h-a")]]);
        // One more string without a reset passes the cap; with one it is
        // a fresh dictionary.
        refused(&mut dec, &text_cell(head(0, &["h-c"]), 2), "cap");
        refused(&mut dec, &text_cell(head(1, &["h-c"]), 1), "entry 1 of 1");
        let got = relation_of(dec.decode(&text_cell(head(1, &["h-c"]), 0)).unwrap());
        assert_eq!(got.rows, vec![vec![Value::from("h-c")]]);
        assert_eq!(dec.dict, vec![Sym::intern("h-c")]);
        // A delta string that is not UTF-8.
        let mut bytes = head(0, &[]).into_bytes();
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&1u32.to_le_bytes()); // one string,
        bytes.extend_from_slice(&[2, 0, 0, 0, 0xFF, 0xFE]); // two bad bytes
        bytes.extend_from_slice(&[3, 0, 0, 0, 0]); // the cell: index 0
        refused(&mut dec, &bytes, "UTF-8");
    }

    /// Strings shared by every generated relation, so later messages
    /// repeat earlier ones' strings.
    fn vocab() -> Vec<Sym> {
        let special = ["", "é", "a b", "'q'", "nul\0byte"];
        special
            .iter()
            .map(|s| Sym::intern(s))
            .chain((0..35).map(|i| Sym::intern(&format!("prop-vocab-{i:02}"))))
            .collect()
    }

    const TYPES: [DataType; 4] = [
        DataType::Int,
        DataType::Float,
        DataType::Text,
        DataType::Bool,
    ];
    const INTS: [i64; 5] = [i64::MIN, -1, 0, 1, i64::MAX];
    const FLOATS: [f64; 6] = [-0.0, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.5];

    fn random_value(rng: &mut StdRng, ty: DataType, vocab: &[Sym]) -> Value {
        if rng.gen_ratio(1, 6) {
            return Value::Null;
        }
        match ty {
            DataType::Int if rng.gen_ratio(1, 2) => Value::Int(INTS[rng.gen_range(0..INTS.len())]),
            DataType::Int => Value::Int(rng.gen_range(-50i64..50)),
            DataType::Float => Value::Float(FLOATS[rng.gen_range(0..FLOATS.len())]),
            DataType::Text => Value::Text(vocab[rng.gen_range(0..vocab.len())]),
            DataType::Bool => Value::Bool(rng.gen_ratio(1, 2)),
        }
    }

    fn random_relation(rng: &mut StdRng, vocab: &[Sym]) -> Relation {
        let ncols = rng.gen_range(0..5usize);
        // A zero-column row still costs a byte of the payload's bound, so
        // only a handful fit.
        let nrows = match ncols {
            0 => rng.gen_range(0..4usize),
            _ if rng.gen_ratio(1, 8) => 0,
            _ => rng.gen_range(1..30usize),
        };
        let types: Vec<DataType> = (0..ncols).map(|_| TYPES[rng.gen_range(0..4)]).collect();
        let columns = types
            .iter()
            .enumerate()
            .map(|(i, &ty)| RelColumn::bare(format!("c{i}"), ty))
            .collect();
        let rows = (0..nrows)
            .map(|_| {
                types
                    .iter()
                    .map(|&ty| random_value(rng, ty, vocab))
                    .collect()
            })
            .collect();
        Relation::new(columns, rows)
    }

    /// Sends a random sequence of relations — some repeated — through one
    /// encoder/decoder pair with dictionary cap `cap`: every decode must
    /// equal the relation sent and its fresh-dictionary decode, both ends
    /// must stay in step, and a non-reset frame must never take the
    /// dictionary past the cap.
    fn check_sequence(seed: u64, cap: usize) -> std::result::Result<(), String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let vocab = vocab();
        let mut enc = Encoder::with_limits(cap, MAX_FRAME_LEN);
        let mut dec = Decoder::with_cap(cap);
        let mut sent: Vec<Relation> = Vec::new();
        for epoch in 0..rng.gen_range(1..8u64) {
            let rel = if !sent.is_empty() && rng.gen_ratio(1, 3) {
                sent[rng.gen_range(0..sent.len())].clone()
            } else {
                random_relation(&mut rng, &vocab)
            };
            let msg = result(epoch, rel.clone());
            let warm = enc.encode(&msg).map_err(|e| e.to_string())?;
            let got = relation_of(dec.decode(&warm).map_err(|e| e.to_string())?);
            let fresh = relation_of(decode(&encode(&msg)).map_err(|e| e.to_string())?);
            if canon(&got) != canon(&rel) || canon(&fresh) != canon(&rel) {
                return Err(format!(
                    "message {epoch}: sent {}\nwarm {}\nfresh {}",
                    canon(&rel),
                    canon(&got),
                    canon(&fresh)
                ));
            }
            if !in_step(&enc, &dec) {
                return Err(format!("message {epoch}: the two ends disagree"));
            }
            let (reset, _) = dict_header(&warm);
            if reset == 0 && dec.dict.len() > cap {
                return Err(format!("message {epoch}: a delta passed the cap {cap}"));
            }
            sent.push(rel);
        }
        Ok(())
    }

    /// Flips one bit of, and separately truncates, a warm frame: decoding
    /// either must never panic, a refusal must be a typed code-500 error
    /// that leaves the dictionary as it was, and a truncation is always
    /// refused.
    fn check_damage(seed: u64) -> std::result::Result<(), String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let vocab = vocab();
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        let cold = enc
            .encode(&result(0, random_relation(&mut rng, &vocab)))
            .map_err(|e| e.to_string())?;
        dec.decode(&cold).map_err(|e| e.to_string())?;
        let warm = enc
            .encode(&result(1, random_relation(&mut rng, &vocab)))
            .map_err(|e| e.to_string())?;
        let try_decode = |payload: &[u8], what: &str| -> std::result::Result<bool, String> {
            let mut d = dec.clone();
            match d.decode(payload) {
                Ok(_) => Ok(true),
                Err(e) if e.code().as_u16() != 500 => Err(format!("{what}: code {e:?}")),
                Err(_) if d.dict != dec.dict => Err(format!("{what}: refused, dictionary changed")),
                Err(_) => Ok(false),
            }
        };
        let pos = rng.gen_range(0..warm.len());
        let mut flipped = warm.clone();
        flipped[pos] ^= 1 << rng.gen_range(0..8u32);
        try_decode(&flipped, &format!("bit flip at {pos}"))?;
        let cut = rng.gen_range(0..warm.len());
        if try_decode(&warm[..cut], &format!("truncation to {cut}"))? {
            return Err(format!("truncation to {cut} of {} decoded", warm.len()));
        }
        Ok(())
    }

    /// Case-count override: `PROPTEST_CASES` (defaults to 256).
    fn cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(256)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        #[test]
        fn codec_warm_decodes_equal_fresh_decodes(seed in 0u64..u64::MAX / 2) {
            if let Err(msg) = check_sequence(seed, DICT_CAP) {
                prop_assert!(false, "{}", msg);
            }
        }

        #[test]
        fn codec_dictionary_cap_crossings_stay_in_step(seed in 0u64..u64::MAX / 2, cap in 0usize..12) {
            if let Err(msg) = check_sequence(seed, cap) {
                prop_assert!(false, "{}", msg);
            }
        }

        #[test]
        fn codec_damaged_warm_frames_are_typed_errors(seed in 0u64..u64::MAX / 2) {
            if let Err(msg) = check_damage(seed) {
                prop_assert!(false, "{}", msg);
            }
        }
    }
}
