//! The versioned binary table format: file headers, checksummed
//! length-prefixed segments, and the encoders/decoders for each segment
//! kind (schema, string arena, typed columns).
//!
//! ## File layout (all integers little-endian)
//!
//! A table file (`t<index>.etb`) is:
//!
//! ```text
//! magic "ETBL" (4 bytes) | format version u32 (4 bytes)
//! segment*                                   (then exactly EOF)
//! segment := payload_len u64 | payload | crc32(payload) u32
//! ```
//!
//! Segments appear in fixed order: one **schema** segment, one **arena**
//! segment, then one **column** segment per schema column. The manifest
//! file (`MANIFEST.etb`, magic `"ETBM"`) holds a single segment mapping
//! table names to table files. See DESIGN.md §On-disk format for the
//! byte-exact payload layouts.
//!
//! Decoding is hostile-input-safe: every length is bounds-checked against
//! what the file actually holds before any allocation sized by it, and
//! every failure is a typed [`Error::Storage`] naming the path and segment.

use super::codec::{write_segment, PayloadReader, PayloadWriter};
use crate::intern::Sym;
use crate::schema::{Column, ForeignKey, TableSchema};
use crate::table::{ColumnData, NullBitmap, Table};
use crate::value::DataType;
use crate::{Error, Result};
use std::collections::HashMap;
use std::fs::File;
use std::io::Read;
use std::path::Path;

/// Magic bytes opening every table file.
pub const MAGIC_TABLE: [u8; 4] = *b"ETBL";
/// Magic bytes opening the manifest file.
pub const MAGIC_MANIFEST: [u8; 4] = *b"ETBM";
/// Current format version; files written by this build carry it, and
/// [`open_file`] rejects any other value (no cross-version reads in v1).
pub const FORMAT_VERSION: u32 = 1;
/// File-local arena id written at NULL positions of a `Sym` column
/// (canonical placeholder: NULL cells never reference the arena).
pub const NULL_SYM_SENTINEL: u32 = u32::MAX;

/// Manifest file name inside a snapshot directory.
pub const MANIFEST_FILE: &str = "MANIFEST.etb";

fn type_code(ty: DataType) -> u8 {
    match ty {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Text => 2,
        DataType::Bool => 3,
    }
}

fn type_from_code(code: u8, ctx: &str) -> Result<DataType> {
    match code {
        0 => Ok(DataType::Int),
        1 => Ok(DataType::Float),
        2 => Ok(DataType::Text),
        3 => Ok(DataType::Bool),
        other => Err(Error::Storage(format!(
            "{ctx}: unknown column type code {other}"
        ))),
    }
}

/// Semantic name of segment `index` in a table file (error messages).
pub fn table_segment_name(index: usize) -> String {
    match index {
        0 => "schema segment".to_string(),
        1 => "arena segment".to_string(),
        n => format!("column segment {}", n - 2),
    }
}

/// Opens `path` and validates its header (magic, format version).
/// Returns the file positioned at the first segment together with the
/// number of bytes that remain — what [`read_segment`](super::codec::read_segment)
/// bounds every declared length against.
pub fn open_file(path: &Path, magic: [u8; 4]) -> Result<(File, u64)> {
    let ctx = path.display();
    let mut f = File::open(path).map_err(|e| Error::Storage(format!("{ctx}: cannot open: {e}")))?;
    let file_len = f
        .metadata()
        .map_err(|e| Error::Storage(format!("{ctx}: cannot stat: {e}")))?
        .len();
    let mut header = [0u8; 8];
    f.read_exact(&mut header).map_err(|_| {
        Error::Storage(format!(
            "{ctx}: truncated header ({file_len} bytes, need at least 8)"
        ))
    })?;
    if header[..4] != magic {
        return Err(Error::Storage(format!(
            "{ctx}: bad magic {:02x?} (expected {:02x?})",
            &header[..4],
            magic
        )));
    }
    let version = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if version != FORMAT_VERSION {
        return Err(Error::Storage(format!(
            "{ctx}: unsupported format version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    Ok((f, file_len.saturating_sub(8)))
}

/// The null bitmap as exactly `ceil(rows / 64)` words, zero-extended and
/// with bits past `rows` masked off — the canonical on-disk shape, so the
/// encoding never depends on a bitmap's allocation history.
fn packed_words(nulls: &NullBitmap, rows: usize) -> Vec<u64> {
    let nwords = rows.div_ceil(64);
    let mut words = nulls.words().to_vec();
    words.resize(nwords, 0);
    words.truncate(nwords);
    if !rows.is_multiple_of(64) {
        if let Some(last) = words.last_mut() {
            *last &= (1u64 << (rows % 64)) - 1;
        }
    }
    words
}

/// Encodes a whole table into its file image: header, then schema, arena
/// and column segments. Deterministic for a given table: NULL positions
/// are written as canonical placeholders, the arena holds each distinct
/// string once, in first-use (column-major, row-ascending) order, and the
/// PK order section is a pure function of the key values.
pub fn encode_table(table: &Table) -> Vec<u8> {
    let rows = table.len();
    let schema = table.schema();

    // One pass over the Sym columns builds the file-local arena while
    // encoding each column body; payload assembly order is irrelevant to
    // the file order, which stays schema, arena, columns.
    let mut local: HashMap<Sym, u32> = HashMap::new();
    let mut arena: Vec<&'static str> = Vec::new();
    let mut column_payloads: Vec<Vec<u8>> = Vec::with_capacity(schema.arity());
    for (ci, col) in schema.columns.iter().enumerate() {
        let store = table.column(ci);
        let (data, nulls) = (store.data(), store.nulls());
        let mut w = PayloadWriter::new();
        w.u8(type_code(col.data_type));
        w.u64(rows as u64);
        let words = packed_words(nulls, rows);
        w.u32(words.len() as u32);
        for word in &words {
            w.u64(*word);
        }
        match data {
            ColumnData::Int(v) => {
                for i in 0..rows {
                    w.i64(if nulls.get(i) { 0 } else { v[i] });
                }
            }
            ColumnData::Float(v) => {
                for i in 0..rows {
                    w.f64(if nulls.get(i) { 0.0 } else { v[i] });
                }
            }
            ColumnData::Sym(v) => {
                for i in 0..rows {
                    if nulls.get(i) {
                        w.u32(NULL_SYM_SENTINEL);
                    } else {
                        let id = *local.entry(v[i]).or_insert_with(|| {
                            arena.push(v[i].as_str());
                            (arena.len() - 1) as u32
                        });
                        w.u32(id);
                    }
                }
            }
            ColumnData::Bool(v) => {
                for i in 0..rows {
                    w.u8(u8::from(!nulls.get(i) && v[i]));
                }
            }
        }
        column_payloads.push(w.into_bytes());
    }

    let mut sw = PayloadWriter::new();
    sw.str(&schema.name);
    sw.u64(rows as u64);
    sw.u32(schema.arity() as u32);
    for col in &schema.columns {
        sw.str(&col.name);
        sw.u8(type_code(col.data_type));
        sw.u8(u8::from(col.nullable));
    }
    sw.u32(schema.primary_key.len() as u32);
    for pk in &schema.primary_key {
        sw.str(pk);
    }
    sw.u32(schema.foreign_keys.len() as u32);
    for fk in &schema.foreign_keys {
        sw.u32(fk.columns.len() as u32);
        for c in &fk.columns {
            sw.str(c);
        }
        sw.str(&fk.referenced_table);
        sw.u32(fk.referenced_columns.len() as u32);
        for c in &fk.referenced_columns {
            sw.str(c);
        }
    }
    // The table's own PK index, so `open` can prove uniqueness with one
    // O(rows) comparison pass and hand the order straight back. Rows that
    // are already ascending (the common case for generated corpora) are
    // written as an empty section.
    let order = table.pk_order();
    let ascending = order.iter().enumerate().all(|(i, &r)| r as usize == i);
    let stored = if ascending { &[] } else { order };
    sw.u32(stored.len() as u32);
    for i in stored {
        sw.u32(*i);
    }

    let mut aw = PayloadWriter::new();
    aw.u64(arena.len() as u64);
    for s in &arena {
        aw.str(s);
    }

    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC_TABLE);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    write_segment(&mut out, &sw.into_bytes());
    write_segment(&mut out, &aw.into_bytes());
    for p in &column_payloads {
        write_segment(&mut out, p);
    }
    out
}

/// Decodes the schema segment into a [`TableSchema`], the row count, and
/// the stored PK order (empty = rows already ascending, or no PK), which
/// is only read here: proving it — complete, in bounds, strictly
/// ascending — needs the column data and happens when the table is
/// assembled ([`crate::table::Table::from_parts`]).
pub fn decode_schema(payload: &[u8], ctx: &str) -> Result<(TableSchema, usize, Vec<u32>)> {
    let mut r = PayloadReader::new(payload, ctx);
    let name = r.str("table name")?;
    let rows = r.u64("row count")?;
    let rows = usize::try_from(rows)
        .ok()
        .filter(|&n| n <= crate::table::MAX_ROWS)
        .ok_or_else(|| Error::Storage(format!("{ctx}: implausible row count {rows}")))?;
    let n_cols = r.u32("column count")?;
    let mut columns = Vec::new();
    for _ in 0..n_cols {
        let cname = r.str("column name")?;
        let ty = type_from_code(r.u8("column type")?, ctx)?;
        let nullable = r.u8("column nullability")? != 0;
        columns.push(Column {
            name: cname,
            data_type: ty,
            nullable,
        });
    }
    let n_pk = r.u32("primary-key count")?;
    let mut primary_key = Vec::new();
    for _ in 0..n_pk {
        primary_key.push(r.str("primary-key column")?);
    }
    let n_fk = r.u32("foreign-key count")?;
    let mut foreign_keys = Vec::new();
    for _ in 0..n_fk {
        let n = r.u32("foreign-key column count")?;
        let mut cols = Vec::new();
        for _ in 0..n {
            cols.push(r.str("foreign-key column")?);
        }
        let referenced_table = r.str("referenced table")?;
        let n = r.u32("referenced column count")?;
        let mut ref_cols = Vec::new();
        for _ in 0..n {
            ref_cols.push(r.str("referenced column")?);
        }
        foreign_keys.push(ForeignKey {
            columns: cols,
            referenced_table,
            referenced_columns: ref_cols,
        });
    }
    let n_order = r.u32("pk-order count")?;
    let mut pk_order = Vec::new();
    for _ in 0..n_order {
        pk_order.push(r.u32("pk-order entry")?);
    }
    r.expect_end()?;
    Ok((
        TableSchema {
            name,
            columns,
            primary_key,
            foreign_keys,
        },
        rows,
        pk_order,
    ))
}

/// Decodes the arena segment: the table's distinct strings in file-local
/// id order, borrowed from the payload.
pub fn decode_arena<'p>(payload: &'p [u8], ctx: &'p str) -> Result<Vec<&'p str>> {
    let mut r = PayloadReader::new(payload, ctx);
    let count = r.count("arena string")?;
    let mut strings = Vec::new();
    for _ in 0..count {
        strings.push(r.str_ref("arena string")?);
    }
    r.expect_end()?;
    Ok(strings)
}

/// Decodes one column segment into its typed body and null bitmap.
///
/// `syms` maps file-local arena ids to process symbols (built by interning
/// the arena segment in order); `expected`, `nullable` and `rows` come
/// from the schema segment and are cross-checked against the column's own
/// header and bitmap: a NULL bit in a column the schema declares NOT NULL
/// is refused, naming the first such row.
pub fn decode_column(
    payload: &[u8],
    ctx: &str,
    expected: DataType,
    nullable: bool,
    rows: usize,
    syms: &[Sym],
) -> Result<(ColumnData, NullBitmap)> {
    let mut r = PayloadReader::new(payload, ctx);
    let ty = type_from_code(r.u8("column type")?, ctx)?;
    if ty != expected {
        return Err(Error::Storage(format!(
            "{ctx}: column type {ty:?} disagrees with the schema segment ({expected:?})"
        )));
    }
    let declared = r.u64("row count")?;
    if declared != rows as u64 {
        return Err(Error::Storage(format!(
            "{ctx}: column row count {declared} disagrees with the schema segment ({rows})"
        )));
    }
    let nwords = r.u32("null-word count")? as usize;
    if nwords != rows.div_ceil(64) {
        return Err(Error::Storage(format!(
            "{ctx}: null bitmap holds {nwords} words, expected {} for {rows} rows",
            rows.div_ceil(64)
        )));
    }
    // Exact-size check before any allocation sized by the counts above:
    // the remaining payload must be precisely the bitmap plus the body.
    let width = match ty {
        DataType::Int | DataType::Float => 8usize,
        DataType::Text => 4,
        DataType::Bool => 1,
    };
    let expected_bytes = nwords * 8 + rows * width;
    if r.remaining() != expected_bytes {
        return Err(Error::Storage(format!(
            "{ctx}: body is {} bytes, expected {expected_bytes} for {rows} rows",
            r.remaining()
        )));
    }
    let mut words = Vec::with_capacity(nwords);
    for _ in 0..nwords {
        words.push(r.u64("null word")?);
    }
    let nulls = NullBitmap::from_words(words);
    if !nullable {
        let first_null =
            nulls.words().iter().enumerate().find_map(|(w, &bits)| {
                (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
            });
        if let Some(i) = first_null.filter(|&i| i < rows) {
            return Err(Error::Storage(format!(
                "{ctx}: row {i} is NULL in a column declared NOT NULL"
            )));
        }
    }
    let data = match ty {
        DataType::Int => {
            let mut v = Vec::with_capacity(rows);
            for _ in 0..rows {
                v.push(r.i64("int cell")?);
            }
            ColumnData::Int(v.into())
        }
        DataType::Float => {
            let mut v = Vec::with_capacity(rows);
            for _ in 0..rows {
                v.push(r.f64("float cell")?);
            }
            ColumnData::Float(v.into())
        }
        DataType::Text => {
            let mut v = Vec::with_capacity(rows);
            for i in 0..rows {
                let id = r.u32("sym cell")?;
                if id == NULL_SYM_SENTINEL {
                    if !nulls.get(i) {
                        return Err(Error::Storage(format!(
                            "{ctx}: non-NULL row {i} holds the NULL sym sentinel"
                        )));
                    }
                    v.push(Sym::intern(""));
                } else {
                    let sym = syms.get(id as usize).copied().ok_or_else(|| {
                        Error::Storage(format!(
                            "{ctx}: row {i} references arena id {id}, arena holds {}",
                            syms.len()
                        ))
                    })?;
                    v.push(sym);
                }
            }
            ColumnData::Sym(v.into())
        }
        DataType::Bool => {
            let mut v = Vec::with_capacity(rows);
            for _ in 0..rows {
                v.push(r.u8("bool cell")? != 0);
            }
            ColumnData::Bool(v.into())
        }
    };
    r.expect_end()?;
    Ok((data, nulls))
}

/// Encodes the manifest: `(table name, file name)` pairs in catalog order.
pub fn encode_manifest(entries: &[(String, String)]) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u32(entries.len() as u32);
    for (name, file) in entries {
        w.str(name);
        w.str(file);
    }
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC_MANIFEST);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    write_segment(&mut out, &w.into_bytes());
    out
}

/// Decodes the manifest segment into `(table name, file name)` pairs.
pub fn decode_manifest(payload: &[u8], ctx: &str) -> Result<Vec<(String, String)>> {
    let mut r = PayloadReader::new(payload, ctx);
    let count = r.u32("table count")?;
    let mut entries = Vec::new();
    for _ in 0..count {
        let name = r.str("table name")?;
        let file = r.str("table file")?;
        entries.push((name, file));
    }
    r.expect_end()?;
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_names_follow_layout() {
        assert_eq!(table_segment_name(0), "schema segment");
        assert_eq!(table_segment_name(1), "arena segment");
        assert_eq!(table_segment_name(2), "column segment 0");
        assert_eq!(table_segment_name(5), "column segment 3");
    }

    #[test]
    fn type_codes_round_trip() {
        for ty in [
            DataType::Int,
            DataType::Float,
            DataType::Text,
            DataType::Bool,
        ] {
            assert_eq!(type_from_code(type_code(ty), "t").unwrap(), ty);
        }
        assert!(type_from_code(9, "t")
            .unwrap_err()
            .to_string()
            .contains("type code 9"));
    }

    #[test]
    fn manifest_round_trips() {
        let entries = vec![
            ("Authors".to_string(), "t0.etb".to_string()),
            ("Papers".to_string(), "t1.etb".to_string()),
        ];
        let bytes = encode_manifest(&entries);
        assert_eq!(&bytes[..4], &MAGIC_MANIFEST);
        // Single segment: skip header + length prefix, take payload.
        let len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let payload = &bytes[16..16 + len];
        assert_eq!(decode_manifest(payload, "m").unwrap(), entries);
    }

    #[test]
    fn schema_payload_round_trips() {
        let schema = TableSchema::new(
            "Papers",
            vec![
                Column::new("id", DataType::Int),
                Column::nullable("title", DataType::Text),
            ],
        )
        .with_primary_key(&["id"])
        .with_foreign_key(ForeignKey::single("id", "Other", "id"));
        let table = Table::new(schema.clone()).unwrap();
        let bytes = encode_table(&table);
        let len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let payload = &bytes[16..16 + len];
        let (decoded, rows, order) = decode_schema(payload, "t").unwrap();
        assert_eq!(decoded, schema);
        assert_eq!(rows, 0);
        assert!(order.is_empty());
    }

    #[test]
    fn pk_order_is_empty_for_sorted_rows_and_a_permutation_otherwise() {
        let schema = TableSchema::new(
            "T",
            vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
            ],
        )
        .with_primary_key(&["a", "b"]);
        // What `encode_table` writes into the schema segment.
        let pk_order = |table: &Table| {
            let bytes = encode_table(table);
            let len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
            decode_schema(&bytes[16..16 + len], "t").unwrap().2
        };
        let mut sorted = Table::new(schema.clone()).unwrap();
        for (a, b) in [(1, 1), (1, 2), (2, 0)] {
            sorted.insert(vec![a.into(), b.into()]).unwrap();
        }
        assert!(pk_order(&sorted).is_empty());
        let mut shuffled = Table::new(schema).unwrap();
        for (a, b) in [(2, 0), (1, 2), (1, 1)] {
            shuffled.insert(vec![a.into(), b.into()]).unwrap();
        }
        assert_eq!(pk_order(&shuffled), vec![2, 1, 0]);
    }
}
