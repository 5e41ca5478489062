//! Disk-resident columnar storage: a versioned binary table format plus
//! the save/open entry points behind [`Database::save`] and
//! [`Database::open`].
//!
//! A saved database is a directory: one `MANIFEST.etb` mapping table names
//! to table files, and one `t<index>.etb` per table (index = position in
//! the catalog's deterministic order). Every file is magic + version +
//! checksummed, length-prefixed segments ([`format`]).
//!
//! `open` reads each file front to back exactly once: header, then per
//! segment its length (bounded against the bytes that remain before any
//! allocation), payload and CRC ([`codec::read_segment`]) — and decodes
//! that payload immediately. Any truncation, magic/version mismatch, bit
//! flip, or correctly checksummed segment whose body disagrees with the
//! schema therefore surfaces at `open` as a typed [`crate::Error::Storage`]
//! naming the offending path and segment — never a panic — and an opened
//! database never looks at its files again.
//!
//! Symbols rehydrate deterministically: each table file carries its own
//! string arena (distinct strings in first-use order), re-interned in
//! order at open through one bulk arena-lock acquisition
//! ([`crate::intern::intern_all`]).

pub mod codec;
pub mod format;
pub mod spill;

pub use format::{FORMAT_VERSION, MANIFEST_FILE};

use crate::database::Database;
use crate::intern::intern_all;
use crate::table::{ColumnStore, Table};
use crate::{Error, Result};
use codec::read_segment;
use format::{
    decode_arena, decode_column, decode_manifest, decode_schema, encode_manifest, encode_table,
    open_file, table_segment_name, MAGIC_MANIFEST, MAGIC_TABLE,
};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Saves every table of `db` under `dir` (created if missing): one
/// `t<index>.etb` per table in catalog order plus the manifest. Existing
/// files of the same names are overwritten; the write is deterministic,
/// so saving the same database twice produces byte-identical files.
pub fn save_database(db: &Database, dir: &Path) -> Result<()> {
    fs::create_dir_all(dir)
        .map_err(|e| Error::Storage(format!("{}: cannot create: {e}", dir.display())))?;
    let mut entries = Vec::new();
    for (i, table) in db.tables().enumerate() {
        let file = format!("t{i}.etb");
        let path = dir.join(&file);
        fs::write(&path, encode_table(table))
            .map_err(|e| Error::Storage(format!("{}: write failed: {e}", path.display())))?;
        entries.push((table.schema().name.clone(), file));
    }
    let mpath = dir.join(MANIFEST_FILE);
    fs::write(&mpath, encode_manifest(&entries))
        .map_err(|e| Error::Storage(format!("{}: write failed: {e}", mpath.display())))?;
    Ok(())
}

/// Opens a database saved by [`save_database`]: every file is read,
/// checksum-verified and decoded now, once.
pub fn open_database(dir: &Path) -> Result<Database> {
    let mpath = dir.join(MANIFEST_FILE);
    let mctx = format!("{}: manifest segment", mpath.display());
    let (mut f, mut left) = open_file(&mpath, MAGIC_MANIFEST)?;
    let payload = read_segment(&mut f, &mut left, &mctx)?;
    let (Some(payload), 0) = (payload, left) else {
        return Err(Error::Storage(format!(
            "{}: expected exactly one segment",
            mpath.display()
        )));
    };
    let entries = decode_manifest(&payload, &mctx)?;
    let mut tables = BTreeMap::new();
    for (name, file) in entries {
        let tpath = dir.join(&file);
        let table = open_table(&tpath)?;
        if table.schema().name != name {
            return Err(Error::Storage(format!(
                "{}: holds table `{}` but the manifest maps it to `{name}`",
                tpath.display(),
                table.schema().name
            )));
        }
        if tables.insert(name.clone(), table).is_some() {
            return Err(Error::Storage(format!("{mctx}: duplicate table `{name}`")));
        }
    }
    Ok(Database::from_tables(tables))
}

fn open_table(path: &Path) -> Result<Table> {
    let (mut f, mut left) = open_file(path, MAGIC_TABLE)?;
    // Segment `i`'s error context and verified payload; a table file holds
    // exactly schema + arena + one segment per schema column.
    let mut segment = |i: usize| -> Result<(String, Vec<u8>)> {
        let ctx = format!("{}: {}", path.display(), table_segment_name(i));
        match read_segment(&mut f, &mut left, &ctx)? {
            Some(payload) => Ok((ctx, payload)),
            None => Err(Error::Storage(format!(
                "{ctx}: truncated: the file ends before this segment"
            ))),
        }
    };
    let (ctx, payload) = segment(0)?;
    let (schema, rows, pk_order) = decode_schema(&payload, &ctx)?;
    let (ctx, payload) = segment(1)?;
    let syms = intern_all(&decode_arena(&payload, &ctx)?);
    let mut cols = Vec::with_capacity(schema.arity());
    for (ci, col) in schema.columns.iter().enumerate() {
        let (ctx, payload) = segment(2 + ci)?;
        let ctx = format!("{ctx} (`{}.{}`)", schema.name, col.name);
        let (data, nulls) = decode_column(&payload, &ctx, col.data_type, rows, &syms)?;
        cols.push(ColumnStore::from_parts(data, nulls, rows));
    }
    let ctx = format!("{}: after the last column segment", path.display());
    if read_segment(&mut f, &mut left, &ctx)?.is_some() {
        return Err(Error::Storage(format!(
            "{}: more segments than the schema's {} column(s)",
            path.display(),
            schema.arity()
        )));
    }
    verify_pk_order(path, &schema, &cols, rows, &pk_order)?;
    Table::from_parts(schema, cols, rows, pk_order)
}

/// Proves the stored PK order before the table is allowed to trust it:
/// the key sequence read through the permutation (identity when empty)
/// must be **strictly** ascending. Strictness is the uniqueness proof —
/// a duplicate key or a repeated permutation entry both surface as a
/// non-ascending adjacent pair. Comparisons run over the typed column
/// bodies directly (same order as [`crate::value::Value::total_cmp`] on
/// non-NULL same-type cells, NULLs first) to keep open-time cost one
/// linear sweep.
/// Entry bounds were checked by `decode_schema`.
fn verify_pk_order(
    path: &Path,
    schema: &crate::schema::TableSchema,
    cols: &[ColumnStore],
    rows: usize,
    pk_order: &[u32],
) -> Result<()> {
    use crate::intern::Sym;
    use crate::table::ColumnData;
    use std::cmp::Ordering;
    let pk_cols = schema.primary_key_indices().map_err(|e| {
        Error::Storage(format!(
            "{}: schema segment: invalid schema: {e}",
            path.display()
        ))
    })?;
    if pk_cols.is_empty() {
        if !pk_order.is_empty() {
            return Err(Error::Storage(format!(
                "{}: schema segment: pk order present but the table has no primary key",
                path.display()
            )));
        }
        return Ok(());
    }
    let parts: Vec<_> = pk_cols
        .iter()
        .map(|&c| (cols[c].data(), cols[c].nulls()))
        .collect();
    let cmp_rows = |a: usize, b: usize| -> Ordering {
        for &(data, nulls) in &parts {
            let o = match (nulls.get(a), nulls.get(b)) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Less,
                (false, true) => Ordering::Greater,
                (false, false) => match data {
                    ColumnData::Int(v) => v[a].cmp(&v[b]),
                    ColumnData::Float(v) => v[a].total_cmp(&v[b]),
                    ColumnData::Sym(v) => Sym::cmp_str(v[a], v[b]),
                    ColumnData::Bool(v) => v[a].cmp(&v[b]),
                },
            };
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    };
    let row_at = |i: usize| {
        if pk_order.is_empty() {
            i
        } else {
            pk_order[i] as usize
        }
    };
    for i in 1..rows {
        if cmp_rows(row_at(i - 1), row_at(i)) != Ordering::Less {
            return Err(Error::Storage(format!(
                "{}: schema segment: pk order is not strictly ascending at position {i} \
                 (table `{}`: duplicate or misordered primary key)",
                path.display(),
                schema.name
            )));
        }
    }
    Ok(())
}
