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
        let (data, nulls) =
            decode_column(&payload, &ctx, col.data_type, col.nullable, rows, &syms)?;
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
    // What the schema segment holds is only provable now that the columns
    // are decoded: a consistent schema, and a primary-key order that is
    // complete, in bounds and strictly ascending.
    Table::from_parts(schema, cols, rows, pk_order).map_err(|e| {
        let (path, why) = (path.display(), e.message());
        Error::Storage(format!("{path}: schema segment: {why}"))
    })
}
