//! The database: a catalog of tables plus cross-table integrity checks.

use crate::exec::hash::KeyHashBuilder;
use crate::schema::{ForeignKey, TableSchema};
use crate::table::{ColumnStore, Row, Table};
use crate::value::Value;
use crate::{Error, Result};
use std::collections::{BTreeMap, HashSet};

/// An in-memory relational database.
///
/// Tables are kept in a `BTreeMap` so that iteration order (and therefore all
/// derived output, e.g. the TGM translation) is deterministic.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a database from already-opened tables (the on-disk
    /// reader's path; FK validity was checked when the data was saved).
    pub(crate) fn from_tables(tables: BTreeMap<String, Table>) -> Self {
        Database { tables }
    }

    /// Saves the database under `dir` in the binary table format
    /// ([`crate::storage`]): one checksummed table file per table plus a
    /// manifest. Deterministic — saving the same data twice writes
    /// byte-identical files.
    pub fn save(&self, dir: &std::path::Path) -> Result<()> {
        crate::storage::save_database(self, dir)
    }

    /// Opens a database saved by [`Database::save`]. Every file is read,
    /// checksum-verified and decoded now, once: corruption surfaces here
    /// as [`Error::Storage`], and the files are never looked at again.
    pub fn open(dir: &std::path::Path) -> Result<Self> {
        crate::storage::open_database(dir)
    }

    /// Creates a table from `schema`.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<()> {
        if self.tables.contains_key(&schema.name) {
            return Err(Error::Schema(format!(
                "table `{}` already exists",
                schema.name
            )));
        }
        let name = schema.name.clone();
        self.tables.insert(name, Table::new(schema)?);
        Ok(())
    }

    /// Table by name.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| Error::UnknownTable(name.to_string()))
    }

    /// Mutable table by name.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| Error::UnknownTable(name.to_string()))
    }

    /// Whether a table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// All table names in deterministic (sorted) order.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }

    /// All tables in deterministic order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// Inserts a row with foreign-key enforcement.
    ///
    /// For every FK of the target table, the referenced key must exist in the
    /// referenced table (NULL FK values are allowed and mean "no reference").
    pub fn insert(&mut self, table: &str, row: Row) -> Result<usize> {
        // Check FKs before mutating.
        let schema = self.table(table)?.schema().clone();
        for fk in &schema.foreign_keys {
            let referencing: Vec<Value> = fk
                .columns
                .iter()
                .map(|c| {
                    schema
                        .column_index(c)
                        .map(|i| row.get(i).copied().unwrap_or(Value::Null))
                        .ok_or_else(|| {
                            Error::Schema(format!("FK column `{c}` missing in `{table}`"))
                        })
                })
                .collect::<Result<_>>()?;
            if referencing.iter().any(Value::is_null) {
                continue;
            }
            let target = self.table(&fk.referenced_table)?;
            if !Referenced::new(target, fk)?.holds(&referencing) {
                return Err(Error::Constraint(format!(
                    "FK violation: `{table}` -> `{}` key {referencing:?} not found",
                    fk.referenced_table
                )));
            }
        }
        self.table_mut(table)?.insert(row)
    }

    /// Inserts a row without foreign-key checks (bulk loading in dependency
    /// order is validated separately by [`Database::check_integrity`]).
    pub fn insert_unchecked(&mut self, table: &str, row: Row) -> Result<usize> {
        self.table_mut(table)?.insert(row)
    }

    /// Bulk columnar append without foreign-key checks: the batch is pushed
    /// column-by-column and indexed with one sort (see
    /// [`crate::table::Table::append_rows`]). Returns how many rows were
    /// appended. The generator's bulk-load path; pair with
    /// [`Database::check_integrity`] after loading in dependency order.
    pub fn append_rows(
        &mut self,
        table: &str,
        rows: impl IntoIterator<Item = Row>,
    ) -> Result<usize> {
        self.table_mut(table)?.append_rows(rows)
    }

    /// Verifies all foreign keys in the whole database.
    pub fn check_integrity(&self) -> Result<()> {
        for table in self.tables.values() {
            let schema = table.schema();
            for fk in &schema.foreign_keys {
                let src_cols = key_columns(table, &fk.columns)?;
                let target = self.table(&fk.referenced_table)?;
                let referenced = Referenced::new(target, fk)?;
                for row in 0..table.len() {
                    let key = key_at(&src_cols, row);
                    if key.iter().any(Value::is_null) {
                        continue;
                    }
                    if !referenced.holds(&key) {
                        return Err(Error::Constraint(format!(
                            "integrity: `{}` -> `{}` dangling key {key:?}",
                            schema.name, fk.referenced_table
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Total row count across tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }

    /// Deletes rows of `table` matching `pred`, enforcing that no other
    /// table still references the deleted keys (RESTRICT semantics): for
    /// every foreign key that names `table`, the values the deleted rows
    /// hold in *that key's referenced columns* — the primary key or not —
    /// must not occur in the referencing columns, unless a surviving row
    /// still holds the same value (only possible off the primary key).
    pub fn delete_where(&mut self, table: &str, pred: &crate::expr::Expr) -> Result<usize> {
        let target = self.table(table)?;
        let doomed_rows = crate::scan::filter_indices(target, pred)?;
        if doomed_rows.is_empty() {
            return Ok(0);
        }
        // RESTRICT: scan referencing tables, one hash probe per row.
        for other in self.tables.values() {
            for fk in &other.schema().foreign_keys {
                if fk.referenced_table != table {
                    continue;
                }
                let doomed = doomed_keys(target, fk, &doomed_rows)?;
                let ref_cols = key_columns(other, &fk.columns)?;
                let mut key: Vec<Value> = Vec::with_capacity(ref_cols.len());
                for row in 0..other.len() {
                    key.clear();
                    key.extend(ref_cols.iter().map(|c| c.get(row)));
                    if doomed.contains(key.as_slice()) {
                        return Err(Error::Constraint(format!(
                            "cannot delete from `{table}`: key {key:?} is referenced by `{}`",
                            other.schema().name
                        )));
                    }
                }
            }
        }
        Ok(self.table_mut(table)?.delete_rows(&doomed_rows))
    }

    /// Updates rows of `table` matching `pred`; `sets` pairs column names
    /// with new values. An update that sets a key column — one in this
    /// table's primary key, in one of its foreign keys, or referenced by
    /// any table's foreign key — may break a reference in either
    /// direction, so the whole-database integrity check runs afterwards and
    /// the update is rolled back if it fails. Any other update cannot
    /// change what a foreign key sees and pays for neither the check nor
    /// the backup copy.
    pub fn update_where(
        &mut self,
        table: &str,
        pred: &crate::expr::Expr,
        sets: &[(String, Value)],
    ) -> Result<usize> {
        let schema = self.table(table)?.schema().clone();
        let resolved: Vec<(usize, Value)> = sets
            .iter()
            .map(|(name, v)| {
                schema
                    .column_index(name)
                    .map(|i| (i, *v))
                    .ok_or_else(|| Error::UnknownColumn(name.clone()))
            })
            .collect::<Result<_>>()?;
        if !sets
            .iter()
            .any(|(name, _)| self.is_key_column(&schema, name))
        {
            return self.table_mut(table)?.update_where(pred, &resolved);
        }
        let backup = self.table(table)?.clone();
        let changed = self.table_mut(table)?.update_where(pred, &resolved)?;
        if changed > 0 {
            if let Err(e) = self.check_integrity() {
                *self.table_mut(table)? = backup;
                return Err(e);
            }
        }
        Ok(changed)
    }

    /// Whether `column` of the table `schema` describes takes part in a
    /// referential constraint: its primary key, one of its foreign keys,
    /// or the referenced side of any table's foreign key.
    fn is_key_column(&self, schema: &TableSchema, column: &str) -> bool {
        let names = |cols: &[String]| cols.iter().any(|c| c == column);
        names(&schema.primary_key)
            || schema.foreign_keys.iter().any(|fk| names(&fk.columns))
            || self.tables.values().any(|t| {
                t.schema()
                    .foreign_keys
                    .iter()
                    .any(|fk| fk.referenced_table == schema.name && names(&fk.referenced_columns))
            })
    }
}

/// The columns of `table` that `names` name: one side of a foreign key.
fn key_columns<'a>(table: &'a Table, names: &[String]) -> Result<Vec<&'a ColumnStore>> {
    names
        .iter()
        .map(|c| {
            let i = table.schema().column_index(c).ok_or_else(|| {
                Error::Schema(format!(
                    "FK column `{c}` missing in `{}`",
                    table.schema().name
                ))
            })?;
            Ok(table.column(i))
        })
        .collect()
}

/// What `cols` hold in row `row`, as one key.
fn key_at(cols: &[&ColumnStore], row: usize) -> Vec<Value> {
    cols.iter().map(|c| c.get(row)).collect()
}

/// What a foreign key can point at: answers "does some row of the
/// referenced table hold this NULL-free key in the referenced columns"
/// for INSERT and for the integrity check alike.
enum Referenced<'a> {
    /// The key names the primary key: probe its index.
    PrimaryKey(&'a Table),
    /// Any other columns: the set of values they hold, built once.
    Values(HashSet<Vec<Value>, KeyHashBuilder>),
}

impl<'a> Referenced<'a> {
    fn new(target: &'a Table, fk: &ForeignKey) -> Result<Self> {
        if target.schema().primary_key == fk.referenced_columns {
            return Ok(Referenced::PrimaryKey(target));
        }
        let cols = key_columns(target, &fk.referenced_columns)?;
        let held = (0..target.len()).map(|row| key_at(&cols, row)).collect();
        Ok(Referenced::Values(held))
    }

    fn holds(&self, key: &[Value]) -> bool {
        match self {
            Referenced::PrimaryKey(target) => target.pk_row_index(key).is_some(),
            Referenced::Values(held) => held.contains(key),
        }
    }
}

/// The values `fk`'s referenced columns lose when the rows `doomed_rows`
/// of `target` are deleted: what those rows hold there, minus
/// anything a surviving row still holds (a non-key column may repeat a
/// value; the primary key cannot, so that pass is skipped for it). A key
/// with a NULL in it references nothing and is referenced by nothing, so
/// none enters the set and a referencing row with a NULL never matches.
fn doomed_keys(
    target: &Table,
    fk: &ForeignKey,
    doomed_rows: &[u32],
) -> Result<HashSet<Vec<Value>, KeyHashBuilder>> {
    let cols = key_columns(target, &fk.referenced_columns)?;
    let key_of = |row: usize| key_at(&cols, row);
    let mut doomed: HashSet<Vec<Value>, KeyHashBuilder> = doomed_rows
        .iter()
        .map(|&r| key_of(r as usize))
        .filter(|key| !key.iter().any(Value::is_null))
        .collect();
    if target.schema().primary_key != fk.referenced_columns {
        let mut gone = doomed_rows.iter().peekable();
        for row in 0..target.len() {
            if gone.next_if(|&&r| r as usize == row).is_none() {
                doomed.remove(&key_of(row));
            }
        }
    }
    Ok(doomed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ForeignKey, TableSchema};
    use crate::value::DataType;

    fn two_table_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "Conferences",
                vec![
                    Column::new("id", DataType::Int),
                    Column::new("acronym", DataType::Text),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "Papers",
                vec![
                    Column::new("id", DataType::Int),
                    Column::new("conference_id", DataType::Int),
                    Column::new("title", DataType::Text),
                ],
            )
            .with_primary_key(&["id"])
            .with_foreign_key(ForeignKey::single("conference_id", "Conferences", "id")),
        )
        .unwrap();
        db
    }

    #[test]
    fn fk_enforced_on_insert() {
        let mut db = two_table_db();
        db.insert("Conferences", vec![1.into(), "SIGMOD".into()])
            .unwrap();
        db.insert("Papers", vec![10.into(), 1.into(), "P".into()])
            .unwrap();
        let err = db.insert("Papers", vec![11.into(), 99.into(), "Q".into()]);
        assert!(err.is_err());
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = two_table_db();
        let dup = TableSchema::new("Papers", vec![Column::new("id", DataType::Int)]);
        assert!(db.create_table(dup).is_err());
    }

    #[test]
    fn integrity_check_finds_dangling_fk() {
        let mut db = two_table_db();
        db.insert_unchecked("Papers", vec![10.into(), 7.into(), "P".into()])
            .unwrap();
        assert!(db.check_integrity().is_err());
        db.insert_unchecked("Conferences", vec![7.into(), "KDD".into()])
            .unwrap();
        assert!(db.check_integrity().is_ok());
    }

    #[test]
    fn table_names_sorted() {
        let db = two_table_db();
        assert_eq!(db.table_names(), vec!["Conferences", "Papers"]);
    }

    #[test]
    fn unknown_table_error() {
        let db = two_table_db();
        assert!(db.table("Nope").is_err());
    }

    #[test]
    fn total_rows_counts_everything() {
        let mut db = two_table_db();
        db.insert("Conferences", vec![1.into(), "CHI".into()])
            .unwrap();
        db.insert("Papers", vec![2.into(), 1.into(), "X".into()])
            .unwrap();
        assert_eq!(db.total_rows(), 2);
    }
}
