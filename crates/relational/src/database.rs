//! The database: a catalog of tables plus cross-table integrity checks.

use crate::schema::{ForeignKey, TableSchema};
use crate::sql::analyze::TypedPred;
use crate::table::{Row, Table};
use crate::value::Value;
use crate::{Error, Result};
use std::collections::BTreeMap;

/// The (referencing row, referenced row) pairs of a foreign key's equal
/// NULL-free keys, in referencing-row order (a row's matches, if the
/// referenced key repeats, in descending referenced row) — or else the key
/// of the first referencing row whose NULL-free key no row holds.
pub type FkPairs = std::result::Result<Vec<(u32, u32)>, Vec<Value>>;

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
        let schema = self.table(table)?.schema();
        for fk in &schema.foreign_keys {
            let referencing: Vec<Value> = key_indices(schema, &fk.columns)?
                .into_iter()
                .map(|i| row.get(i).copied().unwrap_or(Value::Null))
                .collect();
            if referencing.iter().any(Value::is_null) {
                continue;
            }
            let target = self.table(&fk.referenced_table)?;
            if !holds(target, &fk.referenced_columns, &referencing)? {
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
        self.check_fks(|_, _| true)
    }

    /// Every foreign key, beside its table, in table-name order.
    fn foreign_keys(&self) -> impl Iterator<Item = (&Table, &ForeignKey)> {
        (self.tables.values()).flat_map(|t| t.schema().foreign_keys.iter().map(move |fk| (t, fk)))
    }

    /// Verifies the foreign keys `which` picks, each through
    /// [`Database::fk_pairs`].
    fn check_fks(&self, which: impl Fn(&Table, &ForeignKey) -> bool) -> Result<()> {
        for (t, fk) in self.foreign_keys().filter(|&(t, fk)| which(t, fk)) {
            if let Err(key) = self.fk_pairs(&t.schema().name, fk)? {
                return Err(Error::Constraint(format!(
                    "integrity: `{}` -> `{}` dangling key {key:?}",
                    t.schema().name,
                    fk.referenced_table
                )));
            }
        }
        Ok(())
    }

    /// What the foreign key `fk` of `table` points at ([`FkPairs`]). A key
    /// with a NULL in it references nothing. Keys are matched by the join
    /// kernel (`exec::join::key_pairs`, spilling under the memory
    /// budget) on the first column, then by [`Value`] equality on the rest.
    pub fn fk_pairs(&self, table: &str, fk: &ForeignKey) -> Result<FkPairs> {
        let (from, to) = (self.table(table)?, self.table(&fk.referenced_table)?);
        let pairs = match_keys(
            (to, &fk.referenced_columns, None),
            (from, &fk.columns, None),
        )?;
        let mut found = vec![false; from.len()];
        pairs.iter().for_each(|&(r, _)| found[r as usize] = true);
        let cols = key_indices(from.schema(), &fk.columns)?;
        let dangling = (0..from.len())
            .find(|&r| !found[r] && cols.iter().all(|&c| !from.column(c).is_null(r)));
        Ok(dangling.map_or(Ok(pairs), |r| {
            Err(cols.iter().map(|&c| from.value(r, c)).collect())
        }))
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
    pub fn delete_where(&mut self, table: &str, pred: &TypedPred) -> Result<usize> {
        let target = self.table(table)?;
        let doomed = crate::scan::filter_indices(target, pred);
        if doomed.is_empty() {
            return Ok(0);
        }
        // RESTRICT: the doomed rows (build side) against each referencing
        // column (probe side). A primary key cannot repeat, so only the
        // doomed rows need matching; any other key stays referenceable
        // while a surviving row holds it, so all rows are matched and a
        // referencing row is refused only if every row it matches is doomed.
        let is_doomed = |&(_, t): &(u32, u32)| doomed.binary_search(&t).is_ok();
        let referencing = self
            .foreign_keys()
            .filter(|(_, fk)| fk.referenced_table == table);
        for (other, fk) in referencing {
            let pk = target.schema().primary_key == fk.referenced_columns;
            let refs = match_keys(
                (target, &fk.referenced_columns, pk.then_some(&doomed[..])),
                (other, &fk.columns, None),
            )?;
            let mut runs = refs.chunk_by(|a, b| a.0 == b.0);
            if let Some(&[(row, _), ..]) = runs.find(|run| run.iter().all(is_doomed)) {
                let key: Vec<Value> = key_indices(other.schema(), &fk.columns)?
                    .into_iter()
                    .map(|c| other.value(row as usize, c))
                    .collect();
                return Err(Error::Constraint(format!(
                    "cannot delete from `{table}`: key {key:?} is referenced by `{}`",
                    other.schema().name
                )));
            }
        }
        Ok(self.table_mut(table)?.delete_rows(&doomed))
    }

    /// Updates rows of `table` matching `pred`; `sets` pairs column names
    /// with new values. Only a foreign key whose columns (this table's) or
    /// referenced columns (in this table) are set can change its answer:
    /// those are checked afterwards, through [`Database::fk_pairs`], and
    /// the update is rolled back if one fails. An update that sets no such
    /// column pays for neither the check nor the backup copy.
    pub fn update_where(
        &mut self,
        table: &str,
        pred: &TypedPred,
        sets: &[(String, Value)],
    ) -> Result<usize> {
        let schema = self.table(table)?.schema();
        let resolved: Vec<(usize, Value)> = sets
            .iter()
            .map(|(name, v)| {
                schema
                    .column_index(name)
                    .map(|i| (i, *v))
                    .ok_or_else(|| Error::UnknownColumn(name.clone()))
            })
            .collect::<Result<_>>()?;
        let set = |cols: &[String]| cols.iter().any(|c| sets.iter().any(|(s, _)| s == c));
        let touched = |t: &Table, fk: &ForeignKey| {
            (t.schema().name == table && set(&fk.columns))
                || (fk.referenced_table == table && set(&fk.referenced_columns))
        };
        if !self.foreign_keys().any(|(t, fk)| touched(t, fk)) {
            return self.table_mut(table)?.update_where(pred, &resolved);
        }
        let backup = self.table(table)?.clone();
        let changed = self.table_mut(table)?.update_where(pred, &resolved)?;
        if changed > 0 {
            if let Err(e) = self.check_fks(touched) {
                *self.table_mut(table)? = backup;
                return Err(e);
            }
        }
        Ok(changed)
    }
}

/// The positions of the columns `names` names in the table `schema`
/// describes: one side of a foreign key.
fn key_indices(schema: &TableSchema, names: &[String]) -> Result<Vec<usize>> {
    names
        .iter()
        .map(|c| {
            schema.column_index(c).ok_or_else(|| {
                Error::Schema(format!("FK column `{c}` missing in `{}`", schema.name))
            })
        })
        .collect()
}

/// One side of a key match: a table, the key columns, and the rows to
/// read (`None`: every row).
type KeySide<'a> = (&'a Table, &'a [String], Option<&'a [u32]>);

/// The (probe row, build row) pairs whose keys are equal and NULL-free,
/// in [`crate::exec::join::key_pairs`]'s order (probe rows ascending when the
/// probe side reads every row or an ascending selection): the join kernel
/// on the first key column, then [`Value`] equality on the rest.
fn match_keys(build: KeySide<'_>, probe: KeySide<'_>) -> Result<Vec<(u32, u32)>> {
    let b = key_indices(build.0.schema(), build.1)?;
    let p = key_indices(probe.0.schema(), probe.1)?;
    let (Some(&b0), Some(&p0)) = (b.first(), p.first()) else {
        return Err(Error::Schema("foreign key without columns".into()));
    };
    let (bpos, ppos) =
        crate::exec::join::key_pairs(build.0.column(b0), build.2, probe.0.column(p0), probe.2)?;
    let row = |rows: Option<&[u32]>, i: u32| rows.map_or(i, |s| s[i as usize]);
    let rest_equal = |pr: usize, br: usize| {
        p[1..].iter().zip(&b[1..]).all(|(&pc, &bc)| {
            let v = probe.0.value(pr, pc);
            !v.is_null() && v == build.0.value(br, bc)
        })
    };
    Ok(ppos
        .into_iter()
        .zip(bpos)
        .map(|(pi, bi)| (row(probe.2, pi), row(build.2, bi)))
        .filter(|&(pr, br)| rest_equal(pr as usize, br as usize))
        .collect())
}

/// Whether some row of `target` holds the NULL-free `key` in `cols`: one
/// probe of the primary-key index when `cols` is the primary key, else
/// the predicate kernel's scan for the equality conjunction, each row it
/// finds confirmed by [`Value`] equality. A NaN is a key equal to itself
/// but never SQL-equal to anything, so only the confirmation compares it.
fn holds(target: &Table, cols: &[String], key: &[Value]) -> Result<bool> {
    if target.schema().primary_key == cols {
        return Ok(target.pk_row_index(key).is_some());
    }
    let cols = key_indices(target.schema(), cols)?;
    let pred = TypedPred::equal_to(
        (cols.iter().copied().zip(key.iter().copied())).filter(|(_, v)| v.sql_eq(v) == Some(true)),
    );
    let equal = |r: u32| (cols.iter().zip(key)).all(|(&c, v)| target.value(r as usize, c) == *v);
    Ok(crate::scan::filter_indices(target, &pred)
        .into_iter()
        .any(equal))
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
