//! The database: a catalog of tables plus cross-table integrity checks.
//!
//! Beside the tables sits one slot per declared foreign key for its
//! stored index (`fk_index`): a single-column foreign key onto a
//! single-column primary key is matched once, on first use, and then read
//! as an array by [`Database::fk_pairs`], the RESTRICT check of
//! [`Database::delete_where`] and the SQL executor's joins along it. Every
//! write below carries the indexes it can follow and empties the slots of
//! those it cannot; a composite foreign key, or one onto a non-key
//! column, keeps the join kernel (`exec::join::key_pairs`).

use crate::fk_index::FkIndex;
use crate::schema::{ForeignKey, TableSchema};
use crate::sql::analyze::TypedPred;
use crate::table::{Row, Table};
use crate::value::Value;
use crate::{Error, Result};
use std::collections::BTreeMap;
use std::sync::OnceLock;

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
    /// By table, one slot per entry of its schema's `foreign_keys`: the
    /// stored index once built. A clone shares every built index.
    fk_slots: BTreeMap<String, Vec<OnceLock<FkIndex>>>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a database from already-opened tables (the on-disk
    /// reader's path; FK validity was checked when the data was saved).
    pub(crate) fn from_tables(tables: BTreeMap<String, Table>) -> Self {
        let fk_slots = (tables.iter())
            .map(|(name, t)| (name.clone(), empty_slots(t.schema())))
            .collect();
        Database { tables, fk_slots }
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
        let table = Table::new(schema)?;
        let name = table.schema().name.clone();
        self.fk_slots
            .insert(name.clone(), empty_slots(table.schema()));
        self.tables.insert(name, table);
        Ok(())
    }

    /// Table by name.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| Error::UnknownTable(name.to_string()))
    }

    /// Mutable table by name. The caller may change any row, so every
    /// stored foreign-key index into or out of the table is dropped (and
    /// rebuilt on its next use).
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.drop_indexes(|t, fk, _| t == name || fk.referenced_table == name);
        self.table_entry(name)
    }

    /// Mutable table by name, leaving the stored indexes to the caller.
    fn table_entry(&mut self, name: &str) -> Result<&mut Table> {
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
    /// The row each check finds extends the FK's stored index, if built.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<usize> {
        // Check FKs before mutating.
        let schema = self.table(table)?.schema();
        let mut targets = Vec::with_capacity(schema.foreign_keys.len());
        for fk in &schema.foreign_keys {
            let referencing: Vec<Value> = key_indices(schema, &fk.columns)?
                .into_iter()
                .map(|i| row.get(i).copied().unwrap_or(Value::Null))
                .collect();
            if referencing.iter().any(Value::is_null) {
                targets.push(None);
                continue;
            }
            let target = self.table(&fk.referenced_table)?;
            let Some(found) = find_key(target, &fk.referenced_columns, &referencing)? else {
                return Err(Error::Constraint(format!(
                    "FK violation: `{table}` -> `{}` key {referencing:?} not found",
                    fk.referenced_table
                )));
            };
            targets.push(Some(found));
        }
        let id = self.table_entry(table)?.insert(row)?;
        if let Some(slots) = self.fk_slots.get_mut(table) {
            for (slot, target) in slots.iter_mut().zip(targets) {
                if let Some(ix) = slot.get_mut() {
                    ix.push(target);
                }
            }
        }
        // A dangling key may name the new row now.
        self.drop_indexes(|_, fk, ix| fk.referenced_table == table && ix.has_dangling());
        Ok(id)
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

    /// The stored index of the foreign key `fk` of `table`, built now if
    /// this is its first use; `None` unless `fk` is one of the table's
    /// declared foreign keys, single-column, onto a single-column primary
    /// key. The build matches keys with the join kernel, so it spills under
    /// the memory budget, and only a spill error fails it.
    pub fn fk_index(&self, table: &str, fk: &ForeignKey) -> Result<Option<&FkIndex>> {
        let from = self.table(table)?;
        let to = self.table(&fk.referenced_table)?;
        let declared = from.schema().foreign_keys.iter().position(|f| f == fk);
        let slot = declared.and_then(|i| self.fk_slots.get(table)?.get(i));
        let Some(slot) = slot.filter(|_| indexable(fk, to)) else {
            return Ok(None);
        };
        if let Some(ix) = slot.get() {
            return Ok(Some(ix));
        }
        let pairs = match_keys(
            (to, &fk.referenced_columns, None),
            (from, &fk.columns, None),
        )?;
        let col = from.column(key_indices(from.schema(), &fk.columns)?[0]);
        let ix = FkIndex::from_pairs(from.len(), &pairs, |r| col.is_null(r));
        Ok(Some(slot.get_or_init(|| ix)))
    }

    /// The stored index of the foreign key from column `from_col` of
    /// `from` onto column `to_col` of `to`, if one is declared and indexable
    /// ([`Database::fk_index`]): the SQL executor's test for a join edge.
    pub(crate) fn fk_index_on(
        &self,
        (from, from_col): (&str, usize),
        (to, to_col): (&str, usize),
    ) -> Result<Option<&FkIndex>> {
        let (ft, tt) = (self.table(from)?, self.table(to)?);
        let (Some(fc), Some(tc)) = (
            ft.schema().columns.get(from_col),
            tt.schema().columns.get(to_col),
        ) else {
            return Ok(None);
        };
        let edge = |fk: &&ForeignKey| {
            fk.referenced_table == to
                && fk.columns == [fc.name.as_str()]
                && fk.referenced_columns == [tc.name.as_str()]
        };
        match ft.schema().foreign_keys.iter().find(edge) {
            Some(fk) => self.fk_index(from, fk),
            None => Ok(None),
        }
    }

    /// Runs `f` on the index slot of every foreign key, beside its
    /// referencing table's name and the key.
    fn each_slot(&mut self, mut f: impl FnMut(&str, &ForeignKey, &mut OnceLock<FkIndex>)) {
        for (name, slots) in &mut self.fk_slots {
            let Some(t) = self.tables.get(name) else {
                continue;
            };
            for (fk, slot) in t.schema().foreign_keys.iter().zip(slots) {
                f(name, fk, slot);
            }
        }
    }

    /// Empties the index slot of every foreign key `which` picks, given
    /// the referencing table's name, the key and its built index.
    fn drop_indexes(&mut self, which: impl Fn(&str, &ForeignKey, &FkIndex) -> bool) {
        self.each_slot(|t, fk, slot| {
            if slot.get().is_some_and(|ix| which(t, fk, ix)) {
                slot.take();
            }
        });
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
    /// with a NULL in it references nothing. An indexable key reads its
    /// stored index (`Database::fk_index`); any other is matched by the
    /// join kernel (`exec::join::key_pairs`, spilling under the memory
    /// budget) on the first column, then by [`Value`] equality on the rest.
    pub fn fk_pairs(&self, table: &str, fk: &ForeignKey) -> Result<FkPairs> {
        let (from, to) = (self.table(table)?, self.table(&fk.referenced_table)?);
        let cols = key_indices(from.schema(), &fk.columns)?;
        let key = |r: usize| cols.iter().map(|&c| from.value(r, c)).collect();
        if let Some(ix) = self.fk_index(table, fk)? {
            return Ok(ix
                .first_dangling()
                .map_or_else(|| Ok(ix.pairs()), |r| Err(key(r))));
        }
        let pairs = match_keys(
            (to, &fk.referenced_columns, None),
            (from, &fk.columns, None),
        )?;
        let mut found = vec![false; from.len()];
        pairs.iter().for_each(|&(r, _)| found[r as usize] = true);
        let dangling = (0..from.len())
            .find(|&r| !found[r] && cols.iter().all(|&c| !from.column(c).is_null(r)));
        Ok(dangling.map_or(Ok(pairs), |r| Err(key(r))))
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
    /// The stored indexes are carried across the delete: the table's own
    /// drop the deleted rows, and those into it shift their row ids.
    pub fn delete_where(&mut self, table: &str, pred: &TypedPred) -> Result<usize> {
        let target = self.table(table)?;
        let doomed = crate::scan::filter_indices(target, pred);
        if doomed.is_empty() {
            return Ok(0);
        }
        let referencing = self
            .foreign_keys()
            .filter(|(_, fk)| fk.referenced_table == table);
        for (other, fk) in referencing {
            if let Some(row) = self.restricting_row(target, &doomed, other, fk)? {
                let key: Vec<Value> = key_indices(other.schema(), &fk.columns)?
                    .into_iter()
                    .map(|c| other.value(row, c))
                    .collect();
                return Err(Error::Constraint(format!(
                    "cannot delete from `{table}`: key {key:?} is referenced by `{}`",
                    other.schema().name
                )));
            }
        }
        let rows = target.len();
        let deleted = self.table_entry(table)?.delete_rows(&doomed);
        self.each_slot(|t, fk, slot| {
            let Some(ix) = slot.get_mut() else { return };
            if t == table {
                ix.compact(&doomed);
            }
            if fk.referenced_table == table {
                ix.remap(&doomed, rows);
            }
        });
        Ok(deleted)
    }

    /// The first row of `other` whose foreign key `fk` references only
    /// `doomed` rows of `target`, if any. An indexable key is one pass
    /// over its stored index. Otherwise the doomed rows (build side) are
    /// matched against the referencing column (probe side): a primary key
    /// cannot repeat, so only the doomed rows need matching; any other key
    /// stays referenceable while a surviving row holds it, so all rows are
    /// matched and a referencing row is refused only if every row it
    /// matches is doomed.
    fn restricting_row(
        &self,
        target: &Table,
        doomed: &[u32],
        other: &Table,
        fk: &ForeignKey,
    ) -> Result<Option<usize>> {
        if let Some(ix) = self.fk_index(&other.schema().name, fk)? {
            return Ok(ix.first_referencing(doomed, target.len()));
        }
        let is_doomed = |&(_, t): &(u32, u32)| doomed.binary_search(&t).is_ok();
        let pk = target.schema().primary_key == fk.referenced_columns;
        let refs = match_keys(
            (target, &fk.referenced_columns, pk.then_some(doomed)),
            (other, &fk.columns, None),
        )?;
        let mut runs = refs.chunk_by(|a, b| a.0 == b.0);
        Ok(runs
            .find(|run| run.iter().all(is_doomed))
            .map(|run| run[0].0 as usize))
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
        let touches = |t: &str, fk: &ForeignKey| {
            (t == table && set(&fk.columns))
                || (fk.referenced_table == table && set(&fk.referenced_columns))
        };
        let touched = |t: &Table, fk: &ForeignKey| touches(&t.schema().name, fk);
        if !self.foreign_keys().any(|(t, fk)| touched(t, fk)) {
            return self.table_entry(table)?.update_where(pred, &resolved);
        }
        // The touched keys' indexes go; the check rebuilds them over the
        // new rows, and a rollback puts the old ones back.
        let backup = (self.table(table)?.clone(), self.fk_slots.clone());
        self.drop_indexes(|t, fk, _| touches(t, fk));
        let changed = self.table_entry(table)?.update_where(pred, &resolved)?;
        if changed > 0 {
            if let Err(e) = self.check_fks(touched) {
                (*self.table_entry(table)?, self.fk_slots) = backup;
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

/// A row of `target` that holds the NULL-free `key` in `cols`, if any:
/// one probe of the primary-key index when `cols` is the primary key, else
/// the predicate kernel's scan for the equality conjunction, each row it
/// finds confirmed by [`Value`] equality. A NaN is a key equal to itself
/// but never SQL-equal to anything, so only the confirmation compares it.
fn find_key(target: &Table, cols: &[String], key: &[Value]) -> Result<Option<usize>> {
    if target.schema().primary_key == cols {
        return Ok(target.pk_row_index(key));
    }
    let cols = key_indices(target.schema(), cols)?;
    let pred = TypedPred::equal_to(
        (cols.iter().copied().zip(key.iter().copied())).filter(|(_, v)| v.sql_eq(v) == Some(true)),
    );
    let equal = |&r: &u32| (cols.iter().zip(key)).all(|(&c, v)| target.value(r as usize, c) == *v);
    Ok(crate::scan::filter_indices(target, &pred)
        .into_iter()
        .find(equal)
        .map(|r| r as usize))
}

/// Whether `fk` gets a stored index: one column onto `to`'s one-column
/// primary key.
fn indexable(fk: &ForeignKey, to: &Table) -> bool {
    fk.columns.len() == 1
        && fk.referenced_columns.len() == 1
        && to.schema().primary_key == fk.referenced_columns
}

/// An empty index slot for each foreign key of `schema`.
fn empty_slots(schema: &TableSchema) -> Vec<OnceLock<FkIndex>> {
    schema
        .foreign_keys
        .iter()
        .map(|_| OnceLock::new())
        .collect()
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

    /// Every built index of `db` equals one built from scratch over the
    /// same rows.
    fn assert_indexes_fresh(db: &Database, ctx: &str) {
        let fresh = Database::from_tables(db.tables.clone());
        for (t, fk) in db.foreign_keys() {
            let name = &t.schema().name;
            let i = t
                .schema()
                .foreign_keys
                .iter()
                .position(|f| f == fk)
                .unwrap();
            if let Some(carried) = db.fk_slots[name][i].get() {
                let built = fresh.fk_index(name, fk).unwrap().unwrap();
                assert_eq!(
                    carried.fwd(),
                    built.fwd(),
                    "{name}.{:?} after {ctx}",
                    fk.columns
                );
                assert_eq!(carried.first_dangling(), built.first_dangling(), "{ctx}");
                assert_eq!(carried.has_dangling(), built.has_dangling(), "{ctx}");
            }
        }
    }

    /// Random DML over a parent, a child with a nullable foreign key onto
    /// it (loaded with dangling keys) and a self-referencing table: after
    /// every statement, accepted or refused, each carried index equals a
    /// fresh build.
    #[test]
    fn carried_indexes_equal_fresh_builds_after_random_dml() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut db = Database::new();
            for stmt in [
                "CREATE TABLE p (id INT PRIMARY KEY, v INT)",
                "CREATE TABLE c (id INT PRIMARY KEY, p_id INT REFERENCES p(id), w INT)",
                "CREATE TABLE e (id INT PRIMARY KEY, boss INT REFERENCES e(id))",
            ] {
                crate::sql::execute(&mut db, stmt).unwrap();
            }
            db.append_rows("p", (0..6i64).map(|i| vec![i.into(), (i % 3).into()]))
                .unwrap();
            let child = |i: i64, p: i64| vec![i.into(), p.into(), (i % 4).into()];
            db.append_rows("c", (0..8i64).map(|i| child(i, i % 9)))
                .unwrap();
            let mut next = 100i64;
            for step in 0..40 {
                if rng.gen_range(0..4) == 0 {
                    for (t, fk) in db.foreign_keys() {
                        db.fk_index(&t.schema().name, fk).unwrap();
                    }
                }
                let last = |db: &Database, t: &str| {
                    let t = db.table(t).unwrap();
                    (!t.is_empty()).then(|| t.value(t.len() - 1, 0))
                };
                let id = rng.gen_range(-1..12i64);
                next += 1;
                let sql = match rng.gen_range(0..11) {
                    0 => format!("INSERT INTO p VALUES ({id}, {next})"),
                    1 => format!("INSERT INTO c VALUES ({next}, {id}, {})", id % 4),
                    2 => format!("INSERT INTO c VALUES ({next}, NULL, 1)"),
                    3 => format!("UPDATE c SET p_id = {id} WHERE w = {}", id % 4),
                    4 => format!("UPDATE p SET id = {next} WHERE id = {id}"),
                    5 => format!("UPDATE p SET v = {next} WHERE v <= {id}"),
                    6 => match last(&db, "p") {
                        Some(v) => format!("DELETE FROM p WHERE id = {v}"),
                        None => continue,
                    },
                    7 => format!("DELETE FROM p WHERE id = {id}"),
                    8 => format!("DELETE FROM c WHERE w = {}", id % 4),
                    9 => {
                        let boss = if id < 0 {
                            "NULL".into()
                        } else {
                            format!("{}", 100 + id * 3)
                        };
                        format!("INSERT INTO e VALUES ({next}, {boss})")
                    }
                    _ => format!("DELETE FROM e WHERE id <= {}", 100 + id * 3),
                };
                let _ = crate::sql::execute(&mut db, &sql);
                assert_indexes_fresh(&db, &format!("seed {seed} step {step}: {sql}"));
            }
        }
    }

    /// A composite key, and a key onto a column that is not the primary
    /// key, get no stored index: they keep the hashing kernel.
    #[test]
    fn composite_and_non_primary_keys_keep_the_kernel() {
        let mut db = Database::new();
        for stmt in [
            "CREATE TABLE a (x INT NOT NULL, y INT NOT NULL, code INT NOT NULL, PRIMARY KEY (x, y))",
            "CREATE TABLE r (id INT PRIMARY KEY, x INT, y INT, code INT, \
             FOREIGN KEY (x, y) REFERENCES a(x, y), FOREIGN KEY (code) REFERENCES a(code))",
            "INSERT INTO a VALUES (1, 2, 7), (3, 4, 8)",
            "INSERT INTO r VALUES (1, 1, 2, 8), (2, 3, 4, 7), (3, NULL, 4, NULL)",
        ] {
            crate::sql::execute(&mut db, stmt).unwrap();
        }
        let fks = db.table("r").unwrap().schema().foreign_keys.clone();
        let calls = crate::exec::join::key_pairs_calls();
        for fk in &fks {
            assert!(db.fk_index("r", fk).unwrap().is_none());
        }
        assert_eq!(db.fk_pairs("r", &fks[0]).unwrap(), Ok(vec![(0, 0), (1, 1)]));
        assert_eq!(db.fk_pairs("r", &fks[1]).unwrap(), Ok(vec![(0, 1), (1, 0)]));
        assert_eq!(crate::exec::join::key_pairs_calls(), calls + 2);
        let plan = crate::sql::execute(
            &mut db,
            "EXPLAIN SELECT r.id FROM r, a WHERE r.code = a.code",
        )
        .unwrap();
        let text = format!("{:?}", plan.rows);
        assert!(text.contains("hash join"), "{text}");
        assert!(db.fk_slots["r"].iter().all(|s| s.get().is_none()));
    }
}
