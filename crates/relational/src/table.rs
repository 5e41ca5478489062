//! Columnar storage for a single table, with a primary-key index.
//!
//! Rows are stored as typed per-column vectors ([`ColumnData`]) plus a null
//! bitmap per column — text cells hold interned [`Sym`]bols, so a column of
//! titles is a flat `Vec<u32>`-sized array rather than a vector of heap
//! strings. The row-oriented API ([`Table::row`], [`Table::iter_rows`],
//! [`Table::insert`]) is a facade that materializes [`Value`]s on demand;
//! column-at-a-time consumers (the SQL executor's scans, the Appendix A
//! translation) read [`ColumnStore`]s directly and never materialize rows
//! they will discard.
//!
//! Column buffers are `Arc`-shared: cloning a [`ColumnStore`] — and so a
//! [`Table`] or a whole database, which is what a writer does to publish a
//! new epoch ([`crate::shared`]) — copies no cell. Mutation goes through
//! `Arc::make_mut`, which is an uncloned in-place write whenever the table
//! holds the only reference.

use crate::intern::Sym;
use crate::pk_index::PkOrder;
use crate::schema::TableSchema;
use crate::value::{DataType, Value};
use crate::{Error, Result};
use std::sync::Arc;

/// A tuple of values, positionally matching the table's columns.
///
/// `Value` is `Copy`, so a `Row` is a flat memcpy-able buffer; it is the
/// interchange format between the columnar store and row-oriented layers.
pub type Row = Vec<Value>;

/// Hard cap on rows per table: row ids are `u32` throughout the
/// selection-vector pipeline ([`crate::scan::filter_indices`],
/// [`crate::colrel::ColRelation`]), so a table may never outgrow the id
/// space. Inserts past the cap fail with a constraint error.
pub const MAX_ROWS: usize = u32::MAX as usize;

/// A packed null bitmap (one bit per row). Cloning shares the underlying
/// words (copy-on-write under mutation).
#[derive(Debug, Clone, Default)]
pub struct NullBitmap {
    bits: Arc<Vec<u64>>,
}

impl NullBitmap {
    /// Whether row `i` is NULL. Out-of-range reads are `false`.
    pub fn get(&self, i: usize) -> bool {
        self.bits
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    fn set(&mut self, i: usize, null: bool) {
        let word = i / 64;
        let bits = Arc::make_mut(&mut self.bits);
        if word >= bits.len() {
            bits.resize(word + 1, 0);
        }
        if null {
            bits[word] |= 1u64 << (i % 64);
        } else {
            bits[word] &= !(1u64 << (i % 64));
        }
    }

    /// The packed words backing the bitmap (may be shorter than
    /// `ceil(rows / 64)`: trailing all-valid words are never allocated).
    /// Used by the on-disk writer ([`crate::storage`]).
    pub(crate) fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Rebuilds a bitmap from packed words (the on-disk reader's path).
    pub(crate) fn from_words(words: Vec<u64>) -> Self {
        NullBitmap {
            bits: Arc::new(words),
        }
    }
}

/// The typed body of one column. NULL positions hold an arbitrary
/// placeholder; the [`NullBitmap`] is authoritative.
///
/// Each variant wraps its buffer in an [`Arc`] so clones share storage:
/// a cloned [`ColumnData`] (or whole [`ColumnStore`]) is a cheap handle.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// `INT` column.
    Int(Arc<Vec<i64>>),
    /// `FLOAT` column (also stores widened `INT` inserts).
    Float(Arc<Vec<f64>>),
    /// `TEXT` column of interned symbols.
    Sym(Arc<Vec<Sym>>),
    /// `BOOL` column.
    Bool(Arc<Vec<bool>>),
}

/// One column of a table: typed data plus its null bitmap. `Clone` is
/// O(1): both the data buffer and the null bitmap are `Arc`-shared.
#[derive(Debug, Clone)]
pub struct ColumnStore {
    data: ColumnData,
    nulls: NullBitmap,
    len: usize,
}

impl ColumnStore {
    /// An empty column of the given declared type.
    pub fn new(ty: DataType) -> Self {
        let data = match ty {
            DataType::Int => ColumnData::Int(Arc::default()),
            DataType::Float => ColumnData::Float(Arc::default()),
            DataType::Text => ColumnData::Sym(Arc::default()),
            DataType::Bool => ColumnData::Bool(Arc::default()),
        };
        ColumnStore {
            data,
            nulls: NullBitmap::default(),
            len: 0,
        }
    }

    /// A column around an already-decoded body and null bitmap of `len`
    /// rows (the on-disk reader's path).
    pub(crate) fn from_parts(data: ColumnData, nulls: NullBitmap, len: usize) -> Self {
        ColumnStore { data, nulls, len }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the cell at `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls.get(i)
    }

    /// The typed column body (column-at-a-time access). Check
    /// [`ColumnStore::is_null`] before trusting a position.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The null bitmap alongside the body (the on-disk writer reads its
    /// packed words).
    pub(crate) fn nulls(&self) -> &NullBitmap {
        &self.nulls
    }

    /// Materializes the cell at `i` as a [`Value`].
    ///
    /// # Panics
    /// If `i >= len`.
    pub fn get(&self, i: usize) -> Value {
        assert!(
            i < self.len,
            "column row {i} out of range (len {})",
            self.len
        );
        if self.nulls.get(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Sym(v) => Value::Text(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
        }
    }

    /// Iterates the column as materialized [`Value`]s.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// A new column of this column's type holding the cells at `rows`, in
    /// that order, word for word: a grouped result's key column.
    pub(crate) fn gather(&self, rows: impl ExactSizeIterator<Item = usize> + Clone) -> Self {
        fn pick<T: Copy>(v: &[T], rows: impl Iterator<Item = usize>) -> Arc<Vec<T>> {
            Arc::new(rows.map(|r| v[r]).collect())
        }
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(pick(v, rows.clone())),
            ColumnData::Float(v) => ColumnData::Float(pick(v, rows.clone())),
            ColumnData::Sym(v) => ColumnData::Sym(pick(v, rows.clone())),
            ColumnData::Bool(v) => ColumnData::Bool(pick(v, rows.clone())),
        };
        let mut nulls = NullBitmap::default();
        let len = rows.len();
        for (i, r) in rows.enumerate() {
            if self.is_null(r) {
                nulls.set(i, true);
            }
        }
        ColumnStore { data, nulls, len }
    }

    /// A column of type `ty` holding `values`, each of which fits `ty`: a
    /// grouped result's aggregate column.
    pub(crate) fn from_values(ty: DataType, values: impl IntoIterator<Item = Value>) -> Self {
        let mut col = ColumnStore::new(ty);
        for v in values {
            debug_assert!(v.fits(ty), "value {v} does not fit a {ty} column");
            col.push(&v);
        }
        col
    }

    /// Appends a value. The caller has already validated `fits`.
    fn push(&mut self, v: &Value) {
        let i = self.len;
        self.len += 1;
        if v.is_null() {
            self.nulls.set(i, true);
            match &mut self.data {
                ColumnData::Int(d) => Arc::make_mut(d).push(0),
                ColumnData::Float(d) => Arc::make_mut(d).push(0.0),
                ColumnData::Sym(d) => Arc::make_mut(d).push(Sym::intern("")),
                ColumnData::Bool(d) => Arc::make_mut(d).push(false),
            }
            return;
        }
        match (&mut self.data, v) {
            (ColumnData::Int(d), Value::Int(x)) => Arc::make_mut(d).push(*x),
            (ColumnData::Float(d), Value::Float(x)) => Arc::make_mut(d).push(*x),
            // Int widened into a FLOAT column (Value::Int(2) == Float(2.0),
            // so reads round-trip under value equality).
            (ColumnData::Float(d), Value::Int(x)) => Arc::make_mut(d).push(*x as f64),
            (ColumnData::Sym(d), Value::Text(s)) => Arc::make_mut(d).push(*s),
            (ColumnData::Bool(d), Value::Bool(b)) => Arc::make_mut(d).push(*b),
            _ => unreachable!("insert validated the value against the column type"),
        }
    }

    /// Overwrites the cell at `i`. The caller has already validated `fits`.
    fn set(&mut self, i: usize, v: &Value) {
        if v.is_null() {
            self.nulls.set(i, true);
            return;
        }
        self.nulls.set(i, false);
        match (&mut self.data, v) {
            (ColumnData::Int(d), Value::Int(x)) => Arc::make_mut(d)[i] = *x,
            (ColumnData::Float(d), Value::Float(x)) => Arc::make_mut(d)[i] = *x,
            (ColumnData::Float(d), Value::Int(x)) => Arc::make_mut(d)[i] = *x as f64,
            (ColumnData::Sym(d), Value::Text(s)) => Arc::make_mut(d)[i] = *s,
            (ColumnData::Bool(d), Value::Bool(b)) => Arc::make_mut(d)[i] = *b,
            _ => unreachable!("update validated the value against the column type"),
        }
    }

    /// Keeps only the rows whose `keep` flag is set, preserving order.
    fn retain_mask(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.len);
        fn retain<T: Copy>(d: &mut Vec<T>, keep: &[bool]) {
            let mut w = 0usize;
            for (r, &k) in keep.iter().enumerate() {
                if k {
                    d[w] = d[r];
                    w += 1;
                }
            }
            d.truncate(w);
        }
        match &mut self.data {
            ColumnData::Int(d) => retain(Arc::make_mut(d), keep),
            ColumnData::Float(d) => retain(Arc::make_mut(d), keep),
            ColumnData::Sym(d) => retain(Arc::make_mut(d), keep),
            ColumnData::Bool(d) => retain(Arc::make_mut(d), keep),
        }
        // Packed a word at a time; a column without NULLs has no words.
        let mut words: Vec<u64> = Vec::new();
        let mut w = 0usize;
        for (r, &k) in keep.iter().enumerate() {
            if k {
                if self.nulls.get(r) {
                    words.resize(w / 64 + 1, 0);
                    words[w / 64] |= 1u64 << (w % 64);
                }
                w += 1;
            }
        }
        self.nulls = NullBitmap::from_words(words);
        self.len = w;
    }
}

/// In-memory columnar storage for one table.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    cols: Vec<ColumnStore>,
    len: usize,
    /// Row ids in primary-key order; kept in step with `cols` by every
    /// mutation below.
    pk: PkOrder,
}

impl Table {
    /// Creates an empty table after validating the schema.
    pub fn new(schema: TableSchema) -> Result<Self> {
        let cols = schema
            .columns
            .iter()
            .map(|c| ColumnStore::new(c.data_type))
            .collect();
        Table::from_parts(schema, cols, 0, Vec::new())
    }

    /// A table around column stores of `len` rows and the primary-key
    /// order stored beside them: none of either for a new table, what the
    /// on-disk reader decoded otherwise. Validates the schema and proves
    /// the order ([`PkOrder::from_stored`]) before any lookup may trust it.
    pub(crate) fn from_parts(
        schema: TableSchema,
        cols: Vec<ColumnStore>,
        len: usize,
        pk_order: Vec<u32>,
    ) -> Result<Self> {
        schema.validate()?;
        let pk = PkOrder::from_stored(&schema, &cols, len, pk_order)?;
        Ok(Table {
            schema,
            cols,
            len,
            pk,
        })
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The column at position `col` (column-at-a-time access).
    ///
    /// # Panics
    /// If `col` is out of range.
    pub fn column(&self, col: usize) -> &ColumnStore {
        &self.cols[col]
    }

    /// Every column, in schema order.
    pub(crate) fn columns(&self) -> &[ColumnStore] {
        &self.cols
    }

    /// Materializes the cell at (`row`, `col`).
    ///
    /// # Panics
    /// If either index is out of range.
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.cols[col].get(row)
    }

    /// Materializes row `idx`, or `None` past the end.
    pub fn row(&self, idx: usize) -> Option<Row> {
        if idx >= self.len {
            return None;
        }
        Some(self.cols.iter().map(|c| c.get(idx)).collect())
    }

    /// Iterates all rows in insertion order, materializing each.
    pub fn iter_rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.len).map(|i| self.cols.iter().map(|c| c.get(i)).collect())
    }

    /// Materializes the whole table as rows (tests, bulk exports).
    pub fn to_rows(&self) -> Vec<Row> {
        self.iter_rows().collect()
    }

    /// Validates a row against arity, type and nullability constraints,
    /// and enforces the [`MAX_ROWS`] row-id cap.
    fn validate_row(&self, row: &[Value]) -> Result<()> {
        if self.len >= MAX_ROWS {
            return Err(Error::Constraint(format!(
                "table `{}` is full: row ids are u32, so tables cap at {MAX_ROWS} rows",
                self.schema.name
            )));
        }
        if row.len() != self.schema.arity() {
            return Err(Error::Constraint(format!(
                "table `{}` expects {} values, got {}",
                self.schema.name,
                self.schema.arity(),
                row.len()
            )));
        }
        (0..row.len()).try_for_each(|col| self.check_cell(col, &row[col]))
    }

    /// Validates one value against the type and nullability of column
    /// `col`.
    fn check_cell(&self, col: usize, v: &Value) -> Result<()> {
        let c = self
            .schema
            .columns
            .get(col)
            .ok_or_else(|| Error::Eval(format!("column index {col} out of range")))?;
        if v.is_null() && !c.nullable {
            return Err(Error::Constraint(format!(
                "NULL in non-nullable column `{}.{}`",
                self.schema.name, c.name
            )));
        }
        if !v.fits(c.data_type) {
            return Err(Error::Constraint(format!(
                "value {v} does not fit column `{}.{}` of type {}",
                self.schema.name, c.name, c.data_type
            )));
        }
        Ok(())
    }

    /// The refusal of a row whose primary key `key` another row holds.
    fn duplicate_pk(&self, key: &[Value]) -> Error {
        Error::Constraint(format!(
            "duplicate primary key {key:?} in table `{}`",
            self.schema.name
        ))
    }

    /// Appends a validated row to every column.
    fn push_row(&mut self, row: &[Value]) {
        for (c, v) in self.cols.iter_mut().zip(row) {
            c.push(v);
        }
        self.len += 1;
    }

    /// Inserts a row, enforcing arity, type, nullability and PK uniqueness.
    ///
    /// Foreign-key checks happen at the [`crate::database::Database`] level
    /// because they need access to other tables.
    pub fn insert(&mut self, row: Row) -> Result<usize> {
        self.validate_row(&row)?;
        self.pk
            .insert(&self.cols, &row, self.len as u32)
            .map_err(|key| self.duplicate_pk(&key))?;
        self.push_row(&row);
        Ok(self.len - 1)
    }

    /// Bulk columnar append: pushes the batch column by column and indexes
    /// it with one sort, whatever order it arrives in. Constraint semantics
    /// are identical to repeated [`Table::insert`]: the first row that
    /// would have been refused is reported, and the rows before it stay
    /// inserted.
    pub fn append_rows(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<usize> {
        let start = self.len;
        let mut refused = Ok(());
        for row in rows {
            refused = self.validate_row(&row);
            if refused.is_err() {
                break;
            }
            self.push_row(&row);
        }
        // A duplicate key sits in a row that was pushed, so it precedes
        // any row that failed validation.
        if let Some(dup) = self.pk.resort(&self.cols, self.len) {
            refused = Err(self.duplicate_pk(&self.pk_of(dup)));
            self.delete_rows(&(dup as u32..self.len as u32).collect::<Vec<_>>());
        }
        refused.map(|()| self.len - start)
    }

    /// The primary-key values of row `row`.
    fn pk_of(&self, row: usize) -> Vec<Value> {
        let cell = |&c: &usize| self.cols[c].get(row);
        self.pk.pk_cols().iter().map(cell).collect()
    }

    /// Row ids in ascending primary-key order (empty without a primary
    /// key): what a snapshot stores and what a clone of this table shares.
    pub(crate) fn pk_order(&self) -> &[u32] {
        self.pk.order()
    }

    /// Looks up a row by its (possibly composite) primary-key value.
    pub fn get_by_pk(&self, key: &[Value]) -> Option<Row> {
        self.pk_row_index(key).and_then(|i| self.row(i))
    }

    /// Position of the row with the given primary key.
    pub fn pk_row_index(&self, key: &[Value]) -> Option<usize> {
        self.pk.lookup(&self.cols, key)
    }

    /// Deletes the rows with the given ids (distinct, ascending — a
    /// selection vector); returns how many. Referential integrity is the
    /// caller's concern ([`crate::database::Database::delete_where`]
    /// enforces it).
    pub(crate) fn delete_rows(&mut self, doomed: &[u32]) -> usize {
        if !doomed.is_empty() {
            let mut keep = vec![true; self.len];
            for &r in doomed {
                keep[r as usize] = false;
            }
            for c in &mut self.cols {
                c.retain_mask(&keep);
            }
            self.pk.remove(doomed);
            self.len -= doomed.len();
        }
        doomed.len()
    }

    /// Updates columns of all rows satisfying `pred` to the given values;
    /// returns how many rows changed. Type/nullability/PK-uniqueness
    /// constraints are re-checked. The rows are selected before any is
    /// written ([`crate::scan::filter_indices`], as DELETE does); only an
    /// assignment to a PK column can fail afterwards, and puts the
    /// previous columns and index back.
    pub fn update_where(
        &mut self,
        pred: &crate::sql::analyze::TypedPred,
        sets: &[(usize, Value)],
    ) -> Result<usize> {
        for (col, v) in sets {
            self.check_cell(*col, v)?;
        }
        let hits = crate::scan::filter_indices(self, pred);
        // Rows keep their positions, so the PK index only goes stale
        // when a PK column was assigned.
        let rekeyed = sets.iter().any(|(col, _)| self.pk.pk_cols().contains(col));
        let before = (rekeyed && !hits.is_empty()).then(|| (self.cols.clone(), self.pk.clone()));
        for (col, v) in sets {
            for &i in &hits {
                self.cols[*col].set(i as usize, v);
            }
        }
        if let Some((cols, pk)) = before {
            if let Some(dup) = self.pk.resort(&self.cols, self.len) {
                let err = self.duplicate_pk(&self.pk_of(dup));
                (self.cols, self.pk) = (cols, pk);
                return Err(err);
            }
        }
        Ok(hits.len())
    }

    /// Distinct values appearing in column `col` (used by the categorical
    /// attribute heuristic of Appendix A), in total order.
    pub fn distinct_values(&self, col: usize) -> Vec<Value> {
        self.distinct_ranks(col).0
    }

    /// The distinct values of column `col` in total order (NULL first, if
    /// any; of values that compare equal, the one in the lowest row), and
    /// each row's rank among them: row `r` holds `values[ranks[r]]`.
    ///
    /// Implemented as one rank-decorated sort ([`crate::value::SortCell`]
    /// over one dictionary-rank snapshot), so interned text compares as
    /// machine words and the arena lock is never taken inside the sort.
    pub fn distinct_ranks(&self, col: usize) -> (Vec<Value>, Vec<u32>) {
        use crate::value::SortCell;
        let dict = crate::intern::rank_map();
        let mut cells: Vec<(SortCell, u32)> = self.cols[col]
            .iter()
            .zip(0..)
            .map(|(v, r)| (SortCell::new(v, &dict), r))
            .collect();
        cells.sort_unstable_by(|a, b| SortCell::total_cmp(a.0, b.0).then(a.1.cmp(&b.1)));
        let mut values: Vec<SortCell> = Vec::new();
        let mut ranks = vec![0; self.len];
        for (cell, r) in cells {
            if values
                .last()
                .is_none_or(|&last| SortCell::total_cmp(last, cell).is_ne())
            {
                values.push(cell);
            }
            ranks[r as usize] = (values.len() - 1) as u32;
        }
        (values.into_iter().map(SortCell::value).collect(), ranks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, TableSchema};
    use crate::sql::analyze::tests::where_pred;
    use crate::value::DataType;

    fn make() -> Table {
        Table::new(
            TableSchema::new(
                "T",
                vec![
                    Column::new("id", DataType::Int),
                    Column::nullable("name", DataType::Text),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .unwrap()
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = make();
        t.insert(vec![1.into(), "a".into()]).unwrap();
        t.insert(vec![2.into(), Value::Null]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get_by_pk(&[1.into()]).unwrap()[1], "a".into());
        assert!(t.get_by_pk(&[3.into()]).is_none());
    }

    #[test]
    fn rejects_duplicate_pk() {
        let mut t = make();
        t.insert(vec![1.into(), "a".into()]).unwrap();
        assert!(t.insert(vec![1.into(), "b".into()]).is_err());
    }

    #[test]
    fn rejects_wrong_arity_and_type() {
        let mut t = make();
        assert!(t.insert(vec![1.into()]).is_err());
        assert!(t.insert(vec!["x".into(), "a".into()]).is_err());
    }

    #[test]
    fn rejects_null_in_non_nullable() {
        let mut t = make();
        assert!(t.insert(vec![Value::Null, "a".into()]).is_err());
    }

    #[test]
    fn distinct_values_sorted() {
        let mut t = make();
        t.insert(vec![1.into(), "b".into()]).unwrap();
        t.insert(vec![2.into(), "a".into()]).unwrap();
        t.insert(vec![3.into(), "a".into()]).unwrap();
        assert_eq!(
            t.distinct_values(1),
            vec![Value::from("a"), Value::from("b")]
        );
    }

    #[test]
    fn null_bitmap_round_trips_through_cells() {
        let mut t = make();
        t.insert(vec![1.into(), Value::Null]).unwrap();
        t.insert(vec![2.into(), "x".into()]).unwrap();
        t.insert(vec![3.into(), Value::Null]).unwrap();
        assert!(t.value(0, 1).is_null());
        assert_eq!(t.value(1, 1), "x".into());
        assert!(t.value(2, 1).is_null());
        assert!(t.column(1).is_null(0));
        assert!(!t.column(1).is_null(1));
        // NULLs participate in distinct_values (sorted first).
        assert_eq!(t.distinct_values(1)[0], Value::Null);
    }

    #[test]
    fn bulk_append_matches_repeated_insert() {
        let mut a = make();
        let mut b = make();
        let rows: Vec<Row> = (0..20)
            .map(|i| {
                vec![
                    i.into(),
                    if i % 4 == 0 {
                        Value::Null
                    } else {
                        Value::text(format!("v{}", i % 3))
                    },
                ]
            })
            .collect();
        for r in &rows {
            a.insert(r.clone()).unwrap();
        }
        b.append_rows(rows).unwrap();
        assert_eq!(a.to_rows(), b.to_rows());
        assert_eq!(a.pk_row_index(&[7.into()]), b.pk_row_index(&[7.into()]));
    }

    #[test]
    fn bulk_append_rejects_duplicate_pk_mid_batch() {
        let mut t = make();
        let err = t.append_rows(vec![
            vec![1.into(), "a".into()],
            vec![1.into(), "b".into()],
            vec![2.into(), "c".into()],
        ]);
        assert!(err.is_err());
        // Rows before the failure stayed, as with repeated insert.
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn bulk_append_out_of_key_order_refuses_what_repeated_insert_would() {
        let mut t = make();
        t.insert(vec![5.into(), "old".into()]).unwrap();
        let err = t
            .append_rows(vec![
                vec![9.into(), "a".into()],
                vec![3.into(), "b".into()],
                vec![5.into(), "first refusal: held before the batch".into()],
                vec![3.into(), "second: held within it".into()],
                vec![Value::Null, "third: never pushed".into()],
            ])
            .unwrap_err();
        assert!(err.to_string().contains("[Int(5)]"), "{err}");
        assert_eq!(t.len(), 3);
        let at = |k: i64| t.pk_row_index(&[k.into()]);
        assert_eq!(
            (at(5), at(9), at(3), at(4)),
            (Some(0), Some(1), Some(2), None)
        );
        // With no duplicate the row that fails validation is the refusal.
        let err = t
            .append_rows(vec![
                vec![1.into(), "c".into()],
                vec![Value::Null, "d".into()],
            ])
            .unwrap_err();
        assert!(err.to_string().contains("NULL in non-nullable"), "{err}");
        assert_eq!(t.pk_row_index(&[1.into()]), Some(3));
    }

    #[test]
    fn delete_and_pk_update_keep_the_index_in_step() {
        let mut t = make();
        for k in [40, 10, 30, 20] {
            t.insert(vec![k.into(), Value::text(format!("k{k}"))])
                .unwrap();
        }
        let columns = crate::relation::Relation::table_columns(&t, "T");
        let is = |k: i64| where_pred(&columns, &format!("id = {k}")).unwrap();
        t.delete_rows(&crate::scan::filter_indices(&t, &is(10)));
        assert_eq!(t.pk_order(), [2, 1, 0]);
        assert_eq!(t.pk_row_index(&[10.into()]), None);
        assert_eq!(t.get_by_pk(&[20.into()]).unwrap()[1], "k20".into());
        // Re-keying a row moves it in the order, not in the table.
        assert_eq!(t.update_where(&is(30), &[(0, 50.into())]).unwrap(), 1);
        assert_eq!(t.pk_order(), [2, 0, 1]);
        assert_eq!(t.pk_row_index(&[50.into()]), Some(1));
        // A collision puts columns and index back as they were.
        let (rows, order) = (t.to_rows(), t.pk_order().to_vec());
        let err = t.update_where(&is(20), &[(0, 40.into())]).unwrap_err();
        assert!(
            err.to_string().contains("duplicate primary key [Int(40)]"),
            "{err}"
        );
        assert_eq!((t.to_rows(), t.pk_order()), (rows, &order[..]));
        assert_eq!(t.pk_row_index(&[20.into()]), Some(2));
    }

    #[test]
    fn int_widens_into_float_column() {
        let mut t = Table::new(TableSchema::new(
            "F",
            vec![Column::new("x", DataType::Float)],
        ))
        .unwrap();
        t.insert(vec![Value::Int(2)]).unwrap();
        t.insert(vec![Value::Float(2.5)]).unwrap();
        // The widened cell reads back as Float(2.0), which compares (and
        // hashes) equal to the Int(2) that was inserted.
        assert_eq!(t.value(0, 0), Value::Float(2.0));
        assert_eq!(t.value(0, 0), Value::Int(2));
        assert_eq!(t.value(1, 0), Value::Float(2.5));
    }
}
