//! Result relations: the column-major container a statement's answer
//! travels in, and the column metadata and sort keys that describe it.
//!
//! Joins, cross products, grouping and sorting do **not** live here: the
//! engine's only evaluator is the columnar pipeline ([`crate::colrel`],
//! grouped aggregation in [`crate::exec::agg`]), whose final projection
//! gathers each output column once, for plain and grouped queries alike.
//! A [`Relation`] keeps those columns as they are, one `Vec<Value>` each,
//! and the wire encoder writes them and the decoder fills them without a
//! row ever being built. What a `Relation` itself still runs is DISTINCT,
//! OFFSET and LIMIT, each on the columns in place.

use crate::table::Row;
use crate::value::{DataType, Value};
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A column of a relation: optional table qualifier + name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelColumn {
    /// Table alias or name this column came from, if any.
    pub qualifier: Option<String>,
    /// Column name.
    pub name: String,
    /// Column type.
    pub data_type: DataType,
}

impl RelColumn {
    /// Creates a qualified column.
    pub fn qualified(qualifier: impl Into<String>, name: impl Into<String>, ty: DataType) -> Self {
        RelColumn {
            qualifier: Some(qualifier.into()),
            name: name.into(),
            data_type: ty,
        }
    }

    /// Creates an unqualified column.
    pub fn bare(name: impl Into<String>, ty: DataType) -> Self {
        RelColumn {
            qualifier: None,
            name: name.into(),
            data_type: ty,
        }
    }

    /// `qualifier.name` or just `name`.
    pub fn qualified_name(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}.{}", self.name),
            None => self.name.clone(),
        }
    }

    /// Whether this column is referred to by `name`, which may be
    /// `column` or `qualifier.column`.
    pub fn matches_name(&self, name: &str) -> bool {
        if let Some((q, c)) = name.split_once('.') {
            self.qualifier.as_deref() == Some(q) && self.name == c
        } else {
            self.name == name
        }
    }
}

/// A result relation: its output columns and, column-major, its cells.
///
/// Read cells through [`Relation::column`] and [`Relation::get`]. The
/// `rows` field holds the cells and is also a row view
/// ([`RelationRows::iter`]) that builds owned rows on demand; it is public
/// for tests and for the frozen `benchmark/` harness (ROADMAP 1(b)).
#[derive(Debug, Clone, Default)]
pub struct Relation {
    /// Output columns.
    pub columns: Vec<RelColumn>,
    /// The cells, one vector per column; as a view, the rows.
    pub rows: RelationRows,
}

/// The cells of a [`Relation`], one `Vec<Value>` per column, all `len`
/// long. As a view it yields, prints and compares whole rows, each built
/// when it is read.
#[derive(Clone, Default, PartialEq)]
pub struct RelationRows {
    cols: Vec<Vec<Value>>,
    /// Rows, kept apart from `cols` so a zero-column relation has some.
    len: usize,
}

impl RelationRows {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The top row, built.
    pub fn first(&self) -> Option<Row> {
        self.iter().next()
    }

    /// Every row top to bottom, each built when the iterator reaches it.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Row> + '_ {
        (0..self.len).map(|r| self.cols.iter().map(|c| c[r]).collect())
    }
}

/// Row `.1` of column-major cells `.0`, hashed and compared cell by cell
/// where it lies.
struct RowAt<'a>(&'a [Vec<Value>], usize);

impl Hash for RowAt<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.iter().for_each(|c| c[self.1].hash(state));
    }
}

impl PartialEq for RowAt<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.iter().all(|c| c[self.1] == c[other.1])
    }
}

impl Eq for RowAt<'_> {}

impl fmt::Debug for RelationRows {
    /// What the rows as a `Vec<Vec<Value>>` print.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq<Vec<Row>> for RelationRows {
    /// Equal when `rows` holds the same rows, cell for cell.
    fn eq(&self, rows: &Vec<Row>) -> bool {
        self.len == rows.len()
            && rows.iter().enumerate().all(|(r, row)| {
                row.len() == self.cols.len() && row.iter().zip(&self.cols).all(|(v, c)| *v == c[r])
            })
    }
}

impl PartialEq<RelationRows> for Vec<Row> {
    fn eq(&self, rows: &RelationRows) -> bool {
        rows == self
    }
}

impl Relation {
    /// A relation from its cells, column-major: `cells[c]` is column
    /// `c`, and every column holds `len` values.
    ///
    /// # Panics
    /// If there is not one cell vector per column, each `len` long.
    pub fn from_columns(columns: Vec<RelColumn>, cells: Vec<Vec<Value>>, len: usize) -> Self {
        assert!(
            columns.len() == cells.len() && cells.iter().all(|c| c.len() == len),
            "{} cell vectors for {} columns of {len} rows",
            cells.len(),
            columns.len()
        );
        Relation {
            columns,
            rows: RelationRows { cols: cells, len },
        }
    }

    /// A relation from row-major `rows`, each as wide as `columns` (for
    /// the oracle, EXPLAIN and tests).
    pub fn from_rows(columns: Vec<RelColumn>, rows: Vec<Row>) -> Self {
        let len = rows.len();
        let mut cells: Vec<Vec<Value>> =
            (columns.iter()).map(|_| Vec::with_capacity(len)).collect();
        for row in rows {
            for (col, v) in cells.iter_mut().zip(row) {
                col.push(v);
            }
        }
        Relation::from_columns(columns, cells, len)
    }

    /// The qualified output columns a scan of `table` under `alias`
    /// produces. Single source for the columnar scans
    /// ([`crate::colrel::ColRelation`]) and the analyzer's plan tables, so
    /// name resolution can never diverge from the columns a scan actually
    /// yields.
    pub fn table_columns(table: &crate::table::Table, alias: &str) -> Vec<RelColumn> {
        table
            .schema()
            .columns
            .iter()
            .map(|c| RelColumn::qualified(alias, &c.name, c.data_type))
            .collect()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.rows.len == 0
    }

    /// The cells of column `c`, top to bottom.
    ///
    /// # Panics
    /// If `c` is out of range.
    pub fn column(&self, c: usize) -> &[Value] {
        &self.rows.cols[c]
    }

    /// The cell at (`row`, `col`).
    ///
    /// # Panics
    /// If either index is out of range.
    pub fn get(&self, row: usize, col: usize) -> Value {
        self.rows.cols[col][row]
    }

    /// Removes duplicate rows (set semantics), preserving first occurrence.
    /// Rows are hashed and compared where they lie.
    pub fn distinct(mut self) -> Relation {
        let keep: Vec<bool> = {
            let mut seen = HashSet::with_capacity(self.len());
            (0..self.len())
                .map(|r| seen.insert(RowAt(&self.rows.cols, r)))
                .collect()
        };
        for col in &mut self.rows.cols {
            let mut flags = keep.iter();
            col.retain(|_| flags.next().copied().unwrap_or(false));
        }
        self.rows.len = keep.iter().filter(|&&k| k).count();
        self
    }

    /// Keeps the first `n` rows.
    pub fn limit(mut self, n: usize) -> Relation {
        let n = n.min(self.rows.len);
        self.rows.cols.iter_mut().for_each(|c| c.truncate(n));
        self.rows.len = n;
        self
    }

    /// Skips the first `n` rows (SQL OFFSET).
    pub fn offset(mut self, n: usize) -> Relation {
        let n = n.min(self.rows.len);
        self.rows.cols.iter_mut().for_each(|c| drop(c.drain(..n)));
        self.rows.len -= n;
        self
    }
}

/// One ORDER BY key.
#[derive(Debug, Clone, Copy)]
pub struct SortKey {
    /// Column position.
    pub column: usize,
    /// Descending order?
    pub descending: bool,
}

impl SortKey {
    /// Ascending key.
    pub fn asc(column: usize) -> Self {
        SortKey {
            column,
            descending: false,
        }
    }

    /// Descending key.
    pub fn desc(column: usize) -> Self {
        SortKey {
            column,
            descending: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn rel(names: &[&str], rows: Vec<Row>) -> Relation {
        let columns = names
            .iter()
            .map(|n| RelColumn::bare(*n, DataType::Int))
            .collect();
        Relation::from_rows(columns, rows)
    }

    #[test]
    fn distinct_removes_duplicates() {
        let r = rel(
            &["a"],
            vec![
                vec![2.into()],
                vec![1.into()],
                vec![2.into()],
                vec![1.into()],
            ],
        );
        // First occurrences survive, in input order.
        assert_eq!(
            r.distinct().rows,
            vec![vec![Value::Int(2)], vec![Value::Int(1)]]
        );
    }

    #[test]
    fn offset_and_limit() {
        let out = rel(&["a"], vec![vec![3.into()], vec![2.into()], vec![1.into()]]);
        assert_eq!(out.clone().limit(0).len(), 0);
        assert_eq!(
            out.clone().offset(1).rows,
            vec![vec![Value::Int(2)], vec![Value::Int(1)]]
        );
        // An offset past the end leaves nothing (and does not panic).
        assert!(out.clone().offset(99).is_empty());
        assert_eq!(
            out.limit(2).rows,
            vec![vec![Value::Int(3)], vec![Value::Int(2)]]
        );
    }

    /// Two columns of small domains: NULLs, an INT equal to a FLOAT,
    /// and text.
    fn mixed(seed: u64, n: usize) -> Vec<Row> {
        let mut x = seed;
        let mut next = |k: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % k
        };
        let cell = |k: u64| match k {
            0 => Value::Null,
            1 => Value::Int(2),
            2 => Value::Float(2.0),
            3 => "two".into(),
            k => Value::Int(k as i64),
        };
        (0..n).map(|_| vec![cell(next(6)), cell(next(5))]).collect()
    }

    #[test]
    fn distinct_keeps_first_occurrences_like_a_scan() {
        for seed in 0..50 {
            let rows = mixed(seed, seed as usize);
            let mut want: Vec<Row> = Vec::new();
            for row in &rows {
                if !want.contains(row) {
                    want.push(row.clone());
                }
            }
            let got = rel(&["a", "b"], rows).distinct();
            assert_eq!(got.rows, want, "seed {seed}");
            assert_eq!(got.len(), want.len());
        }
    }

    #[test]
    fn the_row_view_reads_the_columns() {
        let rows = mixed(7, 9);
        let r = rel(&["a", "b"], rows.clone());
        assert_eq!(r.len(), 9);
        assert_eq!(r.rows.iter().collect::<Vec<_>>(), rows);
        assert_eq!(r.rows.first(), rows.first().cloned());
        assert_eq!(format!("{:?}", r.rows), format!("{rows:?}"));
        assert_eq!(format!("{:#?}", r.rows), format!("{rows:#?}"));
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(r.column(0)[i], row[0]);
            assert_eq!(r.get(i, 1), row[1]);
        }
        let same = Relation::from_columns(
            r.columns.clone(),
            vec![r.column(0).to_vec(), r.column(1).to_vec()],
            9,
        );
        assert_eq!(same.rows, r.rows);
        // No columns, yet rows: the count is kept apart.
        let bare = Relation::from_columns(Vec::new(), Vec::new(), 3);
        assert_eq!((bare.len(), bare.rows.iter().count()), (3, 3));
        assert_eq!(bare.offset(1).limit(1).len(), 1);
    }
}
