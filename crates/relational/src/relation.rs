//! Result relations: the materialized container a statement's answer
//! travels in, and the columnar batch a grouped result stays in until its
//! tail has decided which groups survive.
//!
//! Joins, cross products and grouping do **not** live here: the engine's
//! only evaluator is the columnar pipeline ([`crate::colrel`], grouped
//! aggregation in [`crate::exec::agg`]). Plain queries materialize rows
//! once, at the pipeline's final projection; grouped queries hand their
//! tail a [`ColumnBatch`] — HAVING and ORDER BY rewrite its selection
//! vector, and only the groups that are left become rows. Both tails order
//! rows through the one kernel here, `sorted_positions`, which is a
//! top-k selection when a LIMIT follows. What a [`Relation`] itself still
//! runs is DISTINCT, OFFSET and LIMIT, each consuming the relation and
//! moving the surviving rows instead of cloning them.

use crate::expr::Expr;
use crate::table::Row;
use crate::value::{DataType, SortCell, Value};
use crate::{Error, Result};
use std::cmp::Ordering;

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

/// A fully materialized relation.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    /// Output columns.
    pub columns: Vec<RelColumn>,
    /// Tuples.
    pub rows: Vec<Row>,
}

impl Relation {
    /// Creates a relation.
    pub fn new(columns: Vec<RelColumn>, rows: Vec<Row>) -> Self {
        Relation { columns, rows }
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
        self.rows.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Removes duplicate rows (set semantics), preserving first occurrence.
    pub fn distinct(mut self) -> Relation {
        let first: Vec<bool> = {
            let mut seen = std::collections::HashSet::with_capacity(self.rows.len());
            self.rows.iter().map(|r| seen.insert(r)).collect()
        };
        let mut first = first.into_iter();
        self.rows.retain(|_| first.next().unwrap_or(false));
        self
    }

    /// Keeps the first `n` rows.
    pub fn limit(mut self, n: usize) -> Relation {
        self.rows.truncate(n);
        self
    }

    /// Skips the first `n` rows (SQL OFFSET).
    pub fn offset(mut self, n: usize) -> Relation {
        self.rows.drain(..n.min(self.rows.len()));
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

/// The permutation ORDER BY `keys` induces over rows `0..n` — or, with
/// `keep = Some(k)`, only its first `k` positions (ORDER BY … LIMIT as a
/// top-k). `decorated` holds one rank-decorated cell vector per key, so
/// the comparator compares machine words and never touches the interner.
///
/// Rows compare by the keys and then by input position. That extension
/// makes the order total — no two rows tie — so it has exactly one sorted
/// sequence: the one a stable sort by the keys alone produces. Any
/// algorithm may therefore be used, and selecting the `k` smallest rows
/// before sorting them yields the stable full sort's prefix, ties at the
/// cut included.
pub(crate) fn sorted_positions(
    n: usize,
    decorated: &[Vec<SortCell>],
    keys: &[SortKey],
    keep: Option<usize>,
) -> Vec<u32> {
    let cmp = |a: &u32, b: &u32| {
        for (cells, k) in decorated.iter().zip(keys) {
            let ord = SortCell::total_cmp(cells[*a as usize], cells[*b as usize]);
            let ord = if k.descending { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        a.cmp(b)
    };
    let mut order: Vec<u32> = (0..n as u32).collect();
    if let Some(k) = keep.filter(|&k| k < n) {
        if k > 0 {
            order.select_nth_unstable_by(k - 1, cmp);
        }
        order.truncate(k);
    }
    order.sort_unstable_by(cmp);
    order
}

/// A column-major result batch with a selection vector: what grouped
/// aggregation emits ([`crate::colrel::ColRelation::group_by`]). HAVING
/// and ORDER BY only rewrite the selection; rows come into existence in
/// [`ColumnBatch::project`], for the selected positions alone.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    columns: Vec<RelColumn>,
    /// One cell vector per column, all `n_rows` long.
    data: Vec<Vec<Value>>,
    /// Surviving row positions, in output order.
    sel: Vec<u32>,
}

impl ColumnBatch {
    /// A batch of `n_rows` rows, all selected, in input order.
    pub fn new(columns: Vec<RelColumn>, data: Vec<Vec<Value>>, n_rows: usize) -> Self {
        debug_assert!(
            data.len() == columns.len() && data.iter().all(|c| c.len() == n_rows),
            "plan invariant violated: ragged column batch"
        );
        ColumnBatch {
            columns,
            data,
            sel: (0..n_rows as u32).collect(),
        }
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.sel.len()
    }

    /// True when no row is selected.
    pub fn is_empty(&self) -> bool {
        self.sel.is_empty()
    }

    /// σ — keeps the selected rows satisfying `pred` (HAVING). Only the
    /// columns `pred` references are read.
    pub fn select(mut self, pred: &Expr) -> Result<ColumnBatch> {
        let cols = pred.referenced_columns();
        if let Some(&max) = cols.last().filter(|&&max| max >= self.columns.len()) {
            return Err(Error::Eval(format!("predicate column {max} out of range")));
        }
        let mut buf: Row = vec![Value::Null; self.columns.len()];
        let mut keep = Vec::new();
        for &p in &self.sel {
            for &c in &cols {
                buf[c] = self.data[c][p as usize];
            }
            if pred.matches(&buf)? {
                keep.push(p);
            }
        }
        self.sel = keep;
        Ok(self)
    }

    /// Orders the selected rows by `keys` (ties keep their current order)
    /// and, with `keep = Some(k)`, drops all but the first `k` — see
    /// `sorted_positions`.
    pub fn sort_by(mut self, keys: &[SortKey], keep: Option<usize>) -> ColumnBatch {
        let ranks = crate::intern::rank_map();
        let decorated: Vec<Vec<SortCell>> = keys
            .iter()
            .map(|k| {
                let col = &self.data[k.column];
                self.sel
                    .iter()
                    .map(|&p| SortCell::new(col[p as usize], &ranks))
                    .collect()
            })
            .collect();
        self.sel = sorted_positions(self.sel.len(), &decorated, keys, keep)
            .into_iter()
            .map(|i| self.sel[i as usize])
            .collect();
        self
    }

    /// π — materializes the selected rows, keeping the columns at
    /// `indices`, in that order.
    pub fn project(self, indices: &[usize]) -> Result<Relation> {
        if let Some(i) = indices.iter().find(|&&i| i >= self.columns.len()) {
            return Err(Error::Eval(format!("projection index {i} out of range")));
        }
        let columns = indices.iter().map(|&i| self.columns[i].clone()).collect();
        let rows = self
            .sel
            .iter()
            .map(|&p| indices.iter().map(|&i| self.data[i][p as usize]).collect())
            .collect();
        Ok(Relation::new(columns, rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(names: &[&str], rows: Vec<Row>) -> Relation {
        let columns = names
            .iter()
            .map(|n| RelColumn::bare(*n, DataType::Int))
            .collect();
        Relation::new(columns, rows)
    }

    /// A batch of INT columns, given column-major.
    fn batch(names: &[&str], data: Vec<Vec<i64>>) -> ColumnBatch {
        let n = data[0].len();
        let columns = names
            .iter()
            .map(|n| RelColumn::bare(*n, DataType::Int))
            .collect();
        let data = data
            .into_iter()
            .map(|c| c.into_iter().map(Value::Int).collect())
            .collect();
        ColumnBatch::new(columns, data, n)
    }

    fn all_rows(b: ColumnBatch) -> Vec<Row> {
        let all: Vec<usize> = (0..b.columns.len()).collect();
        b.project(&all).unwrap().rows
    }

    #[test]
    fn select_filters() {
        let b = batch(&["a"], vec![vec![1, 2, 3]]);
        let out = b.select(&Expr::col(0).gt(Expr::lit(1))).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(
            all_rows(out),
            vec![vec![Value::Int(2)], vec![Value::Int(3)]]
        );
        let b = batch(&["a"], vec![vec![1]]);
        assert!(b.select(&Expr::col(1).gt(Expr::lit(1))).is_err());
    }

    #[test]
    fn project_reorders() {
        let b = batch(&["a", "b"], vec![vec![1], vec![2]]);
        let out = b.clone().project(&[1, 0]).unwrap();
        assert_eq!(out.columns[0].name, "b");
        assert_eq!(out.rows[0], vec![Value::Int(2), Value::Int(1)]);
        assert!(b.project(&[2]).is_err());
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
    fn sort_and_limit() {
        let b = batch(&["a", "i"], vec![vec![3, 1, 2, 1], vec![0, 1, 2, 3]]);
        let sorted = all_rows(b.clone().sort_by(&[SortKey::desc(0)], None));
        let firsts: Vec<Value> = sorted.iter().map(|r| r[0]).collect();
        assert_eq!(firsts, vec![3.into(), 2.into(), 1.into(), 1.into()]);
        // Ties keep input order, and a top-k is the full sort's prefix —
        // also when the cut falls inside a run of ties.
        assert_eq!(sorted[2][1], Value::Int(1));
        for k in 0..=5 {
            let top = all_rows(b.clone().sort_by(&[SortKey::desc(0)], Some(k)));
            assert_eq!(top, sorted[..k.min(4)], "top {k}");
        }
        // Sorting a filtered batch permutes the surviving rows only.
        let kept = b.select(&Expr::col(0).lt(Expr::lit(3))).unwrap();
        let seconds: Vec<Value> = all_rows(kept.sort_by(&[SortKey::asc(0)], Some(2)))
            .iter()
            .map(|r| r[1])
            .collect();
        assert_eq!(seconds, vec![1.into(), 3.into()]);

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
}
