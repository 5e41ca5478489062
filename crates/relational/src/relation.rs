//! Result relations: the materialized container a statement's answer
//! travels in, plus the handful of row kernels the executor's result tail
//! runs on it.
//!
//! Joins, cross products and grouping do **not** live here: the engine's
//! only evaluator is the columnar pipeline ([`crate::colrel`], grouped
//! aggregation in [`crate::exec::agg`]), and rows come into existence
//! once, at its final projection. What remains is what a (small,
//! already-final) result still needs — HAVING, projection, ORDER BY,
//! DISTINCT, OFFSET, LIMIT. Every kernel consumes the relation and moves
//! the surviving rows instead of cloning them.

use crate::expr::Expr;
use crate::table::Row;
use crate::value::{DataType, SortCell};
use crate::{Error, Result};

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

    /// σ — keeps rows satisfying `pred`.
    pub fn select(mut self, pred: &Expr) -> Result<Relation> {
        let mut failed = None;
        self.rows.retain(|r| match pred.matches(r) {
            Ok(keep) => keep,
            Err(e) => {
                failed.get_or_insert(e);
                false
            }
        });
        match failed {
            Some(e) => Err(e),
            None => Ok(self),
        }
    }

    /// π — keeps the columns at `indices`, in that order.
    pub fn project(self, indices: &[usize]) -> Result<Relation> {
        if let Some(i) = indices.iter().find(|&&i| i >= self.columns.len()) {
            return Err(Error::Eval(format!("projection index {i} out of range")));
        }
        let columns = indices.iter().map(|&i| self.columns[i].clone()).collect();
        let rows = self
            .rows
            .into_iter()
            .map(|r| indices.iter().map(|&i| r[i]).collect())
            .collect();
        Ok(Relation::new(columns, rows))
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

    /// Sorts rows by the given keys (stable; ties keep input order).
    ///
    /// Sort-key cells are hoisted once into a flat rank-decorated key
    /// column ([`SortCell`] over one [`crate::intern::RankMap`] snapshot),
    /// so the comparator compares machine words and never touches the
    /// interner — there is no string-resolving fallback inside the sort.
    pub fn sort_by(mut self, keys: &[SortKey]) -> Relation {
        let ranks = crate::intern::rank_map();
        let stride = keys.len();
        let mut decorated: Vec<SortCell> = Vec::with_capacity(self.rows.len() * stride);
        for r in &self.rows {
            decorated.extend(keys.iter().map(|k| SortCell::new(r[k.column], &ranks)));
        }
        let mut order: Vec<usize> = (0..self.rows.len()).collect();
        order.sort_by(|&a, &b| {
            for (ki, k) in keys.iter().enumerate() {
                let ord =
                    SortCell::total_cmp(decorated[a * stride + ki], decorated[b * stride + ki]);
                let ord = if k.descending { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        // `order` is a permutation, so every row is moved out exactly once.
        self.rows = order
            .into_iter()
            .map(|i| std::mem::take(&mut self.rows[i]))
            .collect();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn rel(names: &[&str], rows: Vec<Row>) -> Relation {
        let columns = names
            .iter()
            .map(|n| RelColumn::bare(*n, DataType::Int))
            .collect();
        Relation::new(columns, rows)
    }

    #[test]
    fn select_filters() {
        let r = rel(&["a"], vec![vec![1.into()], vec![2.into()], vec![3.into()]]);
        let out = r.select(&Expr::col(0).gt(Expr::lit(1))).unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int(2)], vec![Value::Int(3)]]);
    }

    #[test]
    fn project_reorders() {
        let r = rel(&["a", "b"], vec![vec![1.into(), 2.into()]]);
        let out = r.project(&[1, 0]).unwrap();
        assert_eq!(out.columns[0].name, "b");
        assert_eq!(out.rows[0], vec![Value::Int(2), Value::Int(1)]);
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
        let r = rel(&["a"], vec![vec![3.into()], vec![1.into()], vec![2.into()]]);
        let out = r.sort_by(&[SortKey::desc(0)]);
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
