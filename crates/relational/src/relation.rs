//! Result relations: the materialized container a statement's answer
//! travels in, and the column metadata and sort keys that describe it.
//!
//! Joins, cross products, grouping and sorting do **not** live here: the
//! engine's only evaluator is the columnar pipeline ([`crate::colrel`],
//! grouped aggregation in [`crate::exec::agg`]), which materializes rows
//! once, at its final projection, for plain and grouped queries alike.
//! What a [`Relation`] itself still runs is DISTINCT, OFFSET and LIMIT,
//! each consuming the relation and moving the surviving rows instead of
//! cloning them.

use crate::table::Row;
use crate::value::DataType;

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
}
