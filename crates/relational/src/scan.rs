//! Base-table scans.
//!
//! A scan is one loop over the rows of a [`Table`] on the calling thread:
//! it evaluates the predicate row by row, in row order, so the selection
//! vector is ascending and a failing predicate reports the first failing
//! row's error. Predicates are compiled once per scan
//! ([`crate::exec::pred::CompiledPred`]), so LIKE/equality/IN over text
//! columns test dictionary bitmaps instead of re-matching strings per row.

use crate::exec::pred::CompiledPred;
use crate::expr::Expr;
use crate::table::{ColumnStore, Row, Table};
use crate::value::Value;
use crate::Result;

/// The deduplicated column positions `pred` actually reads (ascending).
/// Shared with [`crate::colrel::ColRelation::select`], which evaluates
/// residual predicates over only these columns.
pub(crate) fn pred_columns(pred: &Expr) -> Vec<usize> {
    let mut cols = pred.referenced_columns();
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// Row ids of `table` satisfying `pred`, ascending.
///
/// This is the pushdown scan: its output is the selection vector the
/// executor's columnar pipeline
/// ([`ColRelation`](crate::colrel::ColRelation)) carries end to end, so a
/// filtered-out row is never touched again after the scan — no row is
/// materialized, not even for hits. The compiled predicate is evaluated
/// over **only the columns it references** (one reusable full-width
/// buffer, untouched slots stay NULL), so a selective filter over a wide
/// table never pays per-row work proportional to the table width. Row ids
/// are `u32` across the selection-vector pipeline ([`Table`]s are capped
/// at `u32::MAX` rows).
pub fn filter_indices(table: &Table, pred: &Expr) -> Result<Vec<u32>> {
    let schema = table.schema();
    let width = schema.columns.len();
    let compiled = CompiledPred::compile(pred, |c| schema.columns.get(c).map(|col| col.data_type));
    let stores: Vec<(usize, &ColumnStore)> = pred_columns(pred)
        .into_iter()
        .filter(|&c| c < width)
        .map(|c| (c, table.column(c)))
        .collect();
    let mut buf: Row = vec![Value::Null; width];
    let mut out = Vec::new();
    for i in 0..table.len() {
        for &(c, store) in &stores {
            buf[c] = store.get(i);
        }
        if compiled.matches(&buf)? {
            out.push(i as u32);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, TableSchema};
    use crate::value::{DataType, Value};

    fn table(rows: usize) -> Table {
        let mut t = Table::new(
            TableSchema::new(
                "S",
                vec![
                    Column::new("id", DataType::Int),
                    Column::nullable("v", DataType::Int),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .unwrap();
        t.append_rows((0..rows as i64).map(|i| {
            vec![
                i.into(),
                if i % 7 == 0 {
                    Value::Null
                } else {
                    (i % 10).into()
                },
            ]
        }))
        .unwrap();
        t
    }

    #[test]
    fn sharded_filter_matches_sequential() {
        let t = table(3 * 2048 + 17);
        let pred = Expr::col(1).ge(Expr::lit(5));
        let mut seq = Vec::new();
        for (i, row) in t.iter_rows().enumerate() {
            if pred.matches(&row).unwrap() {
                seq.push(i as u32);
            }
        }
        assert_eq!(filter_indices(&t, &pred).unwrap(), seq);
    }

    #[test]
    fn error_reporting_is_deterministic() {
        // `v LIKE` errors on INT; the reported error must be the first
        // failing row in row order even though later rows also fail.
        let t = table(4 * 2048);
        let pred = Expr::col(1).like("a%");
        let seq_err = t
            .iter_rows()
            .find_map(|row| pred.matches(&row).err())
            .unwrap()
            .to_string();
        let err = filter_indices(&t, &pred).unwrap_err();
        assert_eq!(err.to_string(), seq_err);
    }

    #[test]
    fn single_chunk_runs_inline() {
        let t = table(10);
        let pred = Expr::col(0).lt(Expr::lit(5));
        assert_eq!(filter_indices(&t, &pred).unwrap(), vec![0, 1, 2, 3, 4]);
    }
}
