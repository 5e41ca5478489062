//! Base-table scans.
//!
//! A scan compiles its predicate once (`crate::exec::pred`) and runs it
//! over the table's column slices 64 rows at a time, in row order, so the
//! selection vector is ascending; a predicate with a leaf that can raise
//! runs row by row instead, reporting the first failing row's error.

use crate::expr::Expr;
use crate::table::Table;
use crate::Result;

/// Row ids of `table` satisfying `pred`, ascending.
///
/// This is the pushdown scan: its output is the selection vector the
/// executor's columnar pipeline
/// ([`ColRelation`](crate::colrel::ColRelation)) carries end to end, so a
/// filtered-out row is never touched again after the scan — no row is
/// materialized, not even for hits. Only the columns `pred` references are
/// read. Row ids are `u32` across the selection-vector pipeline
/// ([`Table`]s are capped at `u32::MAX` rows).
pub fn filter_indices(table: &Table, pred: &Expr) -> Result<Vec<u32>> {
    crate::exec::pred::select_rows(pred, table.len(), table.schema().arity(), |c| {
        (table.column(c), None)
    })
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
    fn word_kernel_matches_row_by_row_filter() {
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
    fn partial_word_keeps_only_live_rows() {
        let t = table(10);
        let pred = Expr::col(0).lt(Expr::lit(5));
        assert_eq!(filter_indices(&t, &pred).unwrap(), vec![0, 1, 2, 3, 4]);
        let all = Expr::col(0).ge(Expr::lit(0));
        assert_eq!(filter_indices(&t, &all).unwrap().len(), 10);
    }
}
