//! Base-table scans.
//!
//! A scan compiles its predicate once (`crate::exec::pred`) and runs it
//! over the table's column slices 64 rows at a time, in row order, so the
//! selection vector is ascending. The predicate is a [`TypedPred`], so the
//! scan cannot fail: every shape that could raise was refused by typing,
//! before any row was read.

use crate::sql::analyze::TypedPred;
use crate::table::{ColumnStore, Table};

/// Row ids of `table` satisfying `pred`, ascending.
///
/// This is the pushdown scan: its output is the selection vector the
/// executor's columnar pipeline
/// ([`ColRelation`](crate::colrel::ColRelation)) carries end to end, so a
/// filtered-out row is never touched again after the scan — no row is
/// materialized, not even for hits. Only the columns `pred` references are
/// read. Row ids are `u32` across the selection-vector pipeline
/// ([`Table`]s are capped at `u32::MAX` rows).
pub fn filter_indices(table: &Table, pred: &TypedPred) -> Vec<u32> {
    crate::exec::pred::select_rows(pred, table.len(), |c| (table.column(c), None))
}

/// Positions satisfying `pred` among the rows of `columns` (input column
/// `c` is `columns[c]`, and all of them have the same length) that `rows`
/// lists, ascending: position `i` stands for stored row `rows[i]`. With no
/// `rows`, every stored row is read and positions are row ids.
///
/// The same word-at-a-time kernel as [`filter_indices`], over stores the
/// caller holds rather than a table's: the instance graph's node types
/// keep their attributes as [`ColumnStore`]s, and a node filter selects
/// over them with this.
pub fn select_rows(pred: &TypedPred, columns: &[ColumnStore], rows: Option<&[u32]>) -> Vec<u32> {
    let n_rows = rows.map_or_else(|| columns.first().map_or(0, ColumnStore::len), <[u32]>::len);
    crate::exec::pred::select_rows(pred, n_rows, |c| (&columns[c], rows))
}

/// A set of row ids under a bound, one bit each: the rows a walk from held
/// rows marks (`exec::join`, the foreign-key tree pass), read back in
/// ascending order, or a node type's rows a pattern node matches.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bits(Vec<u64>);

impl Bits {
    /// The empty set of rows `0..n`.
    pub fn new(n: usize) -> Self {
        Bits(vec![0; n.div_ceil(64)])
    }

    /// The set of all rows `0..n`.
    pub fn all(n: usize) -> Self {
        let mut words = vec![!0; n.div_ceil(64)];
        if let Some(last) = words.last_mut().filter(|_| !n.is_multiple_of(64)) {
            *last = (1 << (n % 64)) - 1;
        }
        Bits(words)
    }

    /// Raises the bound to at least `n` rows, the new ones not in the set.
    pub fn grow(&mut self, n: usize) {
        self.0.resize(self.0.len().max(n.div_ceil(64)), 0);
    }

    /// Adds row `r`, which lies under the bound.
    #[inline]
    pub fn set(&mut self, r: u32) {
        self.0[r as usize / 64] |= 1 << (r % 64);
    }

    /// Removes row `r`, which lies under the bound.
    #[inline]
    pub fn unset(&mut self, r: u32) {
        self.0[r as usize / 64] &= !(1 << (r % 64));
    }

    /// Whether row `r` is in the set; a row past the bound is not.
    #[inline]
    pub fn contains(&self, r: u32) -> bool {
        let word = self.0.get(r as usize / 64);
        word.is_some_and(|w| (w >> (r % 64)) & 1 == 1)
    }

    /// Number of rows in the set.
    pub fn count(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Calls `f` with every row in the set, ascending, in one tight loop
    /// per word (a pass over many rows wants it so).
    #[inline]
    pub fn each(&self, mut f: impl FnMut(u32)) {
        for (&word, w) in self.0.iter().zip(0u32..) {
            let mut rest = word;
            while rest != 0 {
                f(w * 64 + rest.trailing_zeros());
                rest &= rest - 1;
            }
        }
    }

    /// The rows in the set, ascending.
    pub fn rows(&self) -> Vec<u32> {
        let mut rows = Vec::with_capacity(self.count());
        self.each(|r| rows.push(r));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::relation::Relation;
    use crate::schema::{Column, TableSchema};
    use crate::sql::analyze::tests::where_pred;
    use crate::value::{DataType, Value};

    /// A row set reads back what was put in it, ascending, at and around
    /// word edges; a row past the bound is never in it, and `all` marks
    /// exactly `0..n`.
    #[test]
    fn bits_read_back_their_rows() {
        for n in [0usize, 1, 63, 64, 65, 130] {
            let all = Bits::all(n);
            assert_eq!(all.count(), n);
            assert_eq!(all.rows(), (0..n as u32).collect::<Vec<_>>(), "{n}");
            assert!(!all.contains(n as u32) && !all.contains(u32::MAX));
            let mut some = Bits::new(n);
            let want: Vec<u32> = (1..n as u32).filter(|r| r % 3 != 1).collect();
            (0..n as u32)
                .filter(|r| r % 3 != 1)
                .for_each(|r| some.set(r));
            if n > 0 {
                some.unset(0);
            }
            assert_eq!(some.rows(), want, "{n}");
            let mut each = Vec::new();
            some.each(|r| each.push(r));
            assert_eq!((each, some.count()), (want.clone(), want.len()), "{n}");
            some.grow(n + 70);
            assert_eq!(some.rows(), want, "{n}");
            some.set(n as u32 + 69);
            assert!(some.contains(n as u32 + 69));
        }
    }

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

    fn pred(t: &Table, w: &str) -> TypedPred {
        where_pred(&Relation::table_columns(t, "S"), w).unwrap()
    }

    #[test]
    fn word_kernel_matches_row_by_row_filter() {
        let t = table(3 * 2048 + 17);
        let pred = pred(&t, "v >= 5");
        let mut seq = Vec::new();
        for (i, row) in t.iter_rows().enumerate() {
            if pred.expr().matches(&row).unwrap() {
                seq.push(i as u32);
            }
        }
        assert_eq!(filter_indices(&t, &pred), seq);
    }

    #[test]
    fn error_reporting_is_deterministic() {
        // `v LIKE` over an INT column is refused by typing with one error
        // whatever rows the table holds, an empty table included, and
        // before any row is read or deleted.
        for n in [0, 4 * 2048] {
            let t = table(n);
            let mut db = Database::new();
            db.create_table(t.schema().clone()).unwrap();
            db.append_rows("S", t.to_rows()).unwrap();
            let err = crate::sql::execute(&mut db, "DELETE FROM S WHERE v LIKE 'a%'");
            assert_eq!(
                err.unwrap_err().to_string(),
                "analysis error: LIKE requires a TEXT operand, got `v` (INT)"
            );
            assert_eq!(db.table("S").unwrap().len(), n);
        }
    }

    #[test]
    fn partial_word_keeps_only_live_rows() {
        let t = table(10);
        assert_eq!(filter_indices(&t, &pred(&t, "id < 5")), vec![0, 1, 2, 3, 4]);
        assert_eq!(filter_indices(&t, &pred(&t, "id >= 0")).len(), 10);
    }
}
