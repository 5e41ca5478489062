//! The primary-key index: every row id of a table, in ascending
//! primary-key order.
//!
//! One structure whatever a table's history — built row by row, bulk
//! loaded, or opened from a snapshot, which stores exactly this
//! permutation ([`crate::storage`]). Lookups binary-search it and read the
//! keys out of the table's own columns, which every method takes as
//! `cols`: the index holds no key, only one `u32` per row behind an `Arc`,
//! so cloning a table copies a pointer. [`crate::table::Table`] owns both
//! and keeps them in step.
//!
//! The order is [`Value::total_cmp`]'s, column by column — `-0.0` and
//! `0.0` are one key ([`float_total_cmp`]) — and the two functions at the
//! bottom of this file are the only comparisons of primary keys in the
//! crate.

use crate::intern::Sym;
use crate::schema::TableSchema;
use crate::table::{ColumnData, ColumnStore};
use crate::value::{float_total_cmp, Value};
use crate::{Error, Result};
use std::cmp::Ordering;
use std::sync::Arc;

/// Row ids in ascending primary-key order. Empty, and never consulted,
/// for a table without a primary key.
#[derive(Debug, Clone)]
pub(crate) struct PkOrder {
    /// Positions of the PK columns (cached from the schema).
    pk_cols: Vec<usize>,
    order: Arc<Vec<u32>>,
}

impl PkOrder {
    /// The index of a table of `rows` rows around the order a snapshot
    /// stores for it (`stored`; empty is the format's shorthand for "rows
    /// are already ascending", see [`crate::storage::format::encode_table`],
    /// and all there is for a new, empty table). Nothing about `stored` is
    /// trusted: it must list every row of `cols` exactly once with the
    /// keys **strictly** ascending — strictness is the uniqueness proof, a
    /// duplicate key and a repeated entry both surface as a non-ascending
    /// adjacent pair.
    pub(crate) fn from_stored(
        schema: &TableSchema,
        cols: &[ColumnStore],
        rows: usize,
        stored: Vec<u32>,
    ) -> Result<Self> {
        let pk_cols = schema.primary_key_indices()?;
        if pk_cols.is_empty() && !stored.is_empty() {
            return Err(Error::Storage(
                "pk order present but the table has no primary key".into(),
            ));
        }
        // Without a primary key no row is indexed.
        let rows = if pk_cols.is_empty() { 0 } else { rows };
        let order = if stored.is_empty() {
            (0..rows as u32).collect()
        } else {
            stored
        };
        if order.len() != rows {
            return Err(Error::Storage(format!(
                "pk order lists {} rows, table has {rows}",
                order.len()
            )));
        }
        if let Some(idx) = order.iter().find(|&&r| r as usize >= rows) {
            return Err(Error::Storage(format!(
                "pk-order entry {idx} out of range for {rows} rows"
            )));
        }
        if let Some(i) =
            (1..rows).find(|&i| cmp_rows(&pk_cols, cols, order[i - 1], order[i]).is_ge())
        {
            return Err(Error::Storage(format!(
                "pk order is not strictly ascending at position {i} \
                 (table `{}`: duplicate or misordered primary key)",
                schema.name
            )));
        }
        Ok(PkOrder {
            pk_cols,
            order: Arc::new(order),
        })
    }

    /// Every row id, in ascending primary-key order.
    pub(crate) fn order(&self) -> &[u32] {
        &self.order
    }

    /// Positions of the PK columns in the table's schema.
    pub(crate) fn pk_cols(&self) -> &[usize] {
        &self.pk_cols
    }

    /// Where `key` sits in the order: `Ok` of the position holding it,
    /// `Err` of the position it would be inserted at.
    fn search(&self, cols: &[ColumnStore], key: &[Value]) -> std::result::Result<usize, usize> {
        self.order
            .binary_search_by(|&r| cmp_row_key(&self.pk_cols, cols, r, key))
    }

    /// Id of the row holding `key`.
    pub(crate) fn lookup(&self, cols: &[ColumnStore], key: &[Value]) -> Option<usize> {
        if key.len() != self.pk_cols.len() {
            return None;
        }
        let pos = self.search(cols, key).ok()?;
        Some(self.order[pos] as usize)
    }

    /// Registers `id` — the row about to be appended to `cols`, holding the
    /// values `row` — or refuses with the key when a row already holds it:
    /// the probe that finds the slot is the duplicate check.
    pub(crate) fn insert(
        &mut self,
        cols: &[ColumnStore],
        row: &[Value],
        id: u32,
    ) -> std::result::Result<(), Vec<Value>> {
        if self.pk_cols.is_empty() {
            return Ok(());
        }
        let key: Vec<Value> = self.pk_cols.iter().map(|&c| row[c]).collect();
        match self.search(cols, &key) {
            Ok(_) => Err(key),
            Err(pos) => {
                Arc::make_mut(&mut self.order).insert(pos, id);
                Ok(())
            }
        }
    }

    /// Brings the index back in step with `cols` after rows were appended
    /// (ids from the ones already held up to `rows` join) or PK cells were
    /// overwritten: one stable sort, which merges what is still in order
    /// instead of starting over. Returns the lowest row id whose key a
    /// lower-numbered row also holds — the row a row-at-a-time load would
    /// have refused first.
    pub(crate) fn resort(&mut self, cols: &[ColumnStore], rows: usize) -> Option<usize> {
        if self.pk_cols.is_empty() {
            return None;
        }
        let (pk, order) = (&self.pk_cols, Arc::make_mut(&mut self.order));
        order.extend(order.len() as u32..rows as u32);
        order.sort_by(|&a, &b| cmp_rows(pk, cols, a, b).then(a.cmp(&b)));
        order
            .windows(2)
            .filter(|w| cmp_rows(pk, cols, w[0], w[1]).is_eq())
            .map(|w| w[1] as usize)
            .min()
    }

    /// Drops the ids `doomed` (ascending) and renumbers the rest to where
    /// deleting those rows from the columns moves theirs.
    pub(crate) fn remove(&mut self, doomed: &[u32]) {
        Arc::make_mut(&mut self.order).retain_mut(|r| match doomed.binary_search(r) {
            Ok(_) => false,
            Err(below) => {
                *r -= below as u32;
                true
            }
        });
    }
}

/// Orders rows `a` and `b` of `cols` by the primary key `pk` names, over
/// the typed column bodies: exactly [`Value::total_cmp`] of the two cells
/// (NULL first — a table refuses a NULL key, a hostile snapshot may still
/// carry one), column by column.
fn cmp_rows(pk: &[usize], cols: &[ColumnStore], a: u32, b: u32) -> Ordering {
    let (a, b) = (a as usize, b as usize);
    for &c in pk {
        let col = &cols[c];
        let o = match (col.is_null(a), col.is_null(b)) {
            (false, false) => match col.data() {
                ColumnData::Int(v) => v[a].cmp(&v[b]),
                ColumnData::Float(v) => float_total_cmp(v[a], v[b]),
                ColumnData::Sym(v) => Sym::cmp_str(v[a], v[b]),
                ColumnData::Bool(v) => v[a].cmp(&v[b]),
            },
            (a_null, b_null) => b_null.cmp(&a_null),
        };
        if o.is_ne() {
            return o;
        }
    }
    Ordering::Equal
}

/// Orders the stored primary key of `row` against `key` (one value per PK
/// column, of any comparable type: an `INT` key finds a `FLOAT` cell).
fn cmp_row_key(pk: &[usize], cols: &[ColumnStore], row: u32, key: &[Value]) -> Ordering {
    pk.iter()
        .zip(key)
        .map(|(&c, k)| cols[c].get(row as usize).total_cmp(k))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::table::Table;
    use crate::value::DataType;

    fn keyed(ty: DataType) -> TableSchema {
        TableSchema::new("K", vec![Column::new("k", ty)]).with_primary_key(&["k"])
    }

    /// The typed row/row comparator, the row/key comparator and
    /// `Value::total_cmp` are one order — signed zeros, NaNs and
    /// infinities included.
    #[test]
    fn comparators_agree_with_value_total_cmp() {
        let floats = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            2.0,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let unkeyed = TableSchema::new("F", vec![Column::new("k", DataType::Float)]);
        let mut t = Table::new(unkeyed).unwrap();
        for f in floats {
            t.insert(vec![Value::Float(f)]).unwrap();
        }
        let cols = [t.column(0).clone()];
        for (i, a) in floats.iter().enumerate() {
            for (j, b) in floats.iter().enumerate() {
                let want = Value::Float(*a).total_cmp(&Value::Float(*b));
                assert_eq!(
                    cmp_rows(&[0], &cols, i as u32, j as u32),
                    want,
                    "{a} vs {b}"
                );
                assert_eq!(
                    cmp_row_key(&[0], &cols, i as u32, &[Value::Float(*b)]),
                    want,
                    "{a} vs key {b}"
                );
            }
        }
        assert!(cmp_row_key(&[0], &cols, 4, &[Value::Int(2)]).is_eq());
    }

    #[test]
    fn stored_order_is_proved_not_trusted() {
        let mut t = Table::new(keyed(DataType::Int)).unwrap();
        for k in [30, 10, 20, 10_000] {
            t.insert(vec![k.into()]).unwrap();
        }
        let cols = [t.column(0).clone()];
        let open = |stored: Vec<u32>| PkOrder::from_stored(t.schema(), &cols, 4, stored);
        assert_eq!(open(vec![1, 2, 0, 3]).unwrap().order(), [1, 2, 0, 3]);
        for (stored, what) in [
            (vec![], "not strictly ascending at position 1"),
            (vec![1, 2, 0], "lists 3 rows"),
            (vec![1, 2, 0, 4], "entry 4 out of range"),
            (vec![1, 2, 2, 3], "not strictly ascending at position 2"),
            (vec![1, 0, 2, 3], "not strictly ascending at position 2"),
        ] {
            let err = open(stored).unwrap_err().to_string();
            assert!(err.contains(what), "{err}");
        }
        let unkeyed = TableSchema::new("U", vec![Column::new("k", DataType::Int)]);
        assert!(PkOrder::from_stored(&unkeyed, &cols, 4, vec![]).is_ok());
        let err = PkOrder::from_stored(&unkeyed, &cols, 4, vec![0, 1, 2, 3]).unwrap_err();
        assert!(err.to_string().contains("no primary key"), "{err}");
    }
}
