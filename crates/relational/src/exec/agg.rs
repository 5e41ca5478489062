//! Grouped aggregation — its one home.
//!
//! Everything the engine knows about GROUP BY and aggregates lives here:
//! the aggregate vocabulary ([`AggFunc`], [`AggSpec`]), the *group-id
//! pass* that turns key columns into dense group ids (`KeyShape` names
//! how each key column is hashed), the per-aggregate *sweeps* that fold
//! one input column into one state vector indexed by group id, and the
//! [`ColRelation::group_by`] driver that runs both straight off the column
//! slices through the row-id vectors — no input row is ever materialized,
//! and the result stays column-major ([`ColumnBatch`]) until the tail has
//! decided which groups survive. The naive oracle ([`crate::sql::naive`])
//! shares the vocabulary and nothing else.
//!
//! Grouping is one sequential pass on the calling thread, like every
//! other kernel: at 38 000 papers the hash pass costs 0.1–0.8 ms, and
//! splitting it across two workers measured slower (DESIGN.md,
//! "Vectorized grouping"). Float SUM/AVG therefore fold in row order.

use crate::colrel::{ColRelation, RowIds};
use crate::exec::hash::KeyHashBuilder;
use crate::relation::{ColumnBatch, RelColumn};
use crate::table::{ColumnData, ColumnStore};
use crate::value::{DataType, SortCell, Value};
use crate::{Error, Result};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::Hash;

/// Aggregate functions supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// COUNT(col) or COUNT(*) when input is None.
    Count,
    /// SUM(col).
    Sum,
    /// AVG(col).
    Avg,
    /// MIN(col).
    Min,
    /// MAX(col).
    Max,
}

impl AggFunc {
    /// The function's SQL spelling.
    pub(crate) fn sql_name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// An aggregate over an input column.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// Which aggregate.
    pub func: AggFunc,
    /// Input column position; `None` means `COUNT(*)`.
    pub input: Option<usize>,
    /// Name of the output column.
    pub output_name: String,
}

impl AggSpec {
    /// Builds a spec.
    pub fn new(func: AggFunc, input: Option<usize>, output_name: impl Into<String>) -> Self {
        AggSpec {
            func,
            input,
            output_name: output_name.into(),
        }
    }

    /// `COUNT(*)` spec.
    pub fn count_star(output_name: impl Into<String>) -> Self {
        Self::new(AggFunc::Count, None, output_name)
    }
}

/// How the group-id pass hashes one GROUP BY key column — the same key
/// discipline as [`ColRelation::hash_join`]. EXPLAIN prints it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KeyShape {
    /// An `INT` column: the `i64` column word.
    IntWord,
    /// A `TEXT` column: the interned symbol id (equal strings hold equal
    /// ids).
    TextWord,
    /// `FLOAT` / `BOOL` columns: [`Value`] keys, whose equality and hash
    /// fold `Int(2)` and `Float(2.0)` into one group.
    Values,
}

impl std::fmt::Display for KeyShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            KeyShape::IntWord => "INT word",
            KeyShape::TextWord => "TEXT word",
            KeyShape::Values => "value keys",
        })
    }
}

/// The output of the group-id pass: every input row's dense group id, and
/// each group's first input row. Ids are handed out in first-occurrence
/// order, so `first_rows` is ascending and indexing by group id *is*
/// first-occurrence order.
struct GroupIds {
    gids: Vec<u32>,
    first_rows: Vec<u32>,
}

/// Not-yet-assigned marker in the group index. Never a real id: a relation
/// holds at most `u32::MAX` rows, so ids stop at `u32::MAX - 1`.
const UNASSIGNED: u32 = u32::MAX;

/// The group-id pass over `n` rows: `key(r)` is row `r`'s key word, `None`
/// for NULL — which is a group of its own (SQL groups NULLs together).
fn assign_gids<K: Hash + Eq>(n: usize, key: impl Fn(usize) -> Option<K>) -> GroupIds {
    let mut index: HashMap<K, u32, KeyHashBuilder> =
        HashMap::with_capacity_and_hasher(n, KeyHashBuilder::default());
    let mut null_gid = UNASSIGNED;
    let mut first_rows: Vec<u32> = Vec::new();
    let gids = (0..n)
        .map(|r| {
            let slot = match key(r) {
                Some(k) => index.entry(k).or_insert(UNASSIGNED),
                None => &mut null_gid,
            };
            if *slot == UNASSIGNED {
                *slot = first_rows.len() as u32;
                first_rows.push(r as u32);
            }
            *slot
        })
        .collect();
    GroupIds { gids, first_rows }
}

/// The output columns of a grouped aggregation: the group-key columns (in
/// `group_cols` order) followed by one column per aggregate.
fn group_output_columns(
    in_columns: &[RelColumn],
    group_cols: &[usize],
    aggs: &[AggSpec],
) -> Vec<RelColumn> {
    let mut columns: Vec<RelColumn> = group_cols.iter().map(|&i| in_columns[i].clone()).collect();
    for spec in aggs {
        let ty = match spec.func {
            AggFunc::Count => DataType::Int,
            AggFunc::Avg => DataType::Float,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => spec
                .input
                .map(|c| in_columns[c].data_type)
                .unwrap_or(DataType::Int),
        };
        columns.push(RelColumn::bare(spec.output_name.clone(), ty));
    }
    columns
}

impl ColRelation<'_> {
    /// How [`ColRelation::group_by`] hashes key column `col`.
    pub(crate) fn key_shape(&self, col: usize) -> KeyShape {
        match self.col_source(col).0.data() {
            ColumnData::Int(_) => KeyShape::IntWord,
            ColumnData::Sym(_) => KeyShape::TextWord,
            ColumnData::Float(_) | ColumnData::Bool(_) => KeyShape::Values,
        }
    }

    /// The group-id pass for a single key column, reading key words
    /// straight off the column slice through the row-id vector.
    fn column_gids(&self, col: usize) -> GroupIds {
        let (store, ids) = self.col_source(col);
        let row = |r: usize| Some(ids.get(r)).filter(|&t| !store.is_null(t));
        match store.data() {
            ColumnData::Int(v) => assign_gids(self.len(), |r| row(r).map(|t| v[t])),
            ColumnData::Sym(v) => assign_gids(self.len(), |r| row(r).map(|t| v[t].id())),
            ColumnData::Float(_) | ColumnData::Bool(_) => {
                assign_gids(self.len(), |r| row(r).map(|t| store.get(t)))
            }
        }
    }

    /// The group-id pass for the whole key. A multi-column key folds its
    /// columns left to right: two rows share a group iff they share the
    /// group so far *and* the next column's group, so each step hashes one
    /// `u64` of two dense ids — no row-wide key is ever built. No key at
    /// all is the single implicit group of a global aggregate, present
    /// even over empty input (its first row is never read: there is no
    /// key column to read it for).
    fn group_ids(&self, group_cols: &[usize]) -> GroupIds {
        let Some((&first, rest)) = group_cols.split_first() else {
            return GroupIds {
                gids: vec![0; self.len()],
                first_rows: vec![0],
            };
        };
        rest.iter().fold(self.column_gids(first), |so_far, &col| {
            let next = self.column_gids(col);
            assign_gids(self.len(), |r| {
                Some(u64::from(so_far.gids[r]) << 32 | u64::from(next.gids[r]))
            })
        })
    }

    /// GROUP BY + aggregates straight off the selection vectors. A
    /// *group-id pass* hashes the key columns' words into dense ids (see
    /// `KeyShape`; NULL is its own group); then every aggregate is one
    /// sweep of its input column into a state vector indexed by group id.
    /// `group_cols` are the grouping key positions; each aggregate
    /// consumes an input column (or `None` for `COUNT(*)`). The result is
    /// column-major — the group keys (each group's first-occurrence cell)
    /// followed by one column per aggregate — with groups in
    /// first-occurrence order.
    pub fn group_by(&self, group_cols: &[usize], aggs: &[AggSpec]) -> Result<ColumnBatch> {
        let GroupIds { gids, first_rows } = self.group_ids(group_cols);
        let n_groups = first_rows.len();
        let mut data: Vec<Vec<Value>> = Vec::with_capacity(group_cols.len() + aggs.len());
        for &c in group_cols {
            let (store, ids) = self.col_source(c);
            data.push(
                first_rows
                    .iter()
                    .map(|&r| store.get(ids.get(r as usize)))
                    .collect(),
            );
        }
        for spec in aggs {
            let input = spec.input.map(|c| self.col_source(c));
            data.push(aggregate(spec.func, input, &gids, n_groups)?);
        }
        let columns = group_output_columns(self.columns(), group_cols, aggs);
        Ok(ColumnBatch::new(columns, data, n_groups))
    }
}

/// One aggregate's sweep: folds `input` (row `r` belongs to group
/// `gids[r]`) into a state vector indexed by group id, in row order, and
/// finishes it into the aggregate's output column. Only `COUNT(*)` has no
/// input column.
fn aggregate(
    func: AggFunc,
    input: Option<(&ColumnStore, &RowIds)>,
    gids: &[u32],
    n_groups: usize,
) -> Result<Vec<Value>> {
    let Some((store, ids)) = input else {
        if func != AggFunc::Count {
            return Err(Error::Eval(format!(
                "{} needs an input column",
                func.sql_name()
            )));
        }
        return Ok(count_per_group(gids.iter().map(|&g| g as usize), n_groups));
    };
    // NULL inputs are skipped by every aggregate.
    let cells = gids
        .iter()
        .enumerate()
        .map(|(r, &g)| (g as usize, store.get(ids.get(r))))
        .filter(|(_, v)| !v.is_null());
    Ok(match func {
        AggFunc::Count => count_per_group(cells.map(|(g, _)| g), n_groups),
        AggFunc::Sum | AggFunc::Avg => {
            let mut accs = vec![NumAcc::default(); n_groups];
            for (g, v) in cells {
                accs[g].add(v, func)?;
            }
            accs.iter().map(|acc| acc.finish(func)).collect()
        }
        AggFunc::Min | AggFunc::Max => {
            // The running best is a rank-decorated cell, so text
            // candidates compare by dictionary rank, never through the
            // arena lock; one snapshot covers the whole sweep.
            let ranks = crate::intern::rank_map();
            let want = if func == AggFunc::Min {
                Ordering::Less
            } else {
                Ordering::Greater
            };
            let mut best: Vec<Option<SortCell>> = vec![None; n_groups];
            for (g, v) in cells {
                let cand = SortCell::new(v, &ranks);
                // Ties keep the incumbent: the earlier row's cell survives.
                if best[g].is_none_or(|b| SortCell::total_cmp(cand, b) == want) {
                    best[g] = Some(cand);
                }
            }
            best.into_iter()
                .map(|b| b.map_or(Value::Null, SortCell::value))
                .collect()
        }
    })
}

/// COUNT: how often each group id occurs in `groups`.
fn count_per_group(groups: impl Iterator<Item = usize>, n_groups: usize) -> Vec<Value> {
    let mut counts = vec![0i64; n_groups];
    for g in groups {
        counts[g] += 1;
    }
    counts.into_iter().map(Value::Int).collect()
}

/// The running total behind SUM and AVG: **integer inputs in an exact
/// `i128` accumulator** and only float inputs in the `f64` accumulator,
/// which sums in row order.
#[derive(Debug, Default, Clone)]
struct NumAcc {
    isum: i128,
    fsum: f64,
    /// Non-NULL inputs seen.
    n: i64,
    any_float: bool,
}

impl NumAcc {
    /// Adds one non-NULL input; `func` names the aggregate in the
    /// non-number error.
    fn add(&mut self, val: Value, func: AggFunc) -> Result<()> {
        match val {
            Value::Int(i) => self.isum += i128::from(i),
            _ => {
                self.fsum += val.as_float().ok_or_else(|| {
                    Error::Eval(format!("{} over non-number {val}", func.sql_name()))
                })?;
                self.any_float = true;
            }
        }
        self.n += 1;
        Ok(())
    }

    /// The SUM (an `INT` while every input was one, saturated into the
    /// `i64` value domain) or AVG of what was added; NULL over no input.
    fn finish(&self, func: AggFunc) -> Value {
        let total = || self.isum as f64 + self.fsum;
        match func {
            _ if self.n == 0 => Value::Null,
            AggFunc::Avg => Value::Float(total() / self.n as f64),
            _ if self.any_float => Value::Float(total()),
            _ => Value::Int(clamp_i128(self.isum)),
        }
    }
}

/// Saturates an exact `i128` integer sum into the engine's `i64` value
/// domain.
fn clamp_i128(v: i128) -> i64 {
    i64::try_from(v).unwrap_or(if v < 0 { i64::MIN } else { i64::MAX })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, TableSchema};
    use crate::table::{Row, Table};

    fn table(cols: Vec<Column>, rows: Vec<Row>) -> Table {
        let mut t = Table::new(TableSchema::new("t", cols)).unwrap();
        t.append_rows(rows).unwrap();
        t
    }

    /// Groups `t` and materializes every output column, in group order.
    fn grouped(t: &Table, group_cols: &[usize], aggs: &[AggSpec]) -> Vec<Row> {
        let all: Vec<usize> = (0..group_cols.len() + aggs.len()).collect();
        let batch = ColRelation::from_table(t, "t")
            .group_by(group_cols, aggs)
            .unwrap();
        batch.project(&all).unwrap().rows
    }

    fn sum_of(vals: &[i64]) -> Value {
        let t = table(
            vec![Column::nullable("v", DataType::Int)],
            vals.iter().map(|&v| vec![Value::Int(v)]).collect(),
        );
        grouped(&t, &[], &[AggSpec::new(AggFunc::Sum, Some(0), "s")])[0][0]
    }

    /// Integer sums accumulate exactly in `i128` and saturate (never wrap)
    /// when the total leaves the `i64` value domain.
    #[test]
    fn int_sum_is_exact_and_saturating() {
        assert_eq!(sum_of(&[i64::MAX, i64::MAX, 1]), Value::Int(i64::MAX));
        assert_eq!(sum_of(&[i64::MIN, -1]), Value::Int(i64::MIN));
        // Exact where an `i64` or `f64` running total would not be: the
        // excursion past `i64::MAX` comes back.
        assert_eq!(
            sum_of(&[i64::MAX, i64::MAX, -i64::MAX]),
            Value::Int(i64::MAX)
        );
        assert_eq!(sum_of(&[i64::MAX, 5, -i64::MAX]), Value::Int(5));
    }

    /// Group ids are handed out in first-occurrence order for every key
    /// shape, NULL is a group of its own wherever it first appears, and
    /// each group's key cell is its first row's.
    #[test]
    fn groups_keep_first_occurrence_order() {
        let null = Value::Null;
        let specs = [AggSpec::count_star("n")];
        let t = table(
            vec![
                Column::nullable("i", DataType::Int),
                Column::nullable("s", DataType::Text),
                Column::nullable("f", DataType::Float),
            ],
            vec![
                vec![7.into(), "agg-b".into(), Value::Float(2.0)],
                vec![null, null, null],
                vec![3.into(), "agg-a".into(), Value::Int(2)],
                vec![7.into(), "agg-b".into(), Value::Float(0.5)],
                vec![null, null, null],
                vec![5.into(), "agg-a".into(), Value::Float(2.0)],
            ],
        );
        let rel = ColRelation::from_table(&t, "t");
        assert_eq!(rel.key_shape(0), KeyShape::IntWord);
        assert_eq!(
            grouped(&t, &[0], &specs),
            vec![
                vec![7.into(), 2.into()],
                vec![null, 2.into()],
                vec![3.into(), 1.into()],
                vec![5.into(), 1.into()],
            ]
        );
        assert_eq!(rel.key_shape(1), KeyShape::TextWord);
        assert_eq!(
            grouped(&t, &[1], &specs),
            vec![
                vec!["agg-b".into(), 2.into()],
                vec![null, 2.into()],
                vec!["agg-a".into(), 2.into()],
            ]
        );
        // A FLOAT column stores a widened INT insert as a float, and value
        // keys would fold `Int(2)` into `Float(2.0)` regardless.
        assert_eq!(rel.key_shape(2), KeyShape::Values);
        assert_eq!(
            grouped(&t, &[2], &specs),
            vec![
                vec![Value::Float(2.0), 3.into()],
                vec![null, 2.into()],
                vec![Value::Float(0.5), 1.into()],
            ]
        );
        // Multi-column keys fold the per-column ids: (7, b) (NULL, NULL)
        // (3, a) (5, a) — and (s, i) is the same grouping, key cells
        // swapped.
        let by_is = grouped(&t, &[0, 1], &specs);
        assert_eq!(by_is.len(), 4);
        assert_eq!(by_is[1], vec![null, null, 2.into()]);
        assert_eq!(by_is[3], vec![5.into(), "agg-a".into(), 1.into()]);
        let by_si = grouped(&t, &[1, 0], &specs);
        let swapped: Vec<Row> = by_is.iter().map(|r| vec![r[1], r[0], r[2]]).collect();
        assert_eq!(by_si, swapped);
    }

    /// A key-less (global) aggregation is one group — also over empty
    /// input, where COUNT is 0 and every other aggregate NULL.
    #[test]
    fn global_aggregate_over_empty_input_yields_one_group() {
        let specs = [
            AggSpec::count_star("n"),
            AggSpec::new(AggFunc::Count, Some(0), "nv"),
            AggSpec::new(AggFunc::Sum, Some(0), "s"),
            AggSpec::new(AggFunc::Avg, Some(0), "a"),
            AggSpec::new(AggFunc::Min, Some(0), "lo"),
            AggSpec::new(AggFunc::Max, Some(0), "hi"),
        ];
        let cols = vec![Column::nullable("v", DataType::Int)];
        let null = Value::Null;
        assert_eq!(
            grouped(&table(cols.clone(), vec![]), &[], &specs),
            vec![vec![0.into(), 0.into(), null, null, null, null]]
        );
        let rows = vec![vec![41.into()], vec![null], vec![1.into()]];
        assert_eq!(
            grouped(&table(cols.clone(), rows), &[], &specs),
            vec![vec![
                3.into(),
                2.into(),
                42.into(),
                Value::Float(21.0),
                1.into(),
                41.into()
            ]]
        );
        // With a key, empty input has no group at all.
        assert!(grouped(&table(cols, vec![]), &[0], &specs).is_empty());
    }

    /// Only `COUNT(*)` may lack an input column; any other aggregate
    /// without one is a typed error, not a column of NULLs.
    #[test]
    fn aggregate_without_input_is_rejected() {
        let t = table(vec![Column::nullable("v", DataType::Int)], vec![]);
        let rel = ColRelation::from_table(&t, "t");
        let err = rel.group_by(&[], &[AggSpec::new(AggFunc::Sum, None, "s")]);
        assert!(matches!(err, Err(Error::Eval(m)) if m.contains("SUM needs an input")));
    }
}
