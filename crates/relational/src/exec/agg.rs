//! Grouped aggregation — its one home.
//!
//! Everything the engine knows about GROUP BY and aggregates lives here:
//! the aggregate vocabulary ([`AggFunc`], [`AggSpec`]), the *group-id
//! pass* that turns key columns into dense group ids (`KeyShape` names
//! how each key column is hashed), the per-aggregate *sweeps* that fold
//! one input column into one state vector indexed by group id, and the
//! [`ColRelation::group_by`] driver that runs both straight off the column
//! slices through the row-id vectors — no input row is ever materialized.
//! The result is typed column stores, one row per group ([`Grouped`]),
//! which the query tail reads as a one-source [`ColRelation`]: HAVING,
//! ORDER BY and the projection are the ones every SELECT runs. The naive
//! oracle ([`crate::sql::naive`]) shares the vocabulary and nothing else.
//!
//! Grouping is one sequential pass on the calling thread, like every
//! other kernel (splitting it across two workers measured slower;
//! DESIGN.md, "Vectorized grouping"), so float SUM/AVG fold in row order.
//! Integer and text key words whose span is a few slots per row index an
//! array instead of a hash map: `sql/group_highcard` (110 746 rows into
//! 20 671 groups at 38 000 papers) took 1.68 ms through the map and takes
//! 1.03 ms on the array (in process, best of 160 runs each, alternating,
//! on a 2-core VM).

use crate::colrel::{ColRelation, RowIds};
use crate::exec::hash::KeyHashBuilder;
use crate::relation::RelColumn;
use crate::table::{ColumnData, ColumnStore, NullBitmap};
use crate::value::{DataType, SortCell, Value};
use crate::{Error, Result};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

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

/// An aggregate: a function over an input column, or `COUNT(*)` — the
/// only aggregate without one.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// The function and its input column position; `None` is `COUNT(*)`.
    pub call: Option<(AggFunc, usize)>,
    /// Name of the output column.
    pub output_name: String,
}

impl AggSpec {
    /// Builds a spec.
    pub fn new(call: Option<(AggFunc, usize)>, output_name: impl Into<String>) -> Self {
        let output_name = output_name.into();
        AggSpec { call, output_name }
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

/// The output of the group-id pass: every input row's dense group id, and
/// each group's first input row. Ids are handed out in first-occurrence
/// order, so `first_rows` is ascending and indexing by group id *is*
/// first-occurrence order. A keyless aggregate's one group holds every
/// row and `gids` is empty: no per-row id is stored for it.
struct GroupIds {
    gids: Vec<u32>,
    first_rows: Vec<u32>,
}

impl GroupIds {
    /// Row `r`'s group id.
    fn of(&self, r: usize) -> usize {
        self.gids.get(r).map_or(0, |&g| g as usize)
    }
}

/// Not-yet-assigned marker in the group index. Never a real id: a relation
/// holds at most `u32::MAX` rows, so ids stop at `u32::MAX - 1`.
const UNASSIGNED: u32 = u32::MAX;

/// The dense pass's bound: key words may span this many array slots per
/// row (plus [`DENSE_SLACK`]) before the pass hashes instead.
const DENSE_SLOTS_PER_ROW: i128 = 4;

/// Slots the dense pass may always take, whatever the row count.
const DENSE_SLACK: i128 = 1024;

/// Hands out group ids in first-occurrence order over `n` rows: `gid(r,
/// fresh)` returns row `r`'s group id, or takes `fresh` for a new group.
fn number_groups(n: usize, mut gid: impl FnMut(usize, u32) -> u32) -> GroupIds {
    let mut first_rows: Vec<u32> = Vec::new();
    let gids = (0..n)
        .map(|r| {
            let fresh = first_rows.len() as u32;
            let g = gid(r, fresh);
            if g == fresh {
                first_rows.push(r as u32);
            }
            g
        })
        .collect();
    GroupIds { gids, first_rows }
}

/// The group id in an index slot: the one it holds, or `fresh`, which it
/// now holds.
fn claim(slot: &mut u32, fresh: u32) -> u32 {
    if *slot == UNASSIGNED {
        *slot = fresh;
    }
    *slot
}

/// The group-id pass over `n` rows: `key(r)` is row `r`'s key, `None`
/// for NULL — which is a group of its own (SQL groups NULLs together).
/// Keys go through a hash map that grows with the groups found.
fn assign_gids<K: Hash + Eq>(n: usize, key: impl Fn(usize) -> Option<K>) -> GroupIds {
    let mut index: HashMap<K, u32, KeyHashBuilder> = HashMap::default();
    let (mut null_gid, mut hashed) = (UNASSIGNED, 0);
    let ids = number_groups(n, |r, fresh| {
        let slot = match key(r) {
            Some(k) => {
                hashed += 1;
                index.entry(k).or_insert(UNASSIGNED)
            }
            None => &mut null_gid,
        };
        claim(slot, fresh)
    });
    crate::work::count(|w| w.keys_hashed += hashed);
    ids
}

/// [`assign_gids`] over integer key words: when the words span at most a
/// few slots per row, an array indexed by each word's offset from the
/// least one stands in for the hash map. Same ids, same order. `bound`
/// yields every word `key` can return, and maybe more.
fn word_gids<K>(
    n: usize,
    bound: impl Iterator<Item = K>,
    key: impl Fn(usize) -> Option<K>,
) -> GroupIds
where
    K: Hash + Eq + Copy + Into<i128>,
{
    // In `i128`, no span of `i64` or `u64` words overflows.
    let (lo, hi) =
        (bound.map(K::into)).fold((i128::MAX, i128::MIN), |(lo, hi), k| (lo.min(k), hi.max(k)));
    // Every key NULL (or no row): no slot at all.
    let span = if lo > hi { 0 } else { hi - lo + 1 };
    if span > DENSE_SLOTS_PER_ROW * n as i128 + DENSE_SLACK {
        return assign_gids(n, key);
    }
    let mut slots = vec![UNASSIGNED; span as usize];
    let mut null_gid = UNASSIGNED;
    number_groups(n, |r, fresh| {
        let slot = match key(r) {
            Some(k) => &mut slots[(k.into() - lo) as usize],
            None => &mut null_gid,
        };
        claim(slot, fresh)
    })
}

/// [`word_gids`] over the words of a column `body`, row `r` reading
/// `row(r)` (`None`: NULL). A relation that reads at least as many rows
/// as the body holds bounds them by the whole body, in one pass that
/// never reads through the row ids.
fn body_gids<T: Copy, K>(
    n: usize,
    body: &[T],
    word: impl Fn(T) -> K,
    row: impl Fn(usize) -> Option<usize>,
) -> GroupIds
where
    K: Hash + Eq + Copy + Into<i128>,
{
    let key = |r: usize| row(r).map(|t| word(body[t]));
    if n >= body.len() {
        word_gids(n, body.iter().map(|&b| word(b)), key)
    } else {
        word_gids(n, (0..n).filter_map(key), key)
    }
}

/// What [`ColRelation::group_by`] emits: one typed store per output column
/// — the group keys (in `group_cols` order), then one per aggregate — each
/// holding one row per group, in first-occurrence order.
#[derive(Debug, Clone)]
pub struct Grouped {
    /// The output columns; aggregates are bare columns named by their
    /// spec's `output_name`.
    pub columns: Vec<RelColumn>,
    /// One store per output column, `len` rows each.
    pub stores: Vec<ColumnStore>,
    /// Number of groups.
    pub len: usize,
}

impl Grouped {
    /// The groups as a one-source relation over their stores, in group
    /// order.
    pub fn relation(&self) -> ColRelation<'_> {
        let (columns, ids) = (self.columns.clone(), RowIds::Identity);
        ColRelation::from_columns(columns, &self.stores, self.len, ids)
    }
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
        let ty = match spec.call {
            None | Some((AggFunc::Count, _)) => DataType::Int,
            Some((AggFunc::Avg, _)) => DataType::Float,
            Some((AggFunc::Sum | AggFunc::Min | AggFunc::Max, c)) => in_columns[c].data_type,
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
            ColumnData::Int(v) => body_gids(self.len(), v, |w| w, row),
            ColumnData::Sym(v) => body_gids(self.len(), v, |s| s.id(), row),
            ColumnData::Float(_) | ColumnData::Bool(_) => {
                assign_gids(self.len(), |r| row(r).map(|t| store.get(t)))
            }
        }
    }

    /// The group-id pass for the whole key. A multi-column key folds its
    /// columns left to right: two rows share a group iff they share the
    /// group so far *and* the next column's group, so each step numbers
    /// one word of two dense ids — no row-wide key is ever built. No key
    /// at all is the single implicit group of a global aggregate, present
    /// even over empty input (its first row is never read: there is no
    /// key column to read it for).
    fn group_ids(&self, group_cols: &[usize]) -> GroupIds {
        let Some((&first, rest)) = group_cols.split_first() else {
            return GroupIds {
                gids: Vec::new(),
                first_rows: vec![0],
            };
        };
        rest.iter().fold(self.column_gids(first), |so_far, &col| {
            let next = self.column_gids(col);
            let width = next.first_rows.len() as u64;
            let key = |r: usize| Some(u64::from(so_far.gids[r]) * width + u64::from(next.gids[r]));
            word_gids(self.len(), (0..self.len()).filter_map(key), key)
        })
    }

    /// GROUP BY + aggregates straight off the selection vectors. A
    /// *group-id pass* hashes the key columns' words into dense ids (see
    /// `KeyShape`; NULL is its own group); then every aggregate is one
    /// sweep of its input column into a state vector indexed by group id.
    /// `group_cols` are the grouping key positions; each aggregate but
    /// `COUNT(*)` consumes an input column. Each key column
    /// is gathered word for word at its groups' first rows; each aggregate
    /// fills a store of the type `group_output_columns` gives it, NULL
    /// results as null bits.
    pub fn group_by(&self, group_cols: &[usize], aggs: &[AggSpec]) -> Result<Grouped> {
        self.group_weighed(group_cols, aggs, None)
    }

    /// [`ColRelation::group_by`] over rows that each stand for `weights[r]`
    /// rows (`None`: one each) — the foreign-key tree pass's root rows,
    /// each weighing the join results it takes part in (`exec::tree`).
    /// COUNT adds the weights; MIN and MAX ignore them. SUM and AVG never
    /// run weighed (the tree pass refuses them).
    pub(crate) fn group_weighed(
        &self,
        group_cols: &[usize],
        aggs: &[AggSpec],
        weights: Option<&[u32]>,
    ) -> Result<Grouped> {
        debug_assert!(weights.is_none_or(|w| w.len() == self.len()));
        let gids = self.group_ids(group_cols);
        let (first_rows, len) = (&gids.first_rows, gids.first_rows.len());
        let columns = group_output_columns(self.columns(), group_cols, aggs);
        let mut stores = Vec::with_capacity(columns.len());
        for &c in group_cols {
            let (store, ids) = self.col_source(c);
            stores.push(store.gather(first_rows.iter().map(|&r| ids.get(r as usize))));
        }
        for (spec, col) in aggs.iter().zip(&columns[group_cols.len()..]) {
            stores.push(match spec.call {
                // A global COUNT(*) of unweighed rows is the row count.
                None if group_cols.is_empty() && weights.is_none() => {
                    count_per_group([(0, self.len() as i64)].into_iter(), 1)
                }
                None => count_per_group(
                    (0..self.len()).map(|r| (gids.of(r), weight(weights, r))),
                    len,
                ),
                Some((func, c)) => {
                    debug_assert!(
                        weights.is_none() || !matches!(func, AggFunc::Sum | AggFunc::Avg)
                    );
                    let input = (self.col_source(c), self.len());
                    aggregate(func, input, (&gids, weights), len, col.data_type)?
                }
            });
        }
        Ok(Grouped {
            columns,
            stores,
            len,
        })
    }
}

/// One aggregate's sweep: folds the `n` rows of the input column `store`,
/// read through `ids` (row `r` belongs to group `gids.of(r)` and weighs
/// `weights[r]`, which only COUNT reads), into a state vector indexed by
/// group id, in row order, and finishes it into the aggregate's output
/// column, of type `ty`.
fn aggregate(
    func: AggFunc,
    ((store, ids), n): ((&ColumnStore, &RowIds), usize),
    (gids, weights): (&GroupIds, Option<&[u32]>),
    n_groups: usize,
    ty: DataType,
) -> Result<ColumnStore> {
    // NULL inputs are skipped by every aggregate.
    let cells = (0..n)
        .map(|r| (r, gids.of(r), store.get(ids.get(r))))
        .filter(|(_, _, v)| !v.is_null());
    Ok(match func {
        AggFunc::Count => count_per_group(cells.map(|(r, g, _)| (g, weight(weights, r))), n_groups),
        AggFunc::Sum | AggFunc::Avg => {
            let mut accs = vec![NumAcc::default(); n_groups];
            for (_, g, v) in cells {
                accs[g].add(v, func)?;
            }
            ColumnStore::from_values(ty, accs.iter().map(|acc| acc.finish(func)))?
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
            for (_, g, v) in cells {
                let cand = SortCell::new(v, &ranks);
                // Ties keep the incumbent: the earlier row's cell survives.
                if best[g].is_none_or(|b| SortCell::total_cmp(cand, b) == want) {
                    best[g] = Some(cand);
                }
            }
            let best = best
                .into_iter()
                .map(|b| b.map_or(Value::Null, SortCell::value));
            ColumnStore::from_values(ty, best)?
        }
    })
}

/// Row `r`'s weight: `weights[r]`, or 1 when rows are unweighed.
fn weight(weights: Option<&[u32]>, r: usize) -> i64 {
    weights.map_or(1, |w| i64::from(w[r]))
}

/// COUNT: the weights each group id occurs with in `groups`, summed
/// straight into an `INT` body (a count is never NULL).
fn count_per_group(groups: impl Iterator<Item = (usize, i64)>, n_groups: usize) -> ColumnStore {
    let mut counts = vec![0i64; n_groups];
    for (g, w) in groups {
        counts[g] += w;
    }
    let body = ColumnData::Int(Arc::new(counts));
    ColumnStore::from_parts(body, NullBitmap::default(), n_groups)
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
    use crate::colrel::Pick;
    use crate::schema::{Column, TableSchema};
    use crate::table::{Row, Table};

    fn table(cols: Vec<Column>, rows: Vec<Row>) -> Table {
        let mut t = Table::new(TableSchema::new("t", cols)).unwrap();
        t.append_rows(rows).unwrap();
        t
    }

    /// Groups `t` and materializes every output column, in group order.
    fn grouped(t: &Table, group_cols: &[usize], aggs: &[AggSpec]) -> Vec<Row> {
        let g = ColRelation::from_table(t, "t")
            .group_by(group_cols, aggs)
            .unwrap();
        let picks: Vec<Pick> = (0..g.columns.len()).map(Pick::Col).collect();
        g.relation()
            .project(g.columns.clone(), &picks, None)
            .rows
            .iter()
            .collect()
    }

    fn sum_of(vals: &[i64]) -> Value {
        let t = table(
            vec![Column::nullable("v", DataType::Int)],
            vals.iter().map(|&v| vec![Value::Int(v)]).collect(),
        );
        grouped(&t, &[], &[AggSpec::new(Some((AggFunc::Sum, 0)), "s")])[0][0]
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
        let specs = [AggSpec::new(None, "n")];
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
            AggSpec::new(None, "n"),
            AggSpec::new(Some((AggFunc::Count, 0)), "nv"),
            AggSpec::new(Some((AggFunc::Sum, 0)), "s"),
            AggSpec::new(Some((AggFunc::Avg, 0)), "a"),
            AggSpec::new(Some((AggFunc::Min, 0)), "lo"),
            AggSpec::new(Some((AggFunc::Max, 0)), "hi"),
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

    /// Grouped output is typed stores: every body has the type its output
    /// column declares, and a NULL key or aggregate result is a null bit —
    /// in a NULL key's group, in a group whose inputs are all NULL, and in
    /// the one group of a global aggregate over empty input.
    #[test]
    fn grouped_stores_are_typed_with_null_bits() {
        let body_type = |s: &ColumnStore| match s.data() {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Sym(_) => DataType::Text,
            ColumnData::Bool(_) => DataType::Bool,
        };
        let specs = [
            AggSpec::new(None, "n"),
            AggSpec::new(Some((AggFunc::Min, 1)), "lo"),
            AggSpec::new(Some((AggFunc::Sum, 1)), "s"),
            AggSpec::new(Some((AggFunc::Avg, 1)), "a"),
            AggSpec::new(Some((AggFunc::Max, 2)), "hi"),
        ];
        let cols = vec![
            Column::nullable("k", DataType::Text),
            Column::nullable("v", DataType::Int),
            Column::nullable("w", DataType::Bool),
        ];
        let null = Value::Null;
        let rows = vec![
            vec!["agg-typed".into(), 4.into(), true.into()],
            vec![null, null, null],
            vec![null, null, null],
        ];
        let g = ColRelation::from_table(&table(cols.clone(), rows), "t")
            .group_by(&[0], &specs)
            .unwrap();
        let types: Vec<DataType> = g.stores.iter().map(body_type).collect();
        use DataType::{Bool, Float, Int, Text};
        assert_eq!(types, [Text, Int, Int, Int, Float, Bool]);
        let declared: Vec<DataType> = g.columns.iter().map(|c| c.data_type).collect();
        assert_eq!(declared, types);
        let nulls =
            |g: &Grouped, r: usize| g.stores.iter().map(|s| s.is_null(r)).collect::<Vec<_>>();
        assert_eq!(g.len, 2);
        assert_eq!(nulls(&g, 0), [false; 6]);
        // The NULL key's group counts two rows, and every input was NULL.
        assert_eq!(nulls(&g, 1), [true, false, true, true, true, true]);
        assert_eq!(g.stores[1].get(1), Value::Int(2));

        let g = ColRelation::from_table(&table(cols, vec![]), "t")
            .group_by(&[], &specs)
            .unwrap();
        assert_eq!(
            g.stores.iter().map(body_type).collect::<Vec<_>>(),
            types[1..]
        );
        assert_eq!((g.len, g.stores[0].get(0)), (1, Value::Int(0)));
        assert_eq!(nulls(&g, 0), [false, true, true, true, true]);
    }

    /// A group-id pass's ids and first rows.
    type Numbered = (Vec<u32>, Vec<u32>);

    /// The group ids of `keys` by the word pass and by the hash pass, and
    /// how many keys the word pass hashed.
    fn both_passes(keys: &[Option<i64>]) -> (Numbered, Numbered, u64) {
        let parts = |g: GroupIds| (g.gids, g.first_rows);
        let before = crate::work::on_this_thread().keys_hashed;
        let key = |r: usize| keys[r];
        let words = parts(word_gids(keys.len(), keys.iter().flatten().copied(), key));
        let hashed = crate::work::on_this_thread().keys_hashed - before;
        (words, parts(assign_gids(keys.len(), |r| keys[r])), hashed)
    }

    /// Keys that span a few slots per row index the array and hash
    /// nothing, wherever the span lies in `i64` (its ends included); a
    /// span wider than that — up to `i64::MIN..=i64::MAX`, which must not
    /// overflow — hashes every key. Both hand out the hash pass's ids.
    #[test]
    fn dense_and_hashed_group_ids_agree() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(0..200usize);
            let width = rng.gen_range(1..=2 * n as i64 + 1);
            let lo = match seed % 3 {
                0 => i64::MIN,
                1 => i64::MAX - width + 1,
                _ => rng.gen_range(-1000..1000),
            };
            let keys: Vec<Option<i64>> = (0..n)
                .map(|_| (rng.gen_range(0..8) > 0).then(|| lo + rng.gen_range(0..width)))
                .collect();
            let (words, hashed, n_hashed) = both_passes(&keys);
            assert_eq!(words, hashed, "seed {seed}");
            assert_eq!(n_hashed, 0, "seed {seed}: dense");
        }
        let wide = [
            Some(i64::MAX),
            None,
            Some(i64::MIN),
            Some(0),
            Some(i64::MAX),
        ];
        let (words, hashed, n_hashed) = both_passes(&wide);
        assert_eq!(words, hashed);
        assert_eq!(words, (vec![0, 1, 2, 3, 0], vec![0, 1, 2, 3]));
        assert_eq!(n_hashed, 4);
    }

    /// Weighed rows aggregate as that many copies of themselves: COUNT(*)
    /// and COUNT(col) add the weights, MIN and MAX ignore them; and a
    /// keyless COUNT(*) of unweighed rows is the row count.
    #[test]
    fn weighed_rows_count_as_their_copies() {
        let null = Value::Null;
        let t = table(
            vec![
                Column::nullable("k", DataType::Int),
                Column::nullable("v", DataType::Text),
            ],
            vec![
                vec![1.into(), "agg-w-b".into()],
                vec![2.into(), null],
                vec![1.into(), "agg-w-a".into()],
                vec![null, "agg-w-c".into()],
            ],
        );
        let weights = [3, 2, 1, 4];
        let copies = table(
            t.schema().columns.clone(),
            (0..4)
                .flat_map(|r| std::iter::repeat_n(t.row(r).unwrap_or_default(), weights[r]))
                .collect(),
        );
        let specs = [
            AggSpec::new(None, "n"),
            AggSpec::new(Some((AggFunc::Count, 1)), "nv"),
            AggSpec::new(Some((AggFunc::Min, 1)), "lo"),
            AggSpec::new(Some((AggFunc::Max, 1)), "hi"),
        ];
        let w: Vec<u32> = weights.iter().map(|&w| w as u32).collect();
        for keys in [&[0][..], &[]] {
            let g = ColRelation::from_table(&t, "t")
                .group_weighed(keys, &specs, Some(&w))
                .unwrap();
            let picks: Vec<Pick> = (0..g.columns.len()).map(Pick::Col).collect();
            let got = g.relation().project(g.columns.clone(), &picks, None);
            let want = grouped(&copies, keys, &specs);
            assert_eq!(got.rows.iter().collect::<Vec<_>>(), want, "keys {keys:?}");
        }
        let all = grouped(&t, &[], &specs[..1]);
        assert_eq!(all, vec![vec![Value::Int(4)]]);
    }

    /// A keyless aggregate stores no per-row group id, and a
    /// high-cardinality INT key groups on the dense pass through
    /// `group_by` with every aggregate reading the right group.
    #[test]
    fn keyless_and_dense_grouping_through_group_by() {
        let rows: Vec<Row> = (0..3000i64)
            .map(|i| vec![(i % 1000 - 500).into(), i.into()])
            .collect();
        let t = table(
            vec![
                Column::new("k", DataType::Int),
                Column::new("v", DataType::Int),
            ],
            rows,
        );
        let rel = ColRelation::from_table(&t, "t");
        assert!(rel.group_ids(&[]).gids.is_empty());
        let before = crate::work::on_this_thread().keys_hashed;
        let specs = [
            AggSpec::new(None, "n"),
            AggSpec::new(Some((AggFunc::Sum, 1)), "s"),
        ];
        let g = grouped(&t, &[0], &specs);
        assert_eq!(crate::work::on_this_thread().keys_hashed, before);
        assert_eq!(g.len(), 1000);
        assert_eq!(
            g[3],
            vec![Value::Int(-497), 3.into(), (3 + 1003 + 2003).into()]
        );
        let all = grouped(&t, &[], &specs);
        assert_eq!(all, vec![vec![3000.into(), (2999 * 3000 / 2).into()]]);
    }
}
