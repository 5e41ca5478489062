//! Grouped aggregation — its one home.
//!
//! Everything the engine knows about GROUP BY and aggregates lives here:
//! the aggregate vocabulary ([`AggFunc`], [`AggSpec`]), the per-group
//! running states (`AggState`), the accumulator that is both the
//! sequential kernel and the unit of morsel parallelism (`GroupAcc`),
//! and the [`ColRelation::group_by`] driver that feeds it straight off the
//! selection vectors, so a grouped query never materializes an input row.
//! The naive oracle ([`crate::sql::naive`]) shares the vocabulary and
//! nothing else.

use crate::colrel::{ColRelation, ColumnCells};
use crate::exec::pool::{self, CHUNK_ROWS};
use crate::intern::RankMap;
use crate::relation::{RelColumn, Relation};
use crate::table::Row;
use crate::value::{DataType, SortCell, Value};
use crate::{Error, Result};
use std::cmp::Ordering;
use std::collections::HashMap;

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

/// A packed grouping key. Single- and two-column keys (the overwhelmingly
/// common shapes) are inline `Copy` data; only wider keys heap-allocate.
/// Equality and hashing delegate to [`Value`], so `Int(2)` and
/// `Float(2.0)` land in the same group.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum GroupKey {
    One(Value),
    Two([Value; 2]),
    Wide(Box<[Value]>),
}

impl GroupKey {
    fn read(group_cols: &[usize], cell: impl Fn(usize) -> Value) -> GroupKey {
        match group_cols {
            [a] => GroupKey::One(cell(*a)),
            [a, b] => GroupKey::Two([cell(*a), cell(*b)]),
            wide => GroupKey::Wide(wide.iter().map(|&c| cell(c)).collect()),
        }
    }

    /// The packed key cells, for filling the group-key arena without
    /// re-reading the input columns.
    fn values(&self) -> &[Value] {
        match self {
            GroupKey::One(v) => std::slice::from_ref(v),
            GroupKey::Two(vs) => vs,
            GroupKey::Wide(vs) => vs,
        }
    }
}

/// Whether `aggs` contains MIN/MAX — the aggregates whose running state
/// compares through rank-decorated cells and therefore needs one
/// [`RankMap`] snapshot shared across every partial table.
fn aggs_need_ranks(aggs: &[AggSpec]) -> bool {
    aggs.iter()
        .any(|a| matches!(a.func, AggFunc::Min | AggFunc::Max))
}

/// The output columns of a grouped aggregation: the group-key columns (in
/// `group_cols` order) followed by one column per aggregate. Takes the
/// **original** (un-remapped) column positions, so the parallel path —
/// which feeds [`GroupAcc`] dense remapped indexes — still derives output
/// names and types from the real input schema.
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

/// A grouped-aggregation accumulator: the group index plus per-group
/// [`AggState`]s, fed one row at a time.
///
/// This is the unit of morsel parallelism for grouped aggregation: each
/// morsel builds its own `GroupAcc` (a *partial* table), and partials are
/// [`merged`](GroupAcc::merge) into one accumulator **in fixed chunk
/// order**, which preserves first-occurrence group order and makes the
/// result independent of pool size. The sequential path of
/// [`ColRelation::group_by`] is the degenerate single-partial case of the
/// same code.
///
/// Each row's key cells are packed into a [`GroupKey`] (no per-row
/// `Vec<Value>`), hashed into the group index via the entry API (one hash
/// per row), and every aggregate updates its per-group state vector
/// (`states[spec][group]`). Group key cells live in one flat arena; output
/// rows are only assembled by [`finish`](GroupAcc::finish), in
/// first-occurrence order.
pub(crate) struct GroupAcc {
    group_cols: Vec<usize>,
    aggs: Vec<AggSpec>,
    ranks: Option<RankMap>,
    index: HashMap<GroupKey, usize>,
    key_data: Vec<Value>,
    states: Vec<Vec<AggState>>,
    n_groups: usize,
}

impl GroupAcc {
    /// Creates an empty accumulator. `ranks` must be `Some` when `aggs`
    /// contains MIN/MAX ([`aggs_need_ranks`]); every partial that will later
    /// merge into the same accumulator must share the **same** snapshot.
    pub(crate) fn new(group_cols: &[usize], aggs: &[AggSpec], ranks: Option<RankMap>) -> GroupAcc {
        GroupAcc {
            group_cols: group_cols.to_vec(),
            aggs: aggs.to_vec(),
            ranks,
            index: HashMap::new(),
            key_data: Vec::new(),
            states: aggs.iter().map(|_| Vec::new()).collect(),
            n_groups: 0,
        }
    }

    /// Resolves (creating if new) the group index for a just-read key.
    fn group_of(&mut self, key: GroupKey) -> usize {
        match self.index.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let g = self.n_groups;
                // A new group's key cells are copied out of the just-built
                // key instead of re-read from the input columns.
                self.key_data.extend_from_slice(e.key().values());
                for (si, spec) in self.aggs.iter().enumerate() {
                    self.states[si].push(AggState::new(spec));
                }
                self.n_groups += 1;
                e.insert(g);
                g
            }
        }
    }

    /// Ensures the single implicit group of a key-less aggregation exists.
    fn global_group(&mut self) -> usize {
        if self.n_groups == 0 {
            for (si, spec) in self.aggs.iter().enumerate() {
                self.states[si].push(AggState::new(spec));
            }
            self.n_groups = 1;
        }
        0
    }

    /// Feeds one input row; `cell` reads that row's value at a column
    /// position (in whatever index space `group_cols`/agg inputs use).
    pub(crate) fn update(&mut self, cell: impl Fn(usize) -> Value) -> Result<()> {
        let gi = if self.group_cols.is_empty() {
            self.global_group()
        } else {
            let key = GroupKey::read(&self.group_cols, &cell);
            self.group_of(key)
        };
        for si in 0..self.aggs.len() {
            let v = self.aggs[si].input.map(&cell);
            self.states[si][gi].update(v.as_ref(), self.ranks.as_ref())?;
        }
        Ok(())
    }

    /// Folds a partial accumulator into `self`. Call in **fixed chunk
    /// order**: a group first seen in chunk *k* keeps that position in the
    /// output, exactly where a sequential pass would have discovered it.
    pub(crate) fn merge(&mut self, other: GroupAcc) -> Result<()> {
        let n_keys = self.group_cols.len();
        let mut incoming: Vec<std::vec::IntoIter<AggState>> =
            other.states.into_iter().map(Vec::into_iter).collect();
        for g in 0..other.n_groups {
            let gi = if n_keys == 0 {
                self.global_group()
            } else {
                // Rebuild the packed key from the partial's key arena
                // (same shape rule as `GroupKey::read`).
                let key = match &other.key_data[g * n_keys..(g + 1) * n_keys] {
                    [a] => GroupKey::One(*a),
                    [a, b] => GroupKey::Two([*a, *b]),
                    wide => GroupKey::Wide(wide.to_vec().into_boxed_slice()),
                };
                self.group_of(key)
            };
            for (si, it) in incoming.iter_mut().enumerate() {
                let st = it.next().ok_or_else(|| {
                    Error::Eval("partial aggregate table missing a group state".into())
                })?;
                self.states[si][gi].merge(st)?;
            }
        }
        Ok(())
    }

    /// Assembles the output relation (groups in first-occurrence order).
    /// `columns` is the output schema from [`group_output_columns`].
    pub(crate) fn finish(mut self, columns: Vec<RelColumn>) -> Result<Relation> {
        let n_keys = self.group_cols.len();
        // Empty input with no grouping keys still yields a single group for
        // aggregates, matching SQL semantics.
        if n_groups_needs_seed(self.n_groups, n_keys, &self.aggs) {
            self.global_group();
        }
        let mut finishers: Vec<std::vec::IntoIter<AggState>> =
            self.states.into_iter().map(Vec::into_iter).collect();
        let mut rows: Vec<Row> = Vec::with_capacity(self.n_groups);
        for g in 0..self.n_groups {
            let mut out: Row = Vec::with_capacity(n_keys + self.aggs.len());
            out.extend_from_slice(&self.key_data[g * n_keys..(g + 1) * n_keys]);
            for f in &mut finishers {
                let st = f.next().ok_or_else(|| {
                    Error::Eval("internal: aggregate table missing a group state".into())
                })?;
                out.push(st.finish());
            }
            rows.push(out);
        }
        Ok(Relation::new(columns, rows))
    }
}

/// True when a key-less aggregation over empty input still owes its single
/// implicit output group.
fn n_groups_needs_seed(n_groups: usize, n_keys: usize, aggs: &[AggSpec]) -> bool {
    n_groups == 0 && n_keys == 0 && !aggs.is_empty()
}

impl ColRelation<'_> {
    /// GROUP BY + aggregates straight off the selection vectors: feeds
    /// `GroupAcc` through a cell accessor over the row-id vectors, so
    /// grouped join queries never materialize an input row. `group_cols`
    /// are the grouping key positions; each aggregate consumes an input
    /// column (or `None` for `COUNT(*)`). Output columns are the group
    /// keys followed by one column per aggregate; groups appear in
    /// first-occurrence order.
    ///
    /// Multi-morsel inputs aggregate in parallel: each morsel builds a
    /// partial group table and the partials merge in fixed chunk order,
    /// which preserves first-occurrence group order. The parallel path is
    /// taken only when every aggregate merges *exactly* — COUNT/MIN/MAX
    /// always, SUM/AVG only over statically-`INT` inputs (integer sums
    /// accumulate in `i128`, so chunking cannot change the result).
    /// Float SUM/AVG falls back to the sequential kernel rather than
    /// risk order-dependent rounding.
    pub fn group_by(&self, group_cols: &[usize], aggs: &[AggSpec]) -> Result<Relation> {
        let pool = pool::current();
        if pool.threads() > 1 && self.len() > CHUNK_ROWS && self.aggs_merge_exactly(aggs) {
            return self.group_by_parallel(&pool, group_cols, aggs);
        }
        // Sequential: one accumulator fed every row in order. MIN/MAX
        // compare through rank-decorated cells; snapshot the dictionary
        // ranks once per aggregation instead of locking the arena per update.
        let ranks = aggs_need_ranks(aggs).then(crate::intern::rank_map);
        let mut acc = GroupAcc::new(group_cols, aggs, ranks);
        for r in 0..self.len() {
            acc.update(|c| self.cell(r, c))?;
        }
        acc.finish(group_output_columns(self.columns(), group_cols, aggs))
    }

    /// Whether every aggregate's partial states merge bit-exactly (the
    /// precondition for the parallel grouped path): COUNT/MIN/MAX always
    /// do; SUM/AVG only when the input column is statically `INT`.
    fn aggs_merge_exactly(&self, aggs: &[AggSpec]) -> bool {
        aggs.iter().all(|a| match a.func {
            AggFunc::Count | AggFunc::Min | AggFunc::Max => true,
            AggFunc::Sum | AggFunc::Avg => a
                .input
                .and_then(|c| self.columns().get(c))
                .is_some_and(|c| c.data_type == DataType::Int),
        })
    }

    /// The parallel grouped-aggregation path: per-morsel partial
    /// [`GroupAcc`] tables on the worker pool, merged in fixed chunk
    /// order. Column positions are remapped to dense indexes into an owned
    /// vector of `Arc`-backed [`ColumnCells`] handles so the morsel closure
    /// is `'static`; one rank snapshot is taken up front and shared by
    /// every partial, keeping MIN/MAX candidates comparable across morsels.
    fn group_by_parallel(
        &self,
        pool: &pool::Pool,
        group_cols: &[usize],
        aggs: &[AggSpec],
    ) -> Result<Relation> {
        let mut needed: Vec<usize> = group_cols.to_vec();
        needed.extend(aggs.iter().filter_map(|a| a.input));
        needed.sort_unstable();
        needed.dedup();
        let handles: Vec<ColumnCells> = needed.iter().map(|&c| self.column_cells(c)).collect();
        // Every position is present in `needed` by construction; an
        // (impossible) miss maps to an out-of-range handle index rather
        // than panicking here.
        let local = |c: usize| needed.binary_search(&c).unwrap_or(usize::MAX);
        let lgroup: Vec<usize> = group_cols.iter().map(|&c| local(c)).collect();
        let laggs: Vec<AggSpec> = aggs
            .iter()
            .map(|a| AggSpec::new(a.func, a.input.map(local), a.output_name.clone()))
            .collect();
        let ranks = aggs_need_ranks(aggs).then(crate::intern::rank_map);
        let partials = {
            let (lgroup, laggs, ranks) = (lgroup.clone(), laggs.clone(), ranks.clone());
            pool.run_chunks(self.len(), move |range| {
                let mut acc = GroupAcc::new(&lgroup, &laggs, ranks.clone());
                for r in range {
                    acc.update(|c| handles[c].get(r))?;
                }
                Ok(vec![acc])
            })?
        };
        let mut acc = GroupAcc::new(&lgroup, &laggs, ranks);
        for partial in partials {
            acc.merge(partial)?;
        }
        acc.finish(group_output_columns(self.columns(), group_cols, aggs))
    }
}

/// The running total behind SUM and AVG: **integer inputs in an exact
/// `i128` accumulator** and only float inputs in the `f64` accumulator.
/// Integer addition is associative, so splitting a group across morsels
/// and merging the partial states in any grouping of chunks produces
/// bit-identical results — the property the parallel grouped-aggregation
/// path ([`GroupAcc::merge`]) relies on.
#[derive(Debug, Default)]
struct NumAcc {
    isum: i128,
    fsum: f64,
    /// Non-NULL inputs seen.
    n: i64,
    any_float: bool,
}

impl NumAcc {
    /// Adds one input (NULLs are ignored); `what` names the aggregate in
    /// the non-number error.
    fn add(&mut self, v: Option<&Value>, what: &str) -> Result<()> {
        let Some(val) = v.filter(|val| !val.is_null()) else {
            return Ok(());
        };
        match val {
            Value::Int(i) => self.isum += *i as i128,
            _ => {
                self.fsum += val
                    .as_float()
                    .ok_or_else(|| Error::Eval(format!("{what} over non-number {val}")))?;
                self.any_float = true;
            }
        }
        self.n += 1;
        Ok(())
    }
}

/// Per-group running state of one aggregate.
#[derive(Debug)]
enum AggState {
    Count(i64),
    Sum(NumAcc),
    Avg(NumAcc),
    // MIN/MAX keep the running best as a rank-decorated cell so text
    // candidates compare by dictionary rank, never through the arena lock.
    Min(Option<SortCell>),
    Max(Option<SortCell>),
}

impl AggState {
    fn new(spec: &AggSpec) -> AggState {
        match spec.func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(NumAcc::default()),
            AggFunc::Avg => AggState::Avg(NumAcc::default()),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    fn update(&mut self, v: Option<&Value>, ranks: Option<&RankMap>) -> Result<()> {
        match self {
            AggState::Count(n) => {
                // COUNT(*) counts rows; COUNT(col) skips NULLs.
                match v {
                    None => *n += 1,
                    Some(val) if !val.is_null() => *n += 1,
                    _ => {}
                }
            }
            AggState::Sum(acc) => acc.add(v, "SUM")?,
            AggState::Avg(acc) => acc.add(v, "AVG")?,
            AggState::Min(best) => Self::offer(best, v, ranks, Ordering::Less)?,
            AggState::Max(best) => Self::offer(best, v, ranks, Ordering::Greater)?,
        }
        Ok(())
    }

    /// Offers one input to a MIN/MAX state (NULLs are ignored).
    fn offer(
        best: &mut Option<SortCell>,
        v: Option<&Value>,
        ranks: Option<&RankMap>,
        want: Ordering,
    ) -> Result<()> {
        if let Some(val) = v.filter(|val| !val.is_null()) {
            let ranks = ranks.ok_or_else(|| {
                Error::Eval("internal: MIN/MAX state updated without a rank snapshot".into())
            })?;
            Self::keep_best(best, SortCell::new(*val, ranks), want);
        }
        Ok(())
    }

    /// Replaces `best` with `cand` when `cand` strictly wins (`want` is
    /// `Less` for MIN, `Greater` for MAX). Ties keep the incumbent, so the
    /// earlier-in-row-order candidate survives — both sequentially and when
    /// merging partial states in chunk order.
    fn keep_best(best: &mut Option<SortCell>, cand: SortCell, want: Ordering) {
        let better = match best {
            Some(b) => SortCell::total_cmp(cand, *b) == want,
            None => true,
        };
        if better {
            *best = Some(cand);
        }
    }

    /// Folds another partial state of the **same aggregate kind** into
    /// `self`. Partial states come from per-morsel [`GroupAcc`]s and are
    /// merged in fixed chunk order; both MIN/MAX candidates carry
    /// [`SortCell`]s built from the *same* rank snapshot, so
    /// cross-partial comparisons are well-defined.
    fn merge(&mut self, other: AggState) -> Result<()> {
        match (self, other) {
            (AggState::Count(n), AggState::Count(m)) => *n += m,
            (AggState::Sum(acc), AggState::Sum(part))
            | (AggState::Avg(acc), AggState::Avg(part)) => {
                acc.isum += part.isum;
                acc.fsum += part.fsum;
                acc.n += part.n;
                acc.any_float |= part.any_float;
            }
            (AggState::Min(best), AggState::Min(cand)) => {
                if let Some(c) = cand {
                    Self::keep_best(best, c, Ordering::Less);
                }
            }
            (AggState::Max(best), AggState::Max(cand)) => {
                if let Some(c) = cand {
                    Self::keep_best(best, c, Ordering::Greater);
                }
            }
            _ => {
                return Err(Error::Eval(
                    "aggregate state kind mismatch while merging partials".into(),
                ))
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::Sum(acc) | AggState::Avg(acc) if acc.n == 0 => Value::Null,
            AggState::Sum(acc) if !acc.any_float => Value::Int(clamp_i128(acc.isum)),
            AggState::Sum(acc) => Value::Float(acc.isum as f64 + acc.fsum),
            AggState::Avg(acc) => Value::Float((acc.isum as f64 + acc.fsum) / acc.n as f64),
            AggState::Min(v) | AggState::Max(v) => v.map(SortCell::value).unwrap_or(Value::Null),
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

    /// Splits `values` at `split` into two partial states, merges them,
    /// and returns (sequential result, merged result).
    fn seq_vs_merged(spec: &AggSpec, values: &[Value], split: usize) -> (Value, Value) {
        let ranks = Some(crate::intern::rank_map());
        let mut whole = AggState::new(spec);
        for v in values {
            whole.update(Some(v), ranks.as_ref()).unwrap();
        }
        let mut lo = AggState::new(spec);
        for v in &values[..split] {
            lo.update(Some(v), ranks.as_ref()).unwrap();
        }
        let mut hi = AggState::new(spec);
        for v in &values[split..] {
            hi.update(Some(v), ranks.as_ref()).unwrap();
        }
        lo.merge(hi).unwrap();
        (whole.finish(), lo.finish())
    }

    /// Every aggregate kind, every input flavour it can merge exactly
    /// over, every split point (including empty partials on either side):
    /// merged partials must equal one sequential pass bit-for-bit.
    #[test]
    fn agg_state_merge_matches_sequential_per_kind() {
        let ints: Vec<Value> = [3i64, 1, 4, 1, 5, 9, 2, 6]
            .iter()
            .map(|&i| Value::Int(i))
            .collect();
        let texts: Vec<Value> = ["algebra-mango", "algebra-apple", "algebra-pear"]
            .iter()
            .map(|&s| Value::text(s))
            .collect();
        let floats: Vec<Value> = [2.5f64, -1.25, 7.75]
            .iter()
            .map(|&f| Value::Float(f))
            .collect();
        let with_nulls: Vec<Value> = vec![Value::Int(4), Value::Null, Value::Int(6), Value::Null];
        let all_nulls: Vec<Value> = vec![Value::Null, Value::Null];
        let cases: Vec<(AggFunc, &Vec<Value>)> = vec![
            (AggFunc::Count, &ints),
            (AggFunc::Sum, &ints),
            (AggFunc::Avg, &ints),
            (AggFunc::Min, &ints),
            (AggFunc::Max, &ints),
            (AggFunc::Min, &texts),
            (AggFunc::Max, &texts),
            (AggFunc::Min, &floats),
            (AggFunc::Max, &floats),
            (AggFunc::Count, &with_nulls),
            (AggFunc::Sum, &with_nulls),
            (AggFunc::Avg, &with_nulls),
            (AggFunc::Sum, &all_nulls),
            (AggFunc::Min, &all_nulls),
        ];
        for (func, vals) in cases {
            let spec = AggSpec::new(func, Some(0), "x");
            for split in 0..=vals.len() {
                let (want, got) = seq_vs_merged(&spec, vals, split);
                assert_eq!(want, got, "{func:?} over {vals:?} split at {split}");
            }
        }
    }

    #[test]
    fn agg_state_merge_rejects_kind_mismatch() {
        let mut count = AggState::new(&AggSpec::count_star("n"));
        let sum = AggState::new(&AggSpec::new(AggFunc::Sum, Some(0), "s"));
        assert!(count.merge(sum).is_err());
    }

    /// Integer sums accumulate exactly in `i128` and saturate (never wrap)
    /// when the total leaves the `i64` value domain.
    #[test]
    fn int_sum_is_exact_and_saturating() {
        let spec = AggSpec::new(AggFunc::Sum, Some(0), "s");
        let ranks: Option<&RankMap> = None;
        let mut s = AggState::new(&spec);
        s.update(Some(&Value::Int(i64::MAX)), ranks).unwrap();
        s.update(Some(&Value::Int(i64::MAX)), ranks).unwrap();
        s.update(Some(&Value::Int(1)), ranks).unwrap();
        assert_eq!(s.finish(), Value::Int(i64::MAX));
        let mut s = AggState::new(&spec);
        s.update(Some(&Value::Int(i64::MIN)), ranks).unwrap();
        s.update(Some(&Value::Int(-1)), ranks).unwrap();
        assert_eq!(s.finish(), Value::Int(i64::MIN));
    }

    /// Merging partial group tables in chunk order preserves
    /// first-occurrence group order, exactly as a sequential pass over the
    /// concatenated inputs would produce.
    #[test]
    fn group_acc_merges_partials_in_first_occurrence_order() {
        let specs = [AggSpec::count_star("n")];
        let cols = [RelColumn::bare("k", DataType::Int)];
        let feed = |keys: &[i64]| {
            let mut acc = GroupAcc::new(&[0], &specs, None);
            for &k in keys {
                acc.update(|_| Value::Int(k)).unwrap();
            }
            acc
        };
        let mut acc = feed(&[7, 3]);
        acc.merge(feed(&[5, 3, 7])).unwrap();
        let out = acc
            .finish(group_output_columns(&cols, &[0], &specs))
            .unwrap();
        assert_eq!(
            out.rows,
            vec![
                vec![Value::Int(7), Value::Int(2)],
                vec![Value::Int(3), Value::Int(2)],
                vec![Value::Int(5), Value::Int(1)],
            ]
        );
    }

    /// Key-less (global) aggregation merges across empty and non-empty
    /// partials, and an all-empty merge still yields the single implicit
    /// group.
    #[test]
    fn group_acc_merges_global_and_empty_partials() {
        let specs = [AggSpec::new(AggFunc::Sum, Some(0), "s")];
        let cols = [RelColumn::bare("v", DataType::Int)];
        let mut acc = GroupAcc::new(&[], &specs, None);
        acc.merge(GroupAcc::new(&[], &specs, None)).unwrap();
        let mut part = GroupAcc::new(&[], &specs, None);
        part.update(|_| Value::Int(41)).unwrap();
        part.update(|_| Value::Int(1)).unwrap();
        acc.merge(part).unwrap();
        let out = acc
            .finish(group_output_columns(&cols, &[], &specs))
            .unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int(42)]]);

        let empty = GroupAcc::new(&[], &specs, None);
        let out = empty
            .finish(group_output_columns(&cols, &[], &specs))
            .unwrap();
        assert_eq!(out.rows, vec![vec![Value::Null]]);
    }
}
