//! Columnar intermediate relations: selection vectors over column stores.
//!
//! The optimizing executor's pipeline between the base-table scan and the
//! final projection runs on [`ColRelation`]s, and the projection's output
//! [`Relation`] is column-major too. A `ColRelation` is a set of sources —
//! each a borrowed slice of [`ColumnStore`]s: a base [`Table`]'s columns,
//! or the typed stores of a grouped result — plus **one row-id vector
//! per source**: logical row `r` of the relation reads row `row_ids[r]` of
//! each source.
//! Every operator — pushdown scan, hash join, cross product, residual
//! filter and HAVING, sort — only ever rewrites those row-id vectors:
//!
//! * a filtered scan *is* the selection vector
//!   [`crate::scan::filter_indices`] returns (an unfiltered scan is the
//!   identity selection, stored implicitly),
//! * a hash join builds its table from the build side's key column, then
//!   probes the probe side's key column in row order, emitting paired
//!   (build-position, probe-position) vectors that are composed into the
//!   inputs' row-id vectors — probe keys hash straight off
//!   [`ColumnData::Int`]/[`ColumnData::Sym`] words on the typed fast
//!   paths,
//! * a join along a foreign key with a stored index (`fk_join`) emits the
//!   same pairs in the same order from the index alone: the key of a
//!   primary-key row is its row id and the key of a referencing row is the
//!   row id it references, so an array over the referenced table's rows
//!   replaces the hash table (`exec::join::fk_key_pairs`),
//! * a residual filter runs the predicate kernel over only the columns
//!   it references, gathered through the row-id vectors, and composes the
//!   surviving positions,
//! * ORDER BY orders one word per row — the first key's order word above
//!   the row's position — and compares later keys only on ties.
//!
//! No row is built anywhere in that pipeline; the final projection
//! ([`ColRelation::project`]) gathers each output column in one pass,
//! straight out of its column store, into the result's column vectors.
//! Grouped queries never materialize an input row at all: [`ColRelation::group_by`]
//! ([`crate::exec::agg`]) hashes key words and sweeps aggregate inputs
//! straight off the column slices, through the row-id vectors, into typed
//! stores with one row per group — which the same HAVING, ORDER BY and
//! projection then read as a one-source `ColRelation`.
//!
//! Row ids are `u32` ([`Table`]s are capped at `u32::MAX` rows, and the
//! cardinality-growing operators error past `u32::MAX` logical rows
//! rather than truncate), so a selection vector is a quarter the size of
//! even a single-column materialized row vector.

use crate::exec::join::{fk_key_pairs, key_pairs};
use crate::fk_index::FkIndex;
use crate::relation::{RelColumn, Relation, SortKey};
use crate::sql::analyze::TypedPred;
use crate::table::{ColumnData, ColumnStore, Table};
use crate::value::{SortCell, Value};
use crate::{Error, Result};
use std::cmp::Ordering;

/// The row-id vector of one source. `Identity` is the unfiltered
/// scan of every stored row, kept implicit so a full-table scan allocates
/// nothing until a join or filter actually reorders it.
#[derive(Debug, Clone)]
pub(crate) enum RowIds {
    Identity,
    Sel(Vec<u32>),
}

impl RowIds {
    /// The table row id behind logical row `r`.
    #[inline]
    pub(crate) fn get(&self, r: usize) -> usize {
        match self {
            RowIds::Identity => r,
            RowIds::Sel(v) => v[r] as usize,
        }
    }

    /// The explicit row ids, or `None` for the identity selection.
    pub(crate) fn as_slice(&self) -> Option<&[u32]> {
        match self {
            RowIds::Identity => None,
            RowIds::Sel(v) => Some(v),
        }
    }

    /// Composes this selection with `positions` (logical rows to keep, in
    /// output order): the result maps output row `i` to the table row this
    /// selection mapped `positions[i]` to.
    fn compose(&self, positions: &[u32]) -> RowIds {
        match self {
            RowIds::Identity => RowIds::Sel(positions.to_vec()),
            RowIds::Sel(v) => RowIds::Sel(positions.iter().map(|&p| v[p as usize]).collect()),
        }
    }
}

/// A join key column: its store, and the row ids the relation reads it at.
type KeyCol<'a, 'r> = (&'a ColumnStore, &'r RowIds);

/// One source of a [`ColRelation`]: column stores of `len` rows each (a
/// base table's, or a grouped result's), with the row ids its logical rows
/// read.
#[derive(Debug, Clone)]
struct Source<'a> {
    cols: &'a [ColumnStore],
    len: usize,
    row_ids: RowIds,
}

/// A columnar intermediate relation: borrowed column stores + selection /
/// row-id vectors (see the module docs). The executor's whole query runs
/// on this type; cells are gathered only by [`ColRelation::project`]
/// (final projection) or consumed column-at-a-time by
/// [`ColRelation::group_by`] ([`crate::exec::agg`]).
#[derive(Debug, Clone)]
pub struct ColRelation<'a> {
    columns: Vec<RelColumn>,
    /// Output column -> (source index, column index within that source).
    col_map: Vec<(u32, u32)>,
    sources: Vec<Source<'a>>,
    n_rows: usize,
}

/// One output column of a projection: a column of the input relation or a
/// literal from the select list.
#[derive(Debug, Clone, Copy)]
pub enum Pick {
    /// Input column position.
    Col(usize),
    /// Constant select-list expression.
    Lit(Value),
}

impl<'a> ColRelation<'a> {
    /// The single constructor every operator funnels through — and
    /// therefore the plan-invariant checkpoint: logical row count within
    /// [`crate::table::MAX_ROWS`], every store of a source as long as the
    /// source, every source's row-id vector the same length as the
    /// relation, and every row id in bounds for its source. The validator
    /// runs wherever debug assertions are compiled in: debug builds, and
    /// release builds made with `CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true`
    /// (the nightly fuzzer's).
    fn from_sources(columns: Vec<RelColumn>, sources: Vec<Source<'a>>, n_rows: usize) -> Self {
        let mut col_map = Vec::with_capacity(columns.len());
        for (si, s) in sources.iter().enumerate() {
            for ci in 0..s.cols.len() {
                col_map.push((si as u32, ci as u32));
            }
        }
        debug_assert_eq!(col_map.len(), columns.len());
        if cfg!(debug_assertions) {
            assert!(
                n_rows <= crate::table::MAX_ROWS,
                "plan invariant violated: {n_rows} logical rows exceed MAX_ROWS"
            );
            for s in &sources {
                assert!(
                    s.cols.iter().all(|c| c.len() == s.len),
                    "plan invariant violated: ragged source"
                );
                match &s.row_ids {
                    RowIds::Identity => assert!(
                        n_rows == s.len,
                        "plan invariant violated: identity selection over {} stored rows \
                         claims {n_rows} logical rows",
                        s.len
                    ),
                    RowIds::Sel(v) => {
                        assert!(
                            v.len() == n_rows,
                            "plan invariant violated: selection vector of length {} for \
                             {n_rows} logical rows",
                            v.len()
                        );
                        assert!(
                            v.iter().all(|&id| (id as usize) < s.len),
                            "plan invariant violated: selection vector row id out of bounds \
                             ({} stored rows)",
                            s.len
                        );
                    }
                }
            }
        }
        ColRelation {
            columns,
            col_map,
            sources,
            n_rows,
        }
    }

    /// The relation over `cols`, `len` rows each, described by `columns`,
    /// whose logical rows read `row_ids`. A base table lends its columns; a
    /// grouped result lends its stores.
    pub(crate) fn from_columns(
        columns: Vec<RelColumn>,
        cols: &'a [ColumnStore],
        len: usize,
        row_ids: RowIds,
    ) -> Self {
        let n = row_ids.as_slice().map_or(len, <[u32]>::len);
        Self::from_sources(columns, vec![Source { cols, len, row_ids }], n)
    }

    /// An unfiltered scan of `table` under `alias`: the identity selection,
    /// no rows touched.
    pub fn from_table(table: &'a Table, alias: &str) -> Self {
        let columns = Relation::table_columns(table, alias);
        Self::from_columns(columns, table.columns(), table.len(), RowIds::Identity)
    }

    /// A filtered scan of `table` under `alias`: the selection vector the
    /// pushdown scan ([`crate::scan::filter_indices`]) returns,
    /// held directly — rows failing `pred` are never touched again.
    pub fn from_table_filtered(table: &'a Table, alias: &str, pred: &TypedPred) -> Self {
        let sel = RowIds::Sel(crate::scan::filter_indices(table, pred));
        let columns = Relation::table_columns(table, alias);
        Self::from_columns(columns, table.columns(), table.len(), sel)
    }

    /// Number of logical rows.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// True when no logical row survives.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// The output columns (same metadata a materialized scan would carry).
    pub fn columns(&self) -> &[RelColumn] {
        &self.columns
    }

    /// The column store and row-id vector behind output column `col`:
    /// logical row `r` reads `store` at `ids.get(r)`.
    pub(crate) fn col_source(&self, col: usize) -> (&'a ColumnStore, &RowIds) {
        let (si, ci) = self.col_map[col];
        let s = &self.sources[si as usize];
        (&s.cols[ci as usize], &s.row_ids)
    }

    /// Rebuilds every source's row-id vector through `positions` (logical
    /// rows to keep, in output order); a side that is one unfiltered scan
    /// takes `positions` itself, uncopied.
    fn composed(&self, positions: Vec<u32>, other: Option<(&Self, Vec<u32>)>) -> ColRelation<'a> {
        let n = positions.len();
        let mut columns = self.columns.clone();
        let mut sides = vec![(&self.sources, positions)];
        if let Some((rhs, rhs_positions)) = other {
            columns.extend(rhs.columns.iter().cloned());
            sides.push((&rhs.sources, rhs_positions));
        }
        let mut sources = Vec::new();
        for (side, positions) in sides {
            let through = |s: &Source<'a>| Source {
                row_ids: s.row_ids.compose(&positions),
                ..*s
            };
            match &side[..] {
                [s] if s.row_ids.as_slice().is_none() => sources.push(Source {
                    row_ids: RowIds::Sel(positions),
                    ..*s
                }),
                side => sources.extend(side.iter().map(through)),
            }
        }
        Self::from_sources(columns, sources, n)
    }

    /// A scan's row ids and stored rows, which the tree pass weighs.
    pub(crate) fn into_scan(self) -> (RowIds, usize) {
        let s = self.sources.into_iter().next();
        s.map_or((RowIds::Sel(Vec::new()), 0), |s| (s.row_ids, s.len))
    }

    /// σ — keeps logical rows satisfying `pred`, composing the surviving
    /// positions into every row-id vector: residual and cycle filters after
    /// joins, and HAVING over a grouped result. The predicate runs on the
    /// same kernel as the pushdown scan (`crate::exec::pred`): each column
    /// it references is gathered through its source's row-id vector a word
    /// of 64 logical rows at a time.
    pub fn select(&self, pred: &TypedPred) -> ColRelation<'a> {
        debug_assert!(
            (pred.expr().referenced_columns().last()).is_none_or(|&c| c < self.columns.len()),
            "plan invariant violated: predicate `{}` reads past {} columns",
            pred.display(),
            self.columns.len()
        );
        let keep = crate::exec::pred::select_rows(pred, self.n_rows, |c| {
            let (store, ids) = self.col_source(c);
            (store, ids.as_slice())
        });
        self.composed(keep, None)
    }

    /// Equi-join on `self[left_col] = other[right_col]` using a build/probe
    /// hash join over the key columns.
    ///
    /// The smaller side is the build side: its key column is hashed into a
    /// chained index (key word -> chain of build positions), then the probe
    /// side's key column is scanned as a batch, emitting paired
    /// (build-position, probe-position) vectors (`exec::join::key_pairs`,
    /// which says how each pair of column types is keyed). Those compose
    /// with the inputs' existing selections — no row of either side is
    /// copied. Output columns are `self.columns ++ other.columns`.
    pub fn hash_join(
        &self,
        other: &ColRelation<'a>,
        left_col: usize,
        right_col: usize,
    ) -> Result<ColRelation<'a>> {
        self.join_with(other, left_col, right_col, |build, probe, _| {
            key_pairs(build.0, build.1.as_slice(), probe.0, probe.1.as_slice())
        })
    }

    /// [`ColRelation::hash_join`] along a foreign key with a stored index
    /// (`crate::fk_index`): `ix` maps the rows of the foreign-key column
    /// — `self[left_col]` when `fk_left`, else `other[right_col]` — to rows
    /// of the primary-key column on the other side, and back. The pairs
    /// are `exec::join::fk_key_pairs`', the same as the hash join's, in the
    /// same order, with no hash table built.
    pub(crate) fn fk_join(
        &self,
        other: &ColRelation<'a>,
        (left_col, right_col): (usize, usize),
        ix: &FkIndex,
        fk_left: bool,
    ) -> Result<ColRelation<'a>> {
        self.join_with(other, left_col, right_col, |build, probe, build_is_left| {
            let fk_builds = build_is_left == fk_left;
            let ((fk, fk_ids), (pk, pk_ids)) = if fk_builds {
                (build, probe)
            } else {
                (probe, build)
            };
            debug_assert_eq!(
                fk.len(),
                ix.fwd().len(),
                "plan invariant violated: stale FK index"
            );
            let (fk_rows, pk_rows) = (fk_ids.as_slice(), pk_ids.as_slice());
            Ok(fk_key_pairs(pk.len(), pk_rows, ix, fk_rows, fk_builds))
        })
    }

    /// The join of `self[left_col]` and `other[right_col]` whose
    /// (build-position, probe-position) pairs `pairs` finds, given the
    /// build and probe sides' key columns and row ids and whether `self`
    /// builds. The smaller side builds.
    fn join_with(
        &self,
        other: &ColRelation<'a>,
        left_col: usize,
        right_col: usize,
        pairs: impl FnOnce(KeyCol<'a, '_>, KeyCol<'a, '_>, bool) -> Result<(Vec<u32>, Vec<u32>)>,
    ) -> Result<ColRelation<'a>> {
        debug_assert!(
            left_col < self.columns.len() && right_col < other.columns.len(),
            "plan invariant violated: join column out of range"
        );
        let build_is_left = self.len() <= other.len();
        let (build, probe, build_col, probe_col) = if build_is_left {
            (self, other, left_col, right_col)
        } else {
            (other, self, right_col, left_col)
        };
        let (build_pos, probe_pos) = pairs(
            build.col_source(build_col),
            probe.col_source(probe_col),
            build_is_left,
        )?;
        check_cardinality(build_pos.len())?;
        crate::work::count(|w| w.rows_matched += build_pos.len() as u64);
        Ok(if build_is_left {
            build.composed(build_pos, Some((probe, probe_pos)))
        } else {
            probe.composed(probe_pos, Some((build, build_pos)))
        })
    }

    /// × — Cartesian product; both sides' row-id vectors are tiled, no row
    /// is copied.
    pub fn cross(&self, other: &ColRelation<'a>) -> Result<ColRelation<'a>> {
        let (ln, rn) = (self.len(), other.len());
        let n = ln
            .checked_mul(rn)
            .filter(|&n| n <= u32::MAX as usize)
            .ok_or_else(cardinality_error)?;
        let mut left_pos = Vec::with_capacity(n);
        let mut right_pos = Vec::with_capacity(n);
        for l in 0..ln as u32 {
            for r in 0..rn as u32 {
                left_pos.push(l);
                right_pos.push(r);
            }
        }
        Ok(self.composed(left_pos, Some((other, right_pos))))
    }

    /// The same relation with its sources reordered: source `k` becomes
    /// source `rank[k]` (`rank` is a permutation of the source indices),
    /// and its columns move with it. No row id moves. The executor calls
    /// it once, after the greedy join loop, to give the joined relation its
    /// plan's table order.
    pub(crate) fn reorder_sources(self, rank: &[usize]) -> ColRelation<'a> {
        let mut sources: Vec<(usize, Source<'a>)> =
            rank.iter().copied().zip(self.sources).collect();
        sources.sort_by_key(|&(r, _)| r);
        let source_of = self.col_map.iter().map(|&(s, _)| rank[s as usize]);
        let mut columns: Vec<(usize, RelColumn)> = source_of.zip(self.columns).collect();
        // Stable: a source's columns keep their order.
        columns.sort_by_key(|&(r, _)| r);
        Self::from_sources(
            columns.into_iter().map(|(_, c)| c).collect(),
            sources.into_iter().map(|(_, s)| s).collect(),
            self.n_rows,
        )
    }

    /// The permutation ORDER BY `keys` induces (ties keep input order) or,
    /// with `keep = Some(k)`, its first `k` positions. Each row gets one
    /// word: the first key's [`Value::order_word`] over dictionary ranks,
    /// flipped when descending, above the row's position. Only rows whose
    /// first keys tie compare the later keys, as rank-decorated cells
    /// hoisted once per key off their typed slices; no row is
    /// materialized.
    pub fn sort_order(&self, keys: &[SortKey], keep: Option<usize>) -> Vec<u32> {
        let ranks = crate::intern::rank_map();
        let rows = |k: &SortKey| {
            let (store, ids) = self.col_source(k.column);
            (store, (0..self.n_rows).map(|r| ids.get(r)))
        };
        let k = keep.map_or(self.n_rows, |k| k.min(self.n_rows));
        let Some((first, rest)) = keys.split_first() else {
            // No key at all orders by input position.
            return (0..k as u32).collect();
        };
        let (store, first_rows) = rows(first);
        let flip = if first.descending { !0 << 32 } else { 0 };
        let key = gather(store, first_rows, |v| v.order_word(|s| ranks.rank(s)));
        let mut words: Vec<u128> = (key.into_iter().zip(0u32..))
            .map(|(w, i)| ((w << 32) ^ flip) | u128::from(i))
            .collect();
        if rest.is_empty() {
            order_prefix(&mut words, 0, k, u128::cmp);
        } else {
            let decorated: Vec<Vec<SortCell>> = (rest.iter())
                .map(|key| {
                    let (store, rows) = rows(key);
                    gather(store, rows, |v| SortCell::new(v, &ranks))
                })
                .collect();
            let later = |a: usize, b: usize| {
                (decorated.iter().zip(rest))
                    .map(|(cells, key)| {
                        let ord = SortCell::total_cmp(cells[a], cells[b]);
                        if key.descending {
                            ord.reverse()
                        } else {
                            ord
                        }
                    })
                    .find(|o| o.is_ne())
                    .unwrap_or(Ordering::Equal)
            };
            order_prefix(&mut words, 0, k, |a, b| {
                ((a >> 32).cmp(&(b >> 32)))
                    .then_with(|| later(*a as u32 as usize, *b as u32 as usize))
                    .then(a.cmp(b))
            });
        }
        words[..k].iter().map(|&w| w as u32).collect()
    }

    /// π — the final projection: gathers each output column in one pass
    /// out of its column store, for the positions in `order` (from
    /// [`ColRelation::sort_order`]) or every row in input order; a literal
    /// pick is its value repeated. The result is column-major: no row is
    /// built, for plain and grouped queries alike.
    pub fn project(
        &self,
        columns: Vec<RelColumn>,
        picks: &[Pick],
        order: Option<&[u32]>,
    ) -> Relation {
        debug_assert!(
            picks.len() == columns.len(),
            "plan invariant violated: {} picks for {} output columns",
            picks.len(),
            columns.len()
        );
        let n = order.map_or(self.n_rows, <[u32]>::len);
        let cells = picks
            .iter()
            .zip(&columns)
            .map(|(p, c)| {
                let cells = match *p {
                    Pick::Lit(v) => vec![v; n],
                    Pick::Col(k) => {
                        let (store, ids) = self.col_source(k);
                        match order {
                            Some(perm) => {
                                gather(store, perm.iter().map(|&r| ids.get(r as usize)), |v| v)
                            }
                            None => gather(store, (0..n).map(|r| ids.get(r)), |v| v),
                        }
                    }
                };
                debug_assert!(
                    cells.iter().all(|v| v.fits(c.data_type)),
                    "plan invariant violated: a value does not fit projected column `{}` ({})",
                    c.name,
                    c.data_type
                );
                cells
            })
            .collect();
        Relation::from_columns(columns, cells, n)
    }
}

/// The cells of `store` at table rows `rows`, in that order, each through
/// `out`: the body's type is matched once per column, not once per cell.
/// The final projection's output columns and ORDER BY's decorated keys.
fn gather<O>(
    store: &ColumnStore,
    rows: impl Iterator<Item = usize>,
    out: impl Fn(Value) -> O,
) -> Vec<O> {
    fn pick<T: Copy, O>(
        body: &[T],
        store: &ColumnStore,
        rows: impl Iterator<Item = usize>,
        value: impl Fn(T) -> Value,
        out: impl Fn(Value) -> O,
    ) -> Vec<O> {
        let cell = |r: usize| match store.is_null(r) {
            true => Value::Null,
            false => value(body[r]),
        };
        rows.map(|r| out(cell(r))).collect()
    }
    match store.data() {
        ColumnData::Int(v) => pick(v, store, rows, Value::Int, out),
        ColumnData::Float(v) => pick(v, store, rows, Value::Float, out),
        ColumnData::Sym(v) => pick(v, store, rows, Value::Text, out),
        ColumnData::Bool(v) => pick(v, store, rows, Value::Bool, out),
    }
}

/// The ordering kernel of ORDER BY and of an enriched table's window:
/// given that `items[..from]` holds the `from` least items in order, makes
/// `items[..to]` hold the `to` least in order (`to` is clipped to the
/// length). It selects the next `to - from` least of the rest, then sorts
/// only those, so a prefix costs O(n + k log k) and a prefix that doubles
/// until it covers everything O(n log n) in all.
///
/// `cmp` must be total: no two items compare equal. Rows compared by
/// their keys and then by input position are: that extension has exactly
/// one sorted sequence, the one a stable sort by the keys alone produces,
/// so selecting before sorting yields the stable full sort's prefix, ties
/// at the cut included.
pub fn order_prefix<T>(
    items: &mut [T],
    from: usize,
    to: usize,
    mut cmp: impl FnMut(&T, &T) -> Ordering,
) {
    let to = to.min(items.len());
    if to <= from {
        return;
    }
    let (rest, k) = (&mut items[from..], to - from);
    if k < rest.len() {
        rest.select_nth_unstable_by(k - 1, &mut cmp);
    }
    rest[..k].sort_unstable_by(cmp);
}

/// Every `ColRelation` keeps `n_rows <= u32::MAX` so logical-row
/// positions always fit the `u32` id space. Base scans inherit the cap
/// from [`crate::table::MAX_ROWS`]; the two operators that can *grow*
/// cardinality (hash join under duplicate keys, cross product) enforce it
/// explicitly and error instead of silently truncating positions.
fn check_cardinality(n: usize) -> Result<()> {
    if n > u32::MAX as usize {
        Err(cardinality_error())
    } else {
        Ok(())
    }
}

pub(crate) fn cardinality_error() -> Error {
    Error::Eval(format!(
        "intermediate relation exceeds the u32 row-id space ({} rows)",
        u32::MAX
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::exec::agg::AggSpec;
    use crate::schema::{Column, TableSchema};
    use crate::sql::analyze::tests::where_pred;
    use crate::sql::naive::execute_naive;
    use crate::value::DataType;

    fn table(name: &str, cols: Vec<Column>, rows: Vec<Vec<Value>>) -> Table {
        let mut t = Table::new(TableSchema::new(name, cols)).unwrap();
        t.append_rows(rows).unwrap();
        t
    }

    fn ints(name: &str, vals: &[Option<i64>]) -> Table {
        table(
            name,
            vec![Column::nullable("k", DataType::Int)],
            vals.iter()
                .map(|v| vec![v.map(Value::Int).unwrap_or(Value::Null)])
                .collect(),
        )
    }

    /// `w` typed over `t`'s own columns.
    fn pred(t: &Table, w: &str) -> TypedPred {
        where_pred(&Relation::table_columns(t, "t"), w).unwrap()
    }

    fn sorted_rows(rel: &Relation) -> Vec<Vec<Value>> {
        let mut rows: Vec<_> = rel.rows.iter().collect();
        rows.sort();
        rows
    }

    fn all_picks(rel: &ColRelation) -> (Vec<RelColumn>, Vec<Pick>) {
        (
            rel.columns().to_vec(),
            (0..rel.columns().len()).map(Pick::Col).collect(),
        )
    }

    /// Materializes a ColRelation in input order (tests only).
    fn materialize(rel: &ColRelation) -> Relation {
        let (cols, picks) = all_picks(rel);
        rel.project(cols, &picks, None)
    }

    /// The reference answer: `sql` run by the naive oracle (cross product,
    /// then filter, then linear-scan grouping) over a database holding
    /// copies of `tables`.
    fn oracle(tables: &[&Table], sql: &str) -> Relation {
        let mut db = Database::new();
        for t in tables {
            db.create_table(t.schema().clone()).unwrap();
            db.append_rows(&t.schema().name, t.to_rows()).unwrap();
        }
        execute_naive(&db, sql).unwrap()
    }

    /// The invariant validator always runs under `cfg(test)` (debug
    /// assertions are on), so a selection vector pointing past the end
    /// of its table must be rejected at construction, before any kernel
    /// can read through it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "plan invariant violated")]
    fn validator_rejects_out_of_bounds_selection() {
        let t = ints("t", &[Some(1), Some(2), Some(3)]);
        let _ = ColRelation::from_sources(
            Relation::table_columns(&t, "t"),
            vec![Source {
                cols: t.columns(),
                len: t.len(),
                row_ids: RowIds::Sel(vec![0, 7]), // 7 > table.len()
            }],
            2,
        );
    }

    /// Length mismatch between the claimed logical row count and a
    /// selection vector is the other corruption class the validator pins.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "plan invariant violated")]
    fn validator_rejects_length_mismatch() {
        let t = ints("t", &[Some(1), Some(2), Some(3)]);
        let _ = ColRelation::from_sources(
            Relation::table_columns(&t, "t"),
            vec![Source {
                cols: t.columns(),
                len: t.len(),
                row_ids: RowIds::Sel(vec![0]),
            }],
            2,
        );
    }

    #[test]
    fn filtered_scan_is_the_selection_vector() {
        let t = ints("t", &[Some(1), Some(5), None, Some(9), Some(2)]);
        let rel = ColRelation::from_table_filtered(&t, "t", &pred(&t, "k >= 3"));
        assert_eq!(rel.len(), 2);
        assert_eq!(materialize(&rel).rows, vec![vec![5.into()], vec![9.into()]]);
    }

    #[test]
    fn int_join_matches_row_reference_join() {
        let l = ints("l", &[Some(1), Some(2), None, Some(2), Some(7)]);
        let r = ints("r", &[Some(2), None, Some(2), Some(1), Some(8)]);
        let cl = ColRelation::from_table(&l, "l");
        let cr = ColRelation::from_table(&r, "r");
        let col = cl.hash_join(&cr, 0, 0).unwrap();
        let reference = oracle(&[&l, &r], "SELECT l.k, r.k FROM l, r WHERE l.k = r.k");
        // 2x2 duplicate multiplicity + 1x1; NULLs never match: 5 rows.
        assert_eq!(col.len(), 5);
        assert_eq!(sorted_rows(&materialize(&col)), sorted_rows(&reference));
    }

    #[test]
    fn text_join_hashes_symbol_words() {
        let mk = |name: &str, tags: &[Option<&str>]| {
            table(
                name,
                vec![Column::nullable("tag", DataType::Text)],
                tags.iter()
                    .map(|t| vec![t.map(Value::text).unwrap_or(Value::Null)])
                    .collect(),
            )
        };
        let l = mk("l", &[Some("colrel-zz"), Some("colrel-aa"), None]);
        let r = mk("r", &[Some("colrel-aa"), None, Some("colrel-aa")]);
        let cl = ColRelation::from_table(&l, "l");
        let cr = ColRelation::from_table(&r, "r");
        let out = cl.hash_join(&cr, 0, 0).unwrap();
        assert_eq!(out.len(), 2);
        let rows = materialize(&out).rows;
        assert!(rows.iter().all(|row| row[0] == "colrel-aa".into()));
        let reference = oracle(
            &[&l, &r],
            "SELECT l.tag, r.tag FROM l, r WHERE l.tag = r.tag",
        );
        assert_eq!(sorted_rows(&materialize(&out)), sorted_rows(&reference));
    }

    #[test]
    fn mixed_int_float_keys_widen() {
        let l = ints("l", &[Some(2), Some(3)]);
        let r = table(
            "r",
            vec![Column::nullable("f", DataType::Float)],
            vec![vec![Value::Float(2.0)], vec![Value::Float(2.5)]],
        );
        let out = ColRelation::from_table(&l, "l")
            .hash_join(&ColRelation::from_table(&r, "r"), 0, 0)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(
            materialize(&out).rows.first(),
            Some(vec![Value::Int(2), Value::Float(2.0)])
        );
    }

    /// Regression for the float-hash boundary bug: with the old
    /// `<= i64::MAX as f64` hash guard and widening comparison,
    /// Float(2^63) compared equal to Int(i64::MAX - 1) but hashed
    /// differently, so join results depended on hash-table luck. The
    /// exact comparison admits only true matches: Float(-2^63) is
    /// i64::MIN, Float(-0.0) is 0, Float(2^63) is beyond every int.
    #[test]
    fn boundary_float_keys_join_exactly() {
        let l = ints(
            "l",
            &[Some(i64::MAX), Some(i64::MAX - 1), Some(i64::MIN), Some(0)],
        );
        let r = table(
            "r",
            vec![Column::nullable("f", DataType::Float)],
            vec![
                vec![Value::Float(9_223_372_036_854_775_808.0)],
                vec![Value::Float(-9_223_372_036_854_775_808.0)],
                vec![Value::Float(-0.0)],
            ],
        );
        let out = ColRelation::from_table(&l, "l")
            .hash_join(&ColRelation::from_table(&r, "r"), 0, 0)
            .unwrap();
        assert_eq!(
            sorted_rows(&materialize(&out)),
            vec![
                vec![
                    Value::Int(i64::MIN),
                    Value::Float(-9_223_372_036_854_775_808.0)
                ],
                vec![Value::Int(0), Value::Float(-0.0)],
            ]
        );
    }

    /// The grouped variant of the same regression: 2^63 floats and
    /// i64::MAX ints are distinct group keys; -0.0/0.0/Int(0) collapse
    /// into one group in the engine and in the oracle alike.
    #[test]
    fn boundary_float_keys_group_exactly() {
        let t = table(
            "t",
            vec![Column::nullable("f", DataType::Float)],
            vec![
                vec![Value::Float(9_223_372_036_854_775_808.0)],
                vec![Value::Float(9_223_372_036_854_774_784.0)], // 2^63 - 1024
                vec![Value::Float(-0.0)],
                vec![Value::Float(0.0)],
                vec![Value::Float(9_223_372_036_854_775_808.0)],
            ],
        );
        let rel = ColRelation::from_table(&t, "t");
        let aggs = [AggSpec::new(None, "n")];
        let grouped = materialize(&rel.group_by(&[0], &aggs).unwrap().relation());
        assert_eq!(grouped.rows.len(), 3, "rows: {:?}", grouped.rows);
        let reference = oracle(&[&t], "SELECT t.f, COUNT(*) AS n FROM t GROUP BY t.f");
        assert_eq!(sorted_rows(&grouped), sorted_rows(&reference));
    }

    /// A tiny budget forces every typed join arm (INT, TEXT, `Value`)
    /// through the Grace spill path; the composed relation must
    /// materialize identically — same rows, same order.
    #[test]
    fn spilled_hash_join_materializes_identically() {
        use crate::exec::budget::with_budget;
        let l = ints("l", &[Some(1), Some(2), None, Some(2), Some(7), Some(2)]);
        let r = ints("r", &[Some(2), None, Some(2), Some(1), Some(8)]);
        let resident = ColRelation::from_table(&l, "l")
            .hash_join(&ColRelation::from_table(&r, "r"), 0, 0)
            .unwrap();
        let spilled = with_budget(Some(1), || {
            ColRelation::from_table(&l, "l").hash_join(&ColRelation::from_table(&r, "r"), 0, 0)
        })
        .unwrap();
        assert_eq!(materialize(&spilled).rows, materialize(&resident).rows);
    }

    #[test]
    fn join_composes_prior_selections() {
        let l = ints("l", &[Some(1), Some(2), Some(3), Some(4)]);
        let r = ints("r", &[Some(4), Some(3), Some(2), Some(1)]);
        let cl = ColRelation::from_table_filtered(&l, "l", &pred(&l, "k >= 3"));
        let cr = ColRelation::from_table_filtered(&r, "r", &pred(&r, "k <= 3"));
        let out = cl.hash_join(&cr, 0, 0).unwrap();
        assert_eq!(
            sorted_rows(&materialize(&out)),
            vec![vec![3.into(), 3.into()]]
        );
    }

    #[test]
    fn cross_then_select_matches_reference() {
        let l = ints("l", &[Some(1), Some(2)]);
        let r = ints("r", &[Some(10), Some(20), Some(30)]);
        let cl = ColRelation::from_table(&l, "l");
        let cr = ColRelation::from_table(&r, "r");
        let crossed = cl.cross(&cr).unwrap();
        assert_eq!(crossed.len(), 6);
        let picked = crossed.select(&where_pred(crossed.columns(), "r.k > 15").unwrap());
        assert_eq!(picked.len(), 4);
        let reference = oracle(&[&l, &r], "SELECT l.k, r.k FROM l, r WHERE r.k > 15");
        assert_eq!(sorted_rows(&materialize(&picked)), sorted_rows(&reference));
    }

    #[test]
    fn group_by_matches_materialized_group_by() {
        let l = ints("l", &[Some(1), Some(2), Some(1), Some(2), Some(1)]);
        let r = ints("r", &[Some(1), Some(2)]);
        let joined = ColRelation::from_table(&l, "l")
            .hash_join(&ColRelation::from_table(&r, "r"), 0, 0)
            .unwrap();
        let aggs = [AggSpec::new(None, "n")];
        let grouped = materialize(&joined.group_by(&[1], &aggs).unwrap().relation());
        let reference = oracle(
            &[&l, &r],
            "SELECT r.k, COUNT(*) AS n FROM l, r WHERE l.k = r.k GROUP BY r.k",
        );
        assert_eq!(sorted_rows(&grouped), sorted_rows(&reference));
    }

    #[test]
    fn project_applies_order_and_literals() {
        let t = ints("t", &[Some(3), Some(1), Some(2)]);
        let rel = ColRelation::from_table(&t, "t");
        let order = rel.sort_order(&[SortKey::asc(0)], None);
        let out = rel.project(
            vec![
                RelColumn::bare("k", DataType::Int),
                RelColumn::bare("c", DataType::Int),
            ],
            &[Pick::Col(0), Pick::Lit(Value::Int(7))],
            Some(&order),
        );
        assert_eq!(
            out.rows,
            vec![
                vec![1.into(), 7.into()],
                vec![2.into(), 7.into()],
                vec![3.into(), 7.into()],
            ]
        );
    }

    #[test]
    fn sort_order_is_stable_on_ties() {
        let t = table(
            "t",
            vec![
                Column::new("k", DataType::Int),
                Column::new("i", DataType::Int),
            ],
            vec![
                vec![1.into(), 0.into()],
                vec![0.into(), 1.into()],
                vec![1.into(), 2.into()],
                vec![0.into(), 3.into()],
            ],
        );
        let rel = ColRelation::from_table(&t, "t");
        assert_eq!(rel.sort_order(&[SortKey::asc(0)], None), vec![1, 3, 0, 2]);
        // The cut of a top-k falls inside the run of ties on 0.
        assert_eq!(rel.sort_order(&[SortKey::asc(0)], Some(1)), vec![1]);
        assert_eq!(rel.sort_order(&[SortKey::asc(0)], Some(3)), vec![1, 3, 0]);
    }

    /// ORDER BY's words order rows as the rank-decorated comparator does,
    /// stably: over NULLs, −0.0 beside 0.0, NaNs, text by rank whatever
    /// the interning order, ascending and descending, one key or two, whole
    /// and as a top-k.
    #[test]
    fn word_order_is_the_cell_comparator() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let floats = [-0.0, 0.0, f64::NAN, -f64::NAN, 1.5, -2.0, f64::INFINITY];
        let texts = [
            "word-sort-pear",
            "word-sort-Apple",
            "word-sort-",
            "word-sort-apple",
        ];
        let cols = vec![
            Column::nullable("i", DataType::Int),
            Column::nullable("f", DataType::Float),
            Column::nullable("s", DataType::Text),
            Column::nullable("b", DataType::Bool),
        ];
        // Interned out of rank order before the snapshot is taken.
        let _ = texts.map(Value::text);
        let ranks = crate::intern::rank_map();
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let cell = |rng: &mut StdRng, k: usize| match (rng.gen_range(0..5), k) {
                (0, _) => Value::Null,
                (_, 0) => Value::Int(rng.gen_range(-3..3)),
                (_, 1) => Value::Float(floats[rng.gen_range(0..floats.len())]),
                (_, 2) => Value::text(texts[rng.gen_range(0..texts.len())]),
                _ => Value::Bool(rng.gen_range(0..2) == 1),
            };
            let rows: Vec<Vec<Value>> = (0..rng.gen_range(0..40))
                .map(|_| (0..4).map(|k| cell(&mut rng, k)).collect())
                .collect();
            let t = table("t", cols.clone(), rows);
            let rel = ColRelation::from_table(&t, "t");
            let keys: Vec<SortKey> = (0..rng.gen_range(1..=2))
                .map(|_| SortKey {
                    column: rng.gen_range(0..4),
                    descending: rng.gen_range(0..2) == 1,
                })
                .collect();
            let cells = |r: usize, k: &SortKey| SortCell::new(t.value(r, k.column), &ranks);
            let mut want: Vec<u32> = (0..t.len() as u32).collect();
            want.sort_by(|&a, &b| {
                (keys.iter())
                    .map(|k| {
                        let ord = SortCell::total_cmp(cells(a as usize, k), cells(b as usize, k));
                        if k.descending {
                            ord.reverse()
                        } else {
                            ord
                        }
                    })
                    .find(|o| o.is_ne())
                    .unwrap_or(Ordering::Equal)
            });
            assert_eq!(rel.sort_order(&keys, None), want, "seed {seed}: {keys:?}");
            let k = rng.gen_range(0..=t.len());
            assert_eq!(
                rel.sort_order(&keys, Some(k)),
                want[..k],
                "seed {seed}: top {k}"
            );
        }
    }
}
