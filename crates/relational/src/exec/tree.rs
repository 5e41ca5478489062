//! Grouped and DISTINCT queries over a foreign-key tree, with no join
//! pair built: one leaves-to-root pass of row weights (Yannakakis' reduction,
//! counting).
//!
//! ETable's SQL is a `SELECT DISTINCT` or a `GROUP BY` over an acyclic join
//! of foreign keys. When every grouped (or DISTINCT) column lies in one
//! table, the root, the query needs only each root row's *weight*: the
//! number of join results it takes part in. The pass computes it table by
//! table, children before parents. A table starts from its scan (weight 1
//! for a row the scan kept, 0 for one it filtered out), and each child
//! folds its *message* in — for every row of the parent, the weight the
//! child's rows that join it sum to:
//!
//! * a child that holds the foreign key sends by a scatter-add through its
//!   `fwd` (each child row adds its weight to the row it references);
//! * a child the parent references sends by a gather through the parent's
//!   `fwd` (each parent row reads the weight of the row it references).
//!
//! Each message is folded by one of three walks ([`Walk`]), the one that
//! weighs the fewest rows ([`walk_rule`]): every row of both tables, only
//! the child's weighed rows (a sparse message: ascending rows plus weights,
//! through the index's `Rev` lists where the parent holds the key), or
//! only the parent's held rows. The root's rows of nonzero weight are then
//! grouped or made DISTINCT on the usual kernels: `COUNT(*)` sums the
//! weights, `COUNT(col)` the weights of rows where `col` is not NULL, and
//! MIN / MAX ignore them.
//!
//! [`joins_rule`] says when the pass replaces the greedy join loop. Its
//! conditions are what makes the result byte-identical to the greedy
//! loop's: only the order of the join results differs, so group order
//! (first occurrence) must not matter — ORDER BY names every key — and
//! nothing that folds in row order may run (SUM and AVG of floats round
//! by it; MIN, MAX and DISTINCT keep the first of equal FLOAT cells, which
//! may differ in their bits).

use crate::colrel::{cardinality_error, RowIds};
use crate::database::Database;
use crate::exec::agg::AggFunc;
use crate::fk_index::{FkIndex, DANGLING};
use crate::scan::Bits;
use crate::sql::analyze::{ColumnId, TypedPlan};
use crate::value::DataType;
use crate::Result;

/// How the executor runs a plan's joins: [`joins_rule`]'s answer.
pub(crate) enum Joins<'d> {
    /// The greedy join loop: every join pair is built.
    Greedy,
    /// One pass of row weights up a foreign-key tree.
    Tree(FkTree<'d>),
}

/// A plan's join edges as a tree of stored foreign-key indexes, rooted at
/// the table every grouped or DISTINCT column is in.
pub(crate) struct FkTree<'d> {
    /// The root table (a plan table index).
    pub(crate) root: usize,
    /// Every other table's edge to its parent, children before parents.
    edges: Vec<TreeEdge<'d>>,
}

/// One edge of an [`FkTree`].
struct TreeEdge<'d> {
    child: usize,
    parent: usize,
    /// The edge's stored index: its `fwd` runs over the child's rows when
    /// `child_refs`, else over the parent's.
    ix: &'d FkIndex,
    /// Whether the child holds the foreign key (it references the parent).
    child_refs: bool,
}

/// Whether `plan` runs as a tree pass (module docs): its tables are two
/// or more, its join edges are stored foreign-key indexes that span them
/// as a tree (no cross product, no cycle, no residual predicate), and
/// [`root_of`] finds the table its grouped or DISTINCT columns are in.
/// Every other plan runs the greedy loop.
pub(crate) fn joins_rule<'d>(db: &'d Database, plan: &TypedPlan) -> Result<Joins<'d>> {
    let n = plan.tables.len();
    let shaped = n >= 2 && plan.residual.is_empty() && plan.edges.len() == n - 1;
    let Some(root) = root_of(plan).filter(|_| shaped) else {
        return Ok(Joins::Greedy);
    };
    let key = |c: ColumnId| (plan.tables[c.table].name.as_str(), c.column);
    // (referencing table, referenced table, index) per edge.
    let mut links = Vec::with_capacity(n - 1);
    for e in &plan.edges {
        let (l, r) = (e.left, e.right);
        let link = match db.fk_index_on(key(l), key(r))? {
            Some(ix) => (l.table, r.table, ix),
            None => match db.fk_index_on(key(r), key(l))? {
                Some(ix) => (r.table, l.table, ix),
                None => return Ok(Joins::Greedy),
            },
        };
        links.push(link);
    }
    // Breadth first from the root: n - 1 edges that reach every table
    // form a tree.
    let (mut order, mut seen) = (vec![root], vec![false; n]);
    seen[root] = true;
    let mut edges = Vec::with_capacity(n - 1);
    let mut next = 0;
    while let Some(&parent) = order.get(next) {
        next += 1;
        for &(from, to, ix) in &links {
            let (child, child_refs) = match (from == parent, to == parent) {
                (true, _) => (to, false),
                (_, true) => (from, true),
                _ => continue,
            };
            if !seen[child] {
                seen[child] = true;
                order.push(child);
                edges.push(TreeEdge {
                    child,
                    parent,
                    ix,
                    child_refs,
                });
            }
        }
    }
    if order.len() < n {
        return Ok(Joins::Greedy);
    }
    edges.reverse();
    Ok(Joins::Tree(FkTree { root, edges }))
}

/// The table a tree pass would be rooted at, if the query's tail reads
/// one table only and cannot tell the join order:
///
/// * grouped: every key and aggregate input is in that table, the
///   aggregates are `COUNT`, `MIN` and `MAX` only, and ORDER BY names
///   every key (or there is none: a global aggregate is one group);
/// * DISTINCT: every output column and ORDER BY key is in that table, and
///   ORDER BY names every output column.
///
/// No key, MIN / MAX input or DISTINCT column may be a FLOAT: equal floats
/// can differ in their bits (`-0.0`, NaNs), and which one survives follows
/// row order. A global `COUNT(*)` alone reads no column; it roots at the
/// first table.
fn root_of(plan: &TypedPlan) -> Option<usize> {
    let named = |pos: usize| plan.order_by.iter().any(|k| k.column == pos);
    // (flat position, whether it may be a FLOAT).
    let mut cols: Vec<(usize, bool)> = Vec::new();
    match &plan.grouping {
        Some(g) => {
            if !(0..g.keys.len()).all(named) {
                return None;
            }
            cols.extend(g.keys.iter().map(|&k| (k, false)));
            for a in &g.aggregates {
                match a.call {
                    None => {}
                    Some((AggFunc::Count, c)) => cols.push((c, true)),
                    Some((AggFunc::Min | AggFunc::Max, c)) => cols.push((c, false)),
                    Some((AggFunc::Sum | AggFunc::Avg, _)) => return None,
                }
            }
        }
        None if plan.distinct => {
            for p in &plan.picks {
                if let crate::colrel::Pick::Col(c) = *p {
                    if !named(c) {
                        return None;
                    }
                    cols.push((c, false));
                }
            }
            if cols.is_empty() {
                return None;
            }
            cols.extend(plan.order_by.iter().map(|k| (k.column, true)));
        }
        None => return None,
    }
    let mut root = None;
    for (pos, float_ok) in cols {
        let c = plan.column_id(pos)?;
        let float = plan.tables[c.table].columns[c.column].data_type == DataType::Float;
        if (float && !float_ok) || root.is_some_and(|t| t != c.table) {
            return None;
        }
        root = Some(c.table);
    }
    Some(root.unwrap_or(0))
}

/// How one message is folded into its parent's weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Walk {
    /// Every row of the table that holds the key, and every row of the
    /// parent.
    Dense,
    /// Only the child's weighed rows: a sparse message, walked through
    /// the `Rev` lists when the parent holds the key.
    Sparse,
    /// Only the parent's held rows, walked through the `Rev` lists when
    /// the child holds the key.
    Held,
}

impl Walk {
    /// The walk's EXPLAIN name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Walk::Dense => "dense",
            Walk::Sparse => "sparse",
            Walk::Held => "held",
        }
    }
}

/// The "sparse or dense message" rule: the walk that weighs the fewest
/// rows, given what each would weigh (`[Dense, Sparse, Held]`, as
/// [`walk_costs`] counts them); `Dense` on a tie, since it needs no
/// reverse list.
pub(crate) fn walk_rule(costs: [usize; 3]) -> Walk {
    let walks = [Walk::Dense, Walk::Sparse, Walk::Held];
    let best = (1..3).fold(0, |b, i| if costs[i] < costs[b] { i } else { b });
    walks[best]
}

/// The rows each walk of `e` would weigh, `[Dense, Sparse, Held]`: the
/// rows it reads a link or a weight of, and the rows it writes. A walk
/// through the `Rev` lists starts from a side's listed rows (a scan's
/// selection, or an earlier sparse message), so it is priced only where
/// that side lists its rows, by their lists' lengths; an unlisted side is
/// weighed whole by the dense walk (`usize::MAX`).
fn walk_costs(e: &TreeEdge, child: &Weights, parent: &Weights) -> [usize; 3] {
    let listed = |w: &Weights| -> usize {
        (w.rows.as_ref()).map_or(usize::MAX, |rows| {
            let rev = e.ix.rev();
            rows.iter().map(|&r| rev.of_row(r).len()).sum()
        })
    };
    let words = parent.len / 64;
    if e.child_refs {
        // Dense: every child row scattered, every parent row folded.
        // Sparse: each weighed child row read, then its target marked in a
        // bitmap over the parent (a word per 64 rows) and folded. Held:
        // each held parent row and its reverse list.
        let held = listed(parent).saturating_add(parent.held());
        [child.len + parent.len, 2 * child.held() + words, held]
    } else {
        // Dense: every parent row gathers. Sparse: each row the child's
        // reverse lists name, read, then marked and written. Held: each
        // held parent row gathers.
        let sparse = listed(child).saturating_mul(2).saturating_add(words);
        [parent.len, sparse, parent.held()]
    }
}

/// One table's weights, as the pass folds its subtree in.
#[derive(Debug, Default)]
struct Weights {
    /// Row -> weight; `None`: every row weighs 1.
    w: Option<Vec<u32>>,
    /// The rows that may weigh more than 0, ascending; `None`: any row.
    /// Where both are held, `w` is 0 outside `rows`.
    rows: Option<Vec<u32>>,
    /// The table's stored rows.
    len: usize,
}

impl Weights {
    /// A scan's weights: 1 on the rows it kept.
    fn of_scan(ids: RowIds, len: usize) -> Weights {
        match ids {
            RowIds::Identity => Weights {
                w: None,
                rows: None,
                len,
            },
            RowIds::Sel(rows) => {
                debug_assert!(rows.windows(2).all(|p| p[0] < p[1]), "scan rows ascend");
                let mut w = vec![0; len];
                rows.iter().for_each(|&r| w[r as usize] = 1);
                Weights {
                    w: Some(w),
                    rows: Some(rows),
                    len,
                }
            }
        }
    }

    fn at(&self, r: usize) -> u32 {
        self.w.as_ref().map_or(1, |w| w[r])
    }

    /// How many rows may weigh more than 0.
    fn held(&self) -> usize {
        self.rows.as_ref().map_or(self.len, Vec::len)
    }

    /// Runs `f` on every row that may weigh more than 0, ascending.
    fn each(&self, f: impl FnMut(usize)) {
        each_row(self.rows.as_deref(), self.len, f);
    }
}

/// Runs `f` on `rows`, or on `0..len` when `None`.
fn each_row(rows: Option<&[u32]>, len: usize, mut f: impl FnMut(usize)) {
    match rows {
        Some(rows) => rows.iter().for_each(|&r| f(r as usize)),
        None => (0..len).for_each(f),
    }
}

/// What one fold did, for the work counters: rows weighed, link rows
/// read, and links that carried weight.
#[derive(Default)]
struct Tally {
    weighed: usize,
    probed: usize,
    matched: usize,
}

/// Folds `child`'s message along `e` into `parent`'s weights by `walk`,
/// counts its work, and answers the rows it weighed.
fn fold(e: &TreeEdge, parent: Weights, child: &Weights, walk: Walk) -> (Weights, usize) {
    let fwd = &e.ix.fwd()[..];
    let live = |t: u32| t < DANGLING;
    let mut t = Tally::default();
    let len = parent.len;
    let out = match (e.child_refs, walk) {
        // Scatter-add from every child row (dense) or from the child's
        // weighed rows, whose targets a bitmap lists (sparse); then fold
        // in the parent's own weights.
        (true, Walk::Dense | Walk::Sparse) => {
            let sparse = walk == Walk::Sparse;
            let mut acc = vec![0u32; len];
            let mut hit = sparse.then(|| Bits::new(len));
            let from = if sparse { child.rows.as_deref() } else { None };
            each_row(from, fwd.len(), |s| {
                let (to, w) = (fwd[s], child.at(s));
                t.probed += 1;
                if live(to) && w > 0 {
                    let a = &mut acc[to as usize];
                    *a = a.saturating_add(w);
                    hit.iter_mut().for_each(|h| h.set(to));
                    t.matched += 1;
                }
            });
            let mut fold_in = |r: usize| {
                acc[r] = acc[r].saturating_mul(parent.at(r));
                acc[r] > 0
            };
            let rows = match hit {
                Some(hit) => {
                    t.weighed = 2 * t.probed + len / 64;
                    let mut rows = hit.rows();
                    rows.retain(|&r| fold_in(r as usize));
                    Some(rows)
                }
                None => {
                    t.weighed = t.probed + len;
                    for r in 0..len {
                        fold_in(r);
                    }
                    parent.rows
                }
            };
            Weights {
                w: Some(acc),
                rows,
                len,
            }
        }
        // Each held parent row sums its reverse list.
        (true, Walk::Held) => {
            let rev = e.ix.rev();
            let (held, w) = (parent.rows, parent.w);
            let mut w = w.unwrap_or_else(|| vec![1; len]);
            let mut rows = Vec::new();
            each_row(held.as_deref(), len, |r| {
                let list = rev.of_row(r as u32);
                t.probed += list.len();
                let mut m = 0u32;
                for &s in list {
                    let ws = child.at(s as usize);
                    t.matched += usize::from(ws > 0);
                    m = m.saturating_add(ws);
                }
                w[r] = w[r].saturating_mul(m);
                if w[r] > 0 {
                    rows.push(r as u32);
                }
            });
            t.weighed = held.map_or(len, |h| h.len()) + t.probed;
            Weights {
                w: Some(w),
                rows: Some(rows),
                len,
            }
        }
        // Each parent row — every one, or the held ones — gathers the
        // weight of the row it references.
        (false, Walk::Dense | Walk::Held) => {
            let dense = walk == Walk::Dense;
            let (held, w) = (parent.rows, parent.w);
            let mut w = w.unwrap_or_else(|| vec![1; len]);
            let mut rows = Vec::new();
            let walked = if dense { None } else { held.as_deref() };
            each_row(walked, len, |r| {
                let to = fwd[r];
                let m = if live(to) { child.at(to as usize) } else { 0 };
                t.probed += 1;
                t.matched += usize::from(m > 0);
                w[r] = w[r].saturating_mul(m);
                if !dense && w[r] > 0 {
                    rows.push(r as u32);
                }
            });
            t.weighed = t.probed;
            let rows = if dense { held } else { Some(rows) };
            Weights {
                w: Some(w),
                rows,
                len,
            }
        }
        // The child's weighed rows walk their reverse lists: a sparse
        // message.
        (false, Walk::Sparse) => {
            let rev = e.ix.rev();
            let (mut w, mut hit) = (vec![0u32; len], Bits::new(len));
            child.each(|c| {
                let (wc, list) = (child.at(c), rev.of_row(c as u32));
                t.probed += list.len();
                for &r in list {
                    let v = wc.saturating_mul(parent.at(r as usize));
                    if v > 0 {
                        w[r as usize] = v;
                        hit.set(r);
                        t.matched += 1;
                    }
                }
            });
            t.weighed = 2 * t.probed + len / 64;
            Weights {
                w: Some(w),
                rows: Some(hit.rows()),
                len,
            }
        }
    };
    // A walk through the reverse lists, or from listed rows through `fwd`.
    let (rev, fwd) = match (walk, e.child_refs) {
        (Walk::Sparse, false) | (Walk::Held, true) => (1, 0),
        (Walk::Sparse, true) | (Walk::Held, false) => (0, 1),
        (Walk::Dense, _) => (0, 0),
    };
    crate::work::count(|w| {
        w.rows_weighed += t.weighed as u64;
        w.rows_probed += t.probed as u64;
        w.rows_matched += t.matched as u64;
        w.reverse_walks += rev;
        w.forward_walks += fwd;
    });
    (out, t.weighed)
}

/// What the pass did at one table: the walk its message took to its
/// parent and the rows that walk weighed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TreeStep {
    /// The child table (a plan table index).
    pub(crate) table: usize,
    pub(crate) walk: Walk,
    pub(crate) weighed: usize,
}

/// The pass's answer: the root's rows of nonzero weight, ascending, and
/// their weights.
pub(crate) struct Weighed {
    pub(crate) rows: Vec<u32>,
    pub(crate) weights: Vec<u32>,
    /// One step per non-root table, in the order the pass folded them.
    pub(crate) steps: Vec<TreeStep>,
}

/// Runs the pass over `tree`, given each plan table's scan selection and
/// stored row count (in plan order). Every message takes [`walk_rule`]'s
/// walk unless `force` names one. Weights saturate at `u32::MAX`, and
/// roots weighing `u32::MAX` join results or more in all are refused with
/// the greedy loop's cardinality error.
pub(crate) fn weigh(
    tree: &FkTree,
    scans: Vec<(RowIds, usize)>,
    force: Option<Walk>,
) -> Result<Weighed> {
    let mut weights: Vec<Weights> = (scans.into_iter())
        .map(|(ids, len)| Weights::of_scan(ids, len))
        .collect();
    let mut steps = Vec::with_capacity(tree.edges.len());
    for e in &tree.edges {
        let child = std::mem::take(&mut weights[e.child]);
        let parent = std::mem::take(&mut weights[e.parent]);
        let walk = force.unwrap_or_else(|| walk_rule(walk_costs(e, &child, &parent)));
        let (folded, weighed) = fold(e, parent, &child, walk);
        weights[e.parent] = folded;
        steps.push(TreeStep {
            table: e.child,
            walk,
            weighed,
        });
    }
    crate::work::count(|w| w.tree_passes += 1);
    let root = std::mem::take(&mut weights[tree.root]);
    let (mut rows, mut kept, mut total) = (Vec::new(), Vec::new(), 0u64);
    root.each(|r| {
        let w = root.at(r);
        if w > 0 {
            rows.push(r as u32);
            kept.push(w);
            total += u64::from(w);
        }
    });
    if total >= u64::from(u32::MAX) {
        return Err(cardinality_error());
    }
    Ok(Weighed {
        rows,
        weights: kept,
        steps,
    })
}
