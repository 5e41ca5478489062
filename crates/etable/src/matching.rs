//! Instance matching `m(Q)` (paper Definition 4).
//!
//! Two strategies:
//!
//! * [`match_full`] materializes the full graph relation
//!   `σC1(R1) ∗p1 σC2(R2) ∗ ... ∗ σCn(Rn)` exactly as Definition 4 states
//!   (used for Figure 8 and as the reference in tests);
//! * [`match_primary`] runs a two-pass message-passing algorithm
//!   (Yannakakis' algorithm for acyclic queries) that computes, per pattern
//!   node, the set of instance nodes participating in *some* full match.
//!   This implements the paper's §6.2 optimization — "we partition a long
//!   SQL query into multiple queries ... and merge them" — the ETable only
//!   needs per-row *sets* of related entities, never the full cross
//!   product. It starts at the pattern's most selective node and grows
//!   the other nodes' candidates along graph edges where that is cheaper
//!   than scanning their types.
//!
//! A node is a row of its type, so the matcher holds sets of rows: bitmaps
//! through the passes, then one form per pattern node — the primary's
//! rows listed, as the table lists them, any other's in the bitmap a
//! row's walk tests, or "every row", which holds none.
//!
//! Each pattern-tree hop runs once per unit of work, through one hop
//! routine. A table row's related sets come from one walk of the pattern
//! tree from its primary row (`MatchResult::walk_row`): a hop's frontier
//! is filled from its parent hop's, so participating columns that share a
//! path prefix share its frontiers. The down pass re-checks, for a node
//! grown from its parent's start, only the rows adjacent to the parent
//! rows dropped since (`Recheck`).
//!
//! For tree-shaped patterns both agree:
//! `Π_τ(match_full(Q)) == match_primary(Q).projection(τ)` (property-tested).

use crate::graph_relation::GraphRelation;
use crate::pattern::{PatternNodeId, QueryPattern};
use crate::{work, Error, Result};
use etable_relational::scan::Bits;
use etable_tgm::{EdgeTypeId, InstanceGraph, NodeId, Span, Tgdb};

/// The rows of one pattern node's type that take part in a full match:
/// every row, the primary's rows listed ascending, or another node's rows
/// marked in a bitmap.
#[derive(Debug, Clone, PartialEq)]
enum Held {
    All,
    Listed(Vec<u32>),
    Marked(Bits),
}

/// The decomposed matching result: per pattern node, its type's span and
/// the rows of it that appear in at least one complete match, each in the
/// one form its reader needs (see the module docs).
#[derive(Debug, Clone)]
pub struct MatchResult {
    /// The pattern this result was computed for.
    pub pattern: QueryPattern,
    held: Vec<(Span, Held)>,
}

/// One hop of the pattern tree walked from the primary: the pattern node
/// it reaches, the edge type oriented towards it, and the hop whose
/// frontier it starts from (`None`: the primary row). [`MatchResult::hops`]
/// lists them parents first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Hop {
    pub(crate) node: PatternNodeId,
    pub(crate) edge: EdgeTypeId,
    pub(crate) from: Option<usize>,
}

/// Marks hop `at` and every hop it starts from in `needs`: what a walk
/// must fill to reach `at`.
pub(crate) fn mark_chain(hops: &[Hop], at: usize, needs: &mut [bool]) {
    let mut at = Some(at);
    while let Some(h) = at {
        needs[h] = true;
        at = hops[h].from;
    }
}

/// The frontiers one row's walk fills, one per hop, reused from row to
/// row. Nothing is allocated until a walk needs it.
#[derive(Debug, Default)]
pub(crate) struct Frontiers {
    /// One per hop: the nodes it reached in the last walk that filled it.
    frontiers: Vec<Vec<NodeId>>,
    /// Empty between hops: every row a hop adds it removes again. Grown by
    /// each hop that needs it to that hop's target type's rows.
    seen: Bits,
    /// Neighbors visited by the walks, counted (`work::Work::walk_visits`)
    /// once, when the frontiers are dropped, not once a row.
    visited: u64,
}

impl Drop for Frontiers {
    fn drop(&mut self) {
        if self.visited > 0 {
            work::count(|w| w.walk_visits += self.visited);
        }
    }
}

impl Frontiers {
    /// The nodes hop `at` reached in the last walk that filled it, first
    /// reached first.
    pub(crate) fn at(&self, at: usize) -> &[NodeId] {
        &self.frontiers[at]
    }
}

/// One hop along `edge`: appends to `out` the neighbors of `from`'s nodes
/// that are rows of `span` held by `keep` (`None`: every row), each once,
/// first reached first, and returns how many neighbors it visited. One
/// node's neighbor list holds no duplicates (an edge is a key of its source
/// relation); only a wider `from` needs `seen`, which it leaves empty.
fn hop(
    graph: &InstanceGraph,
    edge: EdgeTypeId,
    from: &[NodeId],
    (span, keep): (Span, Option<&Bits>),
    seen: &mut Bits,
    out: &mut Vec<NodeId>,
) -> u64 {
    let (first, start) = (span.first().0, out.len());
    let dedup = from.len() > 1;
    if dedup {
        seen.grow(span.len());
    }
    let mut visited = 0;
    for &f in from {
        for nb in graph.neighbors(edge, f) {
            visited += 1;
            let row = nb.0 - first;
            if keep.is_none_or(|bits| bits.contains(row)) && !(dedup && seen.contains(row)) {
                if dedup {
                    seen.set(row);
                }
                out.push(nb);
            }
        }
    }
    if dedup {
        out[start..].iter().for_each(|nb| seen.unset(nb.0 - first));
    }
    visited
}

impl MatchResult {
    /// The result in which nothing matches `pattern`: the input of a table
    /// that has its columns but no rows.
    pub fn empty(pattern: &QueryPattern) -> MatchResult {
        MatchResult {
            pattern: pattern.clone(),
            held: vec![(Span::default(), Held::All); pattern.len()],
        }
    }

    /// The matched primary nodes (`R = Π_τa(m(Q))`), ascending, read in
    /// place.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone + '_ {
        let (span, listed) = self.primary();
        let len = listed.map_or(span.len(), <[u32]>::len);
        (0..len).map(move |i| span.node(listed.map_or(i as u32, |rows| rows[i])))
    }

    /// The `i`-th of [`MatchResult::rows`] (`i < rows().len()`).
    pub(crate) fn primary_at(&self, i: usize) -> NodeId {
        let (span, listed) = self.primary();
        span.node(listed.map_or(i as u32, |rows| rows[i]))
    }

    /// The primary's span and listed rows (`None`: all of them; only the
    /// primary is listed, and it is never marked).
    fn primary(&self) -> (Span, Option<&[u32]>) {
        match &self.held[self.pattern.primary.0] {
            (span, Held::Listed(rows)) => (*span, Some(rows)),
            (span, _) => (*span, None),
        }
    }

    /// Whether `node` participates in a match at pattern node `at`.
    pub fn contains(&self, at: PatternNodeId, node: NodeId) -> bool {
        let (span, held) = &self.held[at.0];
        span.row(node).is_some_and(|row| match held {
            Held::All => true,
            Held::Listed(rows) => rows.binary_search(&row).is_ok(),
            Held::Marked(bits) => bits.contains(row),
        })
    }

    /// The nodes that participate in a match at pattern node `at`
    /// (`Π_at(m(Q))`), ascending, whatever form they are held in.
    pub fn projection(&self, at: PatternNodeId) -> Vec<NodeId> {
        let (span, held) = &self.held[at.0];
        match held {
            Held::All => span.iter().collect(),
            Held::Listed(rows) => rows.iter().map(|&r| span.node(r)).collect(),
            Held::Marked(bits) => bits.rows().into_iter().map(|r| span.node(r)).collect(),
        }
    }

    /// The nodes related to `row` (a matched primary node) at pattern node
    /// `target`: `Π_type(target) σ_{τa = row}(m(Q))`, first reached first,
    /// computed by walking the unique pattern path and intersecting with
    /// the matched sets.
    pub fn related(&self, tgdb: &Tgdb, row: NodeId, target: PatternNodeId) -> Result<Vec<NodeId>> {
        let hops = self.hops(tgdb)?;
        if target == self.pattern.primary {
            return Ok(vec![row]);
        }
        let at = (hops.iter().position(|h| h.node == target))
            .ok_or_else(|| Error::InvalidNode(format!("{target} out of range")))?;
        let mut needs = vec![false; hops.len()];
        mark_chain(&hops, at, &mut needs);
        let mut walk = Frontiers::default();
        self.walk_row(&tgdb.instances, &hops, &needs, row, &mut walk);
        Ok(walk.at(at).to_vec())
    }

    /// The pattern tree walked from the primary, one [`Hop`] per other
    /// node, parents first.
    pub(crate) fn hops(&self, tgdb: &Tgdb) -> Result<Vec<Hop>> {
        let tree = self.pattern.tree(tgdb, self.pattern.primary)?;
        let mut hops: Vec<Hop> = Vec::with_capacity(tree.len() - 1);
        for step in &tree {
            if let Some(via) = step.via {
                let from = hops.iter().position(|h| h.node == via.parent);
                hops.push(Hop {
                    node: step.node,
                    edge: via.edge_type,
                    from,
                });
            }
        }
        Ok(hops)
    }

    /// One walk of the pattern tree from `row` (a matched primary node):
    /// fills the frontier of every hop `needs` marks (each with the hops it
    /// starts from marked too, as [`mark_chain`] marks them) from its
    /// parent hop's, so a shared path prefix is walked once.
    pub(crate) fn walk_row(
        &self,
        graph: &InstanceGraph,
        hops: &[Hop],
        needs: &[bool],
        row: NodeId,
        walk: &mut Frontiers,
    ) {
        let Frontiers {
            frontiers,
            seen,
            visited,
        } = walk;
        frontiers.resize_with(hops.len(), Vec::new);
        for (at, h) in hops.iter().enumerate().filter(|&(at, _)| needs[at]) {
            let (done, rest) = frontiers.split_at_mut(at);
            let from = h.from.map_or(std::slice::from_ref(&row), |p| &done[p]);
            // A hop never reaches the primary, which alone is listed.
            let (span, held) = &self.held[h.node.0];
            let keep = match held {
                Held::Marked(bits) => Some(bits),
                _ => None,
            };
            rest[0].clear();
            *visited += hop(graph, h.edge, from, (*span, keep), seen, &mut rest[0]);
        }
    }
}

/// Materializes the full graph relation of Definition 4 by walking the
/// pattern tree from the primary node outward, expanding one edge at a time
/// (each expansion is a `∗` join against a filtered base relation).
pub fn match_full(tgdb: &Tgdb, pattern: &QueryPattern) -> Result<GraphRelation> {
    let tree = pattern.tree(tgdb, pattern.primary)?;
    let root = pattern.node(pattern.primary);
    let mut rel = GraphRelation::base(tgdb, pattern.primary, root.node_type, &root.filter)?;
    for step in &tree {
        if let Some(via) = step.via {
            let filter = &pattern.node(step.node).filter;
            rel = rel.expand(tgdb, via.edge_type, via.parent, step.node, filter)?;
        }
    }
    Ok(rel)
}

/// Computes the per-node participating sets with two passes over the
/// pattern tree (Yannakakis), avoiding the full cross product.
///
/// The passes are rooted at a *seed*: a node with a `NodeIs` atom (one
/// candidate), else the filtered node of the smallest type, else the
/// primary. Walking the tree from there, parents first, every other node
/// starts from its parent's neighbors passed through its own filter
/// when the parent's degree sum is below the node's type size, and from
/// its whole type filtered otherwise. Either start holds every node of a
/// full match (expanding from the parent is itself a semi-join), so the
/// passes reach the same fixpoint — the projections of the full join —
/// from any of them.
///
/// The down pass re-checks a node's rows against its parent's final rows.
/// A node grown from its parent's start `S0` needs only the rows adjacent
/// to `S0 \ S_final`: each of its rows has a neighbor in `S0`, the parent
/// only loses rows, so a row with no neighbor left in `S_final` had one in
/// what was dropped (`recheck_rule`).
pub fn match_primary(tgdb: &Tgdb, pattern: &QueryPattern) -> Result<MatchResult> {
    match_with(tgdb, pattern, None, None)
}

/// Where a pattern node other than the seed starts its candidates: its
/// parent's candidates' neighbors along the edge, or its whole type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Start {
    Expand,
    Scan,
}

/// The start rule: expand when the parent's candidates have fewer
/// neighbors in all (`degrees`, summed only until the sum reaches the
/// type's size) than the node's type has nodes (`type_len`), else scan.
pub(crate) fn start_rule(degrees: impl IntoIterator<Item = usize>, type_len: usize) -> Start {
    let sum = degrees
        .into_iter()
        .try_fold(0, |sum, d| Some(sum + d).filter(|&s| s < type_len));
    if sum.is_some() {
        Start::Expand
    } else {
        Start::Scan
    }
}

/// Which of a node's rows the down pass re-checks against its parent's
/// final rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Recheck {
    /// The rows adjacent to the parent rows dropped since the node started.
    Dropped,
    /// Every row the node holds.
    All,
}

/// The down pass's candidate rule: a node whose start was expanded from
/// its parent's start re-checks only the rows under the parent rows
/// dropped since; a whole-type, `NodeIs` or whole-type-filtered start
/// re-checks every row. `force` replaces the rule where `Dropped` is exact,
/// on expanded nodes.
pub(crate) fn recheck_rule(expanded: bool, force: Option<Recheck>) -> Recheck {
    if expanded {
        force.unwrap_or(Recheck::Dropped)
    } else {
        Recheck::All
    }
}

/// [`match_primary`], with every node's start chosen by [`start_rule`] and
/// its down-pass candidates by [`recheck_rule`], or forced to `start` and
/// `recheck` (tests compare the strategies with it).
pub(crate) fn match_with(
    tgdb: &Tgdb,
    pattern: &QueryPattern,
    start: Option<Start>,
    recheck: Option<Recheck>,
) -> Result<MatchResult> {
    let graph = &tgdb.instances;
    let filters = pattern
        .nodes
        .iter()
        .map(|node| node.filter.bind(tgdb, node.node_type))
        .collect::<Result<Vec<_>>>()?;
    let spans: Vec<Span> = (pattern.nodes.iter())
        .map(|node| graph.nodes_of_type(node.node_type))
        .collect();
    let seed = pattern
        .node_ids()
        .find(|id| filters[id.0].node_is().is_some())
        .or_else(|| {
            let filtered = pattern
                .node_ids()
                .filter(|&id| !pattern.node(id).filter.is_empty());
            filtered.min_by_key(|&id| spans[id.0].len())
        })
        .unwrap_or(pattern.primary);
    let tree = pattern.tree(tgdb, seed)?;

    // Starting candidates, parents first, as bitmaps over their types'
    // rows; a node that starts as its whole type holds no row it picked.
    let mut held = vec![Bits::default(); pattern.len()];
    let mut rechecks = vec![Recheck::All; pattern.len()];
    for step in &tree {
        let (span, filter) = (spans[step.node.0], &filters[step.node.0]);
        let expand = step.via.filter(|via| {
            let parent = spans[via.parent.0];
            let degrees = held[via.parent.0].rows().into_iter();
            let degrees = degrees.map(|r| graph.degree(via.edge_type, parent.node(r)));
            start.unwrap_or_else(|| start_rule(degrees, span.len())) == Start::Expand
        });
        // A `NodeIs` filter picks its one node out of the whole type.
        let reached = expand.filter(|_| filter.node_is().is_none()).map(|via| {
            let (parent, mut bits) = (spans[via.parent.0], Bits::new(span.len()));
            held[via.parent.0].each(|r| {
                for nb in graph.neighbors(via.edge_type, parent.node(r)) {
                    bits.set(nb.0 - span.first().0);
                }
            });
            bits
        });
        rechecks[step.node.0] = recheck_rule(reached.is_some(), recheck);
        let start = match reached {
            Some(bits) if pattern.node(step.node).filter.is_empty() => bits,
            reached => match filter.select(tgdb, reached.map(|bits| bits.rows())) {
                Some(rows) => {
                    let mut bits = Bits::new(span.len());
                    rows.into_iter().for_each(|r| bits.set(r));
                    bits
                }
                None => {
                    held[step.node.0] = Bits::all(span.len());
                    continue;
                }
            },
        };
        work::count(|w| w.rows_held += start.count() as u64);
        held[step.node.0] = start;
    }

    // Drops from `cur`'s candidates every one of `rows` (`None`: every row
    // it holds) that has no candidate of pattern node `other` among its
    // `edge` neighbors, and adds the rows dropped to `cur`'s in `lost`.
    let semi_join = |held: &mut [Bits],
                     lost: &mut [Vec<u32>],
                     cur: PatternNodeId,
                     rows: Option<&[u32]>,
                     other: PatternNodeId,
                     edge| {
        let (span, first) = (spans[cur.0], spans[other.0].first().0);
        let (theirs, dropped) = (&held[other.0], &mut lost[cur.0]);
        let from = dropped.len();
        let mut check = |r: u32| {
            if !(graph.neighbors(edge, span.node(r))).any(|nb| theirs.contains(nb.0 - first)) {
                dropped.push(r);
            }
        };
        match rows {
            Some(rows) => rows.iter().for_each(|&r| check(r)),
            None => held[cur.0].each(check),
        }
        dropped[from..].iter().for_each(|&r| held[cur.0].unset(r));
    };

    let mut lost = vec![Vec::new(); pattern.len()];

    // Upward pass (children first: the tree lists parents before their
    // children, so read it backwards): a node survives only if, for every
    // child, it has at least one candidate neighbor.
    for step in tree.iter().rev() {
        if let Some(via) = step.via {
            semi_join(
                &mut held,
                &mut lost,
                via.parent,
                None,
                step.node,
                via.edge_type,
            );
        }
    }

    // Downward pass (pre-order): a node survives only if it has a
    // candidate parent. Its candidates are every row it holds, or those
    // one hop from its parent's dropped rows.
    let mut seen = Bits::default();
    for step in &tree {
        let Some(via) = step.via else { continue };
        let (node, parent) = (step.node, via.parent);
        let candidates = match rechecks[node.0] {
            Recheck::All => None,
            Recheck::Dropped => {
                let from: Vec<NodeId> = lost[parent.0]
                    .iter()
                    .map(|&r| spans[parent.0].node(r))
                    .collect();
                let (keep, mut reached) = ((spans[node.0], Some(&held[node.0])), Vec::new());
                hop(graph, via.edge_type, &from, keep, &mut seen, &mut reached);
                let first = spans[node.0].first().0;
                Some(reached.iter().map(|nb| nb.0 - first).collect::<Vec<u32>>())
            }
        };
        let rechecked = candidates
            .as_ref()
            .map_or_else(|| held[node.0].count(), Vec::len);
        work::count(|w| w.down_rechecked += rechecked as u64);
        let up_edge = tgdb.schema.edge_type(via.edge_type).reverse;
        semi_join(
            &mut held,
            &mut lost,
            node,
            candidates.as_deref(),
            parent,
            up_edge,
        );
    }

    // Each node's one form.
    let held = (pattern.node_ids().zip(held).zip(spans))
        .map(|((id, bits), span)| {
            let held = if bits.count() == span.len() {
                Held::All
            } else if id == pattern.primary {
                Held::Listed(bits.rows())
            } else {
                Held::Marked(bits)
            };
            (span, held)
        })
        .collect();
    Ok(MatchResult {
        pattern: pattern.clone(),
        held,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::pattern::{NodeFilter, PatternNodeId};
    use crate::testutil::academic_tgdb;
    use etable_relational::expr::CmpOp;
    use etable_relational::value::Value;

    /// The Figure 6 / Figure 7 query: SIGMOD papers after 2005 by authors at
    /// Korean institutions, pivoted to Authors.
    fn korea_pattern(tgdb: &etable_tgm::Tgdb) -> QueryPattern {
        let (confs, _) = tgdb.schema.node_type_by_name("Conferences").unwrap();
        let q = ops::initiate(tgdb, confs).unwrap();
        let q = ops::select(tgdb, &q, NodeFilter::cmp("acronym", CmpOp::Eq, "SIGMOD")).unwrap();
        let (pe, _) = tgdb.schema.outgoing_by_name(confs, "Papers").unwrap();
        let q = ops::add(tgdb, &q, pe).unwrap();
        let q = ops::select(tgdb, &q, NodeFilter::cmp("year", CmpOp::Gt, 2005)).unwrap();
        let papers_ty = q.primary_node().node_type;
        let (ae, _) = tgdb.schema.outgoing_by_name(papers_ty, "Authors").unwrap();
        let q = ops::add(tgdb, &q, ae).unwrap();
        let authors_ty = q.primary_node().node_type;
        let (ie, _) = tgdb
            .schema
            .outgoing_by_name(authors_ty, "Institutions")
            .unwrap();
        let q = ops::add(tgdb, &q, ie).unwrap();
        let q = ops::select(tgdb, &q, NodeFilter::like("country", "%Korea%")).unwrap();
        ops::shift(&q, crate::pattern::PatternNodeId(2)).unwrap()
    }

    #[test]
    fn bitmap_membership_agrees_with_allowed_lists() {
        let tgdb = academic_tgdb();
        let korea = korea_pattern(&tgdb);
        // The same shape without the year filter and at KDD, so that every
        // pattern node keeps some members.
        let mut kdd = korea.clone();
        kdd.nodes[0].filter = NodeFilter::cmp("acronym", CmpOp::Eq, "KDD");
        kdd.nodes[1].filter = NodeFilter::none();
        for q in [korea, kdd] {
            let m = match_primary(&tgdb, &q).unwrap();
            for id in q.node_ids() {
                for n in tgdb.instances.node_ids() {
                    assert_eq!(m.contains(id, n), m.projection(id).contains(&n), "{id} {n}");
                }
            }
        }
    }

    /// Two citation chains 1 -> 2 -> 3 and 4 -> 5 -> 6; author 30 wrote
    /// papers 1 and 6, author 10 wrote paper 3.
    fn citation_chains() -> etable_tgm::Tgdb {
        use etable_relational::database::Database;
        use etable_relational::schema::{Column, ForeignKey, TableSchema};
        use etable_relational::value::DataType::Int;
        let mut db = Database::new();
        let entity =
            |name| TableSchema::new(name, vec![Column::new("id", Int)]).with_primary_key(&["id"]);
        let link = |name, l, lt, r, rt| {
            TableSchema::new(name, vec![Column::new(l, Int), Column::new(r, Int)])
                .with_primary_key(&[l, r])
                .with_foreign_key(ForeignKey::single(l, lt, "id"))
                .with_foreign_key(ForeignKey::single(r, rt, "id"))
        };
        db.create_table(entity("P")).unwrap();
        db.create_table(entity("A")).unwrap();
        db.create_table(link("Cites", "src", "P", "dst", "P"))
            .unwrap();
        db.create_table(link("Wrote", "p", "P", "a", "A")).unwrap();
        for p in 1..=6 {
            db.insert("P", vec![p.into()]).unwrap();
        }
        for a in [10, 30] {
            db.insert("A", vec![a.into()]).unwrap();
        }
        for (src, dst) in [(1, 2), (2, 3), (4, 5), (5, 6)] {
            db.insert("Cites", vec![src.into(), dst.into()]).unwrap();
        }
        for (p, a) in [(1, 30), (3, 10), (6, 30)] {
            db.insert("Wrote", vec![p.into(), a.into()]).unwrap();
        }
        etable_tgm::translate(&db, &etable_tgm::TranslateOptions::default()).unwrap()
    }

    #[test]
    fn related_over_long_paths_matches_the_full_relation() {
        // Papers -> cited papers -> papers those cite -> their authors:
        // three hops, two of them through nodes of the primary's own type.
        // Paper 1's own author also wrote paper 6, so she is a member of
        // the last pattern node — a frontier left over from an earlier hop
        // or row would leak her into paper 1's authors. With one scratch
        // reused for every row, each row's related set must be exactly its
        // projection of the full graph relation, without duplicates.
        let tgdb = citation_chains();
        let (papers, _) = tgdb.schema.node_type_by_name("P").unwrap();
        let (ce, _) = tgdb
            .schema
            .outgoing_by_name(papers, "P (referenced)")
            .unwrap();
        let (ae, _) = tgdb.schema.outgoing_by_name(papers, "A").unwrap();
        let q = ops::initiate(&tgdb, papers).unwrap();
        let q = ops::add(&tgdb, &q, ce).unwrap();
        let q = ops::add(&tgdb, &q, ce).unwrap();
        let q = ops::add(&tgdb, &q, ae).unwrap();
        let q = ops::shift(&q, PatternNodeId(0)).unwrap();
        let m = match_primary(&tgdb, &q).unwrap();
        assert_eq!(m.rows().len(), 2);
        let full = match_full(&tgdb, &q).unwrap();
        let primary_pos = full.attr_pos(q.primary).unwrap();
        let hops = m.hops(&tgdb).unwrap();
        let mut walk = Frontiers::default();
        for target in q.node_ids() {
            let at = hops.iter().position(|h| h.node == target);
            let mut needs = vec![false; hops.len()];
            at.inspect(|&at| mark_chain(&hops, at, &mut needs));
            let target_pos = full.attr_pos(target).unwrap();
            for row in m.rows() {
                m.walk_row(&tgdb.instances, &hops, &needs, row, &mut walk);
                let mut got = at.map_or(vec![row], |at| walk.at(at).to_vec());
                assert_eq!(got, m.related(&tgdb, row, target).unwrap());
                let mut want: Vec<NodeId> = full
                    .tuples
                    .iter()
                    .filter(|t| t[primary_pos] == row)
                    .map(|t| t[target_pos])
                    .collect();
                want.sort();
                want.dedup();
                assert_eq!(got.len(), want.len(), "duplicates at {target} from {row}");
                got.sort();
                assert_eq!(got, want, "{target} from {row}");
            }
        }
    }

    #[test]
    fn single_node_pattern_lists_type() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = ops::initiate(&tgdb, papers).unwrap();
        let m = match_primary(&tgdb, &q).unwrap();
        assert_eq!(m.rows().len(), 4);
        let full = match_full(&tgdb, &q).unwrap();
        assert_eq!(full.len(), 4);
    }

    #[test]
    fn filters_restrict_rows() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = ops::initiate(&tgdb, papers).unwrap();
        let q = ops::select(&tgdb, &q, NodeFilter::cmp("year", CmpOp::Ge, 2012)).unwrap();
        let m = match_primary(&tgdb, &q).unwrap();
        assert_eq!(m.rows().len(), 2); // SkewTune 2012, Deep stuff 2014
    }

    #[test]
    fn join_pattern_restricts_both_sides() {
        // Papers at SIGMOD: adding the filtered conference node restricts
        // papers; no Korea authors wrote SIGMOD papers after 2005 except...
        let tgdb = academic_tgdb();
        let q = korea_pattern(&tgdb);
        let m = match_primary(&tgdb, &q).unwrap();
        // SIGMOD ∧ year>2005: papers 10 (2007) and 11 (2012).
        // Their authors: Jagadish, Nandi (MI), Kwon (UW) — none in Korea.
        assert_eq!(m.rows().len(), 0);
    }

    #[test]
    fn kdd_variant_finds_korean_author() {
        let tgdb = academic_tgdb();
        let (confs, _) = tgdb.schema.node_type_by_name("Conferences").unwrap();
        let q = ops::initiate(&tgdb, confs).unwrap();
        let q = ops::select(&tgdb, &q, NodeFilter::cmp("acronym", CmpOp::Eq, "KDD")).unwrap();
        let (pe, _) = tgdb.schema.outgoing_by_name(confs, "Papers").unwrap();
        let q = ops::add(&tgdb, &q, pe).unwrap();
        let papers_ty = q.primary_node().node_type;
        let (ae, _) = tgdb.schema.outgoing_by_name(papers_ty, "Authors").unwrap();
        let q = ops::add(&tgdb, &q, ae).unwrap();
        let authors_ty = q.primary_node().node_type;
        let (ie, _) = tgdb
            .schema
            .outgoing_by_name(authors_ty, "Institutions")
            .unwrap();
        let q = ops::add(&tgdb, &q, ie).unwrap();
        let q = ops::select(&tgdb, &q, NodeFilter::like("country", "%Korea%")).unwrap();
        let q = ops::shift(&q, crate::pattern::PatternNodeId(2)).unwrap();
        let m = match_primary(&tgdb, &q).unwrap();
        let names: Vec<String> = m
            .rows()
            .map(|a| tgdb.instances.label(a).to_string())
            .collect();
        assert_eq!(names, vec!["Minsuk Kim"]);
    }

    /// Every pattern node's matched nodes are its projection of the full
    /// graph relation, ascending and without duplicates.
    fn assert_projections_in_order(tgdb: &etable_tgm::Tgdb, q: &QueryPattern) {
        let full = match_full(tgdb, q).unwrap();
        let prim = match_primary(tgdb, q).unwrap();
        for id in q.node_ids() {
            let mut want = full.distinct_nodes(id).unwrap();
            want.sort();
            assert_eq!(prim.projection(id), want, "projection mismatch at {id}");
        }
    }

    #[test]
    fn a_selective_leaf_three_hops_away_seeds_the_match() {
        // Papers cited by a paper of an author at Seoul National Univ.:
        // the institution, three hops from the primary, seeds the match
        // and every other node starts from its parent's neighbors.
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = ops::initiate(&tgdb, papers).unwrap();
        let (ae, _) = tgdb.schema.outgoing_by_name(papers, "Authors").unwrap();
        let q = ops::add(&tgdb, &q, ae).unwrap();
        let authors_ty = q.primary_node().node_type;
        let (ie, _) = tgdb
            .schema
            .outgoing_by_name(authors_ty, "Institutions")
            .unwrap();
        let q = ops::add(&tgdb, &q, ie).unwrap();
        let seoul = NodeFilter::cmp("name", CmpOp::Eq, "Seoul National Univ.");
        let q = ops::select(&tgdb, &q, seoul).unwrap();
        let q = ops::shift(&q, PatternNodeId(0)).unwrap();
        let (ce, _) = tgdb
            .schema
            .outgoing_by_name(papers, "Papers (referenced)")
            .unwrap();
        let q = ops::add(&tgdb, &q, ce).unwrap();
        assert_eq!(q.primary, PatternNodeId(3));
        let m = match_primary(&tgdb, &q).unwrap();
        let titles: Vec<String> = m
            .rows()
            .map(|p| tgdb.instances.label(p).to_string())
            .collect();
        // Kim wrote 12 (cites 10) and 13 (cites 11 and 12).
        assert_eq!(
            titles,
            [
                "Making database systems usable",
                "SkewTune",
                "Guided interaction"
            ]
        );
        assert_projections_in_order(&tgdb, &q);
    }

    #[test]
    fn a_node_is_of_another_type_matches_nothing() {
        // A pattern assembled without `ops::select`: the Papers node is
        // pinned to an author's key (or to a key no node holds), so
        // nothing matches, as in the reference algebra; an ill-typed key
        // is refused, as SQL refuses `id = 'x'`.
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let (authors, _) = tgdb.schema.node_type_by_name("Authors").unwrap();
        let author = tgdb.key_of(tgdb.instances.nodes_of_type(authors).first());
        let (ae, _) = tgdb.schema.outgoing_by_name(papers, "Authors").unwrap();
        let alone = ops::initiate(&tgdb, papers).unwrap();
        let with_authors = ops::add(&tgdb, &alone, ae).unwrap();
        let paper = tgdb.instances.nodes_of_type(papers).first();
        for q in [alone, with_authors] {
            let mut ill_typed = q.clone();
            ill_typed.nodes[0].filter = NodeFilter::node_is("x");
            assert!(match_primary(&tgdb, &ill_typed).is_err());
            for target in [author, Value::Int(i64::MAX), Value::Null] {
                let mut pinned = q.clone();
                pinned.nodes[0].filter = NodeFilter::node_is(target);
                let m = match_primary(&tgdb, &pinned).unwrap();
                let held: Vec<_> = pinned.node_ids().map(|id| m.projection(id)).collect();
                assert!(held.iter().all(Vec::is_empty), "{target}: {held:?}");
                assert_projections_in_order(&tgdb, &pinned);
            }
            // Pinned to one of its own papers, the pattern matches it.
            let mut pinned = q;
            pinned.nodes[0].filter = NodeFilter::node_is(tgdb.key_of(paper));
            assert_eq!(
                match_primary(&tgdb, &pinned)
                    .unwrap()
                    .projection(PatternNodeId(0)),
                [paper]
            );
            assert_projections_in_order(&tgdb, &pinned);
        }
    }

    #[test]
    fn full_and_primary_agree_on_projections() {
        let tgdb = academic_tgdb();
        let (confs, _) = tgdb.schema.node_type_by_name("Conferences").unwrap();
        let q = ops::initiate(&tgdb, confs).unwrap();
        let (pe, _) = tgdb.schema.outgoing_by_name(confs, "Papers").unwrap();
        let q = ops::add(&tgdb, &q, pe).unwrap();
        let papers_ty = q.primary_node().node_type;
        let (ae, _) = tgdb.schema.outgoing_by_name(papers_ty, "Authors").unwrap();
        let q = ops::add(&tgdb, &q, ae).unwrap();
        assert_projections_in_order(&tgdb, &q);
    }

    #[test]
    fn related_returns_row_scoped_sets() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = ops::initiate(&tgdb, papers).unwrap();
        let (ae, _) = tgdb.schema.outgoing_by_name(papers, "Authors").unwrap();
        let q = ops::add(&tgdb, &q, ae).unwrap();
        let q = ops::shift(&q, crate::pattern::PatternNodeId(0)).unwrap();
        let m = match_primary(&tgdb, &q).unwrap();
        let usable = tgdb.node_by_key(papers, &10.into()).unwrap();
        let related = m
            .related(&tgdb, usable, crate::pattern::PatternNodeId(1))
            .unwrap();
        let names: Vec<String> = related
            .iter()
            .map(|&a| tgdb.instances.label(a).to_string())
            .collect();
        assert_eq!(names, vec!["H. V. Jagadish", "Arnab Nandi"]);
    }

    #[test]
    fn related_refuses_an_out_of_range_target() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = ops::initiate(&tgdb, papers).unwrap();
        let m = match_primary(&tgdb, &q).unwrap();
        let row = m.primary_at(0);
        for target in [1, 7, usize::MAX] {
            let got = m.related(&tgdb, row, PatternNodeId(target));
            assert!(matches!(got, Err(crate::Error::InvalidNode(_))), "{got:?}");
        }
    }

    #[test]
    fn related_respects_downstream_filters() {
        // Papers -> Authors{Korea institutions}: for "Guided interaction"
        // only Kim remains even though Nandi also co-authored.
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = ops::initiate(&tgdb, papers).unwrap();
        let (ae, _) = tgdb.schema.outgoing_by_name(papers, "Authors").unwrap();
        let q = ops::add(&tgdb, &q, ae).unwrap();
        let authors_ty = q.primary_node().node_type;
        let (ie, _) = tgdb
            .schema
            .outgoing_by_name(authors_ty, "Institutions")
            .unwrap();
        let q = ops::add(&tgdb, &q, ie).unwrap();
        let q = ops::select(&tgdb, &q, NodeFilter::like("country", "%Korea%")).unwrap();
        let q = ops::shift(&q, crate::pattern::PatternNodeId(0)).unwrap();
        let m = match_primary(&tgdb, &q).unwrap();
        let guided = tgdb.node_by_key(papers, &12.into()).unwrap();
        assert!(m.rows().any(|p| p == guided));
        let authors = m
            .related(&tgdb, guided, crate::pattern::PatternNodeId(1))
            .unwrap();
        let names: Vec<String> = authors
            .iter()
            .map(|&a| tgdb.instances.label(a).to_string())
            .collect();
        assert_eq!(names, vec!["Minsuk Kim"]);
    }

    #[test]
    fn self_relationship_directions_differ() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        // Papers that reference something.
        let q = ops::initiate(&tgdb, papers).unwrap();
        let (refd, _) = tgdb
            .schema
            .outgoing_by_name(papers, "Papers (referenced)")
            .unwrap();
        let q1 = ops::add(&tgdb, &q, refd).unwrap();
        let q1 = ops::shift(&q1, crate::pattern::PatternNodeId(0)).unwrap();
        let m1 = match_primary(&tgdb, &q1).unwrap();
        assert_eq!(m1.rows().len(), 3); // 11, 12, 13 cite something
                                        // Papers that are referenced by something.
        let (refg, _) = tgdb
            .schema
            .outgoing_by_name(papers, "Papers (referencing)")
            .unwrap();
        let q2 = ops::add(&tgdb, &q, refg).unwrap();
        let q2 = ops::shift(&q2, crate::pattern::PatternNodeId(0)).unwrap();
        let m2 = match_primary(&tgdb, &q2).unwrap();
        assert_eq!(m2.rows().len(), 3); // 10, 11, 12 are cited
    }

    #[test]
    fn matching_refuses_a_filter_select_refuses() {
        // A pattern assembled without `ops::select`, carrying an atom the
        // operator refuses (LIKE over an INT attribute): matching and the
        // reference algebra refuse it with the operator's own error.
        use crate::pattern::PatternNode;
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let like_year = NodeFilter::like("year", "201%");
        let q = ops::initiate(&tgdb, papers).unwrap();
        let refusal = ops::select(&tgdb, &q, like_year.clone()).unwrap_err();
        assert!(
            matches!(refusal, crate::Error::InvalidAction(_)),
            "{refusal}"
        );
        let q = QueryPattern {
            nodes: vec![PatternNode {
                node_type: papers,
                filter: like_year,
            }],
            ..q
        };
        let got = match_primary(&tgdb, &q).unwrap_err();
        assert_eq!(got.to_string(), refusal.to_string());
        assert!(matches!(got, crate::Error::InvalidAction(_)), "{got}");
        let got = match_full(&tgdb, &q).unwrap_err();
        assert_eq!(got.to_string(), refusal.to_string());
    }

    #[test]
    fn empty_result_propagates() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = ops::initiate(&tgdb, papers).unwrap();
        let q = ops::select(&tgdb, &q, NodeFilter::cmp("year", CmpOp::Gt, 3000)).unwrap();
        let (ae, _) = tgdb.schema.outgoing_by_name(papers, "Authors").unwrap();
        let q = ops::add(&tgdb, &q, ae).unwrap();
        let m = match_primary(&tgdb, &q).unwrap();
        assert_eq!(m.rows().len(), 0);
        assert!(m.projection(PatternNodeId(0)).is_empty());
        let full = match_full(&tgdb, &q).unwrap();
        assert!(full.is_empty());
    }

    /// `papers` papers and `n` authors, ids from 0: paper `i` is by author
    /// `i % n` alone, so the papers `id < m` have `m` authorships.
    fn one_author_per_paper(n: i64, papers: i64) -> etable_tgm::Tgdb {
        use etable_relational::database::Database;
        use etable_relational::schema::{Column, ForeignKey, TableSchema};
        use etable_relational::value::DataType;
        let entity = |name: &str| {
            let columns = vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
            ];
            TableSchema::new(name, columns).with_primary_key(&["id"])
        };
        let mut db = Database::new();
        db.create_table(entity("Papers")).unwrap();
        db.create_table(entity("Authors")).unwrap();
        let columns = vec![
            Column::new("paper_id", DataType::Int),
            Column::new("author_id", DataType::Int),
        ];
        let links = TableSchema::new("Paper_Authors", columns)
            .with_primary_key(&["paper_id", "author_id"])
            .with_foreign_key(ForeignKey::single("paper_id", "Papers", "id"))
            .with_foreign_key(ForeignKey::single("author_id", "Authors", "id"));
        db.create_table(links).unwrap();
        let named = |i: i64, what: &str| vec![Value::Int(i), format!("{what} {i}").into()];
        (db.append_rows("Authors", (0..n).map(|i| named(i, "author")))).unwrap();
        (db.append_rows("Papers", (0..papers).map(|i| named(i, "paper")))).unwrap();
        let links = (0..papers).map(|i| vec![Value::Int(i), Value::Int(i % n)]);
        db.append_rows("Paper_Authors", links).unwrap();
        let opts = etable_tgm::TranslateOptions {
            categorical_threshold: 0,
            ..Default::default()
        };
        etable_tgm::translate(&db, &opts).unwrap()
    }

    /// One scratch walks rows of a small graph and then of a larger one:
    /// authors -> their papers -> those papers' authors, whose second hop
    /// reaches the row's own author once per paper, so only `seen` keeps it
    /// to one. On the larger graph most authors' ids lie past every id of
    /// the small one, and the reused scratch must still drop the repeats,
    /// as a fresh one does.
    #[test]
    fn a_reused_scratch_dedups_on_a_larger_graph() {
        let coauthors = |tgdb: &etable_tgm::Tgdb| {
            let (authors, _) = tgdb.schema.node_type_by_name("Authors").unwrap();
            let (pe, _) = tgdb.schema.outgoing_by_name(authors, "Papers").unwrap();
            let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
            let (ae, _) = tgdb.schema.outgoing_by_name(papers, "Authors").unwrap();
            let q = ops::initiate(tgdb, authors).unwrap();
            let q = ops::add(tgdb, &ops::add(tgdb, &q, pe).unwrap(), ae).unwrap();
            let q = ops::shift(&q, PatternNodeId(0)).unwrap();
            let m = match_primary(tgdb, &q).unwrap();
            let hops = m.hops(tgdb).unwrap();
            assert_eq!(hops[1].node, PatternNodeId(2));
            (m, hops)
        };
        let mut reused = Frontiers::default();
        for tgdb in [one_author_per_paper(2, 4), one_author_per_paper(80, 160)] {
            let (m, hops) = coauthors(&tgdb);
            for row in m.rows() {
                m.walk_row(&tgdb.instances, &hops, &[true, true], row, &mut reused);
                let mut own = Frontiers::default();
                m.walk_row(&tgdb.instances, &hops, &[true, true], row, &mut own);
                assert_eq!(reused.at(1), own.at(1), "{row}");
                assert_eq!(reused.at(1), [row], "{row}");
            }
        }
    }

    /// The down pass at its candidate rule: author 30 (the seed) wrote
    /// papers 1 and 6, and from them the pattern reaches the papers each
    /// cites and, again, their authors. Paper 6 cites none, so the up pass
    /// drops it; author 30 is under both paper 6 (dropped) and paper 1
    /// (kept), so the down pass re-checks it and keeps it. Re-checking only
    /// rows under dropped parents gives the result re-checking every row
    /// gives, and re-checks fewer rows.
    #[test]
    fn a_dropped_parent_sharing_a_child_with_a_kept_one_keeps_it() {
        let tgdb = citation_chains();
        let (authors, _) = tgdb.schema.node_type_by_name("A").unwrap();
        let (papers, _) = tgdb.schema.node_type_by_name("P").unwrap();
        let (pe, _) = tgdb.schema.outgoing_by_name(authors, "P").unwrap();
        let (ce, _) = tgdb
            .schema
            .outgoing_by_name(papers, "P (referenced)")
            .unwrap();
        let (ae, _) = tgdb.schema.outgoing_by_name(papers, "A").unwrap();
        let q = ops::initiate(&tgdb, authors).unwrap();
        let q = ops::select(&tgdb, &q, NodeFilter::cmp("id", CmpOp::Eq, 30)).unwrap();
        let q = ops::add(&tgdb, &ops::add(&tgdb, &q, pe).unwrap(), ce).unwrap();
        let q = ops::add(&tgdb, &ops::shift(&q, PatternNodeId(1)).unwrap(), ae).unwrap();
        let node = |key: i64, ty| tgdb.node_by_key(ty, &key.into()).unwrap();
        let rechecked = |recheck| {
            let before = work::on_this_thread();
            let m = match_with(&tgdb, &q, Some(Start::Expand), recheck).unwrap();
            (m, (work::on_this_thread() - before).down_rechecked)
        };
        let (delta, few) = rechecked(None);
        let (all, every) = rechecked(Some(Recheck::All));
        assert_eq!(delta.held, all.held);
        assert_eq!(delta.projection(PatternNodeId(1)), [node(1, papers)]);
        assert_eq!(delta.projection(PatternNodeId(3)), [node(30, authors)]);
        // Author 30 under the dropped paper; every held row of the three
        // nodes below the seed.
        assert_eq!((few, every), (1, 3));
        assert_eq!(delta.held, match_primary(&tgdb, &q).unwrap().held);
        assert_projections_in_order(&tgdb, &q);
    }

    /// The start rule at its crossover: papers `id < m`, pivoted to their
    /// authors, expand from the papers while their `m` authorships are
    /// fewer than the `n` authors, and scan the authors from `m = n` on.
    /// Both starts give one result on each side.
    #[test]
    fn start_rule_flips_at_its_degree_sum_and_both_starts_agree() {
        let n = 6;
        let tgdb = one_author_per_paper(n, n + 2);
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let (ae, _) = tgdb.schema.outgoing_by_name(papers, "Authors").unwrap();
        for m in [n - 1, n, n + 1] {
            let q = ops::initiate(&tgdb, papers).unwrap();
            let q = ops::select(&tgdb, &q, NodeFilter::cmp("id", CmpOp::Lt, m)).unwrap();
            let q = ops::add(&tgdb, &q, ae).unwrap();
            // The papers are the seed (the one filtered node), so the
            // authors start from the `m` papers' degree sum.
            let chosen = match_primary(&tgdb, &q).unwrap();
            let held = chosen.projection(PatternNodeId(0));
            assert_eq!(held.len(), m as usize);
            let degrees = held.iter().map(|&p| tgdb.instances.degree(ae, p));
            let want = if m < n { Start::Expand } else { Start::Scan };
            assert_eq!(start_rule(degrees, n as usize), want, "m = {m}");
            for start in [Start::Expand, Start::Scan] {
                let forced = match_with(&tgdb, &q, Some(start), None).unwrap();
                assert_eq!(forced.held, chosen.held, "m = {m}, {start:?}");
            }
        }
        // The sum stops being read once it reaches the type's size.
        let read = std::cell::Cell::new(0);
        let degrees = (0..10).map(|_| {
            read.set(read.get() + 1);
            1
        });
        assert_eq!(start_rule(degrees, 3), Start::Scan);
        assert_eq!(read.get(), 3);
    }
}
