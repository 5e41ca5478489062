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
//!   product.
//!
//! For tree-shaped patterns both agree:
//! `Π_τ(match_full(Q)) == match_primary(Q).allowed[τ]` (property-tested).

use crate::graph_relation::GraphRelation;
use crate::pattern::{PatternNodeId, QueryPattern};
use crate::Result;
use etable_tgm::{EdgeTypeId, InstanceGraph, NodeId, Tgdb};

/// A set of instance nodes: one bit per node id of the graph.
#[derive(Debug, Clone, Default)]
struct Bitmap(Vec<u64>);

impl Bitmap {
    fn new(graph: &InstanceGraph) -> Bitmap {
        Bitmap(vec![0; graph.node_count() / 64 + 1])
    }

    fn contains(&self, node: NodeId) -> bool {
        let word = self.0.get(node.index() / 64);
        word.is_some_and(|w| (w >> (node.0 % 64)) & 1 == 1)
    }

    /// Adds (`present`) or removes a node; ids beyond the graph are ignored.
    fn set(&mut self, node: NodeId, present: bool) {
        if let Some(w) = self.0.get_mut(node.index() / 64) {
            *w = (*w & !(1 << (node.0 % 64))) | (u64::from(present) << (node.0 % 64));
        }
    }
}

/// The decomposed matching result.
#[derive(Debug, Clone)]
pub struct MatchResult {
    /// The pattern this result was computed for.
    pub pattern: QueryPattern,
    /// Per pattern node: the instance nodes that appear in at least one
    /// complete match, in instance-graph order.
    pub allowed: Vec<Vec<NodeId>>,
    /// Per pattern node: the same sets as bitmaps, for O(1) membership.
    member: Vec<Bitmap>,
}

/// Buffers [`MatchResult::related_into`] reuses from row to row. Nothing
/// is allocated until a walk needs it.
#[derive(Debug, Default)]
pub struct RelatedScratch {
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
    /// All-zero between hops: every bit a hop sets it clears again. Sized
    /// to the graph by the first hop that needs it.
    seen: Bitmap,
}

impl MatchResult {
    /// The result in which nothing matches `pattern`: the input of a table
    /// that has its columns but no rows.
    pub fn empty(pattern: &QueryPattern) -> MatchResult {
        MatchResult {
            pattern: pattern.clone(),
            allowed: vec![Vec::new(); pattern.len()],
            member: vec![Bitmap::default(); pattern.len()],
        }
    }

    /// The matched primary rows (`R = Π_τa(m(Q))`), in instance order.
    pub fn rows(&self) -> &[NodeId] {
        &self.allowed[self.pattern.primary.0]
    }

    /// Whether `node` participates in a match at pattern node `at`.
    pub fn contains(&self, at: PatternNodeId, node: NodeId) -> bool {
        self.member[at.0].contains(node)
    }

    /// The nodes related to `row` (a matched primary node) at pattern node
    /// `target`: `Π_type(target) σ_{τa = row}(m(Q))` computed by walking the
    /// unique pattern path and intersecting with the allowed sets.
    pub fn related(&self, tgdb: &Tgdb, row: NodeId, target: PatternNodeId) -> Result<Vec<NodeId>> {
        let path = self.pattern.path(tgdb, self.pattern.primary, target)?;
        let mut out = Vec::new();
        self.related_into(
            &tgdb.instances,
            &path,
            row,
            &mut RelatedScratch::default(),
            &mut out,
        );
        Ok(out)
    }

    /// [`MatchResult::related`] for callers that walk one `path` (from the
    /// primary node, as [`QueryPattern::path`] returns it) for many rows:
    /// appends the related nodes to `out`, first-reached first.
    pub fn related_into(
        &self,
        graph: &InstanceGraph,
        path: &[(PatternNodeId, EdgeTypeId)],
        row: NodeId,
        scratch: &mut RelatedScratch,
        out: &mut Vec<NodeId>,
    ) {
        let RelatedScratch {
            frontier,
            next,
            seen,
        } = scratch;
        frontier.clear();
        frontier.push(row);
        for &(step, edge) in path {
            // One node's neighbor list holds no duplicates (an edge is a key
            // of its source relation); only a wider frontier needs `seen`.
            let dedup = frontier.len() > 1;
            if dedup && seen.0.is_empty() {
                *seen = Bitmap::new(graph);
            }
            next.clear();
            for &f in frontier.iter() {
                for &nb in graph.neighbors(edge, f) {
                    if self.member[step.0].contains(nb) && !(dedup && seen.contains(nb)) {
                        if dedup {
                            seen.set(nb, true);
                        }
                        next.push(nb);
                    }
                }
            }
            if dedup {
                next.iter().for_each(|&nb| seen.set(nb, false));
            }
            std::mem::swap(frontier, next);
        }
        out.extend_from_slice(frontier);
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
pub fn match_primary(tgdb: &Tgdb, pattern: &QueryPattern) -> Result<MatchResult> {
    let tree = pattern.tree(tgdb, pattern.primary)?;
    let n = pattern.len();

    // Initial candidates: local filters only, in instance order.
    let mut allowed: Vec<Vec<NodeId>> = Vec::with_capacity(n);
    let mut member: Vec<Bitmap> = Vec::with_capacity(n);
    for id in pattern.node_ids() {
        let node = pattern.node(id);
        let all = tgdb.instances.nodes_of_type(node.node_type);
        let mut candidates = Vec::with_capacity(all.len());
        if node.filter.is_empty() {
            candidates.extend_from_slice(all);
        } else {
            let filter = node.filter.bind(tgdb, node.node_type)?;
            for &v in all {
                if filter.eval(tgdb, v)? {
                    candidates.push(v);
                }
            }
        }
        let mut bits = Bitmap::new(&tgdb.instances);
        for &v in &candidates {
            bits.set(v, true);
        }
        allowed.push(candidates);
        member.push(bits);
    }

    // Drops from `cur`'s candidates, and from its bitmap, every node that
    // has no member of pattern node `other` among its `edge` neighbors.
    let semi_join = |allowed: &mut [Vec<NodeId>],
                     member: &mut [Bitmap],
                     cur: PatternNodeId,
                     other: PatternNodeId,
                     edge: EdgeTypeId| {
        let mut bits = std::mem::take(&mut member[cur.0]);
        allowed[cur.0].retain(|&v| {
            let neighbors = tgdb.instances.neighbors(edge, v);
            let keep = neighbors.iter().any(|&nb| member[other.0].contains(nb));
            if !keep {
                bits.set(v, false);
            }
            keep
        });
        member[cur.0] = bits;
    };

    // Upward pass (children first: the tree lists parents before their
    // children, so read it backwards): a node survives only if, for every
    // child, it has at least one allowed neighbor.
    for step in tree.iter().rev() {
        if let Some(via) = step.via {
            semi_join(
                &mut allowed,
                &mut member,
                via.parent,
                step.node,
                via.edge_type,
            );
        }
    }

    // Downward pass (pre-order): a node survives only if it has an allowed
    // parent.
    for step in &tree {
        if let Some(via) = step.via {
            let up_edge = tgdb.schema.edge_type(via.edge_type).reverse;
            semi_join(&mut allowed, &mut member, step.node, via.parent, up_edge);
        }
    }

    Ok(MatchResult {
        pattern: pattern.clone(),
        allowed,
        member,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::pattern::{NodeFilter, PatternNodeId};
    use crate::testutil::{academic_db, academic_tgdb};
    use etable_relational::expr::CmpOp;

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
                    assert_eq!(m.contains(id, n), m.allowed[id.0].contains(&n), "{id} {n}");
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
        let mut scratch = RelatedScratch::default();
        for target in q.node_ids() {
            let path = q.path(&tgdb, q.primary, target).unwrap();
            let target_pos = full.attr_pos(target).unwrap();
            for &row in m.rows() {
                let mut got = Vec::new();
                m.related_into(&tgdb.instances, &path, row, &mut scratch, &mut got);
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
        assert!(m.rows().is_empty());
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
            .iter()
            .map(|&a| tgdb.instances.label(a).to_string())
            .collect();
        assert_eq!(names, vec!["Minsuk Kim"]);
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
        let full = match_full(&tgdb, &q).unwrap();
        let prim = match_primary(&tgdb, &q).unwrap();
        for id in q.node_ids() {
            let mut a: Vec<_> = full.distinct_nodes(id).unwrap();
            let mut b = prim.allowed[id.0].clone();
            a.sort();
            b.sort();
            assert_eq!(a, b, "projection mismatch at {id}");
        }
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
        let usable = tgdb.node_by_pk(&academic_db(), papers, &10.into()).unwrap();
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
        let row = m.rows()[0];
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
        let guided = tgdb.node_by_pk(&academic_db(), papers, &12.into()).unwrap();
        assert!(m.rows().contains(&guided));
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
        assert!(m.rows().is_empty());
        assert!(m.allowed[0].is_empty());
        let full = match_full(&tgdb, &q).unwrap();
        assert!(full.is_empty());
    }
}
