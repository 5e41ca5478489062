//! The graph relation algebra of §5.4.1.
//!
//! A graph relation `RG` is a set of tuples whose attributes are *pattern
//! node occurrences*; each tuple holds one instance node per attribute. The
//! three operators — Selection `σ`, Join `∗`, Projection `Π` — are exactly
//! the primitives that Definition 4's instance matching composes.

use crate::pattern::{NodeFilter, PatternNodeId};
use crate::{Error, Result};
use etable_tgm::{EdgeTypeId, NodeId, Tgdb};
use std::collections::HashMap;

/// A graph relation: tuples of instance nodes over pattern-node attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphRelation {
    /// The attributes; each corresponds to a pattern node occurrence.
    pub attrs: Vec<PatternNodeId>,
    /// The tuples; `tuples[i][j]` is the node bound to `attrs[j]`.
    pub tuples: Vec<Vec<NodeId>>,
}

impl GraphRelation {
    /// A base graph relation: one attribute listing all (optionally
    /// filtered) nodes of a type.
    pub fn base(
        tgdb: &Tgdb,
        attr: PatternNodeId,
        node_type: etable_tgm::NodeTypeId,
        filter: &NodeFilter,
    ) -> Result<GraphRelation> {
        let filter = filter.bind(tgdb, node_type)?;
        let mut tuples = Vec::new();
        for n in tgdb.instances.nodes_of_type(node_type).iter() {
            if filter.eval(tgdb, n)? {
                tuples.push(vec![n]);
            }
        }
        Ok(GraphRelation {
            attrs: vec![attr],
            tuples,
        })
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Position of a pattern-node attribute.
    pub fn attr_pos(&self, attr: PatternNodeId) -> Result<usize> {
        self.attrs
            .iter()
            .position(|&a| a == attr)
            .ok_or_else(|| Error::InvalidNode(format!("attribute {attr} not in graph relation")))
    }

    /// Selection `σ_Ci(RG)`: keeps tuples whose node bound to `attr`
    /// satisfies the filter.
    pub fn selection(
        &self,
        tgdb: &Tgdb,
        attr: PatternNodeId,
        filter: &NodeFilter,
    ) -> Result<GraphRelation> {
        let pos = self.attr_pos(attr)?;
        // Every tuple binds `attr` to a node of one type.
        let mut tuples = Vec::new();
        if let Some(first) = self.tuples.first() {
            let filter = filter.bind(tgdb, tgdb.instances.type_of(first[pos]))?;
            for t in &self.tuples {
                if filter.eval(tgdb, t[pos])? {
                    tuples.push(t.clone());
                }
            }
        }
        Ok(GraphRelation {
            attrs: self.attrs.clone(),
            tuples,
        })
    }

    /// Join `RG1 ∗ρ RG2`: pairs tuples whose bound nodes are connected by an
    /// instance edge of type `ρ` running from `self[left_attr]` to
    /// `other[right_attr]`. Output attributes are the concatenation.
    pub fn join(
        &self,
        tgdb: &Tgdb,
        other: &GraphRelation,
        edge_type: EdgeTypeId,
        left_attr: PatternNodeId,
        right_attr: PatternNodeId,
    ) -> Result<GraphRelation> {
        let lpos = self.attr_pos(left_attr)?;
        let rpos = other.attr_pos(right_attr)?;
        // Hash the right side by its bound node so each neighbor lookup is
        // O(1) — the "quick neighbor-lookup" executed tuple-by-tuple.
        let mut right_index: HashMap<NodeId, Vec<usize>> = HashMap::new();
        for (i, t) in other.tuples.iter().enumerate() {
            right_index.entry(t[rpos]).or_default().push(i);
        }
        let mut attrs = self.attrs.clone();
        attrs.extend(other.attrs.iter().copied());
        let mut tuples = Vec::new();
        for lt in &self.tuples {
            for nb in tgdb.instances.neighbors(edge_type, lt[lpos]) {
                if let Some(hits) = right_index.get(&nb) {
                    for &ri in hits {
                        let mut t = Vec::with_capacity(attrs.len());
                        t.extend(lt.iter().copied());
                        t.extend(other.tuples[ri].iter().copied());
                        tuples.push(t);
                    }
                }
            }
        }
        Ok(GraphRelation { attrs, tuples })
    }

    /// Expansion join against an implicit base relation: extends each tuple
    /// with the neighbors of its `left_attr` binding along `edge_type`,
    /// keeping only neighbors that satisfy `filter`. Equivalent to
    /// `self ∗ρ σ_C(base(target))` but without materializing the base.
    pub fn expand(
        &self,
        tgdb: &Tgdb,
        edge_type: EdgeTypeId,
        left_attr: PatternNodeId,
        new_attr: PatternNodeId,
        filter: &NodeFilter,
    ) -> Result<GraphRelation> {
        let lpos = self.attr_pos(left_attr)?;
        let filter = filter.bind(tgdb, tgdb.schema.edge_type(edge_type).target)?;
        let mut attrs = self.attrs.clone();
        attrs.push(new_attr);
        let mut tuples = Vec::new();
        for lt in &self.tuples {
            for nb in tgdb.instances.neighbors(edge_type, lt[lpos]) {
                if filter.eval(tgdb, nb)? {
                    let mut t = Vec::with_capacity(attrs.len());
                    t.extend(lt.iter().copied());
                    t.push(nb);
                    tuples.push(t);
                }
            }
        }
        Ok(GraphRelation { attrs, tuples })
    }

    /// Projection `Π_Ai(RG)`: keeps one attribute, eliminating duplicates
    /// (first-occurrence order).
    pub fn projection(&self, attr: PatternNodeId) -> Result<GraphRelation> {
        let pos = self.attr_pos(attr)?;
        let mut seen = std::collections::HashSet::new();
        let mut tuples = Vec::new();
        for t in &self.tuples {
            if seen.insert(t[pos]) {
                tuples.push(vec![t[pos]]);
            }
        }
        Ok(GraphRelation {
            attrs: vec![attr],
            tuples,
        })
    }

    /// The distinct nodes bound to `attr`, in first-occurrence order.
    pub fn distinct_nodes(&self, attr: PatternNodeId) -> Result<Vec<NodeId>> {
        Ok(self
            .projection(attr)?
            .tuples
            .into_iter()
            .map(|t| t[0])
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::academic_tgdb;
    use etable_relational::expr::CmpOp;

    #[test]
    fn base_relation_lists_filtered_nodes() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let all =
            GraphRelation::base(&tgdb, PatternNodeId(0), papers, &NodeFilter::none()).unwrap();
        assert_eq!(all.len(), 4);
        let filtered = GraphRelation::base(
            &tgdb,
            PatternNodeId(0),
            papers,
            &NodeFilter::cmp("year", CmpOp::Gt, 2010),
        )
        .unwrap();
        assert_eq!(filtered.len(), 3);
    }

    #[test]
    fn join_follows_instance_edges() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let (authors, _) = tgdb.schema.node_type_by_name("Authors").unwrap();
        let (et, _) = tgdb.schema.outgoing_by_name(papers, "Authors").unwrap();
        let p = GraphRelation::base(&tgdb, PatternNodeId(0), papers, &NodeFilter::none()).unwrap();
        let a = GraphRelation::base(&tgdb, PatternNodeId(1), authors, &NodeFilter::none()).unwrap();
        let j = p
            .join(&tgdb, &a, et, PatternNodeId(0), PatternNodeId(1))
            .unwrap();
        // One tuple per Paper_Authors row.
        assert_eq!(j.len(), 6);
        assert_eq!(j.attrs, vec![PatternNodeId(0), PatternNodeId(1)]);
    }

    #[test]
    fn expand_equals_join_with_base() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let (authors, _) = tgdb.schema.node_type_by_name("Authors").unwrap();
        let (et, _) = tgdb.schema.outgoing_by_name(papers, "Authors").unwrap();
        let p = GraphRelation::base(&tgdb, PatternNodeId(0), papers, &NodeFilter::none()).unwrap();
        let filter = NodeFilter::like("name", "%Nandi%");
        let a = GraphRelation::base(&tgdb, PatternNodeId(1), authors, &filter).unwrap();
        let joined = p
            .join(&tgdb, &a, et, PatternNodeId(0), PatternNodeId(1))
            .unwrap();
        let expanded = p
            .expand(&tgdb, et, PatternNodeId(0), PatternNodeId(1), &filter)
            .unwrap();
        let mut jt = joined.tuples.clone();
        let mut et2 = expanded.tuples.clone();
        jt.sort();
        et2.sort();
        assert_eq!(jt, et2);
    }

    #[test]
    fn selection_filters_by_attribute() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let p = GraphRelation::base(&tgdb, PatternNodeId(0), papers, &NodeFilter::none()).unwrap();
        let sel = p
            .selection(
                &tgdb,
                PatternNodeId(0),
                &NodeFilter::like("title", "%usable%"),
            )
            .unwrap();
        assert_eq!(sel.len(), 1);
    }

    #[test]
    fn projection_dedups() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let (authors, _) = tgdb.schema.node_type_by_name("Authors").unwrap();
        let (et, _) = tgdb.schema.outgoing_by_name(papers, "Authors").unwrap();
        let p = GraphRelation::base(&tgdb, PatternNodeId(0), papers, &NodeFilter::none()).unwrap();
        let a = GraphRelation::base(&tgdb, PatternNodeId(1), authors, &NodeFilter::none()).unwrap();
        let j = p
            .join(&tgdb, &a, et, PatternNodeId(0), PatternNodeId(1))
            .unwrap();
        // 6 (paper, author) pairs project to 4 distinct papers.
        assert_eq!(j.projection(PatternNodeId(0)).unwrap().len(), 4);
        assert_eq!(j.projection(PatternNodeId(1)).unwrap().len(), 4);
    }

    #[test]
    fn selection_pushdown_commutes_with_join() {
        // σ before the join equals σ after the join (DESIGN.md invariant).
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let (authors, _) = tgdb.schema.node_type_by_name("Authors").unwrap();
        let (et, _) = tgdb.schema.outgoing_by_name(papers, "Authors").unwrap();
        let filter = NodeFilter::cmp("year", CmpOp::Ge, 2012);
        let p_all =
            GraphRelation::base(&tgdb, PatternNodeId(0), papers, &NodeFilter::none()).unwrap();
        let p_filtered = GraphRelation::base(&tgdb, PatternNodeId(0), papers, &filter).unwrap();
        let a = GraphRelation::base(&tgdb, PatternNodeId(1), authors, &NodeFilter::none()).unwrap();
        let pushed = p_filtered
            .join(&tgdb, &a, et, PatternNodeId(0), PatternNodeId(1))
            .unwrap();
        let late = p_all
            .join(&tgdb, &a, et, PatternNodeId(0), PatternNodeId(1))
            .unwrap()
            .selection(&tgdb, PatternNodeId(0), &filter)
            .unwrap();
        let mut a1 = pushed.tuples.clone();
        let mut a2 = late.tuples.clone();
        a1.sort();
        a2.sort();
        assert_eq!(a1, a2);
    }

    #[test]
    fn attr_pos_unknown_errors() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let p = GraphRelation::base(&tgdb, PatternNodeId(0), papers, &NodeFilter::none()).unwrap();
        assert!(p.attr_pos(PatternNodeId(9)).is_err());
    }
}
