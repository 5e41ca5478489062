//! Set operations over ETable results — the paper's future-work item (1):
//! "incorporating more operations to further improve expressive power
//! (e.g., set operations)" (§9).
//!
//! Two query patterns with the *same primary node type* can be combined
//! with union / intersection / difference: the combined enriched table's
//! rows are the set-combined primary nodes, and its columns are the base
//! attributes plus the neighbor columns (participating columns are
//! pattern-specific and do not survive combination).

use crate::etable::EnrichedTable;
use crate::matching::{match_primary, MatchResult};
use crate::pattern::QueryPattern;
use crate::{ops, transform, Error, Result};
use etable_tgm::{NodeId, Tgdb};
use std::sync::Arc;

/// Which set operation to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    /// Rows matching either query.
    Union,
    /// Rows matching both queries.
    Intersect,
    /// Rows matching the first but not the second query.
    Difference,
}

impl std::fmt::Display for SetOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SetOp::Union => write!(f, "UNION"),
            SetOp::Intersect => write!(f, "INTERSECT"),
            SetOp::Difference => write!(f, "EXCEPT"),
        }
    }
}

/// Combines the primary row sets of two patterns.
///
/// Errors unless both patterns share the same primary node type (as SQL
/// requires union-compatible schemas).
///
/// ```
/// use etable_core::{ops, pattern::NodeFilter, setops::{combine, SetOp}};
/// use etable_core::testutil::academic_tgdb;
/// use etable_relational::expr::CmpOp;
///
/// let tgdb = academic_tgdb();
/// let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
/// let base = ops::initiate(&tgdb, papers).unwrap();
/// let old = ops::select(&tgdb, &base, NodeFilter::cmp("year", CmpOp::Lt, 2012)).unwrap();
/// let new = ops::select(&tgdb, &base, NodeFilter::cmp("year", CmpOp::Ge, 2012)).unwrap();
/// let union = combine(&tgdb, &old, &new, SetOp::Union).unwrap();
/// assert_eq!(union.len(), 4); // the whole Papers table
/// ```
pub fn combine(
    tgdb: &Tgdb,
    left: &QueryPattern,
    right: &QueryPattern,
    op: SetOp,
) -> Result<EnrichedTable> {
    let lt = left.primary_node().node_type;
    let rt = right.primary_node().node_type;
    if lt != rt {
        return Err(Error::InvalidAction(format!(
            "set operation on different primary types `{}` vs `{}`",
            tgdb.schema.node_type(lt).name,
            tgdb.schema.node_type(rt).name
        )));
    }
    let lm = match_primary(tgdb, left)?;
    let rm = match_primary(tgdb, right)?;
    let in_left = |n: &NodeId| lm.contains(left.primary, *n);
    let in_right = |n: &NodeId| rm.contains(right.primary, *n);

    // Every side is in instance order, which keeps the result deterministic.
    let rows: Vec<NodeId> = match op {
        SetOp::Union => {
            let all = tgdb.instances.nodes_of_type(lt).iter().copied();
            all.filter(|n| in_left(n) || in_right(n)).collect()
        }
        SetOp::Intersect => lm.rows().iter().copied().filter(in_right).collect(),
        SetOp::Difference => lm.rows().iter().copied().filter(|n| !in_right(n)).collect(),
    };

    // Base attributes + all neighbor columns of the shared type: the table
    // of the bare type, with the combined rows. It has no participating
    // column, so no cell reads the (empty) match it is made from.
    let bare = MatchResult::empty(&ops::initiate(tgdb, lt)?);
    let mut table = transform::table(tgdb, &Arc::new(bare), rows)?;
    table.filter_desc = format!(
        "{op} of ({}) and ({})",
        describe(tgdb, left),
        describe(tgdb, right)
    );
    Ok(table)
}

fn describe(tgdb: &Tgdb, q: &QueryPattern) -> String {
    let mut parts = Vec::new();
    for id in q.node_ids() {
        let n = q.node(id);
        if !n.filter.is_empty() {
            parts.push(format!(
                "{}.{}",
                tgdb.schema.node_type(n.node_type).name,
                n.filter.display_with(tgdb, n.node_type)
            ));
        }
    }
    if parts.is_empty() {
        format!(
            "all {}",
            tgdb.schema.node_type(q.primary_node().node_type).name
        )
    } else {
        parts.join(" AND ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::pattern::NodeFilter;
    use crate::testutil::academic_tgdb;
    use etable_relational::expr::CmpOp;

    fn year_pattern(tgdb: &Tgdb, op: CmpOp, year: i64) -> QueryPattern {
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = ops::initiate(tgdb, papers).unwrap();
        ops::select(tgdb, &q, NodeFilter::cmp("year", op, year)).unwrap()
    }

    #[test]
    fn union_covers_both_sides() {
        let tgdb = academic_tgdb();
        let old = year_pattern(&tgdb, CmpOp::Lt, 2012); // papers 10, 12
        let new = year_pattern(&tgdb, CmpOp::Ge, 2012); // papers 11, 13
        let u = combine(&tgdb, &old, &new, SetOp::Union).unwrap();
        assert_eq!(u.len(), 4);
        let i = combine(&tgdb, &old, &new, SetOp::Intersect).unwrap();
        assert!(i.is_empty());
    }

    #[test]
    fn intersect_and_difference_partition_left() {
        let tgdb = academic_tgdb();
        let all = year_pattern(&tgdb, CmpOp::Gt, 0);
        let recent = year_pattern(&tgdb, CmpOp::Ge, 2012);
        let inter = combine(&tgdb, &all, &recent, SetOp::Intersect).unwrap();
        let diff = combine(&tgdb, &all, &recent, SetOp::Difference).unwrap();
        assert_eq!(inter.len() + diff.len(), 4);
        // Disjoint.
        let inter_nodes: std::collections::HashSet<_> = inter.nodes().collect();
        assert!(diff.nodes().all(|n| !inter_nodes.contains(&n)));
    }

    #[test]
    fn union_with_overlap_dedups() {
        let tgdb = academic_tgdb();
        let a = year_pattern(&tgdb, CmpOp::Ge, 2007); // all 4
        let b = year_pattern(&tgdb, CmpOp::Ge, 2012); // 2 of them
        let u = combine(&tgdb, &a, &b, SetOp::Union).unwrap();
        assert_eq!(u.len(), 4);
    }

    #[test]
    fn different_join_shapes_can_combine() {
        // SIGMOD papers UNION papers with keyword 'deep learning': different
        // patterns, same primary type.
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q1 = ops::initiate(&tgdb, papers).unwrap();
        let (ce, _) = tgdb.schema.outgoing_by_name(papers, "Conferences").unwrap();
        let q1 = ops::add(&tgdb, &q1, ce).unwrap();
        let q1 = ops::select(&tgdb, &q1, NodeFilter::cmp("acronym", CmpOp::Eq, "SIGMOD")).unwrap();
        let q1 = ops::shift(&q1, crate::pattern::PatternNodeId(0)).unwrap();

        let q2 = ops::initiate(&tgdb, papers).unwrap();
        let (ke, _) = tgdb
            .schema
            .outgoing_by_name(papers, "Paper_Keywords: keyword")
            .unwrap();
        let q2 = ops::add(&tgdb, &q2, ke).unwrap();
        let q2 = ops::select(
            &tgdb,
            &q2,
            NodeFilter::cmp("keyword", CmpOp::Eq, "deep learning"),
        )
        .unwrap();
        let q2 = ops::shift(&q2, crate::pattern::PatternNodeId(0)).unwrap();

        let u = combine(&tgdb, &q1, &q2, SetOp::Union).unwrap();
        // SIGMOD: papers 10, 11; deep learning: paper 13.
        assert_eq!(u.len(), 3);
        assert!(u.filter_desc.contains("UNION"));
    }

    #[test]
    fn mismatched_primary_types_rejected() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let (authors, _) = tgdb.schema.node_type_by_name("Authors").unwrap();
        let p = ops::initiate(&tgdb, papers).unwrap();
        let a = ops::initiate(&tgdb, authors).unwrap();
        assert!(combine(&tgdb, &p, &a, SetOp::Union).is_err());
    }

    #[test]
    fn combined_table_keeps_neighbor_columns() {
        let tgdb = academic_tgdb();
        let a = year_pattern(&tgdb, CmpOp::Lt, 2012);
        let b = year_pattern(&tgdb, CmpOp::Ge, 2012);
        let u = combine(&tgdb, &a, &b, SetOp::Union).unwrap();
        assert!(u.column("Authors").is_some());
        let col = u.column_index("Authors").unwrap();
        assert!((0..u.len()).any(|r| u.ref_count(r, col) > 0));
    }
}
