//! The four primitive operators of §5.3: `Initiate`, `Select`, `Add`,
//! `Shift`.
//!
//! Each operator is a pure function from a query pattern to a new query
//! pattern, mirroring the paper's formalization `op(Q) = Q'`. User-level
//! actions ([`crate::actions`]) compose them.
//!
//! ```
//! use etable_core::{ops, pattern::NodeFilter};
//! use etable_core::testutil::academic_tgdb;
//! use etable_relational::expr::CmpOp;
//!
//! let tgdb = academic_tgdb();
//! let (confs, _) = tgdb.schema.node_type_by_name("Conferences").unwrap();
//! let q = ops::initiate(&tgdb, confs).unwrap();                        // P1
//! let q = ops::select(&tgdb, &q,
//!     NodeFilter::cmp("acronym", CmpOp::Eq, "SIGMOD")).unwrap();       // P2
//! let (papers_edge, _) = tgdb.schema.outgoing_by_name(confs, "Papers").unwrap();
//! let q = ops::add(&tgdb, &q, papers_edge).unwrap();                   // P3
//! assert_eq!(q.len(), 2);
//! ```

use crate::pattern::{NodeFilter, PatternEdge, PatternNode, PatternNodeId, QueryPattern};
use crate::{Error, Result};
use etable_tgm::{EdgeTypeId, NodeTypeId, Tgdb};

/// `Initiate(τk)`: a fresh pattern with a single node of type `τk`.
///
/// `τ'a = τk, T' = {τk}, P' = {}, C' = {}`.
pub fn initiate(tgdb: &Tgdb, node_type: NodeTypeId) -> Result<QueryPattern> {
    if node_type.index() >= tgdb.schema.node_type_count() {
        return Err(Error::InvalidNode(format!(
            "node type {node_type} out of range"
        )));
    }
    Ok(QueryPattern {
        nodes: vec![PatternNode {
            node_type,
            filter: NodeFilter::none(),
        }],
        edges: Vec::new(),
        primary: PatternNodeId(0),
    })
}

/// `Select(Ck, Q)`: conjoins `Ck` onto the primary node's condition.
///
/// `τ'a = τa, T' = T, P' = P, C'a = Ca ∧ Ck`. (The paper writes `C'a = Ck`;
/// in the interface successive filters accumulate — see the history panel of
/// Figure 1, step 4 — so we conjoin.)
pub fn select(tgdb: &Tgdb, q: &QueryPattern, filter: NodeFilter) -> Result<QueryPattern> {
    select_on(tgdb, q, q.primary, filter)
}

/// `Select` applied to an arbitrary participating node (used internally by
/// user actions such as `Seeall`, which select a row before pivoting).
pub fn select_on(
    tgdb: &Tgdb,
    q: &QueryPattern,
    node: PatternNodeId,
    filter: NodeFilter,
) -> Result<QueryPattern> {
    if node.0 >= q.nodes.len() {
        return Err(Error::InvalidNode(format!("pattern node {node} missing")));
    }
    // Validate eagerly so errors surface at operator time, by the rule
    // matching and the translation run the filter under.
    filter.bind(tgdb, q.nodes[node.0].node_type)?;
    let mut out = q.clone();
    out.nodes[node.0].filter = out.nodes[node.0].filter.clone().and(filter);
    Ok(out)
}

/// `Add(ρk, Q)`: adds a new occurrence of `target(ρk)` connected to the
/// primary node by `ρk`, and shifts the primary to it.
///
/// `τ'a = target(ρk), T' = T ∪ {target(ρk)}, P' = P ∪ {ρk}`.
pub fn add(tgdb: &Tgdb, q: &QueryPattern, edge_type: EdgeTypeId) -> Result<QueryPattern> {
    let et = tgdb.schema.edge_type(edge_type);
    let primary_type = q.primary_node().node_type;
    if et.source != primary_type {
        return Err(Error::InvalidEdge(format!(
            "edge type `{}` does not leave the primary node type `{}`",
            et.name,
            tgdb.schema.node_type(primary_type).name
        )));
    }
    let mut out = q.clone();
    let new_id = PatternNodeId(out.nodes.len());
    out.nodes.push(PatternNode {
        node_type: et.target,
        filter: NodeFilter::none(),
    });
    out.edges.push(PatternEdge {
        edge_type,
        from: q.primary,
        to: new_id,
    });
    out.primary = new_id;
    Ok(out)
}

/// `Shift(τk, Q)`: moves the primary to another participating node.
///
/// `τ'a = τk, T' = T, P' = P, C' = C`.
pub fn shift(q: &QueryPattern, to: PatternNodeId) -> Result<QueryPattern> {
    if to.0 >= q.nodes.len() {
        return Err(Error::InvalidNode(format!("pattern node {to} missing")));
    }
    let mut out = q.clone();
    out.primary = to;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::academic_tgdb;
    use etable_relational::expr::CmpOp;

    #[test]
    fn initiate_single_node() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = initiate(&tgdb, papers).unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(q.primary, PatternNodeId(0));
        q.validate(&tgdb).unwrap();
    }

    #[test]
    fn figure7_operator_sequence() {
        // P1..P8 of Figure 7: Conferences -> filter -> add Papers -> filter
        // -> add Authors -> add Institutions -> filter -> shift to Authors.
        let tgdb = academic_tgdb();
        let (confs, _) = tgdb.schema.node_type_by_name("Conferences").unwrap();
        let q = initiate(&tgdb, confs).unwrap(); // P1
        let q = select(&tgdb, &q, NodeFilter::cmp("acronym", CmpOp::Eq, "SIGMOD")).unwrap(); // P2
        let (papers_edge, _) = tgdb
            .schema
            .outgoing_by_name(confs, "Papers")
            .expect("Conferences -> Papers edge");
        let q = add(&tgdb, &q, papers_edge).unwrap(); // P3
        let q = select(&tgdb, &q, NodeFilter::cmp("year", CmpOp::Gt, 2005)).unwrap(); // P4
        let papers_ty = q.primary_node().node_type;
        let (authors_edge, _) = tgdb.schema.outgoing_by_name(papers_ty, "Authors").unwrap();
        let q = add(&tgdb, &q, authors_edge).unwrap(); // P5
        let authors_ty = q.primary_node().node_type;
        let (inst_edge, _) = tgdb
            .schema
            .outgoing_by_name(authors_ty, "Institutions")
            .unwrap();
        let q = add(&tgdb, &q, inst_edge).unwrap(); // P6
        let q = select(&tgdb, &q, NodeFilter::like("country", "%Korea%")).unwrap(); // P7
        let q = shift(&q, PatternNodeId(2)).unwrap(); // P8: Authors
        q.validate(&tgdb).unwrap();
        assert_eq!(q.len(), 4);
        assert_eq!(q.edges.len(), 3);
        assert_eq!(
            tgdb.schema.node_type(q.primary_node().node_type).name,
            "Authors"
        );
        let diagram = q.diagram(&tgdb);
        assert!(diagram.contains("Authors *"), "{diagram}");
        assert!(diagram.contains("country like '%Korea%'"), "{diagram}");
    }

    #[test]
    fn add_requires_edge_from_primary() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let (confs, _) = tgdb.schema.node_type_by_name("Conferences").unwrap();
        let q = initiate(&tgdb, papers).unwrap();
        // An edge leaving Conferences cannot be added while Papers is primary.
        let (bad_edge, _) = tgdb.schema.outgoing_by_name(confs, "Papers").unwrap();
        assert!(add(&tgdb, &q, bad_edge).is_err());
    }

    #[test]
    fn select_validates_attribute() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = initiate(&tgdb, papers).unwrap();
        assert!(select(&tgdb, &q, NodeFilter::cmp("nope", CmpOp::Eq, 1)).is_err());
        assert!(select(&tgdb, &q, NodeFilter::cmp("year", CmpOp::Eq, 2007)).is_ok());
    }

    #[test]
    fn select_types_literals_the_way_the_sql_analyzer_does() {
        use crate::pattern::FilterAtom;
        use etable_relational::value::Value;
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = initiate(&tgdb, papers).unwrap();
        let in_list = |attr: &str, values: Vec<Value>| {
            NodeFilter::atom(FilterAtom::In {
                attr: attr.into(),
                values,
            })
        };
        let rejected = [
            NodeFilter::cmp("year", CmpOp::Gt, "abc"),
            NodeFilter::cmp("title", CmpOp::Eq, 3),
            in_list("year", vec![2007.into(), "abc".into()]),
            NodeFilter::like("year", "201%"),
            NodeFilter::atom(FilterAtom::NotLike {
                attr: "year".into(),
                pattern: "201%".into(),
            }),
        ];
        for filter in rejected {
            let err = select(&tgdb, &q, filter.clone()).unwrap_err();
            assert!(matches!(err, Error::InvalidAction(_)), "{filter:?}: {err}");
            let msg = err.to_string();
            assert!(msg.contains("`Papers."), "{msg}");
            assert!(msg.contains("INT") || msg.contains("TEXT"), "{msg}");
        }
        // INT widens to FLOAT and NULL meets every type, as in `analyze::lub`.
        let accepted = [
            NodeFilter::cmp("year", CmpOp::Lt, 2007.5),
            NodeFilter::cmp("year", CmpOp::Eq, Value::Null),
            in_list("year", vec![2007.into(), Value::Null, Value::Float(2008.0)]),
            NodeFilter::like("title", "%data%"),
        ];
        for filter in accepted {
            select(&tgdb, &q, filter).unwrap();
        }
    }

    #[test]
    fn select_accumulates_conditions() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = initiate(&tgdb, papers).unwrap();
        let q = select(&tgdb, &q, NodeFilter::cmp("year", CmpOp::Gt, 2005)).unwrap();
        let q = select(&tgdb, &q, NodeFilter::like("title", "%usable%")).unwrap();
        assert_eq!(q.primary_node().filter.atoms.len(), 2);
    }

    #[test]
    fn shift_out_of_range_rejected() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = initiate(&tgdb, papers).unwrap();
        assert!(shift(&q, PatternNodeId(3)).is_err());
    }

    #[test]
    fn same_type_twice_allowed() {
        // Papers citing Papers: the same node type participates twice.
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let q = initiate(&tgdb, papers).unwrap();
        let (cite, _) = tgdb
            .schema
            .outgoing_by_name(papers, "Papers (referenced)")
            .unwrap();
        let q = add(&tgdb, &q, cite).unwrap();
        q.validate(&tgdb).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.nodes[0].node_type, q.nodes[1].node_type);
    }
}
