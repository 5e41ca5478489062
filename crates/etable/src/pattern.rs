//! ETable query patterns (paper Definition 3) and node filters.
//!
//! A query pattern `Q = (τa, T, P, C)` is an acyclic, connected graph of
//! *pattern nodes* (occurrences of schema node types — the same type may
//! occur several times, like a relation can appear twice in a relational
//! algebra expression), *pattern edges* (occurrences of schema edge types),
//! per-node selection conditions, and one node marked primary.

use crate::{Error, Result};
use etable_relational::expr::{CmpOp, LikePattern};
use etable_relational::value::Value;
use etable_tgm::{EdgeTypeId, NodeId, NodeTypeId, Tgdb};
use std::cmp::Ordering;
use std::fmt;

/// Identifies a pattern node (an occurrence of a node type) within one
/// [`QueryPattern`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternNodeId(pub usize);

impl fmt::Display for PatternNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A single predicate over one node (one clause of a conjunction).
#[derive(Debug, Clone, PartialEq)]
pub enum FilterAtom {
    /// Compare an attribute with a literal.
    Cmp {
        /// Attribute name of the node type.
        attr: String,
        /// Comparison operator.
        op: CmpOp,
        /// Literal right-hand side.
        value: Value,
    },
    /// `attr LIKE pattern` (case-insensitive, `%`/`_` wildcards).
    Like {
        /// Attribute name.
        attr: String,
        /// LIKE pattern.
        pattern: String,
    },
    /// `attr NOT LIKE pattern`.
    NotLike {
        /// Attribute name.
        attr: String,
        /// LIKE pattern.
        pattern: String,
    },
    /// `attr IN (v1, ..., vn)`.
    In {
        /// Attribute name.
        attr: String,
        /// Allowed values.
        values: Vec<Value>,
    },
    /// `attr IS NULL`.
    IsNull {
        /// Attribute name.
        attr: String,
    },
    /// Identity: the node is exactly this instance node. Produced by the
    /// `Single` and `Seeall` user actions ("C = {u | u = vk}" in §6.1).
    NodeIs(NodeId),
    /// The label of at least one neighbor along `edge` matches a LIKE
    /// pattern. This is the paper's "filter rows by the labels of the
    /// neighbor node columns (e.g., authors' names), which is translated
    /// into subqueries" (§6.1, Filter).
    NeighborLabelLike {
        /// Edge type leaving this node's type.
        edge: EdgeTypeId,
        /// LIKE pattern applied to neighbor labels.
        pattern: String,
    },
}

/// A conjunction of [`FilterAtom`]s applied to one pattern node.
///
/// The paper's interface builds conjunctions only ("We currently provide
/// only a conjunction of predicates"); disjunctions within an attribute can
/// be expressed through `In`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeFilter {
    /// The conjoined atoms; empty means "no condition".
    pub atoms: Vec<FilterAtom>,
}

impl NodeFilter {
    /// The empty (always-true) filter.
    pub fn none() -> Self {
        NodeFilter::default()
    }

    /// A filter with a single atom.
    pub fn atom(atom: FilterAtom) -> Self {
        NodeFilter { atoms: vec![atom] }
    }

    /// `attr op value`.
    pub fn cmp(attr: impl Into<String>, op: CmpOp, value: impl Into<Value>) -> Self {
        Self::atom(FilterAtom::Cmp {
            attr: attr.into(),
            op,
            value: value.into(),
        })
    }

    /// `attr LIKE pattern`.
    pub fn like(attr: impl Into<String>, pattern: impl Into<String>) -> Self {
        Self::atom(FilterAtom::Like {
            attr: attr.into(),
            pattern: pattern.into(),
        })
    }

    /// Exactly this node.
    pub fn node_is(node: NodeId) -> Self {
        Self::atom(FilterAtom::NodeIs(node))
    }

    /// True when no atoms are present.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Conjoins another filter into this one.
    pub fn and(mut self, other: NodeFilter) -> Self {
        self.atoms.extend(other.atoms);
        self
    }

    /// Resolves the filter against `node_type` ahead of a scan: attribute
    /// names become positions and LIKE patterns are compiled, once, and
    /// [`BoundFilter::eval`] then tests one node after another.
    pub fn bind(&self, tgdb: &Tgdb, node_type: NodeTypeId) -> Result<BoundFilter<'_>> {
        let nt = tgdb.schema.node_type(node_type);
        let attr = |name: &String| {
            nt.attr_index(name).ok_or_else(|| Error::UnknownAttribute {
                node_type: nt.name.clone(),
                attr: name.clone(),
            })
        };
        let mut atoms = Vec::with_capacity(self.atoms.len());
        for atom in &self.atoms {
            atoms.push(match atom {
                FilterAtom::Cmp { attr: a, op, value } => BoundAtom::Cmp(attr(a)?, *op, value),
                FilterAtom::Like { attr: a, pattern } => {
                    BoundAtom::Like(attr(a)?, LikePattern::new(pattern), true)
                }
                FilterAtom::NotLike { attr: a, pattern } => {
                    BoundAtom::Like(attr(a)?, LikePattern::new(pattern), false)
                }
                FilterAtom::In { attr: a, values } => BoundAtom::In(attr(a)?, values),
                FilterAtom::IsNull { attr: a } => BoundAtom::IsNull(attr(a)?),
                FilterAtom::NodeIs(target) => BoundAtom::NodeIs(*target),
                FilterAtom::NeighborLabelLike { edge, pattern } => {
                    let et = tgdb.schema.edge_type(*edge);
                    if et.source != node_type {
                        return Err(Error::InvalidEdge(format!(
                            "edge `{}` does not leave node type `{}`",
                            et.name, nt.name
                        )));
                    }
                    BoundAtom::NeighborLabelLike(*edge, LikePattern::new(pattern))
                }
            });
        }
        Ok(BoundFilter { atoms })
    }

    /// Renders the filter for the schema view, e.g. `year > 2005`.
    ///
    /// Edge references appear as raw ids; prefer
    /// [`NodeFilter::display_with`] when a schema is at hand.
    pub fn display(&self) -> String {
        self.atoms
            .iter()
            .map(|a| atom_display(a, None))
            .collect::<Vec<_>>()
            .join(" AND ")
    }

    /// Renders the filter with schema context, resolving edge names (e.g.
    /// `Paper_Keywords: keyword like '%user%'` instead of `et8 label ...`).
    pub fn display_with(&self, tgdb: &Tgdb) -> String {
        self.atoms
            .iter()
            .map(|a| atom_display(a, Some(tgdb)))
            .collect::<Vec<_>>()
            .join(" AND ")
    }
}

fn atom_display(atom: &FilterAtom, tgdb: Option<&Tgdb>) -> String {
    match atom {
        FilterAtom::Cmp { attr, op, value } => match value {
            Value::Text(s) => format!("{attr} {op} '{s}'"),
            other => format!("{attr} {op} {other}"),
        },
        FilterAtom::Like { attr, pattern } => format!("{attr} like '{pattern}'"),
        FilterAtom::NotLike { attr, pattern } => format!("{attr} not like '{pattern}'"),
        FilterAtom::In { attr, values } => {
            let list = values
                .iter()
                .map(|v| match v {
                    Value::Text(s) => format!("'{s}'"),
                    other => other.to_string(),
                })
                .collect::<Vec<_>>()
                .join(", ");
            format!("{attr} in ({list})")
        }
        FilterAtom::IsNull { attr } => format!("{attr} is null"),
        FilterAtom::NodeIs(n) => match tgdb {
            Some(t) => format!("node = '{}'", t.instances.label(*n)),
            None => format!("node = {n}"),
        },
        FilterAtom::NeighborLabelLike { edge, pattern } => match tgdb {
            Some(t) => format!("{} like '{pattern}'", t.schema.edge_type(*edge).name),
            None => format!("{edge} label like '{pattern}'"),
        },
    }
}

/// A [`NodeFilter`] resolved against one node type (see
/// [`NodeFilter::bind`]); evaluating it looks nothing up by name and
/// copies no text.
#[derive(Debug)]
pub struct BoundFilter<'a> {
    atoms: Vec<BoundAtom<'a>>,
}

/// A [`FilterAtom`] with its attribute position resolved.
#[derive(Debug)]
enum BoundAtom<'a> {
    Cmp(usize, CmpOp, &'a Value),
    /// The flag is the outcome wanted of the match: `false` for NOT LIKE.
    Like(usize, LikePattern, bool),
    In(usize, &'a [Value]),
    IsNull(usize),
    NodeIs(NodeId),
    NeighborLabelLike(EdgeTypeId, LikePattern),
}

/// LIKE over a value's display text; only non-text values are formatted.
fn like_text(pattern: &LikePattern, v: &Value) -> bool {
    match v {
        Value::Text(s) => pattern.matches(s.as_str()),
        other => pattern.matches(&other.to_string()),
    }
}

impl BoundFilter<'_> {
    /// Whether `node`, of the node type the filter was bound to, satisfies
    /// every atom (SQL three-valued logic: unknown is not a match).
    pub fn eval(&self, tgdb: &Tgdb, node: NodeId) -> bool {
        let values = &tgdb.instances.node(node).values;
        self.atoms.iter().all(|atom| match atom {
            BoundAtom::Cmp(attr, op, value) => match values[*attr].sql_cmp(value) {
                None => false,
                Some(o) => match op {
                    CmpOp::Eq => o == Ordering::Equal,
                    CmpOp::Ne => o != Ordering::Equal,
                    CmpOp::Lt => o == Ordering::Less,
                    CmpOp::Le => o != Ordering::Greater,
                    CmpOp::Gt => o == Ordering::Greater,
                    CmpOp::Ge => o != Ordering::Less,
                },
            },
            // NULL is neither LIKE nor NOT LIKE anything.
            BoundAtom::Like(attr, pattern, wanted) => {
                !values[*attr].is_null() && like_text(pattern, &values[*attr]) == *wanted
            }
            BoundAtom::In(attr, list) => list.iter().any(|w| values[*attr].sql_eq(w) == Some(true)),
            BoundAtom::IsNull(attr) => values[*attr].is_null(),
            BoundAtom::NodeIs(target) => node == *target,
            BoundAtom::NeighborLabelLike(edge, pattern) => {
                let mut neighbors = tgdb.instances.neighbors(*edge, node).iter();
                neighbors.any(|&n| like_text(pattern, &tgdb.instances.label(n)))
            }
        })
    }
}

/// A pattern node: one occurrence of a schema node type with a condition.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternNode {
    /// The schema node type this occurrence instantiates.
    pub node_type: NodeTypeId,
    /// The selection condition `Ci` (possibly empty).
    pub filter: NodeFilter,
}

/// A pattern edge: one occurrence of a schema edge type connecting two
/// pattern nodes. `edge_type` must run from `from`'s type to `to`'s type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternEdge {
    /// The schema edge type.
    pub edge_type: EdgeTypeId,
    /// Source pattern node (the pre-existing one when built via `Add`).
    pub from: PatternNodeId,
    /// Target pattern node (the newly added one when built via `Add`).
    pub to: PatternNodeId,
}

/// A query pattern `Q = (τa, T, P, C)`.
///
/// Invariants (checked by [`QueryPattern::validate`]):
/// * the pattern graph is a tree (acyclic and connected),
/// * every edge's schema type matches its endpoints' node types,
/// * the primary node exists.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPattern {
    /// Participating node occurrences `T`.
    pub nodes: Vec<PatternNode>,
    /// Participating edge occurrences `P`.
    pub edges: Vec<PatternEdge>,
    /// The primary node `τa`.
    pub primary: PatternNodeId,
}

impl QueryPattern {
    /// Number of pattern nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the pattern has no nodes (never valid; exists for
    /// completeness of the API).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node occurrence ids.
    pub fn node_ids(&self) -> impl Iterator<Item = PatternNodeId> {
        (0..self.nodes.len()).map(PatternNodeId)
    }

    /// A pattern node by id.
    pub fn node(&self, id: PatternNodeId) -> &PatternNode {
        &self.nodes[id.0]
    }

    /// The primary pattern node.
    pub fn primary_node(&self) -> &PatternNode {
        self.node(self.primary)
    }

    /// Edges incident to `id`, each with the neighbor and the edge type id
    /// oriented *away* from `id` (using the reverse type when necessary).
    pub fn incident(&self, tgdb: &Tgdb, id: PatternNodeId) -> Vec<(PatternNodeId, EdgeTypeId)> {
        let mut out = Vec::new();
        for e in &self.edges {
            if e.from == id {
                out.push((e.to, e.edge_type));
            } else if e.to == id {
                out.push((e.from, tgdb.schema.edge_type(e.edge_type).reverse));
            }
        }
        out
    }

    /// The unique tree path from `from` to `to` as a list of
    /// `(next node, edge type oriented along the walk)` steps.
    pub fn path(
        &self,
        tgdb: &Tgdb,
        from: PatternNodeId,
        to: PatternNodeId,
    ) -> Result<Vec<(PatternNodeId, EdgeTypeId)>> {
        // BFS with parent tracking; patterns are small so this is cheap.
        let mut parent: Vec<Option<(PatternNodeId, EdgeTypeId)>> = vec![None; self.nodes.len()];
        let mut visited = vec![false; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        visited[from.0] = true;
        queue.push_back(from);
        while let Some(cur) = queue.pop_front() {
            if cur == to {
                break;
            }
            for (next, et) in self.incident(tgdb, cur) {
                if !visited[next.0] {
                    visited[next.0] = true;
                    parent[next.0] = Some((cur, et));
                    queue.push_back(next);
                }
            }
        }
        if !visited[to.0] {
            return Err(Error::Disconnected);
        }
        let mut steps = Vec::new();
        let mut cur = to;
        while cur != from {
            let (prev, et) = parent[cur.0].expect("visited nodes have parents");
            steps.push((cur, et));
            cur = prev;
        }
        steps.reverse();
        Ok(steps)
    }

    /// Checks the structural invariants against the schema.
    pub fn validate(&self, tgdb: &Tgdb) -> Result<()> {
        if self.nodes.is_empty() {
            return Err(Error::EmptyPattern);
        }
        if self.primary.0 >= self.nodes.len() {
            return Err(Error::InvalidNode(format!(
                "primary {} out of range",
                self.primary
            )));
        }
        // Tree: n nodes, n-1 edges, connected.
        if self.edges.len() != self.nodes.len() - 1 {
            return Err(Error::NotATree(format!(
                "{} nodes but {} edges",
                self.nodes.len(),
                self.edges.len()
            )));
        }
        for e in &self.edges {
            if e.from.0 >= self.nodes.len() || e.to.0 >= self.nodes.len() {
                return Err(Error::InvalidNode(format!(
                    "edge endpoint out of range ({} -> {})",
                    e.from, e.to
                )));
            }
            let et = tgdb.schema.edge_type(e.edge_type);
            if et.source != self.nodes[e.from.0].node_type
                || et.target != self.nodes[e.to.0].node_type
            {
                return Err(Error::InvalidEdge(format!(
                    "edge type `{}` does not connect the node types of {} and {}",
                    et.name, e.from, e.to
                )));
            }
        }
        // Connectivity from the primary.
        let mut visited = vec![false; self.nodes.len()];
        let mut stack = vec![self.primary];
        visited[self.primary.0] = true;
        let mut seen = 1;
        while let Some(cur) = stack.pop() {
            for (next, _) in self.incident(tgdb, cur) {
                if !visited[next.0] {
                    visited[next.0] = true;
                    seen += 1;
                    stack.push(next);
                }
            }
        }
        if seen != self.nodes.len() {
            return Err(Error::Disconnected);
        }
        Ok(())
    }

    /// A canonical string key for caching: stable under re-execution of the
    /// same logical query.
    pub fn canonical_key(&self, tgdb: &Tgdb) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let _ = write!(
                s,
                "n{i}:{}[{}];",
                tgdb.schema.node_type(n.node_type).name,
                n.filter.display()
            );
        }
        for e in &self.edges {
            let _ = write!(s, "e{}-{}-{};", e.from.0, e.edge_type, e.to.0);
        }
        let _ = write!(s, "primary={}", self.primary.0);
        s
    }

    /// Renders the pattern as an indented tree diagram rooted at the primary
    /// node (the schema view of Figure 9; compare Figure 6).
    pub fn diagram(&self, tgdb: &Tgdb) -> String {
        let mut out = String::new();
        let mut visited = vec![false; self.nodes.len()];
        self.diagram_rec(tgdb, self.primary, None, 0, &mut visited, &mut out);
        out
    }

    fn diagram_rec(
        &self,
        tgdb: &Tgdb,
        cur: PatternNodeId,
        via: Option<EdgeTypeId>,
        depth: usize,
        visited: &mut [bool],
        out: &mut String,
    ) {
        use std::fmt::Write;
        visited[cur.0] = true;
        let node = self.node(cur);
        let type_name = &tgdb.schema.node_type(node.node_type).name;
        let indent = "    ".repeat(depth);
        let arrow = match via {
            Some(et) => format!("--[{}]--> ", tgdb.schema.edge_type(et).name),
            None => String::new(),
        };
        let star = if cur == self.primary { " *" } else { "" };
        let cond = if node.filter.is_empty() {
            String::new()
        } else {
            format!(" {{{}}}", node.filter.display_with(tgdb))
        };
        let _ = writeln!(out, "{indent}{arrow}{type_name}{star}{cond}");
        for (next, et) in self.incident(tgdb, cur) {
            if !visited[next.0] {
                self.diagram_rec(tgdb, next, Some(et), depth + 1, visited, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::testutil::academic_tgdb;
    use etable_relational::expr::CmpOp;

    fn chain(tgdb: &Tgdb) -> QueryPattern {
        // Conferences - Papers - Authors - Institutions
        let (confs, _) = tgdb.schema.node_type_by_name("Conferences").unwrap();
        let q = ops::initiate(tgdb, confs).unwrap();
        let (pe, _) = tgdb.schema.outgoing_by_name(confs, "Papers").unwrap();
        let q = ops::add(tgdb, &q, pe).unwrap();
        let papers_ty = q.primary_node().node_type;
        let (ae, _) = tgdb.schema.outgoing_by_name(papers_ty, "Authors").unwrap();
        let q = ops::add(tgdb, &q, ae).unwrap();
        let authors_ty = q.primary_node().node_type;
        let (ie, _) = tgdb
            .schema
            .outgoing_by_name(authors_ty, "Institutions")
            .unwrap();
        ops::add(tgdb, &q, ie).unwrap()
    }

    #[test]
    fn path_walks_the_unique_tree_route() {
        let tgdb = academic_tgdb();
        let q = chain(&tgdb);
        // From Institutions occurrence (3) back to Conferences (0).
        let path = q.path(&tgdb, PatternNodeId(3), PatternNodeId(0)).unwrap();
        assert_eq!(path.len(), 3);
        let nodes: Vec<usize> = path.iter().map(|(n, _)| n.0).collect();
        assert_eq!(nodes, vec![2, 1, 0]);
        // Each step's edge type leaves the previous node's type.
        let mut cur = PatternNodeId(3);
        for (next, et) in path {
            let e = tgdb.schema.edge_type(et);
            assert_eq!(e.source, q.node(cur).node_type);
            assert_eq!(e.target, q.node(next).node_type);
            cur = next;
        }
        // Trivial path.
        assert!(q
            .path(&tgdb, PatternNodeId(1), PatternNodeId(1))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn canonical_key_distinguishes_patterns() {
        let tgdb = academic_tgdb();
        let q = chain(&tgdb);
        let k1 = q.canonical_key(&tgdb);
        // Same structure, different primary -> different key.
        let shifted = ops::shift(&q, PatternNodeId(0)).unwrap();
        assert_ne!(k1, shifted.canonical_key(&tgdb));
        // Different filter -> different key.
        let filtered = ops::select_on(
            &tgdb,
            &q,
            PatternNodeId(1),
            NodeFilter::cmp("year", CmpOp::Gt, 2005),
        )
        .unwrap();
        assert_ne!(k1, filtered.canonical_key(&tgdb));
        // Rebuilding the identical pattern gives the identical key.
        assert_eq!(k1, chain(&tgdb).canonical_key(&tgdb));
    }

    #[test]
    fn validate_rejects_broken_structures() {
        let tgdb = academic_tgdb();
        let good = chain(&tgdb);
        // Extra edge -> not a tree.
        let mut cyclic = good.clone();
        cyclic.edges.push(cyclic.edges[0]);
        assert!(matches!(
            cyclic.validate(&tgdb),
            Err(crate::Error::NotATree(_))
        ));
        // Mistyped edge.
        let mut mistyped = good.clone();
        mistyped.edges[0].to = PatternNodeId(2); // Conferences-edge into Authors
        assert!(mistyped.validate(&tgdb).is_err());
        // Out-of-range primary.
        let mut bad_primary = good.clone();
        bad_primary.primary = PatternNodeId(9);
        assert!(bad_primary.validate(&tgdb).is_err());
        // Disconnected: two nodes, an edge count of one, but the edge
        // connects a node to itself-typed duplicate incorrectly removed.
        let mut disconnected = good;
        disconnected.edges.remove(1);
        assert!(disconnected.validate(&tgdb).is_err());
    }

    #[test]
    fn incident_orients_edges_away_from_the_node() {
        let tgdb = academic_tgdb();
        let q = chain(&tgdb);
        // Papers occurrence (1) touches Conferences (0) and Authors (2).
        let inc = q.incident(&tgdb, PatternNodeId(1));
        assert_eq!(inc.len(), 2);
        for (nb, et) in inc {
            let e = tgdb.schema.edge_type(et);
            assert_eq!(e.source, q.node(PatternNodeId(1)).node_type);
            assert_eq!(e.target, q.node(nb).node_type);
        }
    }

    #[test]
    fn diagram_is_deterministic_and_complete() {
        let tgdb = academic_tgdb();
        let q = chain(&tgdb);
        let d1 = q.diagram(&tgdb);
        let d2 = q.diagram(&tgdb);
        assert_eq!(d1, d2);
        for name in ["Conferences", "Papers", "Authors", "Institutions"] {
            assert!(d1.contains(name), "{d1}");
        }
        // Exactly one primary marker.
        assert_eq!(d1.matches(" *").count(), 1, "{d1}");
    }

    #[test]
    fn node_filter_helpers_compose() {
        let f = NodeFilter::cmp("year", CmpOp::Gt, 2005).and(NodeFilter::like("title", "%user%"));
        assert_eq!(f.atoms.len(), 2);
        assert!(f.display().contains("year > 2005"));
        assert!(f.display().contains("title like '%user%'"));
        assert!(NodeFilter::none().is_empty());
    }
}
