//! ETable query patterns (paper Definition 3). Their per-node selection
//! conditions are [`crate::filter`]'s, re-exported here.
//!
//! A query pattern `Q = (τa, T, P, C)` is an acyclic, connected graph of
//! *pattern nodes* (occurrences of schema node types — the same type may
//! occur several times, like a relation can appear twice in a relational
//! algebra expression), *pattern edges* (occurrences of schema edge types),
//! per-node selection conditions, and one node marked primary.

pub use crate::filter::{BoundFilter, FilterAtom, NodeFilter};
use crate::{Error, Result};
use etable_tgm::{EdgeTypeId, NodeTypeId, Tgdb};
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

/// One node of [`QueryPattern::tree`] and the link it was reached by
/// (`None` for the root).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeStep {
    /// The pattern node.
    pub node: PatternNodeId,
    /// The link from its parent.
    pub via: Option<TreeEdge>,
}

/// The parent → child link of a non-root [`TreeStep`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeEdge {
    /// The node the walk came from.
    pub parent: PatternNodeId,
    /// The edge type oriented parent → child.
    pub edge_type: EdgeTypeId,
    /// The pattern edge taken, as an index into [`QueryPattern::edges`].
    pub edge: usize,
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

    /// The pattern as a tree rooted at `root`: every node once, root
    /// first, breadth-first over [`QueryPattern::edges`] in index order, so
    /// each parent comes before its children. The one walk of a pattern:
    /// validation, paths, matching, the SQL translation and the diagram
    /// all read it. Fails on a malformed pattern or an unknown `root`.
    pub fn tree(&self, tgdb: &Tgdb, root: PatternNodeId) -> Result<Vec<TreeStep>> {
        let n = self.nodes.len();
        if n == 0 {
            return Err(Error::EmptyPattern);
        }
        if self.primary.0 >= n {
            return Err(Error::InvalidNode(format!(
                "primary {} out of range",
                self.primary
            )));
        }
        // Tree: n nodes, n-1 edges, connected.
        if self.edges.len() != n - 1 {
            return Err(Error::NotATree(format!(
                "{n} nodes but {} edges",
                self.edges.len()
            )));
        }
        for e in &self.edges {
            if e.from.0 >= n || e.to.0 >= n {
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
        if root.0 >= n {
            return Err(Error::InvalidNode(format!("{root} out of range")));
        }
        // The steps double as the BFS queue: `next` is the next to expand.
        let mut steps = vec![TreeStep {
            node: root,
            via: None,
        }];
        let mut next = 0;
        while let Some(&TreeStep { node: cur, .. }) = steps.get(next) {
            next += 1;
            for (edge, e) in self.edges.iter().enumerate() {
                let (child, edge_type) = match (e.from == cur, e.to == cur) {
                    (true, _) => (e.to, e.edge_type),
                    (_, true) => (e.from, tgdb.schema.edge_type(e.edge_type).reverse),
                    _ => continue,
                };
                if steps.iter().all(|s| s.node != child) {
                    let via = TreeEdge {
                        parent: cur,
                        edge_type,
                        edge,
                    };
                    steps.push(TreeStep {
                        node: child,
                        via: Some(via),
                    });
                }
            }
        }
        if steps.len() != n {
            return Err(Error::Disconnected);
        }
        Ok(steps)
    }

    /// The unique tree path from `from` to `to` as a list of
    /// `(next node, edge type oriented along the walk)` steps: the parent
    /// links of [`QueryPattern::tree`] rooted at `from`, followed up from
    /// `to`.
    pub fn path(
        &self,
        tgdb: &Tgdb,
        from: PatternNodeId,
        to: PatternNodeId,
    ) -> Result<Vec<(PatternNodeId, EdgeTypeId)>> {
        // Parents precede children, so one backward pass meets every
        // ancestor of `to` after the node below it, and ends at `from`
        // unless `to` is not in the tree at all.
        let mut walk = Vec::new();
        let mut cur = to;
        for step in self.tree(tgdb, from)?.iter().rev() {
            if let (true, Some(via)) = (step.node == cur, step.via) {
                walk.push((cur, via.edge_type));
                cur = via.parent;
            }
        }
        if cur != from {
            return Err(Error::InvalidNode(format!("{to} out of range")));
        }
        walk.reverse();
        Ok(walk)
    }

    /// Checks the structural invariants against the schema.
    pub fn validate(&self, tgdb: &Tgdb) -> Result<()> {
        self.tree(tgdb, self.primary).map(drop)
    }

    /// A canonical string key: stable under re-execution of the same
    /// logical query, and injective — a filter is written as its atoms'
    /// `Debug` form, in which text literals are escaped, so two different
    /// filters never share a key. Nothing in the workspace looks a match
    /// up by it (a session finds its kept matches by pattern pointer); it
    /// stays for the benchmark harness until ROADMAP 1(b)(ix).
    pub fn canonical_key(&self, tgdb: &Tgdb) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let _ = write!(
                s,
                "n{i}:{}{:?};",
                tgdb.schema.node_type(n.node_type).name,
                n.filter.atoms
            );
        }
        for e in &self.edges {
            let _ = write!(s, "e{}-{}-{};", e.from.0, e.edge_type, e.to.0);
        }
        let _ = write!(s, "primary={}", self.primary.0);
        s
    }

    /// Renders the pattern as an indented tree diagram rooted at the primary
    /// node (the schema view of Figure 9; compare Figure 6). A pattern that
    /// fails [`QueryPattern::validate`] renders as its refusal.
    pub fn diagram(&self, tgdb: &Tgdb) -> String {
        let mut out = String::new();
        match self.tree(tgdb, self.primary) {
            Ok(tree) => self.diagram_rec(tgdb, &tree, &tree[0], 0, &mut out),
            Err(e) => out = format!("{e}\n"),
        }
        out
    }

    /// Writes `step`'s line, then its children's subtrees in tree order.
    fn diagram_rec(
        &self,
        tgdb: &Tgdb,
        tree: &[TreeStep],
        step: &TreeStep,
        depth: usize,
        out: &mut String,
    ) {
        use std::fmt::Write;
        let node = self.node(step.node);
        let type_name = &tgdb.schema.node_type(node.node_type).name;
        let indent = "    ".repeat(depth);
        let arrow = match step.via {
            Some(via) => format!("--[{}]--> ", tgdb.schema.edge_type(via.edge_type).name),
            None => String::new(),
        };
        let star = if step.node == self.primary { " *" } else { "" };
        let cond = if node.filter.is_empty() {
            String::new()
        } else {
            format!(" {{{}}}", node.filter.display_with(tgdb, node.node_type))
        };
        let _ = writeln!(out, "{indent}{arrow}{type_name}{star}{cond}");
        for child in tree
            .iter()
            .filter(|s| s.via.is_some_and(|via| via.parent == step.node))
        {
            self.diagram_rec(tgdb, tree, child, depth + 1, out);
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
        let refusal = |q: &QueryPattern| q.validate(&tgdb).unwrap_err().to_string();
        assert!(good.validate(&tgdb).is_ok());
        // No nodes.
        let mut empty = good.clone();
        empty.nodes.clear();
        assert_eq!(refusal(&empty), "query pattern has no nodes");
        // Out-of-range primary.
        let mut bad_primary = good.clone();
        bad_primary.primary = PatternNodeId(9);
        assert_eq!(
            refusal(&bad_primary),
            "invalid pattern node: primary p9 out of range"
        );
        // Extra edge -> not a tree.
        let mut cyclic = good.clone();
        cyclic.edges.push(cyclic.edges[0]);
        assert_eq!(
            refusal(&cyclic),
            "pattern is not a tree: 4 nodes but 4 edges"
        );
        // An edge to a node that does not exist.
        let mut dangling = good.clone();
        dangling.edges[2].to = PatternNodeId(7);
        assert_eq!(
            refusal(&dangling),
            "invalid pattern node: edge endpoint out of range (p2 -> p7)"
        );
        // Mistyped edge: the Conferences -> Papers type into Authors.
        let mut mistyped = good.clone();
        mistyped.edges[0].to = PatternNodeId(2);
        assert!(
            refusal(&mistyped).starts_with("invalid pattern edge: edge type `"),
            "{}",
            refusal(&mistyped)
        );
        // n - 1 edges, but one repeated: a cycle, and a node cut off.
        let mut disconnected = good;
        disconnected.edges[1] = disconnected.edges[0];
        assert_eq!(refusal(&disconnected), "pattern is disconnected");
        // Structural checks run in that order: an empty pattern is refused
        // as empty however its other fields look.
        let mut both = disconnected.clone();
        both.nodes.clear();
        assert!(matches!(both.validate(&tgdb), Err(Error::EmptyPattern)));
    }

    #[test]
    fn tree_lists_nodes_breadth_first_over_edge_order() {
        let tgdb = academic_tgdb();
        let q = chain(&tgdb);
        // Rooted in the middle of the chain 0 - 1 - 2 - 3.
        let tree = q.tree(&tgdb, PatternNodeId(2)).unwrap();
        let nodes: Vec<usize> = tree.iter().map(|s| s.node.0).collect();
        assert_eq!(nodes, vec![2, 1, 3, 0]);
        assert_eq!(tree[0].via, None);
        for step in &tree[1..] {
            let via = step.via.unwrap();
            let e = q.edges[via.edge];
            assert!(
                (e.from, e.to) == (via.parent, step.node)
                    || (e.to, e.from) == (via.parent, step.node)
            );
            let et = tgdb.schema.edge_type(via.edge_type);
            assert_eq!(et.source, q.node(via.parent).node_type);
            assert_eq!(et.target, q.node(step.node).node_type);
        }
        assert!(matches!(
            q.tree(&tgdb, PatternNodeId(4)),
            Err(Error::InvalidNode(_))
        ));
    }

    #[test]
    fn path_refuses_out_of_range_nodes() {
        let tgdb = academic_tgdb();
        let q = chain(&tgdb);
        for (from, to) in [(4, 0), (0, 4), (usize::MAX, usize::MAX)] {
            let got = q.path(&tgdb, PatternNodeId(from), PatternNodeId(to));
            assert!(matches!(got, Err(Error::InvalidNode(_))), "{got:?}");
        }
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
        // A malformed pattern renders as its refusal.
        let mut broken = q;
        broken.edges.pop();
        assert_eq!(
            broken.diagram(&tgdb),
            "pattern is not a tree: 4 nodes but 2 edges\n"
        );
    }

    #[test]
    fn node_filter_helpers_compose() {
        let tgdb = academic_tgdb();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let f = NodeFilter::cmp("year", CmpOp::Gt, 2005).and(NodeFilter::like("title", "%user%"));
        assert_eq!(f.atoms.len(), 2);
        assert!(f.display_with(&tgdb, papers).contains("year > 2005"));
        assert!(f
            .display_with(&tgdb, papers)
            .contains("title like '%user%'"));
        assert!(NodeFilter::none().is_empty());
    }
}
