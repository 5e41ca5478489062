//! The TGDB instance graph (paper Definition 2).
//!
//! `GI = (V, E)` with a node-type mapping and an edge-type mapping. A built
//! graph is immutable and works on dense node ids: one label column, and
//! one CSR adjacency per directed edge type, so the "quick neighbor-lookup"
//! the paper relies on (§1) is two offset loads and a slice — no hashing,
//! no pointer chase. Graphs are assembled by a [`GraphBuilder`], which
//! collects edge lists and turns them into CSR once, in
//! [`GraphBuilder::finish`].

use crate::ids::{EdgeTypeId, NodeId, NodeTypeId};
use crate::schema_graph::SchemaGraph;
use crate::{Error, Result};
use etable_relational::value::Value;
use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// A node (entity) in the instance graph.
#[derive(Debug, Clone)]
struct Node {
    /// The node's type.
    node_type: NodeTypeId,
    /// Attribute values, positionally matching the node type's `attrs`.
    values: Vec<Value>,
}

/// A shared, immutable run of node ids, `buf[start..start + len]`: a node's
/// neighbor list within a CSR target array, or one cell of an enriched-table
/// column within the column's buffer. Handing one out bumps a reference
/// count; it copies no ids and allocates nothing. Equality is by content.
#[derive(Clone)]
pub struct IdSlice {
    buf: Arc<[NodeId]>,
    start: u32,
    len: u32,
}

impl IdSlice {
    /// The run `buf[range]`, or `None` when `range` does not lie inside
    /// `buf` or its bounds do not fit `u32`.
    pub fn new(buf: &Arc<[NodeId]>, range: Range<usize>) -> Option<IdSlice> {
        buf.get(range.clone())?;
        Some(IdSlice {
            buf: Arc::clone(buf),
            start: u32::try_from(range.start).ok()?,
            len: u32::try_from(range.len()).ok()?,
        })
    }
}

impl Deref for IdSlice {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        // In bounds by construction: `new` checks the range, and CSR runs
        // are validated when the graph is built.
        &self.buf[self.start as usize..][..self.len as usize]
    }
}

impl PartialEq for IdSlice {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for IdSlice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Compressed sparse row adjacency of one directed edge type.
#[derive(Debug, Clone, Default)]
struct Csr {
    /// The lowest id of the source node type, whose id span `offsets` covers.
    base: u32,
    /// `targets[offsets[i]..offsets[i + 1]]` are the neighbors of node
    /// `base + i`, in edge insertion order.
    offsets: Vec<u32>,
    targets: Arc<[NodeId]>,
}

impl Csr {
    /// Stable counting sort of `(source, target)` pairs by source, so each
    /// run keeps the order the pairs came in. `finish` has checked that
    /// every source lies in `span` and that there are at most `u32::MAX`
    /// pairs.
    fn build(span: Range<u32>, pairs: impl Iterator<Item = (NodeId, NodeId)> + Clone) -> Csr {
        let slot = |n: NodeId| (n.0 - span.start) as usize;
        let mut offsets = vec![0u32; span.len() + 1];
        for (src, _) in pairs.clone() {
            offsets[slot(src) + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut next = offsets.clone();
        let mut targets = vec![NodeId(0); offsets[span.len()] as usize];
        for (src, tgt) in pairs {
            let at = &mut next[slot(src)];
            targets[*at as usize] = tgt;
            *at += 1;
        }
        Csr {
            base: span.start,
            offsets,
            targets: targets.into(),
        }
    }

    /// The run of `targets` holding `node`'s neighbors (empty for a node
    /// outside the covered span).
    fn run(&self, node: NodeId) -> Range<usize> {
        let at = node.0.checked_sub(self.base).map(|i| i as usize);
        match at.and_then(|i| self.offsets.get(i..i + 2)) {
            Some(&[lo, hi]) => lo as usize..hi as usize,
            _ => 0..0,
        }
    }
}

/// Why node `i` does not have one value per attribute of its type, if so.
fn arity_error(schema: &SchemaGraph, i: usize, node: &Node) -> Option<String> {
    let nt = schema.node_type(node.node_type);
    (node.values.len() != nt.attrs.len()).then(|| {
        format!(
            "node {i} of type `{}` has {} values, expected {}",
            nt.name,
            node.values.len(),
            nt.attrs.len()
        )
    })
}

/// The instance graph.
#[derive(Debug, Clone)]
pub struct InstanceGraph {
    nodes: Vec<Node>,
    /// node type -> nodes of that type, in insertion (= ascending id) order.
    by_type: Vec<Vec<NodeId>>,
    /// node id -> `label(v) = v[β]`; shared with every enriched table.
    labels: Arc<[Value]>,
    /// edge type -> adjacency (both directions of a pair are stored).
    adjacency: Vec<Csr>,
    /// Total number of logical (forward) edges inserted.
    edge_count: usize,
}

/// Collects the nodes and edges of an [`InstanceGraph`].
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    nodes: Vec<Node>,
    by_type: Vec<Vec<NodeId>>,
    /// forward edge type -> `(source, target)` in insertion order.
    edges: Vec<Vec<(NodeId, NodeId)>>,
}

impl GraphBuilder {
    /// Adds a node and returns its id.
    pub fn add_node(&mut self, node_type: NodeTypeId, values: Vec<Value>) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(Node { node_type, values });
        self.by_type[node_type.index()].push(id);
        id
    }

    /// Adds an edge of type `et` from `src` to `tgt`. The finished graph
    /// also holds its mirror on the reverse edge type, keeping the graph
    /// bidirectionally navigable.
    pub fn add_edge(&mut self, schema: &SchemaGraph, et: EdgeTypeId, src: NodeId, tgt: NodeId) {
        let def = schema.edge_type(et);
        if def.forward {
            self.edges[et.index()].push((src, tgt));
        } else {
            self.edges[def.reverse.index()].push((tgt, src));
        }
    }

    /// Checks every node's arity and every edge's endpoint types against
    /// `schema`, then freezes the graph: fills the label column and builds
    /// both CSR directions of every edge type straight from its edge list.
    pub fn finish(self, schema: &SchemaGraph) -> Result<InstanceGraph> {
        let mut labels = Vec::with_capacity(self.nodes.len());
        for (i, node) in self.nodes.iter().enumerate() {
            if let Some(e) = arity_error(schema, i, node) {
                return Err(Error::Integrity(e));
            }
            labels.push(node.values[schema.node_type(node.node_type).label_attr]);
        }
        let type_of = |n: NodeId| self.nodes.get(n.index()).map(|node| node.node_type);
        let span = |nt: NodeTypeId| match self.by_type[nt.index()].as_slice() {
            [first, .., last] => first.0..last.0 + 1,
            [only] => only.0..only.0 + 1,
            [] => 0..0,
        };
        let mut adjacency = vec![Csr::default(); self.edges.len()];
        let mut edge_count = 0;
        for (eti, pairs) in self.edges.iter().enumerate() {
            let et = schema.edge_type(EdgeTypeId::from_index(eti));
            if !et.forward {
                continue; // built together with its forward partner below
            }
            if u32::try_from(pairs.len()).is_err() {
                return Err(Error::Integrity(format!(
                    "edge type `{}`: more edges than `u32` offsets can address",
                    et.name
                )));
            }
            for &(src, tgt) in pairs {
                if type_of(src) != Some(et.source) || type_of(tgt) != Some(et.target) {
                    return Err(Error::Integrity(format!(
                        "edge type `{}`: {src} -> {tgt} has a wrong-typed endpoint",
                        et.name
                    )));
                }
            }
            edge_count += pairs.len();
            adjacency[eti] = Csr::build(span(et.source), pairs.iter().copied());
            adjacency[et.reverse.index()] =
                Csr::build(span(et.target), pairs.iter().map(|&(src, tgt)| (tgt, src)));
        }
        Ok(InstanceGraph {
            nodes: self.nodes,
            by_type: self.by_type,
            labels: labels.into(),
            adjacency,
            edge_count,
        })
    }
}

impl InstanceGraph {
    /// Starts an empty graph shaped for `schema`.
    pub fn builder(schema: &SchemaGraph) -> GraphBuilder {
        GraphBuilder {
            nodes: Vec::new(),
            by_type: vec![Vec::new(); schema.node_type_count()],
            edges: vec![Vec::new(); schema.edge_type_count()],
        }
    }

    /// The type of a node (`typeτ` in Definition 2).
    pub fn type_of(&self, id: NodeId) -> NodeTypeId {
        self.nodes[id.index()].node_type
    }

    /// The node's label `label(v) = v[βi]`.
    pub fn label(&self, id: NodeId) -> Value {
        self.labels[id.index()]
    }

    /// The label column, indexed by node id.
    pub fn labels(&self) -> &Arc<[Value]> {
        &self.labels
    }

    /// Attribute `attr` (a position in the node type's `attrs`) of a node.
    #[inline]
    pub fn value(&self, id: NodeId, attr: usize) -> Value {
        self.nodes[id.index()].values[attr]
    }

    /// An attribute value of a node by attribute name.
    pub fn attr(&self, schema: &SchemaGraph, id: NodeId, name: &str) -> Option<Value> {
        let nt = schema.node_type(self.type_of(id));
        nt.attr_index(name).map(|i| self.value(id, i))
    }

    /// Nodes of a type, in insertion order.
    pub fn nodes_of_type(&self, nt: NodeTypeId) -> &[NodeId] {
        &self.by_type[nt.index()]
    }

    /// Neighbors of `node` along edge type `et` (possibly empty), in edge
    /// insertion order.
    pub fn neighbors(&self, et: EdgeTypeId, node: NodeId) -> &[NodeId] {
        let csr = &self.adjacency[et.index()];
        &csr.targets[csr.run(node)]
    }

    /// The same neighbors as a shared run of the CSR target array.
    pub fn neighbor_slice(&self, et: EdgeTypeId, node: NodeId) -> IdSlice {
        let csr = &self.adjacency[et.index()];
        let run = csr.run(node);
        // Offsets are `u32`, so the casts are lossless.
        IdSlice {
            buf: Arc::clone(&csr.targets),
            start: run.start as u32,
            len: run.len() as u32,
        }
    }

    /// Out-degree of `node` along `et`.
    pub fn degree(&self, et: EdgeTypeId, node: NodeId) -> usize {
        self.adjacency[et.index()].run(node).len()
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total logical edge count (each forward/reverse pair counted once).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of adjacency entries of one edge type (used by integrity
    /// checks: must equal the source relation's row count).
    pub fn adjacency_size(&self, et: EdgeTypeId) -> usize {
        self.adjacency[et.index()].targets.len()
    }

    /// All node ids, in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Verifies structural consistency against a schema graph:
    /// * every node's values match its type's arity,
    /// * every adjacency entry connects correctly-typed endpoints,
    /// * every edge has its mirror on the reverse edge type.
    ///
    /// Returns the number of directed adjacency entries checked.
    pub fn check_consistency(&self, schema: &SchemaGraph) -> std::result::Result<usize, String> {
        for (i, node) in self.nodes.iter().enumerate() {
            if let Some(e) = arity_error(schema, i, node) {
                return Err(e);
            }
        }
        let typed = |n: NodeId, nt| self.nodes.get(n.index()).map(|v| v.node_type) == Some(nt);
        let mut checked = 0usize;
        for (id, et) in schema.edge_types() {
            for src in self.node_ids() {
                for &tgt in self.neighbors(id, src) {
                    if !typed(src, et.source) || !typed(tgt, et.target) {
                        return Err(format!(
                            "edge type `{}`: {src} -> {tgt} has a wrong-typed endpoint",
                            et.name
                        ));
                    }
                    if !self.neighbors(et.reverse, tgt).contains(&src) {
                        return Err(format!(
                            "edge type `{}`: {src} -> {tgt} lacks its reverse mirror",
                            et.name
                        ));
                    }
                    checked += 1;
                }
            }
        }
        Ok(checked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema_graph::{AttrDef, EdgeProvenance, EdgeTypeKind, NodeType, NodeTypeKind};
    use etable_relational::value::DataType;

    fn node_type(name: &str, label: &str) -> NodeType {
        NodeType {
            name: name.into(),
            attrs: vec![
                AttrDef {
                    name: "id".into(),
                    data_type: DataType::Int,
                },
                AttrDef {
                    name: label.into(),
                    data_type: DataType::Text,
                },
            ],
            label_attr: 1,
            kind: NodeTypeKind::Entity,
            source_table: name.into(),
        }
    }

    fn setup_builder() -> (SchemaGraph, GraphBuilder, EdgeTypeId, Vec<NodeId>) {
        let mut schema = SchemaGraph::new();
        let papers = schema.add_node_type(node_type("Papers", "title"));
        let authors = schema.add_node_type(node_type("Authors", "name"));
        let et = schema.add_edge_type_pair(
            "Authors",
            "Papers",
            papers,
            authors,
            EdgeTypeKind::ManyToMany,
            EdgeProvenance::Relation {
                table: "Paper_Authors".into(),
                left_col: "paper_id".into(),
                right_col: "author_id".into(),
            },
        );
        let mut g = InstanceGraph::builder(&schema);
        let p1 = g.add_node(papers, vec![1.into(), "Usable DBs".into()]);
        let p2 = g.add_node(papers, vec![2.into(), "SkewTune".into()]);
        let a1 = g.add_node(authors, vec![10.into(), "Jagadish".into()]);
        let a2 = g.add_node(authors, vec![11.into(), "Nandi".into()]);
        g.add_edge(&schema, et, p1, a1);
        g.add_edge(&schema, et, p1, a2);
        g.add_edge(&schema, et, p2, a2);
        (schema, g, et, vec![p1, p2, a1, a2])
    }

    fn setup() -> (SchemaGraph, InstanceGraph, EdgeTypeId, Vec<NodeId>) {
        let (schema, builder, et, ids) = setup_builder();
        let g = builder.finish(&schema).unwrap();
        (schema, g, et, ids)
    }

    #[test]
    fn neighbor_lookup_both_directions() {
        let (schema, g, et, ids) = setup();
        let (p1, p2, a1, a2) = (ids[0], ids[1], ids[2], ids[3]);
        assert_eq!(g.neighbors(et, p1), &[a1, a2]);
        assert_eq!(g.neighbors(et, p2), &[a2]);
        let rev = schema.edge_type(et).reverse;
        assert_eq!(g.neighbors(rev, a2), &[p1, p2]);
        assert_eq!(g.neighbors(rev, a1), &[p1]);
        // The shared run is the same list, and a node of the wrong type
        // simply has no neighbors along the edge.
        assert_eq!(&*g.neighbor_slice(et, p1), g.neighbors(et, p1));
        assert!(g.neighbors(et, a1).is_empty());
        assert!(g.neighbor_slice(rev, p2).is_empty());
    }

    #[test]
    fn labels_use_label_attr() {
        let (_, g, _, ids) = setup();
        assert_eq!(g.label(ids[0]), "Usable DBs".into());
        assert_eq!(g.label(ids[3]), "Nandi".into());
        assert_eq!(g.labels().len(), g.node_count());
    }

    #[test]
    fn attr_by_name() {
        let (schema, g, _, ids) = setup();
        assert_eq!(g.attr(&schema, ids[0], "id"), Some(Value::Int(1)));
        assert_eq!(g.value(ids[3], 1), "Nandi".into());
        assert!(g.attr(&schema, ids[0], "nope").is_none());
    }

    #[test]
    fn counts() {
        let (_, g, et, _) = setup();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.adjacency_size(et), 3);
    }

    #[test]
    fn nodes_of_type_partition() {
        let (schema, g, _, _) = setup();
        let (papers, _) = schema.node_type_by_name("Papers").unwrap();
        let (authors, _) = schema.node_type_by_name("Authors").unwrap();
        assert_eq!(g.nodes_of_type(papers).len(), 2);
        assert_eq!(g.nodes_of_type(authors).len(), 2);
        // The partition covers every node exactly once.
        assert_eq!(
            g.nodes_of_type(papers).len() + g.nodes_of_type(authors).len(),
            g.node_count()
        );
    }

    #[test]
    fn consistency_check_passes_and_counts() {
        let (schema, g, _, _) = setup();
        // 3 logical edges, mirrored -> 6 directed adjacency entries.
        assert_eq!(g.check_consistency(&schema), Ok(6));
    }

    #[test]
    fn empty_neighbors_for_isolated_node() {
        let (schema, mut b, et, _) = setup_builder();
        let (papers, _) = schema.node_type_by_name("Papers").unwrap();
        let p3 = b.add_node(papers, vec![3.into(), "Lonely".into()]);
        let g = b.finish(&schema).unwrap();
        assert!(g.neighbors(et, p3).is_empty());
        assert_eq!(g.degree(et, p3), 0);
    }

    #[test]
    fn finish_rejects_bad_arity_and_mistyped_edges() {
        let (schema, mut b, et, ids) = setup_builder();
        b.add_edge(&schema, et, ids[2], ids[0]); // Authors -> Papers along a Papers -> Authors type
        assert!(matches!(b.finish(&schema), Err(Error::Integrity(_))));
        let (schema, mut b, _, _) = setup_builder();
        let (papers, _) = schema.node_type_by_name("Papers").unwrap();
        b.add_node(papers, vec![4.into()]);
        assert!(matches!(b.finish(&schema), Err(Error::Integrity(_))));
    }

    #[test]
    fn check_consistency_rejects_wrong_types_and_missing_mirrors() {
        let (schema, good, et, ids) = setup();
        let rev = schema.edge_type(et).reverse;
        // A target of the wrong type: p1's first author becomes paper p2.
        let mut g = good.clone();
        let mut targets = g.adjacency[et.index()].targets.to_vec();
        targets[0] = ids[1];
        g.adjacency[et.index()].targets = targets.into();
        let err = g.check_consistency(&schema).unwrap_err();
        assert!(err.contains("wrong-typed endpoint"), "{err}");
        // A missing mirror: the reverse direction loses all its entries.
        let mut g = good;
        let span = g.adjacency[rev.index()].offsets.len();
        g.adjacency[rev.index()].offsets = vec![0; span];
        g.adjacency[rev.index()].targets = Vec::new().into();
        let err = g.check_consistency(&schema).unwrap_err();
        assert!(err.contains("lacks its reverse mirror"), "{err}");
    }

    /// SplitMix64: a fixed stream per seed, so every case can be replayed.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// For random small schemas and instances — node types interleaved in
    /// id space, self-relationships, duplicate and reverse-typed inserts —
    /// CSR lookups equal a reference adjacency built naively from the same
    /// edge list, in insertion order, in both directions.
    #[test]
    fn csr_matches_naive_adjacency_on_random_graphs() {
        for seed in 0..200u64 {
            let mut rng = seed;
            let mut pick = |n: usize| (next(&mut rng) % n as u64) as usize;
            let mut schema = SchemaGraph::new();
            let types: Vec<NodeTypeId> = (0..1 + pick(4))
                .map(|i| schema.add_node_type(node_type(&format!("T{i}"), "name")))
                .collect();
            let forward: Vec<EdgeTypeId> = (0..1 + pick(4))
                .map(|i| {
                    schema.add_edge_type_pair(
                        format!("f{i}"),
                        format!("r{i}"),
                        types[pick(types.len())],
                        types[pick(types.len())],
                        EdgeTypeKind::ManyToMany,
                        EdgeProvenance::Relation {
                            table: format!("R{i}"),
                            left_col: "l".into(),
                            right_col: "r".into(),
                        },
                    )
                })
                .collect();
            let mut b = InstanceGraph::builder(&schema);
            for i in 0..pick(40) {
                let nt = types[pick(types.len())];
                b.add_node(nt, vec![(i as i64).into(), format!("n{i}").as_str().into()]);
            }
            // The reference: edge type -> source -> targets, by plain pushes.
            let mut naive =
                vec![vec![Vec::<NodeId>::new(); b.nodes.len()]; schema.edge_type_count()];
            let mut logical = 0;
            for _ in 0..pick(120) {
                let mut et = forward[pick(forward.len())];
                if pick(4) == 0 {
                    et = schema.edge_type(et).reverse;
                }
                let def = schema.edge_type(et);
                let (srcs, tgts) = (
                    &b.by_type[def.source.index()],
                    &b.by_type[def.target.index()],
                );
                if srcs.is_empty() || tgts.is_empty() {
                    continue;
                }
                let (src, tgt) = (srcs[pick(srcs.len())], tgts[pick(tgts.len())]);
                b.add_edge(&schema, et, src, tgt);
                naive[et.index()][src.index()].push(tgt);
                naive[def.reverse.index()][tgt.index()].push(src);
                logical += 1;
            }
            let g = b.finish(&schema).unwrap();
            assert_eq!(g.edge_count(), logical, "seed {seed}");
            let mut directed = 0;
            for (et, _) in schema.edge_types() {
                for n in g.node_ids() {
                    let want = &naive[et.index()][n.index()];
                    assert_eq!(g.neighbors(et, n), want.as_slice(), "seed {seed} {et} {n}");
                    assert_eq!(&*g.neighbor_slice(et, n), want.as_slice());
                    assert_eq!(g.degree(et, n), want.len());
                    directed += want.len();
                }
                let total: usize = naive[et.index()].iter().map(Vec::len).sum();
                assert_eq!(g.adjacency_size(et), total);
            }
            assert_eq!(g.check_consistency(&schema), Ok(directed), "seed {seed}");
        }
    }

    #[test]
    fn id_slices_compare_by_content_and_check_their_range() {
        let a: Arc<[NodeId]> = vec![NodeId(1), NodeId(2), NodeId(3)].into();
        let b: Arc<[NodeId]> = vec![NodeId(2), NodeId(3)].into();
        assert_eq!(IdSlice::new(&a, 1..3), IdSlice::new(&b, 0..2));
        assert_ne!(IdSlice::new(&a, 0..2), IdSlice::new(&b, 0..2));
        assert_eq!(IdSlice::new(&a, 3..3).map(|s| s.len()), Some(0));
        assert!(IdSlice::new(&a, 2..4).is_none());
        assert_eq!(
            format!("{:?}", IdSlice::new(&b, 0..2).unwrap()),
            "[NodeId(2), NodeId(3)]"
        );
    }
}
