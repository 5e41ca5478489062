//! The TGDB instance graph (paper Definition 2).
//!
//! `GI = (V, E)` with a node-type mapping and an edge-type mapping. A built
//! graph is immutable and works on dense node ids: the nodes of one type
//! are one run of consecutive ids, and one CSR adjacency per directed edge
//! type makes the "quick neighbor-lookup" the paper relies on (§1) two
//! offset loads and a slice — no hashing, no pointer chase.
//!
//! A node's attributes are not copied out of the database: each node type
//! keeps its attributes as [`ColumnStore`]s, and node `first + r` of a type
//! is row `r` of its columns. An entity type's columns are `Arc` clones of
//! its source table's, so the graph and the epoch it was loaded from share
//! every cell; a value type's one column holds its distinct values. A node
//! filter therefore runs on the relational kernel over those columns
//! (`etable_relational::scan::select_rows`).
//!
//! Graphs are assembled by a [`GraphBuilder`], which collects edge lists
//! and turns them into CSR once, in [`GraphBuilder::finish`].

use crate::ids::{EdgeTypeId, NodeId, NodeTypeId};
use crate::schema_graph::SchemaGraph;
use crate::{Error, Result};
use etable_relational::table::{ColumnData, ColumnStore};
use etable_relational::value::{DataType, Value};
use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// The nodes of one type: a run of consecutive ids, and one column per
/// attribute of the type (in `attrs` order) whose row `r` is the `r`-th
/// node of the run.
#[derive(Debug, Clone, Default)]
struct TypeNodes {
    ids: Vec<NodeId>,
    columns: Vec<ColumnStore>,
    /// The label attribute's position in `columns`.
    label: usize,
}

/// A shared, immutable run of node ids, `buf[range]`: a node's neighbor
/// list within a CSR target array, or a set of ids a walk collected.
/// Handing a CSR run out bumps a reference count; it copies no ids and
/// allocates nothing. Equality is by content.
#[derive(Clone)]
pub struct IdSlice {
    buf: Arc<[NodeId]>,
    range: Range<usize>,
}

impl IdSlice {
    /// The run `buf[range]`, or `None` when `range` does not lie inside
    /// `buf`.
    pub fn new(buf: &Arc<[NodeId]>, range: Range<usize>) -> Option<IdSlice> {
        buf.get(range.clone())?;
        Some(IdSlice {
            buf: Arc::clone(buf),
            range,
        })
    }
}

impl From<Vec<NodeId>> for IdSlice {
    /// All of `ids`, as a buffer of its own.
    fn from(ids: Vec<NodeId>) -> IdSlice {
        IdSlice {
            range: 0..ids.len(),
            buf: ids.into(),
        }
    }
}

impl Deref for IdSlice {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        // In bounds by construction: `new` checks the range, and CSR runs
        // are validated when the graph is built.
        &self.buf[self.range.clone()]
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

/// The type of the values `column` holds.
fn column_type(column: &ColumnStore) -> DataType {
    match column.data() {
        ColumnData::Int(_) => DataType::Int,
        ColumnData::Float(_) => DataType::Float,
        ColumnData::Sym(_) => DataType::Text,
        ColumnData::Bool(_) => DataType::Bool,
    }
}

/// Why `columns` cannot be the attribute columns of node type `nt`, if
/// so: one column per attribute, of the attribute's type, all of one
/// length.
fn shape_error(schema: &SchemaGraph, nt: NodeTypeId, columns: &[ColumnStore]) -> Option<String> {
    let def = schema.node_type(nt);
    if columns.len() != def.attrs.len() || columns.is_empty() {
        return Some(format!(
            "node type `{}` has {} columns, expected {}",
            def.name,
            columns.len(),
            def.attrs.len()
        ));
    }
    let rows = columns[0].len();
    let misfit = def
        .attrs
        .iter()
        .zip(columns)
        .find(|(a, c)| column_type(c) != a.data_type || c.len() != rows)?;
    Some(format!(
        "node type `{}`: attribute `{}` is a {} column of {} rows, expected {} of {rows}",
        def.name,
        misfit.0.name,
        column_type(misfit.1),
        misfit.1.len(),
        misfit.0.data_type
    ))
}

/// The instance graph.
#[derive(Debug, Clone)]
pub struct InstanceGraph {
    /// node type -> its nodes and attribute columns.
    types: Vec<TypeNodes>,
    /// node id -> its type.
    node_types: Vec<NodeTypeId>,
    /// edge type -> adjacency (both directions of a pair are stored).
    adjacency: Vec<Csr>,
    /// Total number of logical (forward) edges inserted.
    edge_count: usize,
}

/// Collects the nodes and edges of an [`InstanceGraph`].
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    types: Vec<TypeNodes>,
    node_types: Vec<NodeTypeId>,
    /// forward edge type -> `(source, target)` in insertion order.
    edges: Vec<Vec<(NodeId, NodeId)>>,
}

impl GraphBuilder {
    /// Adds the nodes of type `nt`, one per row of `columns` (one column
    /// per attribute of the type, in `attrs` order, of the attribute's
    /// type), numbered after every node added so far, and returns the
    /// first one's id: row `r` is node `first + r`. Fails when the type
    /// has nodes already, when the columns do not fit its attributes, or
    /// when the ids would overflow.
    pub fn add_nodes(
        &mut self,
        schema: &SchemaGraph,
        nt: NodeTypeId,
        columns: Vec<ColumnStore>,
    ) -> Result<NodeId> {
        let name = &schema.node_type(nt).name;
        if !self.types[nt.index()].columns.is_empty() {
            return Err(Error::Integrity(format!("node type `{name}` added twice")));
        }
        if let Some(e) = shape_error(schema, nt, &columns) {
            return Err(Error::Integrity(e));
        }
        let first = self.node_types.len() as u32;
        let end = u32::try_from(columns[0].len())
            .ok()
            .and_then(|n| first.checked_add(n))
            .ok_or_else(|| Error::Integrity(format!("node type `{name}`: node ids exhausted")))?;
        self.node_types.resize(end as usize, nt);
        self.types[nt.index()] = TypeNodes {
            ids: (first..end).map(NodeId).collect(),
            columns,
            label: schema.node_type(nt).label_attr,
        };
        Ok(NodeId(first))
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

    /// Checks every edge's endpoint types against `schema`, then freezes
    /// the graph: builds both CSR directions of every edge type straight
    /// from its edge list.
    pub fn finish(self, schema: &SchemaGraph) -> Result<InstanceGraph> {
        let mut graph = InstanceGraph {
            types: self.types,
            node_types: self.node_types,
            adjacency: Vec::new(),
            edge_count: 0,
        };
        let span = |nt: NodeTypeId| match graph.types[nt.index()].ids.as_slice() {
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
                if !graph.typed(src, et.source) || !graph.typed(tgt, et.target) {
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
        (graph.adjacency, graph.edge_count) = (adjacency, edge_count);
        Ok(graph)
    }
}

impl InstanceGraph {
    /// Starts an empty graph shaped for `schema`.
    pub fn builder(schema: &SchemaGraph) -> GraphBuilder {
        GraphBuilder {
            types: vec![TypeNodes::default(); schema.node_type_count()],
            node_types: Vec::new(),
            edges: vec![Vec::new(); schema.edge_type_count()],
        }
    }

    /// Whether `id` is a node of type `nt`.
    fn typed(&self, id: NodeId, nt: NodeTypeId) -> bool {
        self.node_types.get(id.index()) == Some(&nt)
    }

    /// The type of a node (`typeτ` in Definition 2).
    pub fn type_of(&self, id: NodeId) -> NodeTypeId {
        self.node_types[id.index()]
    }

    /// The nodes of `id`'s type and `id`'s row in their columns.
    fn locate(&self, id: NodeId) -> (&TypeNodes, usize) {
        let nodes = &self.types[self.type_of(id).index()];
        (nodes, (id.0 - nodes.ids[0].0) as usize)
    }

    /// The attribute columns of node type `nt`, in `attrs` order: row `r`
    /// of each is the `r`-th node of [`InstanceGraph::nodes_of_type`],
    /// whose ids are consecutive.
    pub fn columns(&self, nt: NodeTypeId) -> &[ColumnStore] {
        &self.types[nt.index()].columns
    }

    /// The node's label `label(v) = v[βi]`, read from its type's label
    /// column.
    pub fn label(&self, id: NodeId) -> Value {
        let (nodes, row) = self.locate(id);
        nodes.columns[nodes.label].get(row)
    }

    /// Attribute `attr` (a position in the node type's `attrs`) of a node,
    /// read from the type's column at the node's row.
    #[inline]
    pub fn value(&self, id: NodeId, attr: usize) -> Value {
        let (nodes, row) = self.locate(id);
        nodes.columns[attr].get(row)
    }

    /// An attribute value of a node by attribute name.
    pub fn attr(&self, schema: &SchemaGraph, id: NodeId, name: &str) -> Option<Value> {
        let nt = schema.node_type(self.type_of(id));
        nt.attr_index(name).map(|i| self.value(id, i))
    }

    /// Nodes of a type, in ascending id order.
    pub fn nodes_of_type(&self, nt: NodeTypeId) -> &[NodeId] {
        &self.types[nt.index()].ids
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
        IdSlice {
            buf: Arc::clone(&csr.targets),
            range: csr.run(node),
        }
    }

    /// Out-degree of `node` along `et`.
    pub fn degree(&self, et: EdgeTypeId, node: NodeId) -> usize {
        self.adjacency[et.index()].run(node).len()
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.node_types.len()
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

    /// All node ids, in ascending order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::from_index)
    }

    /// Verifies structural consistency against a schema graph:
    /// * every node type's columns fit its attributes,
    /// * every adjacency entry connects correctly-typed endpoints,
    /// * every edge has its mirror on the reverse edge type.
    ///
    /// Returns the number of directed adjacency entries checked.
    pub fn check_consistency(&self, schema: &SchemaGraph) -> std::result::Result<usize, String> {
        for (i, nodes) in self.types.iter().enumerate() {
            let nt = NodeTypeId::from_index(i);
            let error = shape_error(schema, nt, &nodes.columns);
            if let Some(e) = error.filter(|_| !nodes.ids.is_empty()) {
                return Err(e);
            }
        }
        let mut checked = 0usize;
        for (id, et) in schema.edge_types() {
            for src in self.node_ids() {
                for &tgt in self.neighbors(id, src) {
                    if !self.typed(src, et.source) || !self.typed(tgt, et.target) {
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

    /// Adds nodes of `nt` keyed and labelled by `rows`; the first's id.
    fn add(
        schema: &SchemaGraph,
        g: &mut GraphBuilder,
        nt: NodeTypeId,
        rows: &[(i64, &str)],
    ) -> NodeId {
        let ids = ColumnStore::from_values(DataType::Int, rows.iter().map(|r| r.0.into()));
        let labels = ColumnStore::from_values(DataType::Text, rows.iter().map(|r| r.1.into()));
        g.add_nodes(schema, nt, vec![ids, labels]).unwrap()
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
        let p1 = add(
            &schema,
            &mut g,
            papers,
            &[(1, "Usable DBs"), (2, "SkewTune")],
        );
        let p2 = NodeId(p1.0 + 1);
        let a1 = add(&schema, &mut g, authors, &[(10, "Jagadish"), (11, "Nandi")]);
        let a2 = NodeId(a1.0 + 1);
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
        // Row `r` of a type's columns is its `r`-th node.
        let authors = g.type_of(ids[3]);
        assert_eq!(g.nodes_of_type(authors)[1], ids[3]);
        assert_eq!(g.columns(authors)[1].get(1), "Nandi".into());
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
        let (schema, _, et, _) = setup_builder();
        let (papers, _) = schema.node_type_by_name("Papers").unwrap();
        let mut b = InstanceGraph::builder(&schema);
        let p3 = add(&schema, &mut b, papers, &[(3, "Lonely")]);
        let g = b.finish(&schema).unwrap();
        assert!(g.neighbors(et, p3).is_empty());
        assert_eq!(g.degree(et, p3), 0);
    }

    #[test]
    fn builder_rejects_misfit_columns_repeated_types_and_mistyped_edges() {
        let (schema, mut b, et, ids) = setup_builder();
        b.add_edge(&schema, et, ids[2], ids[0]); // Authors -> Papers along a Papers -> Authors type
        assert!(matches!(b.finish(&schema), Err(Error::Integrity(_))));
        let mut b = InstanceGraph::builder(&schema);
        let (papers, _) = schema.node_type_by_name("Papers").unwrap();
        let refusal = |got: Result<NodeId>| match got {
            Err(Error::Integrity(e)) => e,
            other => panic!("{other:?}"),
        };
        let e = refusal(b.add_nodes(&schema, papers, vec![ColumnStore::new(DataType::Int)]));
        assert_eq!(e, "node type `Papers` has 1 columns, expected 2");
        let (ints, texts) = (
            ColumnStore::new(DataType::Int),
            ColumnStore::new(DataType::Text),
        );
        let e = refusal(b.add_nodes(&schema, papers, vec![ints.clone(), ints.clone()]));
        assert_eq!(
            e,
            "node type `Papers`: attribute `title` is a INT column of 0 rows, expected TEXT of 0"
        );
        assert_eq!(
            b.add_nodes(&schema, papers, vec![ints.clone(), texts.clone()]),
            Ok(NodeId(0))
        );
        let e = refusal(b.add_nodes(&schema, papers, vec![ints, texts]));
        assert_eq!(e, "node type `Papers` added twice");
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

    /// For random small schemas and instances — node types added in random
    /// order, empty ones included, self-relationships, duplicate and
    /// reverse-typed inserts —
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
            let mut order = types.clone();
            let turn = pick(order.len());
            order.rotate_left(turn);
            let mut n = 0;
            for nt in order {
                let names: Vec<String> = (n..n + pick(12)).map(|i| format!("n{i}")).collect();
                let rows: Vec<(i64, &str)> = (names.iter().zip(n as i64..))
                    .map(|(name, i)| (i, name.as_str()))
                    .collect();
                n += rows.len();
                add(&schema, &mut b, nt, &rows);
            }
            // The reference: edge type -> source -> targets, by plain pushes.
            let mut naive = vec![vec![Vec::<NodeId>::new(); n]; schema.edge_type_count()];
            let mut logical = 0;
            for _ in 0..pick(120) {
                let mut et = forward[pick(forward.len())];
                if pick(4) == 0 {
                    et = schema.edge_type(et).reverse;
                }
                let def = schema.edge_type(et);
                let (srcs, tgts) = (
                    &b.types[def.source.index()].ids,
                    &b.types[def.target.index()].ids,
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
            assert_eq!(g.node_count(), n, "seed {seed}");
            for (i, nt) in types.iter().enumerate() {
                let nodes = g.nodes_of_type(*nt);
                assert!(
                    nodes.windows(2).all(|w| w[1].0 == w[0].0 + 1),
                    "seed {seed}"
                );
                for &id in nodes {
                    assert_eq!(g.type_of(id), *nt, "seed {seed} type {i}");
                }
            }
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
            IdSlice::from(vec![NodeId(2), NodeId(3)]),
            IdSlice::new(&a, 1..3).unwrap()
        );
        assert_eq!(
            format!("{:?}", IdSlice::new(&b, 0..2).unwrap()),
            "[NodeId(2), NodeId(3)]"
        );
    }
}
