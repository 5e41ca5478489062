//! The TGDB schema graph (paper Definition 1).
//!
//! `GS = (T, P)`: node types `τi = (αi, Ai, βi)` — name, single-valued
//! attributes, and a label attribute — and edge types `ρ ∈ T × T` with
//! names. All edge types carry an explicit reverse so relationships can be
//! browsed from either side (the paper's Figure 1 shows both `Papers
//! (referencing)` and `Papers (referenced)` columns for the self-relationship
//! on Papers).

use crate::ids::{EdgeTypeId, NodeTypeId};
use etable_relational::value::DataType;
use std::fmt;

/// How a node type was derived from the relational schema (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeTypeKind {
    /// From an entity table (relation with a single-attribute primary key).
    Entity,
    /// From a multi-valued attribute relation (two attributes, one an FK).
    MultiValued,
    /// From a single-valued categorical attribute of low cardinality.
    Categorical,
}

impl NodeTypeKind {
    /// The kind's row of paper Table 1: "Source" and "Determining factor".
    pub(crate) fn table1_row(self) -> (&'static str, &'static str) {
        match self {
            NodeTypeKind::Entity => (
                "Entity tables",
                "Relation with a single-attribute primary key",
            ),
            NodeTypeKind::MultiValued => (
                "Multi-valued attributes",
                "Relation with two attributes; one of them is a foreign key of an entity relation",
            ),
            NodeTypeKind::Categorical => (
                "Single-valued categorical attributes",
                "Attribute of low cardinality",
            ),
        }
    }
}

impl fmt::Display for NodeTypeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeTypeKind::Entity => write!(f, "entity table"),
            NodeTypeKind::MultiValued => write!(f, "multi-valued attribute"),
            NodeTypeKind::Categorical => write!(f, "single-valued categorical attribute"),
        }
    }
}

/// How an edge type was derived from the relational schema (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeTypeKind {
    /// Foreign key between two entity relations.
    OneToMany,
    /// Relation with a composite primary key of two foreign keys.
    ManyToMany,
    /// From an entity table to a multi-valued attribute node type.
    MultiValued,
    /// From an entity table to a categorical attribute node type.
    Categorical,
}

impl EdgeTypeKind {
    /// The kind's row of paper Table 1: "Source" and "Determining factor".
    pub(crate) fn table1_row(self) -> (&'static str, &'static str) {
        match self {
            EdgeTypeKind::OneToMany => (
                "One-to-many relationships",
                "Foreign key between two entity relations",
            ),
            EdgeTypeKind::ManyToMany => (
                "Many-to-many relationships",
                "Relation with a composite primary key; both are foreign keys of entity relations",
            ),
            EdgeTypeKind::MultiValued => (
                "Multi-valued attributes",
                "From an entity table to a multi-valued attribute",
            ),
            EdgeTypeKind::Categorical => (
                "Single-valued categorical attributes",
                "From an entity table to a categorical attribute",
            ),
        }
    }
}

impl fmt::Display for EdgeTypeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeTypeKind::OneToMany => write!(f, "one-to-many relationship"),
            EdgeTypeKind::ManyToMany => write!(f, "many-to-many relationship"),
            EdgeTypeKind::MultiValued => write!(f, "multi-valued attribute"),
            EdgeTypeKind::Categorical => write!(f, "single-valued categorical attribute"),
        }
    }
}

/// Structured provenance of an edge type: which relational construct it was
/// derived from. Needed to translate ETable queries back into SQL over the
/// original relational schema (paper §8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeProvenance {
    /// A foreign key `table.column` referencing the target entity's PK.
    ForeignKey {
        /// Owning (referencing) table.
        table: String,
        /// Referencing column.
        column: String,
    },
    /// A relationship relation `table(left_col, right_col)`.
    Relation {
        /// Junction table name.
        table: String,
        /// FK column referencing the forward-source entity.
        left_col: String,
        /// FK column referencing the forward-target entity.
        right_col: String,
    },
    /// A multivalued-attribute relation `table(fk_col, value_col)`.
    MultiValued {
        /// MVA table name.
        table: String,
        /// FK column referencing the owning entity.
        fk_col: String,
        /// Value column.
        value_col: String,
    },
    /// A categorical attribute `table.column`.
    Categorical {
        /// Owning entity table.
        table: String,
        /// The categorical column.
        column: String,
    },
}

impl EdgeProvenance {
    /// Where a forward edge's instances are read from: the relation, the
    /// column holding the source node's key — `None` when every row *is*
    /// the source entity — and the column holding the target node's key.
    pub(crate) fn key_columns(&self) -> (&str, Option<&str>, &str) {
        match self {
            EdgeProvenance::ForeignKey { table, column }
            | EdgeProvenance::Categorical { table, column } => (table, None, column),
            EdgeProvenance::Relation {
                table,
                left_col,
                right_col,
            } => (table, Some(left_col), right_col),
            EdgeProvenance::MultiValued {
                table,
                fk_col,
                value_col,
            } => (table, Some(fk_col), value_col),
        }
    }
}

impl fmt::Display for EdgeProvenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeProvenance::ForeignKey { table, column } => write!(f, "FK {table}.{column}"),
            EdgeProvenance::Relation { table, .. } => write!(f, "relation {table}"),
            EdgeProvenance::MultiValued { table, .. } => write!(f, "relation {table}"),
            EdgeProvenance::Categorical { table, column } => {
                write!(f, "column {table}.{column}")
            }
        }
    }
}

/// An attribute of a node type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrDef {
    /// Attribute name.
    pub name: String,
    /// Attribute type.
    pub data_type: DataType,
}

/// A node type `τ = (α, A, β)`.
#[derive(Debug, Clone)]
pub struct NodeType {
    /// Name `α`, e.g. `Papers` or `Paper_Keywords: keyword`.
    pub name: String,
    /// Single-valued attributes `A`.
    pub attrs: Vec<AttrDef>,
    /// Index into `attrs` of the label attribute `β`.
    pub label_attr: usize,
    /// Provenance category (paper Table 1).
    pub kind: NodeTypeKind,
    /// The relational table this type came from.
    pub source_table: String,
}

impl NodeType {
    /// Position of an attribute by name.
    pub fn attr_index(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a.name == name)
    }
}

/// An edge type `ρ` with explicit direction and a paired reverse.
#[derive(Debug, Clone)]
pub struct EdgeType {
    /// Display name, unique among the edge types leaving `source`.
    pub name: String,
    /// Source node type.
    pub source: NodeTypeId,
    /// Target node type.
    pub target: NodeTypeId,
    /// Provenance category (paper Table 1).
    pub kind: EdgeTypeKind,
    /// The paired reverse edge type.
    pub reverse: EdgeTypeId,
    /// The relational construct this type came from.
    pub provenance: EdgeProvenance,
    /// Whether this is the forward direction of its provenance (e.g. for a
    /// `ForeignKey`, forward goes referencing → referenced).
    pub forward: bool,
}

impl EdgeType {
    /// Human-readable provenance text.
    pub fn source_desc(&self) -> String {
        self.provenance.to_string()
    }
}

/// The schema graph `GS = (T, P)`.
#[derive(Debug, Clone, Default)]
pub struct SchemaGraph {
    node_types: Vec<NodeType>,
    edge_types: Vec<EdgeType>,
}

impl SchemaGraph {
    /// Creates an empty schema graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node type and returns its id.
    pub fn add_node_type(&mut self, nt: NodeType) -> NodeTypeId {
        assert!(
            self.node_type_by_name(&nt.name).is_none(),
            "duplicate node type name `{}`",
            nt.name
        );
        assert!(
            nt.label_attr < nt.attrs.len(),
            "label attribute out of range"
        );
        let id = NodeTypeId::from_index(self.node_types.len());
        self.node_types.push(nt);
        id
    }

    /// Adds a forward/reverse pair of edge types and returns the forward id.
    ///
    /// The reverse edge is created even when `source == target` (a
    /// self-relationship such as paper citations): the two directions are
    /// semantically distinct ("referenced" vs "referencing") and the paper's
    /// interface exposes both as separate columns.
    pub fn add_edge_type_pair(
        &mut self,
        forward_name: impl Into<String>,
        reverse_name: impl Into<String>,
        source: NodeTypeId,
        target: NodeTypeId,
        kind: EdgeTypeKind,
        provenance: EdgeProvenance,
    ) -> EdgeTypeId {
        let fid = EdgeTypeId::from_index(self.edge_types.len());
        let rid = EdgeTypeId::from_index(self.edge_types.len() + 1);
        self.edge_types.push(EdgeType {
            name: forward_name.into(),
            source,
            target,
            kind,
            reverse: rid,
            provenance: provenance.clone(),
            forward: true,
        });
        self.edge_types.push(EdgeType {
            name: reverse_name.into(),
            source: target,
            target: source,
            kind,
            reverse: fid,
            provenance,
            forward: false,
        });
        fid
    }

    /// Node type by id.
    pub fn node_type(&self, id: NodeTypeId) -> &NodeType {
        &self.node_types[id.index()]
    }

    /// Edge type by id.
    pub fn edge_type(&self, id: EdgeTypeId) -> &EdgeType {
        &self.edge_types[id.index()]
    }

    /// All node types with ids.
    pub fn node_types(&self) -> impl Iterator<Item = (NodeTypeId, &NodeType)> {
        self.node_types
            .iter()
            .enumerate()
            .map(|(i, t)| (NodeTypeId::from_index(i), t))
    }

    /// All edge types with ids.
    pub fn edge_types(&self) -> impl Iterator<Item = (EdgeTypeId, &EdgeType)> {
        self.edge_types
            .iter()
            .enumerate()
            .map(|(i, t)| (EdgeTypeId::from_index(i), t))
    }

    /// Number of node types.
    pub fn node_type_count(&self) -> usize {
        self.node_types.len()
    }

    /// Number of edge types (counting each direction separately).
    pub fn edge_type_count(&self) -> usize {
        self.edge_types.len()
    }

    /// Finds a node type by name.
    pub fn node_type_by_name(&self, name: &str) -> Option<(NodeTypeId, &NodeType)> {
        self.node_types().find(|(_, t)| t.name == name)
    }

    /// Edge types whose source is `nt` (the neighbor columns `Ah` of an
    /// ETable whose primary node type is `nt`).
    pub fn outgoing(&self, nt: NodeTypeId) -> Vec<(EdgeTypeId, &EdgeType)> {
        self.edge_types().filter(|(_, e)| e.source == nt).collect()
    }

    /// Finds an outgoing edge type of `nt` by name.
    pub fn outgoing_by_name(&self, nt: NodeTypeId, name: &str) -> Option<(EdgeTypeId, &EdgeType)> {
        self.edge_types()
            .find(|(_, e)| e.source == nt && e.name == name)
    }

    /// The entity node types, in id order (the paper's "default table list",
    /// Figure 9 component 1).
    pub fn entity_types(&self) -> Vec<(NodeTypeId, &NodeType)> {
        self.node_types()
            .filter(|(_, t)| t.kind == NodeTypeKind::Entity)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(name: &str, ty: DataType) -> AttrDef {
        AttrDef {
            name: name.into(),
            data_type: ty,
        }
    }

    fn simple_graph() -> (SchemaGraph, NodeTypeId, NodeTypeId, EdgeTypeId) {
        let mut g = SchemaGraph::new();
        let papers = g.add_node_type(NodeType {
            name: "Papers".into(),
            attrs: vec![attr("id", DataType::Int), attr("title", DataType::Text)],
            label_attr: 1,
            kind: NodeTypeKind::Entity,
            source_table: "Papers".into(),
        });
        let confs = g.add_node_type(NodeType {
            name: "Conferences".into(),
            attrs: vec![attr("id", DataType::Int), attr("acronym", DataType::Text)],
            label_attr: 1,
            kind: NodeTypeKind::Entity,
            source_table: "Conferences".into(),
        });
        let e = g.add_edge_type_pair(
            "Conferences",
            "Papers",
            papers,
            confs,
            EdgeTypeKind::OneToMany,
            EdgeProvenance::ForeignKey {
                table: "Papers".into(),
                column: "conference_id".into(),
            },
        );
        (g, papers, confs, e)
    }

    #[test]
    fn reverse_edges_paired() {
        let (g, papers, confs, e) = simple_graph();
        let fwd = g.edge_type(e);
        assert_eq!(fwd.source, papers);
        assert_eq!(fwd.target, confs);
        let rev = g.edge_type(fwd.reverse);
        assert_eq!(rev.source, confs);
        assert_eq!(rev.target, papers);
        assert_eq!(rev.reverse, e);
    }

    #[test]
    fn outgoing_filters_by_source() {
        let (g, papers, confs, _) = simple_graph();
        assert_eq!(g.outgoing(papers).len(), 1);
        assert_eq!(g.outgoing(confs).len(), 1);
        assert_eq!(g.outgoing(papers)[0].1.name, "Conferences");
    }

    #[test]
    #[should_panic(expected = "duplicate node type")]
    fn duplicate_names_rejected() {
        let (mut g, _, _, _) = simple_graph();
        g.add_node_type(NodeType {
            name: "Papers".into(),
            attrs: vec![attr("x", DataType::Int)],
            label_attr: 0,
            kind: NodeTypeKind::Entity,
            source_table: "Papers".into(),
        });
    }

    #[test]
    fn lookup_by_name() {
        let (g, papers, _, _) = simple_graph();
        let (id, t) = g.node_type_by_name("Papers").unwrap();
        assert_eq!(id, papers);
        assert_eq!(t.attrs.len(), 2);
        assert!(g.node_type_by_name("Nope").is_none());
    }

    #[test]
    fn entity_list() {
        let (g, _, _, _) = simple_graph();
        assert_eq!(g.entity_types().len(), 2);
    }
}
