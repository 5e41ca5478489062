//! The typed graph database: a schema graph, the instance graph loaded
//! from one epoch of a relational database, and that epoch, as one value
//! — so no caller can pair a graph with a database of another epoch.
//! [`Tgdb::at`] loads a later epoch's graph from this one, rebuilding only
//! what the epoch's writes touched.

use crate::ids::{NodeId, NodeTypeId};
use crate::instance_graph::InstanceGraph;
use crate::schema_graph::{NodeTypeKind, SchemaGraph};
use crate::translate::{instances_of, RelationCategory};
use crate::Result;
use etable_relational::database::Database;
use etable_relational::value::Value;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One line of the translation report (regenerates paper Table 1).
#[derive(Debug, Clone)]
pub struct ReportEntry {
    /// "Node type" or "Edge type".
    pub form: &'static str,
    /// Name of the created graph object.
    pub name: String,
    /// Source category text, as in Table 1's "Source" column.
    pub source: String,
    /// Determining factor text, as in Table 1's rightmost column.
    pub determining_factor: String,
}

/// The translated typed graph database.
#[derive(Debug, Clone)]
pub struct Tgdb {
    /// The schema graph `GS`.
    pub schema: SchemaGraph,
    /// The instance graph `GI`, shared with every enriched table read
    /// from it.
    pub instances: Arc<InstanceGraph>,
    /// Classification of every input relation.
    pub categories: BTreeMap<String, RelationCategory>,
    /// The epoch `instances` was loaded from.
    pub(crate) db: Arc<Database>,
}

impl Tgdb {
    /// The database epoch the instance graph was loaded from.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The same schema graph over another epoch of the database, whose
    /// instance graph alone is loaded: a later epoch changes instances,
    /// not types, so a pattern over this graph is one over the new one.
    pub fn at(&self, db: Arc<Database>) -> Result<Tgdb> {
        Ok(Tgdb {
            schema: self.schema.clone(),
            instances: Arc::new(instances_of(&db, &self.schema, Some(&self.instances))?),
            categories: self.categories.clone(),
            db,
        })
    }

    /// The attribute that keys the nodes of `nt`: a value node's value, or
    /// an entity's primary key (an attribute, as every column but a
    /// foreign key is, and its relation is in every epoch `at` loads).
    pub fn key_attr(&self, nt: NodeTypeId) -> usize {
        let def = self.schema.node_type(nt);
        let pk = (self.db.table(&def.source_table).ok())
            .filter(|_| def.kind == NodeTypeKind::Entity)
            .and_then(|t| def.attr_index(t.schema().primary_key.first()?));
        pk.unwrap_or(0)
    }

    /// The key of `node` ([`Tgdb::key_attr`]): what names it at every
    /// epoch, where its id names it in this graph only.
    pub fn key_of(&self, node: NodeId) -> Value {
        let attr = self.key_attr(self.instances.type_of(node));
        self.instances.value(node, attr)
    }

    /// The node of type `nt` keyed `key`, if this epoch holds one. An
    /// entity is found through the primary-key index (row `r` of an entity
    /// relation is row `r` of its type), a value node by binary search over
    /// its type's one column, which is in value order.
    pub fn node_by_key(&self, nt: NodeTypeId, key: &Value) -> Option<NodeId> {
        let def = self.schema.node_type(nt);
        let nodes = self.instances.nodes_of_type(nt);
        if def.kind != NodeTypeKind::Entity {
            let values = &self.instances.columns(nt)[0];
            let (mut lo, mut hi) = (0, nodes.len());
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                match values.get(mid).total_cmp(key) {
                    Ordering::Less => lo = mid + 1,
                    Ordering::Greater => hi = mid,
                    Ordering::Equal => return Some(nodes.node(mid as u32)),
                }
            }
            return None;
        }
        let table = self.db.table(&def.source_table).ok()?;
        Some(nodes.node(table.pk_row_index(&[*key])? as u32))
    }

    /// Finds a node of any type by its label text (first match in insertion
    /// order). Mirrors clicking an entity reference in the UI.
    pub fn node_by_label(&self, nt: NodeTypeId, label: &str) -> Option<NodeId> {
        let matches = |id: &NodeId| match self.instances.label(*id) {
            Value::Text(s) => s.as_str() == label,
            other => other.to_string() == label,
        };
        self.instances.nodes_of_type(nt).iter().find(matches)
    }

    /// Paper Table 1 as this schema graph instantiates it: one entry per
    /// node type, then one per forward edge type, each in id order.
    pub fn report(&self) -> Vec<ReportEntry> {
        let entry = |form, name: &str, (source, factor): (&str, &str)| ReportEntry {
            form,
            name: name.to_string(),
            source: source.to_string(),
            determining_factor: factor.to_string(),
        };
        let nodes = self.schema.node_types();
        let nodes = nodes.map(|(_, t)| entry("Node type", &t.name, t.kind.table1_row()));
        let edges = self.schema.edge_types().filter(|(_, e)| e.forward);
        let edges = edges.map(|(_, e)| entry("Edge type", &e.name, e.kind.table1_row()));
        nodes.chain(edges).collect()
    }
}
