//! Reverse engineering a relational database into TGDB schema and instance
//! graphs (paper Appendix A, summarized in Table 1).
//!
//! Assumptions, as in the paper:
//! 1. relations are in BCNF/3NF;
//! 2. relationships are binary;
//! 3. attributes of relationship relations beyond the two foreign keys are
//!    ignored (e.g. `Paper_Authors.order`);
//! 4. a multivalued-attribute relation has exactly two columns.

use crate::ids::{EdgeTypeId, NodeId, NodeTypeId};
use crate::instance_graph::{GraphBuilder, InstanceGraph};
use crate::schema_graph::{
    AttrDef, EdgeProvenance, EdgeTypeKind, NodeType, NodeTypeKind, SchemaGraph,
};
use crate::{Error, Result};
use etable_relational::database::Database;
use etable_relational::schema::TableSchema;
use etable_relational::value::{DataType, Value};
use std::collections::{BTreeMap, HashMap, HashSet};

/// How a relation was classified during translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationCategory {
    /// Entity relation: single-attribute primary key that is not a foreign
    /// key. Becomes a node type.
    Entity,
    /// Relationship relation: composite primary key of two foreign keys to
    /// entity relations. Becomes an edge type (plus reverse).
    Relationship {
        /// First FK column (edge source side).
        left_fk: String,
        /// Second FK column (edge target side).
        right_fk: String,
    },
    /// Multivalued attribute relation: two columns forming the primary key,
    /// the first a foreign key. Becomes a value node type plus an edge type.
    MultiValuedAttr {
        /// The FK column referencing the entity relation.
        fk_col: String,
        /// The value column.
        value_col: String,
    },
}

/// Options steering the translation.
#[derive(Debug, Clone)]
pub struct TranslateOptions {
    /// Attributes of entity relations with at most this many distinct values
    /// are promoted to categorical node types (paper: "often, attributes
    /// with low cardinality (e.g., less than 30) can be candidates").
    /// `0` disables automatic detection.
    pub categorical_threshold: usize,
    /// Explicit categorical attributes `(table, column)`, applied in
    /// addition to the automatic detection (the paper lets users select).
    pub categorical_columns: Vec<(String, String)>,
    /// Explicit label attribute overrides `table -> column` (the paper lets
    /// users pick labels manually when the heuristic guesses wrong).
    pub label_overrides: BTreeMap<String, String>,
}

impl Default for TranslateOptions {
    fn default() -> Self {
        TranslateOptions {
            categorical_threshold: 30,
            categorical_columns: Vec::new(),
            label_overrides: BTreeMap::new(),
        }
    }
}

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
    /// The instance graph `GI`.
    pub instances: InstanceGraph,
    /// Classification of every input relation.
    pub categories: BTreeMap<String, RelationCategory>,
    /// Table-1-style report entries, in creation order.
    pub report: Vec<ReportEntry>,
    /// Per node type: primary-key value -> node id (entity types only).
    pk_index: HashMap<NodeTypeId, HashMap<Value, NodeId>>,
}

impl Tgdb {
    /// Finds an entity node by its relational primary-key value.
    pub fn node_by_pk(&self, nt: NodeTypeId, pk: &Value) -> Option<NodeId> {
        self.pk_index.get(&nt).and_then(|m| m.get(pk)).copied()
    }

    /// Finds a node of any type by its label text (first match in insertion
    /// order). Mirrors clicking an entity reference in the UI.
    pub fn node_by_label(&self, nt: NodeTypeId, label: &str) -> Option<NodeId> {
        let matches = |id: &NodeId| match self.instances.label(*id) {
            Value::Text(s) => s.as_str() == label,
            other => other.to_string() == label,
        };
        self.instances
            .nodes_of_type(nt)
            .iter()
            .copied()
            .find(matches)
    }
}

/// Classifies every relation of `db` (the first phase of Appendix A).
pub fn classify(db: &Database) -> Result<BTreeMap<String, RelationCategory>> {
    let mut out = BTreeMap::new();
    for table in db.tables() {
        let schema = table.schema();
        out.insert(schema.name.clone(), classify_one(schema)?);
    }
    Ok(out)
}

fn classify_one(schema: &TableSchema) -> Result<RelationCategory> {
    let pk = &schema.primary_key;
    // Entity relation: single-attribute PK that is not a foreign key.
    if pk.len() == 1 && !schema.is_fk_column(&pk[0]) {
        return Ok(RelationCategory::Entity);
    }
    // Relationship relation: composite PK, both attributes FKs.
    if pk.len() == 2 && pk.iter().all(|c| schema.is_fk_column(c)) {
        return Ok(RelationCategory::Relationship {
            left_fk: pk[0].clone(),
            right_fk: pk[1].clone(),
        });
    }
    // Multivalued attribute: exactly two columns, both in the PK, the first
    // an FK and the second plain.
    if schema.columns.len() == 2
        && pk.len() == 2
        && schema.is_fk_column(&pk[0])
        && !schema.is_fk_column(&pk[1])
    {
        return Ok(RelationCategory::MultiValuedAttr {
            fk_col: pk[0].clone(),
            value_col: pk[1].clone(),
        });
    }
    Err(Error::Unsupported(format!(
        "relation `{}` does not match any Appendix A category \
         (pk = {pk:?}; the translation requires entity, relationship, or \
         multivalued-attribute relations)",
        schema.name
    )))
}

/// Chooses the label attribute `β` for an entity relation.
///
/// Heuristics from Appendix A: text is generally more interpretable than
/// numbers, and key columns make poor labels. Users can override.
fn pick_label(schema: &TableSchema, attrs: &[AttrDef], override_col: Option<&str>) -> usize {
    if let Some(name) = override_col {
        if let Some(i) = attrs.iter().position(|a| a.name == name) {
            return i;
        }
    }
    let mut best = 0usize;
    let mut best_score = i32::MIN;
    for (i, a) in attrs.iter().enumerate() {
        let mut score = 0i32;
        if a.data_type == DataType::Text {
            score += 4;
        }
        let lname = a.name.to_ascii_lowercase();
        if ["name", "title", "label", "acronym"]
            .iter()
            .any(|k| lname.contains(k))
        {
            score += 4;
        }
        if schema.is_pk_column(&a.name) {
            score -= 3;
        }
        if score > best_score {
            best_score = score;
            best = i;
        }
    }
    best
}

/// Adds one single-attribute node of type `vt` per non-NULL value, in the
/// order given (`distinct_values` is already in total order). The returned
/// map is only a lookup, so it hashes on the value (interned text hashes by
/// symbol id — no arena reads).
fn add_value_nodes(
    instances: &mut GraphBuilder,
    vt: NodeTypeId,
    values: impl IntoIterator<Item = Value>,
) -> HashMap<Value, NodeId> {
    let values = values.into_iter().filter(|v| !v.is_null());
    values
        .map(|v| (v, instances.add_node(vt, vec![v])))
        .collect()
}

/// Translates `db` into a typed graph database.
pub fn translate(db: &Database, opts: &TranslateOptions) -> Result<Tgdb> {
    let categories = classify(db)?;
    let mut schema = SchemaGraph::new();
    let mut report = Vec::new();

    // --- Node types from entity relations. -------------------------------
    let mut entity_type: BTreeMap<String, NodeTypeId> = BTreeMap::new();
    let mut entity_label: BTreeMap<String, String> = BTreeMap::new();
    for (name, cat) in &categories {
        if *cat != RelationCategory::Entity {
            continue;
        }
        let tschema = db.table(name)?.schema();
        // FK columns become edges, not attributes: the paper's Figure 1
        // shows e.g. `Conferences` as an entity-reference column instead of
        // a raw `conference_id` base attribute.
        let attrs: Vec<AttrDef> = tschema
            .columns
            .iter()
            .filter(|c| !tschema.is_fk_column(&c.name))
            .map(|c| AttrDef {
                name: c.name.clone(),
                data_type: c.data_type,
            })
            .collect();
        let label_attr = pick_label(
            tschema,
            &attrs,
            opts.label_overrides.get(name).map(String::as_str),
        );
        let label_name = attrs[label_attr].name.clone();
        let id = schema.add_node_type(NodeType {
            name: name.clone(),
            attrs,
            label_attr,
            kind: NodeTypeKind::Entity,
            source_table: name.clone(),
        });
        entity_type.insert(name.clone(), id);
        entity_label.insert(name.clone(), label_name);
        report.push(ReportEntry {
            form: "Node type",
            name: name.clone(),
            source: "Entity tables".into(),
            determining_factor: "Relation with a single-attribute primary key".into(),
        });
    }

    let entity_of_fk = |tschema: &TableSchema, col: &str| -> Result<NodeTypeId> {
        let fk = tschema.fk_on_column(col).ok_or_else(|| {
            Error::Unsupported(format!(
                "column `{col}` of `{}` is not a single-column FK",
                tschema.name
            ))
        })?;
        entity_type
            .get(&fk.referenced_table)
            .copied()
            .ok_or_else(|| {
                Error::Unsupported(format!(
                    "FK target `{}` is not an entity relation",
                    fk.referenced_table
                ))
            })
    };

    // Edge-name disambiguation per source node type (Appendix A: "If the
    // label is used by another edge type, a slightly different label will
    // be created").
    let mut used_names: HashSet<(NodeTypeId, String)> = HashSet::new();
    let unique_name = |used: &mut HashSet<(NodeTypeId, String)>,
                       source: NodeTypeId,
                       base: &str,
                       hint: &str|
     -> String {
        if used.insert((source, base.to_string())) {
            return base.to_string();
        }
        let with_hint = format!("{base} ({hint})");
        if used.insert((source, with_hint.clone())) {
            return with_hint;
        }
        let mut i = 2;
        loop {
            let candidate = format!("{base} ({hint} {i})");
            if used.insert((source, candidate.clone())) {
                return candidate;
            }
            i += 1;
        }
    };

    // --- Edge types from FKs between entity relations (1:1 / 1:n). -------
    // (src type, tgt type, edge type, fk column, source table name)
    let mut fk_edges: Vec<(NodeTypeId, NodeTypeId, EdgeTypeId, String, String)> = Vec::new();
    for (name, cat) in &categories {
        if *cat != RelationCategory::Entity {
            continue;
        }
        let tschema = db.table(name)?.schema().clone();
        let src = entity_type[name];
        for fk in &tschema.foreign_keys {
            if fk.columns.len() != 1 {
                return Err(Error::Unsupported(format!(
                    "composite FK on entity relation `{name}` is not supported"
                )));
            }
            let tgt = entity_of_fk(&tschema, &fk.columns[0])?;
            let fwd_name = unique_name(
                &mut used_names,
                src,
                &schema.node_type(tgt).name,
                &fk.columns[0],
            );
            let rev_name = unique_name(&mut used_names, tgt, &schema.node_type(src).name, name);
            let et = schema.add_edge_type_pair(
                fwd_name.clone(),
                rev_name,
                src,
                tgt,
                EdgeTypeKind::OneToMany,
                EdgeProvenance::ForeignKey {
                    table: name.clone(),
                    column: fk.columns[0].clone(),
                },
            );
            fk_edges.push((src, tgt, et, fk.columns[0].clone(), name.clone()));
            report.push(ReportEntry {
                form: "Edge type",
                name: fwd_name,
                source: "One-to-many relationships".into(),
                determining_factor: "Foreign key between two entity relations".into(),
            });
        }
    }

    // --- Edge types from relationship relations (m:n). -------------------
    // (relation name, edge type, left entity, right entity, left col, right col)
    let mut mn_edges: Vec<(String, EdgeTypeId, NodeTypeId, NodeTypeId, String, String)> =
        Vec::new();
    for (name, cat) in &categories {
        let RelationCategory::Relationship { left_fk, right_fk } = cat else {
            continue;
        };
        let tschema = db.table(name)?.schema().clone();
        let left = entity_of_fk(&tschema, left_fk)?;
        let right = entity_of_fk(&tschema, right_fk)?;
        let (fwd_name, rev_name) = if left == right {
            // Self-relationship, e.g. citations: both directions are
            // meaningful and get distinguishing labels (Figure 1 shows
            // "Papers (referenced)" and "Papers (referencing)").
            (
                unique_name(
                    &mut used_names,
                    left,
                    &format!("{} (referenced)", schema.node_type(right).name),
                    name,
                ),
                unique_name(
                    &mut used_names,
                    right,
                    &format!("{} (referencing)", schema.node_type(left).name),
                    name,
                ),
            )
        } else {
            (
                unique_name(&mut used_names, left, &schema.node_type(right).name, name),
                unique_name(&mut used_names, right, &schema.node_type(left).name, name),
            )
        };
        let et = schema.add_edge_type_pair(
            fwd_name.clone(),
            rev_name,
            left,
            right,
            EdgeTypeKind::ManyToMany,
            EdgeProvenance::Relation {
                table: name.clone(),
                left_col: left_fk.clone(),
                right_col: right_fk.clone(),
            },
        );
        mn_edges.push((
            name.clone(),
            et,
            left,
            right,
            left_fk.clone(),
            right_fk.clone(),
        ));
        report.push(ReportEntry {
            form: "Edge type",
            name: fwd_name,
            source: "Many-to-many relationships".into(),
            determining_factor:
                "Relation with a composite primary key; both are foreign keys of entity relations"
                    .into(),
        });
    }

    // --- Node + edge types from multivalued attribute relations. ---------
    // (relation, value node type, edge type, entity type, fk col, value col)
    let mut mva_defs: Vec<(String, NodeTypeId, EdgeTypeId, NodeTypeId, String, String)> =
        Vec::new();
    for (name, cat) in &categories {
        let RelationCategory::MultiValuedAttr { fk_col, value_col } = cat else {
            continue;
        };
        let tschema = db.table(name)?.schema().clone();
        let owner = entity_of_fk(&tschema, fk_col)?;
        let value_ty = tschema
            .column(value_col)
            .expect("classified column exists")
            .data_type;
        let nt_name = format!("{name}: {value_col}");
        let vt = schema.add_node_type(NodeType {
            name: nt_name.clone(),
            attrs: vec![AttrDef {
                name: value_col.clone(),
                data_type: value_ty,
            }],
            label_attr: 0,
            kind: NodeTypeKind::MultiValued,
            source_table: name.clone(),
        });
        report.push(ReportEntry {
            form: "Node type",
            name: nt_name.clone(),
            source: "Multi-valued attributes".into(),
            determining_factor:
                "Relation with two attributes; one of them is a foreign key of an entity relation"
                    .into(),
        });
        let fwd_name = unique_name(&mut used_names, owner, &nt_name, name);
        let rev_name = unique_name(&mut used_names, vt, &schema.node_type(owner).name, name);
        let et = schema.add_edge_type_pair(
            fwd_name.clone(),
            rev_name,
            owner,
            vt,
            EdgeTypeKind::MultiValued,
            EdgeProvenance::MultiValued {
                table: name.clone(),
                fk_col: fk_col.clone(),
                value_col: value_col.clone(),
            },
        );
        mva_defs.push((
            name.clone(),
            vt,
            et,
            owner,
            fk_col.clone(),
            value_col.clone(),
        ));
        report.push(ReportEntry {
            form: "Edge type",
            name: fwd_name,
            source: "Multi-valued attributes".into(),
            determining_factor: "From an entity table to a multi-valued attribute".into(),
        });
    }

    // --- Node + edge types from categorical attributes. ------------------
    // (entity table, cat node type, edge type, entity type, column)
    let mut cat_defs: Vec<(String, NodeTypeId, EdgeTypeId, NodeTypeId, String)> = Vec::new();
    for (name, cat) in &categories {
        if *cat != RelationCategory::Entity {
            continue;
        }
        let table = db.table(name)?;
        let tschema = table.schema().clone();
        let owner = entity_type[name];
        for (ci, col) in tschema.columns.iter().enumerate() {
            if tschema.is_pk_column(&col.name) || tschema.is_fk_column(&col.name) {
                continue;
            }
            let explicit = opts
                .categorical_columns
                .iter()
                .any(|(t, c)| t == name && *c == col.name);
            // A type's own label attribute identifies its nodes; promoting
            // it to a categorical grouping would be redundant, so automatic
            // detection skips it (explicit selection still wins).
            let is_label = entity_label.get(name) == Some(&col.name);
            let auto = opts.categorical_threshold > 0
                && !is_label
                && !table.is_empty()
                && table.distinct_values(ci).len() <= opts.categorical_threshold;
            if !(explicit || auto) {
                continue;
            }
            let nt_name = format!("{name}: {}", col.name);
            let vt = schema.add_node_type(NodeType {
                name: nt_name.clone(),
                attrs: vec![AttrDef {
                    name: col.name.clone(),
                    data_type: col.data_type,
                }],
                label_attr: 0,
                kind: NodeTypeKind::Categorical,
                source_table: name.clone(),
            });
            report.push(ReportEntry {
                form: "Node type",
                name: nt_name.clone(),
                source: "Single-valued categorical attributes".into(),
                determining_factor: "Attribute of low cardinality".into(),
            });
            let fwd_name = unique_name(&mut used_names, owner, &nt_name, name);
            let rev_name = unique_name(&mut used_names, vt, name, &col.name);
            let et = schema.add_edge_type_pair(
                fwd_name.clone(),
                rev_name,
                owner,
                vt,
                EdgeTypeKind::Categorical,
                EdgeProvenance::Categorical {
                    table: name.clone(),
                    column: col.name.clone(),
                },
            );
            cat_defs.push((name.clone(), vt, et, owner, col.name.clone()));
            report.push(ReportEntry {
                form: "Edge type",
                name: fwd_name,
                source: "Single-valued categorical attributes".into(),
                determining_factor: "From an entity table to a categorical attribute".into(),
            });
        }
    }

    // --- Instance graph. --------------------------------------------------
    let mut instances = InstanceGraph::builder(&schema);
    let mut pk_index: HashMap<NodeTypeId, HashMap<Value, NodeId>> = HashMap::new();

    // Entity nodes.
    for (name, &nt) in &entity_type {
        let table = db.table(name)?;
        let tschema = table.schema();
        let attr_cols: Vec<usize> = tschema
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| !tschema.is_fk_column(&c.name))
            .map(|(i, _)| i)
            .collect();
        let pk_col = tschema
            .column_index(&tschema.primary_key[0])
            .expect("entity pk exists");
        let index = pk_index.entry(nt).or_default();
        // Stream the attribute and PK columns directly out of columnar
        // storage: no full-row materialization, and every text attribute
        // re-uses the symbol the table already interned.
        let cols: Vec<_> = attr_cols.iter().map(|&i| table.column(i)).collect();
        let pk = table.column(pk_col);
        for r in 0..table.len() {
            let values: Vec<Value> = cols.iter().map(|c| c.get(r)).collect();
            let node = instances.add_node(nt, values);
            index.insert(pk.get(r), node);
        }
    }

    // FK edges between entities.
    for (src_ty, tgt_ty, et, fk_col, table_name) in &fk_edges {
        let table = db.table(table_name)?;
        let tschema = table.schema();
        let fk_idx = tschema.column_index(fk_col).expect("fk column");
        let pk_idx = tschema
            .column_index(&tschema.primary_key[0])
            .expect("entity pk");
        let fks = table.column(fk_idx);
        let pks = table.column(pk_idx);
        for r in 0..table.len() {
            if fks.is_null(r) {
                continue;
            }
            let fk_val = fks.get(r);
            let src = pk_index[src_ty][&pks.get(r)];
            let tgt = *pk_index[tgt_ty].get(&fk_val).ok_or_else(|| {
                Error::Integrity(format!("dangling FK {table_name}.{fk_col} = {fk_val}"))
            })?;
            instances.add_edge(&schema, *et, src, tgt);
        }
    }

    // M:N edges.
    for (table_name, et, left_ty, right_ty, left_col, right_col) in &mn_edges {
        let table = db.table(table_name)?;
        let tschema = table.schema();
        let li = tschema.column_index(left_col).expect("left fk");
        let ri = tschema.column_index(right_col).expect("right fk");
        let lc = table.column(li);
        let rc = table.column(ri);
        for r in 0..table.len() {
            let (lv, rv) = (lc.get(r), rc.get(r));
            let src = *pk_index[left_ty].get(&lv).ok_or_else(|| {
                Error::Integrity(format!("dangling FK {table_name}.{left_col} = {lv}"))
            })?;
            let tgt = *pk_index[right_ty].get(&rv).ok_or_else(|| {
                Error::Integrity(format!("dangling FK {table_name}.{right_col} = {rv}"))
            })?;
            instances.add_edge(&schema, *et, src, tgt);
        }
    }

    // MVA value nodes + edges.
    for (table_name, vt, et, owner_ty, fk_col, value_col) in &mva_defs {
        let table = db.table(table_name)?;
        let tschema = table.schema();
        let fi = tschema.column_index(fk_col).expect("fk column");
        let vi = tschema.column_index(value_col).expect("value column");
        let value_nodes = add_value_nodes(&mut instances, *vt, table.distinct_values(vi));
        let fc = table.column(fi);
        let vc = table.column(vi);
        for r in 0..table.len() {
            if vc.is_null(r) {
                continue;
            }
            let fv = fc.get(r);
            let src = *pk_index[owner_ty].get(&fv).ok_or_else(|| {
                Error::Integrity(format!("dangling FK {table_name}.{fk_col} = {fv}"))
            })?;
            instances.add_edge(&schema, *et, src, value_nodes[&vc.get(r)]);
        }
    }

    // Categorical value nodes + edges.
    for (table_name, vt, et, owner_ty, col_name) in &cat_defs {
        let table = db.table(table_name)?;
        let tschema = table.schema();
        let ci = tschema.column_index(col_name).expect("categorical column");
        let pk_idx = tschema
            .column_index(&tschema.primary_key[0])
            .expect("entity pk");
        let value_nodes = add_value_nodes(&mut instances, *vt, table.distinct_values(ci));
        let cc = table.column(ci);
        let pks = table.column(pk_idx);
        for r in 0..table.len() {
            if cc.is_null(r) {
                continue;
            }
            let src = pk_index[owner_ty][&pks.get(r)];
            instances.add_edge(&schema, *et, src, value_nodes[&cc.get(r)]);
        }
    }

    let instances = instances.finish(&schema)?;
    Ok(Tgdb {
        schema,
        instances,
        categories,
        report,
        pk_index,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use etable_relational::schema::{Column, ForeignKey, TableSchema};

    /// A miniature version of the paper's Figure 3 schema.
    fn academic_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "Conferences",
                vec![
                    Column::new("id", DataType::Int),
                    Column::new("acronym", DataType::Text),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "Papers",
                vec![
                    Column::new("id", DataType::Int),
                    Column::new("conference_id", DataType::Int),
                    Column::new("title", DataType::Text),
                    Column::new("year", DataType::Int),
                ],
            )
            .with_primary_key(&["id"])
            .with_foreign_key(ForeignKey::single("conference_id", "Conferences", "id")),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "Authors",
                vec![
                    Column::new("id", DataType::Int),
                    Column::new("name", DataType::Text),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "Paper_Authors",
                vec![
                    Column::new("paper_id", DataType::Int),
                    Column::new("author_id", DataType::Int),
                    Column::new("ord", DataType::Int),
                ],
            )
            .with_primary_key(&["paper_id", "author_id"])
            .with_foreign_key(ForeignKey::single("paper_id", "Papers", "id"))
            .with_foreign_key(ForeignKey::single("author_id", "Authors", "id")),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "Paper_Keywords",
                vec![
                    Column::new("paper_id", DataType::Int),
                    Column::new("keyword", DataType::Text),
                ],
            )
            .with_primary_key(&["paper_id", "keyword"])
            .with_foreign_key(ForeignKey::single("paper_id", "Papers", "id")),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "Paper_References",
                vec![
                    Column::new("paper_id", DataType::Int),
                    Column::new("ref_paper_id", DataType::Int),
                ],
            )
            .with_primary_key(&["paper_id", "ref_paper_id"])
            .with_foreign_key(ForeignKey::single("paper_id", "Papers", "id"))
            .with_foreign_key(ForeignKey::single("ref_paper_id", "Papers", "id")),
        )
        .unwrap();

        db.insert("Conferences", vec![1.into(), "SIGMOD".into()])
            .unwrap();
        db.insert("Conferences", vec![2.into(), "KDD".into()])
            .unwrap();
        db.insert(
            "Papers",
            vec![10.into(), 1.into(), "Usable DBs".into(), 2007.into()],
        )
        .unwrap();
        db.insert(
            "Papers",
            vec![11.into(), 1.into(), "SkewTune".into(), 2012.into()],
        )
        .unwrap();
        db.insert(
            "Papers",
            vec![12.into(), 2.into(), "Deep stuff".into(), 2012.into()],
        )
        .unwrap();
        db.insert("Authors", vec![100.into(), "Jagadish".into()])
            .unwrap();
        db.insert("Authors", vec![101.into(), "Nandi".into()])
            .unwrap();
        db.insert("Paper_Authors", vec![10.into(), 100.into(), 1.into()])
            .unwrap();
        db.insert("Paper_Authors", vec![10.into(), 101.into(), 2.into()])
            .unwrap();
        db.insert("Paper_Authors", vec![11.into(), 101.into(), 1.into()])
            .unwrap();
        db.insert("Paper_Keywords", vec![10.into(), "usability".into()])
            .unwrap();
        db.insert("Paper_Keywords", vec![10.into(), "user interface".into()])
            .unwrap();
        db.insert("Paper_Keywords", vec![11.into(), "skew".into()])
            .unwrap();
        db.insert("Paper_References", vec![11.into(), 10.into()])
            .unwrap();
        db.insert("Paper_References", vec![12.into(), 10.into()])
            .unwrap();
        db
    }

    #[test]
    fn classification_matches_table1() {
        let db = academic_db();
        let cats = classify(&db).unwrap();
        assert_eq!(cats["Conferences"], RelationCategory::Entity);
        assert_eq!(cats["Papers"], RelationCategory::Entity);
        assert_eq!(cats["Authors"], RelationCategory::Entity);
        assert!(matches!(
            cats["Paper_Authors"],
            RelationCategory::Relationship { .. }
        ));
        assert!(matches!(
            cats["Paper_Keywords"],
            RelationCategory::MultiValuedAttr { .. }
        ));
        assert!(matches!(
            cats["Paper_References"],
            RelationCategory::Relationship { .. }
        ));
    }

    #[test]
    fn schema_graph_shape() {
        let db = academic_db();
        let tgdb = translate(&db, &TranslateOptions::default()).unwrap();
        // Entities + keyword MVA + categorical (year, acronym, name, title
        // depending on cardinality <= 30: all tiny here).
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let out = tgdb.schema.outgoing(papers);
        let names: Vec<&str> = out.iter().map(|(_, e)| e.name.as_str()).collect();
        assert!(names.contains(&"Conferences"), "{names:?}");
        assert!(names.contains(&"Authors"), "{names:?}");
        assert!(names.contains(&"Paper_Keywords: keyword"), "{names:?}");
        assert!(names.contains(&"Papers (referenced)"), "{names:?}");
        assert!(names.contains(&"Papers (referencing)"), "{names:?}");
    }

    #[test]
    fn label_attribute_prefers_text_names() {
        let db = academic_db();
        let tgdb = translate(&db, &TranslateOptions::default()).unwrap();
        let (_, papers) = tgdb.schema.node_type_by_name("Papers").unwrap();
        assert_eq!(papers.attrs[papers.label_attr].name, "title");
        let (_, authors) = tgdb.schema.node_type_by_name("Authors").unwrap();
        assert_eq!(authors.attrs[authors.label_attr].name, "name");
    }

    #[test]
    fn label_override_wins() {
        let db = academic_db();
        let opts = TranslateOptions {
            label_overrides: [("Papers".to_string(), "year".to_string())]
                .into_iter()
                .collect(),
            ..TranslateOptions::default()
        };
        let tgdb = translate(&db, &opts).unwrap();
        let (_, papers) = tgdb.schema.node_type_by_name("Papers").unwrap();
        assert_eq!(papers.attrs[papers.label_attr].name, "year");
    }

    #[test]
    fn fk_columns_become_edges_not_attrs() {
        let db = academic_db();
        let tgdb = translate(&db, &TranslateOptions::default()).unwrap();
        let (_, papers) = tgdb.schema.node_type_by_name("Papers").unwrap();
        assert!(papers.attr_index("conference_id").is_none());
        assert!(papers.attr_index("title").is_some());
    }

    #[test]
    fn instance_graph_counts_match_relations() {
        let db = academic_db();
        let tgdb = translate(&db, &TranslateOptions::default()).unwrap();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        assert_eq!(tgdb.instances.nodes_of_type(papers).len(), 3);
        // Authors edge adjacency = Paper_Authors row count.
        let (et, _) = tgdb.schema.outgoing_by_name(papers, "Authors").unwrap();
        assert_eq!(tgdb.instances.adjacency_size(et), 3);
        // Keyword adjacency = Paper_Keywords row count.
        let (ket, _) = tgdb
            .schema
            .outgoing_by_name(papers, "Paper_Keywords: keyword")
            .unwrap();
        assert_eq!(tgdb.instances.adjacency_size(ket), 3);
    }

    #[test]
    fn neighbor_lookup_follows_citations() {
        let db = academic_db();
        let tgdb = translate(&db, &TranslateOptions::default()).unwrap();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let skewtune = tgdb.node_by_pk(papers, &11.into()).unwrap();
        let usable = tgdb.node_by_pk(papers, &10.into()).unwrap();
        let (refd, _) = tgdb
            .schema
            .outgoing_by_name(papers, "Papers (referenced)")
            .unwrap();
        assert_eq!(tgdb.instances.neighbors(refd, skewtune), &[usable]);
        let (refg, _) = tgdb
            .schema
            .outgoing_by_name(papers, "Papers (referencing)")
            .unwrap();
        // "Usable DBs" is cited by SkewTune and Deep stuff.
        assert_eq!(tgdb.instances.neighbors(refg, usable).len(), 2);
    }

    #[test]
    fn categorical_detection_respects_threshold() {
        let db = academic_db();
        let opts = TranslateOptions {
            categorical_threshold: 0, // disable auto
            ..TranslateOptions::default()
        };
        let tgdb = translate(&db, &opts).unwrap();
        assert!(tgdb.schema.node_type_by_name("Papers: year").is_none());

        let opts = TranslateOptions::default();
        let tgdb = translate(&db, &opts).unwrap();
        assert!(tgdb.schema.node_type_by_name("Papers: year").is_some());
        // Distinct years 2007/2012 -> 2 value nodes.
        let (yt, _) = tgdb.schema.node_type_by_name("Papers: year").unwrap();
        assert_eq!(tgdb.instances.nodes_of_type(yt).len(), 2);
    }

    #[test]
    fn explicit_categorical_column() {
        let db = academic_db();
        let opts = TranslateOptions {
            categorical_threshold: 0,
            categorical_columns: vec![("Papers".into(), "year".into())],
            ..TranslateOptions::default()
        };
        let tgdb = translate(&db, &opts).unwrap();
        assert!(tgdb.schema.node_type_by_name("Papers: year").is_some());
        assert!(tgdb.schema.node_type_by_name("Papers: title").is_none());
    }

    #[test]
    fn node_by_label_lookup() {
        let db = academic_db();
        let tgdb = translate(&db, &TranslateOptions::default()).unwrap();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let n = tgdb.node_by_label(papers, "SkewTune").unwrap();
        assert_eq!(
            tgdb.instances.attr(&tgdb.schema, n, "year"),
            Some(&Value::Int(2012))
        );
    }

    #[test]
    fn unsupported_relation_rejected() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "Weird",
                vec![
                    Column::new("a", DataType::Int),
                    Column::new("b", DataType::Int),
                    Column::new("c", DataType::Int),
                ],
            )
            .with_primary_key(&["a", "b", "c"]),
        )
        .unwrap();
        assert!(classify(&db).is_err());
    }

    #[test]
    fn report_covers_all_categories() {
        let db = academic_db();
        let tgdb = translate(&db, &TranslateOptions::default()).unwrap();
        let sources: HashSet<&str> = tgdb.report.iter().map(|r| r.source.as_str()).collect();
        assert!(sources.contains("Entity tables"));
        assert!(sources.contains("One-to-many relationships"));
        assert!(sources.contains("Many-to-many relationships"));
        assert!(sources.contains("Multi-valued attributes"));
        assert!(sources.contains("Single-valued categorical attributes"));
    }

    #[test]
    fn bidirectional_invariant() {
        // For every edge type: neighbors(et, a) contains b iff
        // neighbors(reverse, b) contains a.
        let db = academic_db();
        let tgdb = translate(&db, &TranslateOptions::default()).unwrap();
        for (et, e) in tgdb.schema.edge_types() {
            let rev = e.reverse;
            for a in tgdb.instances.node_ids() {
                for &b in tgdb.instances.neighbors(et, a) {
                    assert!(
                        tgdb.instances.neighbors(rev, b).contains(&a),
                        "missing reverse edge for {et:?}"
                    );
                }
            }
        }
    }
}
