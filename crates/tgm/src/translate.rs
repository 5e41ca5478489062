//! Reverse engineering a relational database into TGDB schema and instance
//! graphs (paper Appendix A, summarized in Table 1).
//!
//! Assumptions, as in the paper:
//! 1. relations are in BCNF/3NF;
//! 2. relationships are binary;
//! 3. attributes of relationship relations beyond the two foreign keys are
//!    ignored (e.g. `Paper_Authors.order`);
//! 4. a multivalued-attribute relation has exactly two columns;
//! 5. a foreign key that becomes an edge references its target's primary
//!    key.
//!
//! The schema graph is the only record of the mapping: `schema_of` writes
//! on each node type (`source_table`, attribute names) and each edge type
//! ([`EdgeProvenance`]) which relation and columns it came from, and
//! `instances_of` loads the instance graph from the database and that
//! record alone: its edges are read in place out of the foreign-key
//! indexes the epoch stores, and a value type an earlier epoch's graph
//! ([`Tgdb::at`]) ranked over the same cells is kept.

use crate::ids::NodeTypeId;
use crate::instance_graph::{InstanceGraph, Span, TypeNodes};
use crate::schema_graph::{
    AttrDef, EdgeProvenance, EdgeTypeKind, NodeType, NodeTypeKind, SchemaGraph,
};
use crate::tgdb::Tgdb;
use crate::{Error, Result};
use etable_relational::database::Database;
use etable_relational::fk_index::FkIndex;
use etable_relational::schema::{Column, TableSchema};
use etable_relational::value::DataType;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

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
/// numbers, and key columns make poor labels. A user's override wins, and
/// must name one of `attrs`.
fn pick_label(schema: &TableSchema, attrs: &[AttrDef], chosen: Option<&String>) -> Result<usize> {
    if let Some(name) = chosen {
        return attrs.iter().position(|a| a.name == *name).ok_or_else(|| {
            Error::Unsupported(format!(
                "label override `{}.{name}` names no attribute of the node type \
                 (foreign-key columns become edges)",
                schema.name
            ))
        });
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
    Ok(best)
}

/// Position of column `col` in `schema` — the one place a column name the
/// translation recorded is resolved against a relation.
fn column_index(schema: &TableSchema, col: &str) -> Result<usize> {
    schema.column_index(col).ok_or_else(|| {
        Error::Unsupported(format!("relation `{}` has no column `{col}`", schema.name))
    })
}

fn attr_of(col: &Column) -> AttrDef {
    AttrDef {
        name: col.name.clone(),
        data_type: col.data_type,
    }
}

/// The entity node type referenced by the single-column foreign key on
/// `col`, which must name the entity's primary key: its row is the node,
/// and the SQL translation joins an edge on it.
fn entity_of_fk(
    db: &Database,
    schema: &SchemaGraph,
    tschema: &TableSchema,
    col: &str,
) -> Result<NodeTypeId> {
    let fk = tschema.fk_on_column(col).ok_or_else(|| {
        Error::Unsupported(format!(
            "column `{col}` of `{}` is not a single-column FK",
            tschema.name
        ))
    })?;
    let on_pk = (db.table(&fk.referenced_table))
        .is_ok_and(|t| t.schema().primary_key == fk.referenced_columns);
    match schema.node_type_by_name(&fk.referenced_table) {
        Some((id, t)) if t.kind == NodeTypeKind::Entity && on_pk => Ok(id),
        Some((_, t)) if t.kind == NodeTypeKind::Entity => Err(Error::Unsupported(format!(
            "FK `{}.{col}` references `{}`({}), not its primary key",
            tschema.name,
            fk.referenced_table,
            fk.referenced_columns.join(", ")
        ))),
        _ => Err(Error::Unsupported(format!(
            "FK target `{}` is not an entity relation",
            fk.referenced_table
        ))),
    }
}

/// Edge names already taken, per source node type.
type UsedNames = HashSet<(NodeTypeId, String)>;

/// Edge-name disambiguation per source node type (Appendix A: "If the label
/// is used by another edge type, a slightly different label will be
/// created").
fn unique_name(used: &mut UsedNames, source: NodeTypeId, base: &str, hint: &str) -> String {
    let mut candidate = base.to_string();
    let mut attempt = 1;
    while !used.insert((source, candidate.clone())) {
        candidate = match attempt {
            1 => format!("{base} ({hint})"),
            i => format!("{base} ({hint} {i})"),
        };
        attempt += 1;
    }
    candidate
}

/// Adds the single-attribute value node type `"{table}: {column}"` and the
/// edge type pair linking `owner` to it, `table` being the relation
/// `provenance` names.
fn add_value_type(
    schema: &mut SchemaGraph,
    used: &mut UsedNames,
    owner: NodeTypeId,
    column: &Column,
    (node_kind, edge_kind): (NodeTypeKind, EdgeTypeKind),
    provenance: EdgeProvenance,
) {
    let (table, ..) = provenance.key_columns();
    let nt_name = format!("{table}: {}", column.name);
    let vt = schema.add_node_type(NodeType {
        name: nt_name.clone(),
        attrs: vec![attr_of(column)],
        label_attr: 0,
        kind: node_kind,
        source_table: table.to_string(),
    });
    let fwd_name = unique_name(used, owner, &nt_name, table);
    let rev_name = unique_name(used, vt, &schema.node_type(owner).name, table);
    schema.add_edge_type_pair(fwd_name, rev_name, owner, vt, edge_kind, provenance);
}

/// Appendix A over the relational schema: classifies every relation and
/// builds the schema graph.
fn schema_of(
    db: &Database,
    opts: &TranslateOptions,
) -> Result<(SchemaGraph, BTreeMap<String, RelationCategory>)> {
    let categories = classify(db)?;
    let is_entity = |table: &String| categories.get(table) == Some(&RelationCategory::Entity);

    // An explicit choice (Appendix A: "users can select") that names
    // nothing is an error, not a silent fall-back to the heuristics.
    if let Some(table) = opts.label_overrides.keys().find(|t| !is_entity(t)) {
        return Err(Error::Unsupported(format!(
            "label override for `{table}`, which is not an entity relation"
        )));
    }
    for (table, col) in &opts.categorical_columns {
        let eligible = is_entity(table) && {
            let tschema = db.table(table)?.schema();
            tschema.column(col).is_some()
                && !tschema.is_pk_column(col)
                && !tschema.is_fk_column(col)
        };
        if !eligible {
            return Err(Error::Unsupported(format!(
                "categorical column `{table}.{col}` is not a non-key attribute of an entity relation"
            )));
        }
    }

    // --- Node types from entity relations. -------------------------------
    let mut schema = SchemaGraph::new();
    let mut entities: Vec<(NodeTypeId, &String)> = Vec::new();
    for name in categories.keys().filter(|t| is_entity(t)) {
        let tschema = db.table(name)?.schema();
        // FK columns become edges, not attributes: the paper's Figure 1
        // shows e.g. `Conferences` as an entity-reference column instead of
        // a raw `conference_id` base attribute.
        let attrs: Vec<AttrDef> = tschema
            .columns
            .iter()
            .filter(|c| !tschema.is_fk_column(&c.name))
            .map(attr_of)
            .collect();
        let label_attr = pick_label(tschema, &attrs, opts.label_overrides.get(name))?;
        let id = schema.add_node_type(NodeType {
            name: name.clone(),
            attrs,
            label_attr,
            kind: NodeTypeKind::Entity,
            source_table: name.clone(),
        });
        entities.push((id, name));
    }
    let mut used = UsedNames::new();

    // --- Edge types from FKs between entity relations (1:1 / 1:n). -------
    for &(src, name) in &entities {
        let tschema = db.table(name)?.schema();
        for fk in &tschema.foreign_keys {
            let [col] = fk.columns.as_slice() else {
                return Err(Error::Unsupported(format!(
                    "composite FK on entity relation `{name}` is not supported"
                )));
            };
            let tgt = entity_of_fk(db, &schema, tschema, col)?;
            let fwd_name = unique_name(&mut used, src, &schema.node_type(tgt).name, col);
            let rev_name = unique_name(&mut used, tgt, name, name);
            schema.add_edge_type_pair(
                fwd_name,
                rev_name,
                src,
                tgt,
                EdgeTypeKind::OneToMany,
                EdgeProvenance::ForeignKey {
                    table: name.clone(),
                    column: col.clone(),
                },
            );
        }
    }

    // --- Edge types from relationship relations (m:n). -------------------
    for (name, cat) in &categories {
        let RelationCategory::Relationship { left_fk, right_fk } = cat else {
            continue;
        };
        let tschema = db.table(name)?.schema();
        let left = entity_of_fk(db, &schema, tschema, left_fk)?;
        let right = entity_of_fk(db, &schema, tschema, right_fk)?;
        // Self-relationship, e.g. citations: both directions are meaningful
        // and get distinguishing labels (Figure 1 shows "Papers
        // (referenced)" and "Papers (referencing)").
        let (fwd_tag, rev_tag) = if left == right {
            (" (referenced)", " (referencing)")
        } else {
            ("", "")
        };
        let fwd_base = format!("{}{fwd_tag}", schema.node_type(right).name);
        let rev_base = format!("{}{rev_tag}", schema.node_type(left).name);
        let fwd_name = unique_name(&mut used, left, &fwd_base, name);
        let rev_name = unique_name(&mut used, right, &rev_base, name);
        schema.add_edge_type_pair(
            fwd_name,
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
    }

    // --- Node + edge types from multivalued attribute relations. ---------
    for (name, cat) in &categories {
        let RelationCategory::MultiValuedAttr { fk_col, value_col } = cat else {
            continue;
        };
        let tschema = db.table(name)?.schema();
        let owner = entity_of_fk(db, &schema, tschema, fk_col)?;
        add_value_type(
            &mut schema,
            &mut used,
            owner,
            &tschema.columns[column_index(tschema, value_col)?],
            (NodeTypeKind::MultiValued, EdgeTypeKind::MultiValued),
            EdgeProvenance::MultiValued {
                table: name.clone(),
                fk_col: fk_col.clone(),
                value_col: value_col.clone(),
            },
        );
    }

    // --- Node + edge types from categorical attributes. ------------------
    for &(owner, name) in &entities {
        let table = db.table(name)?;
        let tschema = table.schema();
        let owner_type = schema.node_type(owner);
        let label = owner_type.attrs[owner_type.label_attr].name.clone();
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
            let auto = opts.categorical_threshold > 0
                && col.name != label
                && !table.is_empty()
                && table.distinct_values(ci).len() <= opts.categorical_threshold;
            if explicit || auto {
                add_value_type(
                    &mut schema,
                    &mut used,
                    owner,
                    col,
                    (NodeTypeKind::Categorical, EdgeTypeKind::Categorical),
                    EdgeProvenance::Categorical {
                        table: name.clone(),
                        column: col.name.clone(),
                    },
                );
            }
        }
    }
    Ok((schema, categories))
}

/// Loads the instance graph that `schema` describes out of `db`, reading
/// nothing but the two: nodes type by type in id order (so a node's id is
/// fixed by its type and its source row, or its value's rank among the
/// column's distinct non-NULL values), then edges, forward edge type by
/// forward edge type, one per row of the relation its provenance names
/// whose two ends are rows. An end is the row itself, the referenced row
/// the stored foreign-key index holds for it, or the row of its value
/// (the value type's rank map); the graph holds those maps, not a copy.
/// The graph of an earlier epoch, `prev`, lends every value type ranked
/// over the very cells `db` holds, and the gathered targets of every edge
/// direction that maps through the very buffers `db` holds.
pub(crate) fn instances_of(
    db: &Database,
    schema: &SchemaGraph,
    prev: Option<&InstanceGraph>,
) -> Result<InstanceGraph> {
    let mut types = Vec::with_capacity(schema.node_type_count());
    for (nt, def) in schema.node_types() {
        let table = db.table(&def.source_table)?;
        let cols = def
            .attrs
            .iter()
            .map(|a| column_index(table.schema(), &a.name))
            .collect::<Result<Vec<_>>>()?;
        types.push(match def.kind {
            // The table's own columns, shared: row `r` is the `r`-th node.
            NodeTypeKind::Entity => TypeNodes {
                span: Span::default(),
                columns: cols.iter().map(|&c| table.column(c).clone()).collect(),
                label: def.label_attr,
                ranked: None,
            },
            // One node per non-NULL value, in the value total order; the
            // sort that finds them also ranks every row's value.
            NodeTypeKind::MultiValued | NodeTypeKind::Categorical => {
                TypeNodes::values(prev, nt, def.attrs[0].data_type, (table, cols[0]))?
            }
        });
    }
    let mut ends = Vec::new();
    for (_, def) in schema.edge_types().filter(|(_, e)| e.forward) {
        let (table_name, src_col, tgt_col) = def.provenance.key_columns();
        let table = db.table(table_name)?;
        // A key column onto an entity is read through its stored index,
        // a value through its type's rank map; a source with no column is
        // the row itself.
        let key = |col: &str| -> Result<FkIndex> {
            let single =
                || Error::Unsupported(format!("`{table_name}.{col}` is not a single-column FK"));
            let fk = table.schema().fk_on_column(col).ok_or_else(single)?;
            let ix = db.fk_index(table_name, fk)?.ok_or_else(single)?;
            if let Some(r) = ix.first_dangling() {
                let key = table.value(r, column_index(table.schema(), col)?);
                return Err(Error::Integrity(format!(
                    "dangling FK {table_name}.{col} = {key}"
                )));
            }
            Ok(ix.clone())
        };
        let from = src_col.map(key).transpose()?;
        let to = match &types[def.target.index()].ranked {
            Some((_, ranks)) => ranks.clone(),
            None => key(tgt_col)?,
        };
        ends.push((from, to));
    }
    InstanceGraph::load(schema, types, ends, prev)
}

/// Translates `db` into a typed graph database, which keeps a copy of
/// `db` ([`Tgdb::database`]). The copy is taken after the load, so it
/// shares the foreign-key indexes the load built (and `db` keeps them).
pub fn translate(db: &Database, opts: &TranslateOptions) -> Result<Tgdb> {
    let (schema, categories) = schema_of(db, opts)?;
    let instances = Arc::new(instances_of(db, &schema, None)?);
    Ok(Tgdb {
        schema,
        instances,
        categories,
        db: Arc::new(db.clone()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{EdgeTypeId, NodeId};
    use crate::instance_graph::tests::{assert_same_graph, shared_parts};
    use etable_relational::schema::{Column, ForeignKey, TableSchema};
    use etable_relational::value::Value;

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
        // Authors neighbor entries = Paper_Authors row count, and keyword
        // entries = Paper_Keywords row count.
        let entries = |edge: &str| -> usize {
            let (et, _) = tgdb.schema.outgoing_by_name(papers, edge).unwrap();
            let nodes = tgdb.instances.nodes_of_type(papers).iter();
            nodes.map(|p| tgdb.instances.degree(et, p)).sum()
        };
        assert_eq!(entries("Authors"), 3);
        assert_eq!(entries("Paper_Keywords: keyword"), 3);
    }

    #[test]
    fn neighbor_lookup_follows_citations() {
        let db = academic_db();
        let tgdb = translate(&db, &TranslateOptions::default()).unwrap();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let skewtune = tgdb.node_by_key(papers, &11.into()).unwrap();
        let usable = tgdb.node_by_key(papers, &10.into()).unwrap();
        let (refd, _) = tgdb
            .schema
            .outgoing_by_name(papers, "Papers (referenced)")
            .unwrap();
        assert!(tgdb.instances.neighbors(refd, skewtune).eq([usable]));
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
            Some(Value::Int(2012))
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
        let report = tgdb.report();
        let sources: HashSet<&str> = report.iter().map(|r| r.source.as_str()).collect();
        assert!(sources.contains("Entity tables"));
        assert!(sources.contains("One-to-many relationships"));
        assert!(sources.contains("Many-to-many relationships"));
        assert!(sources.contains("Multi-valued attributes"));
        assert!(sources.contains("Single-valued categorical attributes"));
    }

    /// Pins the instance-graph layout every consumer of `NodeId`s relies
    /// on: ids ascend by node-type id, then source-row order (entities) or
    /// the value total order (value types); each neighbor list holds its
    /// targets in the row order of the edge type's source relation.
    #[test]
    fn graph_layout_is_pinned() {
        let mut db = academic_db();
        // Keys that arrive out of order, so row order differs from key order.
        let rows: [(&str, Vec<Value>); 6] = [
            (
                "Papers",
                vec![9.into(), 2.into(), "Early".into(), 1999.into()],
            ),
            ("Paper_Authors", vec![12.into(), 101.into(), 1.into()]),
            ("Paper_Authors", vec![12.into(), 100.into(), 2.into()]),
            ("Paper_Keywords", vec![12.into(), "zeta".into()]),
            ("Paper_Keywords", vec![12.into(), "alpha".into()]),
            ("Paper_References", vec![9.into(), 12.into()]),
        ];
        for (table, row) in rows {
            db.insert(table, row).unwrap();
        }
        let tgdb = translate(&db, &TranslateOptions::default()).unwrap();
        let g = &tgdb.instances;
        let labels = |ids: &[NodeId]| -> Vec<String> {
            ids.iter().map(|&n| g.label(n).to_string()).collect()
        };

        let type_names: Vec<&str> = tgdb
            .schema
            .node_types()
            .map(|(_, t)| t.name.as_str())
            .collect();
        assert_eq!(
            type_names,
            [
                "Authors",
                "Conferences",
                "Papers",
                "Paper_Keywords: keyword",
                "Papers: year"
            ]
        );
        let by_type: Vec<NodeId> = tgdb
            .schema
            .node_types()
            .flat_map(|(nt, _)| g.nodes_of_type(nt).iter())
            .collect();
        assert_eq!(by_type, g.node_ids().collect::<Vec<_>>());
        assert_eq!(
            labels(&by_type),
            [
                "Jagadish",
                "Nandi",
                "SIGMOD",
                "KDD",
                "Usable DBs",
                "SkewTune",
                "Deep stuff",
                "Early",
                "alpha",
                "skew",
                "usability",
                "user interface",
                "zeta",
                "1999",
                "2007",
                "2012"
            ]
        );
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        assert_eq!(tgdb.node_by_key(papers, &9.into()), Some(NodeId(7)));
        let deep = tgdb.node_by_key(papers, &12.into()).unwrap();

        let neighbors = |from: NodeTypeId, edge: &str, node: NodeId| {
            let (et, _) = tgdb.schema.outgoing_by_name(from, edge).unwrap();
            labels(&g.neighbors(et, node).collect::<Vec<_>>())
        };
        // ForeignKey (Papers.conference_id), read from the referenced side.
        let (confs, _) = tgdb.schema.node_type_by_name("Conferences").unwrap();
        let kdd = tgdb.node_by_label(confs, "KDD").unwrap();
        assert_eq!(neighbors(confs, "Papers", kdd), ["Deep stuff", "Early"]);
        // Relation (Paper_Authors): row order, not author-id order.
        assert_eq!(neighbors(papers, "Authors", deep), ["Nandi", "Jagadish"]);
        assert_eq!(neighbors(papers, "Papers (referencing)", deep), ["Early"]);
        // MultiValued (Paper_Keywords): row order, not value order.
        assert_eq!(
            neighbors(papers, "Paper_Keywords: keyword", deep),
            ["zeta", "alpha"]
        );
        // Categorical (Papers.year), read from the value side.
        let (years, _) = tgdb.schema.node_type_by_name("Papers: year").unwrap();
        let y2012 = tgdb.node_by_label(years, "2012").unwrap();
        assert_eq!(
            neighbors(years, "Papers", y2012),
            ["SkewTune", "Deep stuff"]
        );
        g.check_consistency(&tgdb.schema).unwrap();
    }

    /// Every key column an edge is loaded through reports a value that
    /// identifies no node as `table.column = value`. (A `Categorical` edge
    /// cannot dangle: its source is the row itself and its target a value
    /// of the very column being read.)
    #[test]
    fn dangling_keys_are_integrity_errors() {
        let cases: [(&str, Vec<Value>, &str); 4] = [
            (
                "Papers",
                vec![13.into(), 99.into(), "Lost".into(), 2001.into()],
                "Papers.conference_id = 99",
            ),
            (
                "Paper_Authors",
                vec![77.into(), 100.into(), 1.into()],
                "Paper_Authors.paper_id = 77",
            ),
            (
                "Paper_Authors",
                vec![10.into(), 999.into(), 1.into()],
                "Paper_Authors.author_id = 999",
            ),
            (
                "Paper_Keywords",
                vec![78.into(), "orphan".into()],
                "Paper_Keywords.paper_id = 78",
            ),
        ];
        for (table, row, dangling) in cases {
            let mut db = academic_db();
            db.insert_unchecked(table, row).unwrap();
            match translate(&db, &TranslateOptions::default()) {
                Err(Error::Integrity(m)) => assert_eq!(m, format!("dangling FK {dangling}")),
                other => panic!("{dangling}: expected an integrity error, got {other:?}"),
            }
        }
    }

    /// An explicit choice that names nothing is refused, naming the table
    /// and column, instead of silently falling back to the heuristics.
    #[test]
    fn unresolvable_options_are_rejected() {
        let label = |table: &str, col: &str| TranslateOptions {
            label_overrides: [(table.to_string(), col.to_string())].into(),
            ..TranslateOptions::default()
        };
        let categorical = |table: &str, col: &str| TranslateOptions {
            categorical_columns: vec![(table.into(), col.into())],
            ..TranslateOptions::default()
        };
        let cases = [
            (label("Papers", "nosuch"), "`Papers.nosuch`"),
            (categorical("Papers", "nosuch"), "`Papers.nosuch`"),
            (categorical("Nosuch", "x"), "`Nosuch.x`"),
            (categorical("Papers", "id"), "`Papers.id`"),
            (
                categorical("Papers", "conference_id"),
                "`Papers.conference_id`",
            ),
        ];
        let db = academic_db();
        for (opts, named) in cases {
            match translate(&db, &opts) {
                Err(Error::Unsupported(m)) => assert!(m.contains(named), "{m}"),
                other => panic!("{named}: expected `Unsupported`, got {other:?}"),
            }
        }
    }

    /// An edge's end is the entity whose primary key the FK holds, so an FK
    /// that references another column is refused, naming relation and
    /// column — whichever type the column has: a TEXT code would otherwise
    /// dangle against the primary keys, and an INT code would silently
    /// link to the conference whose `id`, not `code`, equals it.
    #[test]
    fn fk_to_a_non_primary_key_column_is_unsupported() {
        for (code_type, codes) in [
            (DataType::Text, [Value::from("SIGMOD"), Value::from("KDD")]),
            (DataType::Int, [Value::Int(2), Value::Int(1)]),
        ] {
            let mut db = Database::new();
            db.create_table(
                TableSchema::new(
                    "Conferences",
                    vec![
                        Column::new("id", DataType::Int),
                        Column::new("code", code_type),
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
                        Column::new("conf_code", code_type),
                        Column::new("title", DataType::Text),
                    ],
                )
                .with_primary_key(&["id"])
                .with_foreign_key(ForeignKey::single(
                    "conf_code",
                    "Conferences",
                    "code",
                )),
            )
            .unwrap();
            for (id, code) in [1, 2].into_iter().zip(codes) {
                db.insert("Conferences", vec![id.into(), code, "C".into()])
                    .unwrap();
            }
            db.insert("Papers", vec![10.into(), codes[1], "P".into()])
                .unwrap();
            db.check_integrity().unwrap();
            match translate(&db, &TranslateOptions::default()) {
                Err(Error::Unsupported(m)) => {
                    assert!(m.contains("`Papers.conf_code`"), "{code_type}: {m}")
                }
                other => panic!("{code_type}: expected `Unsupported`, got {other:?}"),
            }
        }
    }

    /// A value column with NULLs: NULL gets no node and its rows no edge,
    /// and every other row links to its own value's node.
    #[test]
    fn value_nodes_skip_null_and_rows_find_their_value() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "Items",
                vec![
                    Column::new("id", DataType::Int),
                    Column::nullable("color", DataType::Text),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .unwrap();
        let colors = [None, Some("red"), Some("blue"), None, Some("red")];
        for (id, color) in (1..).zip(colors) {
            let color = color.map_or(Value::Null, Value::from);
            db.insert("Items", vec![Value::Int(id), color]).unwrap();
        }
        let opts = TranslateOptions {
            categorical_columns: vec![("Items".into(), "color".into())],
            ..TranslateOptions::default()
        };
        let tgdb = translate(&db, &opts).unwrap();
        let g = &tgdb.instances;
        let (items, _) = tgdb.schema.node_type_by_name("Items").unwrap();
        let (values, _) = tgdb.schema.node_type_by_name("Items: color").unwrap();
        let labels: Vec<String> = (g.nodes_of_type(values).iter())
            .map(|n| g.label(n).to_string())
            .collect();
        assert_eq!(labels, ["blue", "red"]);
        let (et, _) = tgdb.schema.outgoing_by_name(items, "Items: color").unwrap();
        let linked: Vec<Vec<String>> = (g.nodes_of_type(items).iter())
            .map(|n| g.neighbors(et, n).map(|v| g.label(v).to_string()).collect())
            .collect();
        assert_eq!(
            linked,
            [vec![], vec!["red"], vec!["blue"], vec![], vec!["red"]]
        );
        g.check_consistency(&tgdb.schema).unwrap();
    }

    /// A node's key names it — `node_by_key` inverts `key_of` on entities
    /// and value nodes alike, and a key no row holds names nothing — and
    /// `at` loads a later epoch as a fresh translation of it would, under
    /// the same schema graph, with every paper's id moved and its key not.
    #[test]
    fn keys_name_nodes_and_at_loads_a_later_epoch() {
        let tgdb = translate(&academic_db(), &TranslateOptions::default()).unwrap();
        let g = &tgdb.instances;
        for n in g.node_ids() {
            assert_eq!(tgdb.node_by_key(g.type_of(n), &tgdb.key_of(n)), Some(n));
        }
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        for absent in [Value::Int(99), Value::Null, Value::from("SkewTune")] {
            assert_eq!(tgdb.node_by_key(papers, &absent), None);
        }

        let mut next = (**tgdb.database()).clone();
        for stmt in [
            "INSERT INTO Authors VALUES (102, 'Kim')",
            "INSERT INTO Papers VALUES (13, 2, 'Later', 2020)",
            "INSERT INTO Paper_Keywords VALUES (13, 'a new keyword')",
        ] {
            etable_relational::sql::execute(&mut next, stmt).unwrap();
        }
        let next = Arc::new(next);
        let at = tgdb.at(Arc::clone(&next)).unwrap();
        let fresh = translate(&next, &TranslateOptions::default()).unwrap();
        assert!(Arc::ptr_eq(at.database(), &next));
        let names = |t: &Tgdb| t.report().into_iter().map(|e| e.name).collect::<Vec<_>>();
        assert_eq!(names(&at), names(&tgdb));
        assert_eq!(names(&fresh), names(&tgdb));
        let (a, f) = (&at.instances, &fresh.instances);
        assert_eq!(a.node_count(), f.node_count());
        assert!(a.node_ids().all(|n| a.label(n) == f.label(n)));
        for (et, _) in at.schema.edge_types() {
            assert!(a
                .node_ids()
                .all(|n| a.neighbors(et, n).eq(f.neighbors(et, n))));
        }
        a.check_consistency(&at.schema).unwrap();
        let skewtune = |t: &Tgdb| t.node_by_key(papers, &11.into()).unwrap();
        assert_ne!(skewtune(&at), skewtune(&tgdb));
        assert_eq!(a.label(skewtune(&at)), g.label(skewtune(&tgdb)));
    }

    /// `db`'s next epoch after the statements `stmts`, loaded by `at` and
    /// by a fresh translation, which must be one graph; and the edge types
    /// (by provenance) whose maps, reverse index slots included, and the
    /// value types (by node type name) whose rank maps `at` shares with
    /// `tgdb`.
    fn repin(tgdb: &Tgdb, stmts: &[&str]) -> (Tgdb, Vec<String>, Vec<String>) {
        let mut next = (**tgdb.database()).clone();
        for stmt in stmts {
            etable_relational::sql::execute(&mut next, stmt).unwrap();
        }
        let next = Arc::new(next);
        let at = tgdb.at(Arc::clone(&next)).unwrap();
        let fresh = translate(&next, &TranslateOptions::default()).unwrap();
        assert_same_graph(&at, &fresh, &stmts.join("; "));
        let (maps, ranks) = shared_parts(&tgdb.instances, &at.instances);
        let edge = |i: usize| {
            at.schema
                .edge_type(EdgeTypeId::from_index(i))
                .provenance
                .to_string()
        };
        let node = |i: usize| at.schema.node_type(NodeTypeId::from_index(i)).name.clone();
        let (maps, ranks) = (
            maps.into_iter().map(edge).collect(),
            ranks.into_iter().map(node).collect(),
        );
        (at, maps, ranks)
    }

    /// Every edge type and value type of the graph, by provenance and name.
    fn all_parts(tgdb: &Tgdb) -> (Vec<String>, Vec<String>) {
        let edges = tgdb
            .schema
            .edge_types()
            .map(|(_, e)| e.provenance.to_string());
        let values = tgdb
            .schema
            .node_types()
            .filter(|(_, t)| t.kind != NodeTypeKind::Entity);
        (
            edges.collect(),
            values.map(|(_, t)| t.name.clone()).collect(),
        )
    }

    /// A write to one relation changes only the maps that read it: `at`
    /// shares every other edge type's maps (`fwd` and the slot of its
    /// lazily built reverse index) and every other value type's rank map
    /// with the graph it re-pins.
    #[test]
    fn at_rebuilds_only_what_a_write_touched() {
        let tgdb = translate(&academic_db(), &TranslateOptions::default()).unwrap();
        let (edges, values) = all_parts(&tgdb);
        assert_eq!(values, ["Paper_Keywords: keyword", "Papers: year"]);
        // An INSERT into `Paper_Authors` gives both its FK indexes new
        // buffers: its edge types alone read new maps.
        let (_, maps, ranks) = repin(&tgdb, &["INSERT INTO Paper_Authors VALUES (12, 100, 1)"]);
        let authors = "relation Paper_Authors";
        let expected: Vec<&String> = edges.iter().filter(|e| *e != authors).collect();
        assert_eq!(maps.iter().collect::<Vec<_>>(), expected);
        assert_eq!(ranks, values);
        // A non-key UPDATE copies one column that no edge or value type
        // reads: every map is shared.
        let (_, maps, ranks) = repin(
            &tgdb,
            &["UPDATE Papers SET title = 'Renamed' WHERE id = 11"],
        );
        assert_eq!((maps, ranks), (edges.clone(), values.clone()));
        // DELETEs of a non-suffix author compact one index and shift the
        // ids of another: what reads either reads the new maps, and equals
        // a fresh load (`repin` checks), while the conference edges stay.
        let (at, maps, ranks) = repin(
            &tgdb,
            &[
                "DELETE FROM Paper_Authors WHERE author_id = 100",
                "DELETE FROM Authors WHERE id = 100",
            ],
        );
        assert!(!maps.iter().any(|e| e == authors), "{maps:?}");
        assert!(
            maps.iter().any(|e| e == "FK Papers.conference_id"),
            "{maps:?}"
        );
        assert_eq!(ranks, values);
        // A `Papers` INSERT re-ranks the years; the keywords stay.
        let (_, _, ranks) = repin(&at, &["INSERT INTO Papers VALUES (13, 2, 'New', 2020)"]);
        assert_eq!(ranks, ["Paper_Keywords: keyword"]);
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
                for b in tgdb.instances.neighbors(et, a) {
                    assert!(
                        tgdb.instances.neighbors(rev, b).any(|n| n == a),
                        "missing reverse edge for {et:?}"
                    );
                }
            }
        }
    }
}
