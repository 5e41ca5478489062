//! Node filters: the selection conditions `Ci` of a query pattern
//! (paper Definition 3), typed by the SQL analyzer's rule and matched on
//! the relational kernel over a node type's columns.

use crate::to_sql::atom_expr;
use crate::{Error, Result};
use etable_relational::expr::{CmpOp, Truth};
use etable_relational::scan::{select_rows, Bits};
use etable_relational::sql::analyze::{type_pred, Ty, TypedPred};
use etable_relational::sql::ast::SqlExpr;
use etable_relational::value::Value;
use etable_relational::Error as SqlError;
use etable_tgm::{EdgeTypeId, NodeId, NodeType, NodeTypeId, Tgdb};
use std::fmt;

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
    /// Identity: the node is exactly the one this key names — an
    /// entity's primary-key value, a value node's value
    /// ([`Tgdb::key_of`]). A key, unlike a node id, names the same entity
    /// at every epoch. Produced by the `Single` and `Seeall` user actions
    /// ("C = {u | u = vk}" in §6.1).
    NodeIs(Value),
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

    /// Exactly the node keyed `key`.
    pub fn node_is(key: impl Into<Value>) -> Self {
        Self::atom(FilterAtom::NodeIs(key.into()))
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

    /// Resolves and types the filter against `node_type` ahead of a scan,
    /// once; [`BoundFilter::select`] then picks the matching nodes from the
    /// type's columns, and [`BoundFilter::eval`] tests one node.
    /// Each attribute atom is typed as the SQL conjunct it translates to
    /// (`to_sql::atom_expr`), and a neighbor-label atom as `LIKE` over the
    /// neighbor type's label attribute, by the SQL analyzer's own rule
    /// (`type_pred`): the session, the graph and the translation refuse
    /// and evaluate exactly what the engine would. A `NodeIs` key is typed
    /// as `key = v` over the key attribute, then resolved at the graph's
    /// epoch; a key the epoch does not hold matches nothing, as in SQL.
    /// The one resolver of a filter; [`crate::ops::select_on`] validates
    /// by calling it.
    pub fn bind(&self, tgdb: &Tgdb, node_type: NodeTypeId) -> Result<BoundFilter> {
        let nt = tgdb.schema.node_type(node_type);
        let mut bound = BoundFilter {
            node_type,
            pinned: None,
            attrs: Vec::new(),
            neighbors: Vec::new(),
        };
        for atom in &self.atoms {
            match atom {
                FilterAtom::NodeIs(key) => {
                    let lhs = column(nt, &nt.attrs[tgdb.key_attr(node_type)].name);
                    let rhs = SqlExpr::Literal(*key);
                    typed(nt, &SqlExpr::Cmp(CmpOp::Eq, Box::new(lhs), Box::new(rhs)))?;
                    // Two keys that name different nodes pin to none.
                    let node = tgdb.node_by_key(node_type, key);
                    bound.pinned = Some(bound.pinned.map_or(node, |p| p.filter(|_| p == node)));
                }
                FilterAtom::NeighborLabelLike { edge, pattern } => {
                    let et = tgdb.schema.edge_type(*edge);
                    if et.source != node_type {
                        return Err(Error::InvalidEdge(format!(
                            "edge {edge} does not leave node type `{}`",
                            nt.name
                        )));
                    }
                    let target = tgdb.schema.node_type(et.target);
                    let label = column(target, &target.attrs[target.label_attr].name);
                    let like = SqlExpr::Like(Box::new(label), pattern.clone());
                    bound.neighbors.push((*edge, typed(target, &like)?));
                }
                atom => {
                    if let Some(conjunct) = atom_expr(atom, |attr| column(nt, attr)) {
                        bound.attrs.push(typed(nt, &conjunct)?);
                    }
                }
            }
        }
        Ok(bound)
    }

    /// Renders the filter on a node of `node_type` with schema context,
    /// resolving edge names (e.g. `Paper_Keywords: keyword like '%user%'`)
    /// and a `NodeIs` key to its node's label.
    pub fn display_with(&self, tgdb: &Tgdb, node_type: NodeTypeId) -> String {
        self.atoms
            .iter()
            .map(|a| atom_display(a, tgdb, node_type))
            .collect::<Vec<_>>()
            .join(" AND ")
    }
}

/// `owner.attr`: the column an attribute is named by in a filter conjunct.
fn column(owner: &NodeType, attr: &str) -> SqlExpr {
    SqlExpr::Column(format!("{}.{attr}", owner.name))
}

/// Types `conjunct` over `owner`'s attributes (every one nullable), with
/// the analyzer's refusals as the session's: an unknown column is an
/// unknown attribute, any other an invalid action.
fn typed(owner: &NodeType, conjunct: &SqlExpr) -> Result<TypedPred> {
    type_pred(conjunct, |name| {
        let attr = name.rsplit_once('.').map_or(name, |(_, attr)| attr);
        let i = owner
            .attr_index(attr)
            .ok_or_else(|| SqlError::UnknownColumn(attr.to_string()))?;
        let ty = Ty {
            base: Some(owner.attrs[i].data_type),
            nullable: true,
        };
        Ok((i, ty))
    })
    .map_err(|e| match e {
        SqlError::UnknownColumn(attr) => Error::UnknownAttribute {
            node_type: owner.name.clone(),
            attr,
        },
        e => Error::InvalidAction(e.to_string()),
    })
}

/// `text` between quotes, every `'` in it doubled, as a SQL literal is
/// written.
fn quote(text: impl fmt::Display) -> String {
    format!("'{}'", text.to_string().replace('\'', "''"))
}

fn atom_display(atom: &FilterAtom, tgdb: &Tgdb, node_type: NodeTypeId) -> String {
    let literal = |v: &Value| match v {
        Value::Text(s) => quote(s),
        other => other.to_string(),
    };
    match atom {
        FilterAtom::Cmp { attr, op, value } => format!("{attr} {op} {}", literal(value)),
        FilterAtom::Like { attr, pattern } => format!("{attr} like {}", quote(pattern)),
        FilterAtom::NotLike { attr, pattern } => format!("{attr} not like {}", quote(pattern)),
        FilterAtom::In { attr, values } => {
            let list = values.iter().map(literal).collect::<Vec<_>>().join(", ");
            format!("{attr} in ({list})")
        }
        FilterAtom::IsNull { attr } => format!("{attr} is null"),
        FilterAtom::NodeIs(key) => {
            // A key this epoch does not hold shows as itself.
            let label = tgdb
                .node_by_key(node_type, key)
                .map(|n| tgdb.instances.label(n));
            format!("node = {}", quote(label.unwrap_or(*key)))
        }
        FilterAtom::NeighborLabelLike { edge, pattern } => {
            let edge = &tgdb.schema.edge_type(*edge).name;
            format!("{edge} like {}", quote(pattern))
        }
    }
}

/// A [`NodeFilter`] resolved and typed against one node type (see
/// [`NodeFilter::bind`]); evaluating it looks nothing up by name.
#[derive(Debug)]
pub struct BoundFilter {
    /// The node type the filter was bound to.
    node_type: NodeTypeId,
    /// The node the `NodeIs` atoms pin to, if there are any: `None` when
    /// they name no node of the type at this epoch.
    pinned: Option<Option<NodeId>>,
    /// The attribute atoms, over the node type's attribute positions.
    attrs: Vec<TypedPred>,
    /// The neighbor-label atoms: the edge, and `LIKE` over the neighbor
    /// type's attribute positions.
    neighbors: Vec<(EdgeTypeId, TypedPred)>,
}

impl BoundFilter {
    /// The node `NodeIs` atoms pin this filter to — `Some(None)` when
    /// their keys name none — or `None` without such atoms. No other node
    /// can satisfy a pinned filter.
    pub fn node_is(&self) -> Option<Option<NodeId>> {
        self.pinned
    }

    /// The rows among `rows` (ascending rows of the bound type; `None`: all
    /// of them) whose nodes satisfy every atom, ascending, or `None` — all
    /// rows — when no atom restricts them: the set-at-a-time matcher.
    /// Each attribute atom is one pass of the relational kernel
    /// ([`select_rows`]) over the type's columns, through the rows that
    /// are still candidates. A neighbor-label atom is one pass over the
    /// neighbor type's label column into a bitmap, and a candidate stays
    /// when one of its neighbors is marked.
    pub fn select(&self, tgdb: &Tgdb, mut rows: Option<Vec<u32>>) -> Option<Vec<u32>> {
        let graph = &tgdb.instances;
        let span = graph.nodes_of_type(self.node_type);
        if let Some(target) = self.pinned {
            let listed = |r: &u32| rows.as_ref().is_none_or(|rs| rs.binary_search(r).is_ok());
            let row = target.and_then(|t| span.row(t)).filter(listed);
            rows = Some(row.into_iter().collect());
        }
        let columns = graph.columns(self.node_type);
        for pred in &self.attrs {
            if rows.as_ref().is_some_and(Vec::is_empty) {
                break;
            }
            let hits = select_rows(pred, columns, rows.as_deref());
            rows = Some(match rows {
                Some(from) => hits.into_iter().map(|i| from[i as usize]).collect(),
                None => hits,
            });
        }
        for (edge, pred) in &self.neighbors {
            let target = tgdb.schema.edge_type(*edge).target;
            let targets = graph.nodes_of_type(target);
            let mut marked = Bits::new(targets.len());
            for r in select_rows(pred, graph.columns(target), None) {
                marked.set(r);
            }
            let base = targets.first().0;
            let keep = |&row: &u32| {
                let mut neighbors = graph.neighbors(*edge, span.node(row));
                neighbors.any(|nb| marked.contains(nb.0 - base))
            };
            rows = Some(match rows {
                Some(from) => from.into_iter().filter(keep).collect(),
                None => (0..span.len() as u32).filter(keep).collect(),
            });
        }
        rows
    }

    /// Whether `node`, of the node type the filter was bound to, satisfies
    /// every atom (SQL three-valued logic: unknown is not a match): the
    /// row-at-a-time reference [`BoundFilter::select`] is checked against.
    /// Each typed atom runs on the engine's own
    /// [`Expr`](etable_relational::expr::Expr) evaluator, reading
    /// attributes through `InstanceGraph::value`.
    #[inline]
    pub fn eval(&self, tgdb: &Tgdb, node: NodeId) -> Result<bool> {
        let holds = |p: &TypedPred, n: NodeId| {
            let truth = p.expr().eval_truth(&|c| Some(tgdb.instances.value(n, c)));
            truth.map(Truth::is_true)
        };
        if self.pinned.is_some_and(|target| target != Some(node)) {
            return Ok(false);
        }
        for p in &self.attrs {
            if !holds(p, node)? {
                return Ok(false);
            }
        }
        for (edge, p) in &self.neighbors {
            let mut hit = false;
            for nb in tgdb.instances.neighbors(*edge, node) {
                if holds(p, nb)? {
                    hit = true;
                    break;
                }
            }
            if !hit {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::academic_db;
    use etable_relational::sql::execute;
    use etable_tgm::{translate, TranslateOptions};

    /// Text in a filter's display is quoted as a SQL literal is: a `'` in
    /// a title, a LIKE pattern, an IN item or a node's label is doubled,
    /// so the history shows `'O''Neil'`, never `'O'Neil'`.
    #[test]
    fn display_quotes_text_as_sql_literals() {
        let mut db = academic_db();
        execute(&mut db, "INSERT INTO Authors VALUES (9, 'O''Neil', 1)").unwrap();
        let tgdb = translate(&db, &TranslateOptions::default()).unwrap();
        let (authors, _) = tgdb.schema.node_type_by_name("Authors").unwrap();
        let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
        let (ae, _) = tgdb.schema.outgoing_by_name(papers, "Authors").unwrap();
        let show = |f: NodeFilter, nt| f.display_with(&tgdb, nt);
        assert_eq!(
            show(NodeFilter::cmp("name", CmpOp::Eq, "O'Neil"), authors),
            "name = 'O''Neil'"
        );
        let like = NodeFilter::like("name", "%'%").and(NodeFilter::atom(FilterAtom::NotLike {
            attr: "name".into(),
            pattern: "'%".into(),
        }));
        assert_eq!(
            show(like, authors),
            "name like '%''%' AND name not like '''%'"
        );
        let values = vec![Value::text("O'Neil"), Value::Int(2), Value::Null];
        let listed = NodeFilter::atom(FilterAtom::In {
            attr: "name".into(),
            values,
        });
        assert_eq!(show(listed, authors), "name in ('O''Neil', 2, NULL)");
        assert_eq!(show(NodeFilter::node_is(9), authors), "node = 'O''Neil'");
        let neighbor = NodeFilter::atom(FilterAtom::NeighborLabelLike {
            edge: ae,
            pattern: "O'%".into(),
        });
        assert_eq!(show(neighbor, papers), "Authors like 'O''%'");
    }
}
