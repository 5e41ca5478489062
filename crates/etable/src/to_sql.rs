//! Query pattern → SQL (§8, the outward direction).
//!
//! A pattern translates to a [`Query`] — the SQL front end's own AST —
//! and never to text: [`to_query`] builds the executable query returning
//! the distinct primary keys of the matched primary nodes, the relational
//! equivalent of `Π_τa(m(Q))`, which callers hand straight to
//! `sql::executor::execute_query` / `sql::explain::explain_query` or the
//! naive oracle.
//! The text forms are that AST's `Display`: [`to_primary_sql`] prints the
//! executable query, [`to_sql`] prints the same FROM / WHERE under the
//! paper's general pattern `SELECT τa.*, ent-list(t1), ... GROUP BY τa`.
//!
//! With [`crate::from_sql`] this witnesses the paper's expressiveness
//! claim: any join query over FK–PK relationships on a schema meeting the
//! Appendix A assumptions has an equivalent ETable query.

use crate::pattern::{FilterAtom, PatternEdge, PatternNodeId, QueryPattern};
use crate::{Error, Result};
use etable_relational::expr::CmpOp;
use etable_relational::sql::ast::{Query, SelectItem, SqlExpr, TableRef};
use etable_tgm::{EdgeProvenance, EdgeTypeId, NodeTypeId, NodeTypeKind, Tgdb};

fn col(alias: &str, name: &str) -> SqlExpr {
    SqlExpr::Column(format!("{alias}.{name}"))
}

fn eq(a: SqlExpr, b: SqlExpr) -> SqlExpr {
    SqlExpr::Cmp(CmpOp::Eq, Box::new(a), Box::new(b))
}

/// The SQL predicate of a filter atom that names an attribute, over the
/// column `column` makes of that attribute's name; `None` for the two
/// atoms that name none (`NodeIs`, `NeighborLabelLike`). The one
/// `FilterAtom → SqlExpr` rule: the translation emits these conjuncts and
/// [`crate::pattern::NodeFilter::bind`] types exactly them.
pub(crate) fn atom_expr(
    atom: &FilterAtom,
    column: impl FnOnce(&str) -> SqlExpr,
) -> Option<SqlExpr> {
    Some(match atom {
        FilterAtom::Cmp { attr, op, value } => SqlExpr::Cmp(
            *op,
            Box::new(column(attr)),
            Box::new(SqlExpr::Literal(*value)),
        ),
        FilterAtom::Like { attr, pattern } => {
            SqlExpr::Like(Box::new(column(attr)), pattern.clone())
        }
        FilterAtom::NotLike { attr, pattern } => {
            SqlExpr::NotLike(Box::new(column(attr)), pattern.clone())
        }
        FilterAtom::In { attr, values } => SqlExpr::InList(Box::new(column(attr)), values.clone()),
        FilterAtom::IsNull { attr } => SqlExpr::IsNull(Box::new(column(attr))),
        FilterAtom::NodeIs(_) | FilterAtom::NeighborLabelLike { .. } => return None,
    })
}

/// How a pattern node's attribute values are reachable in SQL.
#[derive(Debug, Clone)]
enum NodeRepr {
    /// An aliased entity table; `pk` is its primary-key column name.
    Entity { alias: String, pk: String },
    /// A value node (MVA or categorical): the column that yields the
    /// value (e.g. `m0.keyword` or `t1.year`).
    Value(SqlExpr),
}

impl NodeRepr {
    fn attr(&self, attr: &str) -> SqlExpr {
        match self {
            NodeRepr::Entity { alias, .. } => col(alias, attr),
            NodeRepr::Value(expr) => expr.clone(),
        }
    }

    fn key(&self) -> SqlExpr {
        match self {
            NodeRepr::Entity { alias, pk } => col(alias, pk),
            NodeRepr::Value(expr) => expr.clone(),
        }
    }
}

/// The FROM list and WHERE conjuncts of a pattern, as they accumulate.
struct Builder<'a> {
    tgdb: &'a Tgdb,
    from: Vec<TableRef>,
    conditions: Vec<SqlExpr>,
    reprs: Vec<Option<NodeRepr>>,
    next_aux: usize,
}

impl Builder<'_> {
    /// The primary-key column of entity type `nt`: its key attribute.
    fn pk_of(&self, nt: NodeTypeId) -> String {
        let def = self.tgdb.schema.node_type(nt);
        def.attrs[self.tgdb.key_attr(nt)].name.clone()
    }

    /// Adds `table` to FROM under the next auxiliary alias (`j0`, `m1`,
    /// `x2`, ... — one counter, the prefix says what the table is for).
    fn join(&mut self, table: &str, prefix: char) -> String {
        let alias = format!("{prefix}{}", self.next_aux);
        self.next_aux += 1;
        self.from.push(TableRef {
            table: table.to_string(),
            alias: Some(alias.clone()),
        });
        alias
    }

    /// Registers the base representation of an entity pattern node. A
    /// value node is resolved when its connecting edge is processed —
    /// unless it stands alone (`Single` on a keyword): with no edge to
    /// introduce it, it is the column of the table it was read from.
    fn init_node(&mut self, id: PatternNodeId, pattern: &QueryPattern) -> Result<()> {
        let node_type = pattern.node(id).node_type;
        let nt = self.tgdb.schema.node_type(node_type);
        if nt.kind == NodeTypeKind::Entity {
            let alias = format!("t{}", id.0);
            let pk = self.pk_of(node_type);
            self.from.push(TableRef {
                table: nt.source_table.clone(),
                alias: Some(alias.clone()),
            });
            self.reprs[id.0] = Some(NodeRepr::Entity { alias, pk });
        } else if pattern.len() == 1 {
            let alias = self.join(&nt.source_table, 'v');
            self.reprs[id.0] = Some(NodeRepr::Value(col(&alias, &nt.attrs[0].name)));
        }
        Ok(())
    }

    fn repr(&self, id: PatternNodeId) -> Result<&NodeRepr> {
        self.reprs[id.0]
            .as_ref()
            .ok_or_else(|| Error::SqlTranslate(format!("pattern node {id} not representable")))
    }

    /// Makes `value` the representation of value node `id` — or, on a
    /// second edge into the same node, requires the values seen along
    /// both paths to agree.
    fn bind_value(&mut self, id: PatternNodeId, value: SqlExpr) {
        match &self.reprs[id.0] {
            None => self.reprs[id.0] = Some(NodeRepr::Value(value)),
            Some(existing) => self.conditions.push(eq(value, existing.key())),
        }
    }

    /// Emits joins for one pattern edge, creating value-node representations
    /// as a side effect.
    fn process_edge(&mut self, e: &PatternEdge) -> Result<()> {
        let et = self.tgdb.schema.edge_type(e.edge_type);
        // Occurrences playing the forward-source and forward-target roles.
        let (fsrc, ftgt) = if et.forward {
            (e.from, e.to)
        } else {
            (e.to, e.from)
        };
        // The forward source is always an entity: the referencing one, the
        // junction's left one, or the owner of the value.
        let src = self.repr(fsrc)?.clone();
        match &et.provenance {
            EdgeProvenance::ForeignKey { column, .. } => {
                let tgt = self.repr(ftgt)?.key();
                self.conditions.push(eq(src.attr(column), tgt));
            }
            EdgeProvenance::Relation {
                table,
                left_col,
                right_col,
            } => {
                let alias = self.join(table, 'j');
                let tgt = self.repr(ftgt)?.key();
                self.conditions.push(eq(col(&alias, left_col), src.key()));
                self.conditions.push(eq(col(&alias, right_col), tgt));
            }
            EdgeProvenance::MultiValued {
                table,
                fk_col,
                value_col,
            } => {
                let alias = self.join(table, 'm');
                self.conditions.push(eq(col(&alias, fk_col), src.key()));
                self.bind_value(ftgt, col(&alias, value_col));
            }
            EdgeProvenance::Categorical { column, .. } => {
                self.bind_value(ftgt, src.attr(column));
            }
        }
        Ok(())
    }

    /// Emits WHERE conditions for one pattern node's filter.
    fn process_filter(&mut self, pattern: &QueryPattern, id: PatternNodeId) -> Result<()> {
        let node = pattern.node(id);
        for atom in &node.filter.atoms {
            let repr = self.repr(id)?.clone();
            let cond = match atom {
                FilterAtom::NodeIs(key) => eq(repr.key(), SqlExpr::Literal(*key)),
                // Materialize the neighbor as an extra join: sound under
                // SELECT DISTINCT (the paper translates these filters to
                // subqueries; a semi-join is the equivalent here).
                FilterAtom::NeighborLabelLike {
                    edge,
                    pattern: like,
                } => SqlExpr::Like(Box::new(self.neighbor_label(id, *edge)?), like.clone()),
                attribute => match atom_expr(attribute, |attr| repr.attr(attr)) {
                    Some(cond) => cond,
                    None => continue,
                },
            };
            self.conditions.push(cond);
        }
        Ok(())
    }

    /// Joins the neighbors of pattern node `owner` along `edge` and
    /// returns the column holding their labels: the neighbor takes a fresh
    /// representation slot (an entity alias if it is an entity), and the
    /// edge `owner → neighbor` emits its joins as any pattern edge does.
    fn neighbor_label(&mut self, owner: PatternNodeId, edge: EdgeTypeId) -> Result<SqlExpr> {
        let target_type = self.tgdb.schema.edge_type(edge).target;
        let target = self.tgdb.schema.node_type(target_type);
        let neighbor = PatternNodeId(self.reprs.len());
        self.reprs.push(None);
        if target.kind == NodeTypeKind::Entity {
            let pk = self.pk_of(target_type);
            let alias = self.join(&target.source_table, 'x');
            self.reprs[neighbor.0] = Some(NodeRepr::Entity { alias, pk });
        }
        self.process_edge(&PatternEdge {
            edge_type: edge,
            from: owner,
            to: neighbor,
        })?;
        let label = &target.attrs[target.label_attr].name;
        Ok(self.repr(neighbor)?.attr(label))
    }

    /// The finished query: the accumulated FROM list, the conjunction of
    /// the conditions, and the given head.
    fn query(self, distinct: bool, items: Vec<SelectItem>, group_by: Vec<SqlExpr>) -> Query {
        Query {
            distinct,
            items,
            from: self.from,
            joins: Vec::new(),
            where_clause: self
                .conditions
                .into_iter()
                .reduce(|a, b| SqlExpr::And(Box::new(a), Box::new(b))),
            group_by,
            having: None,
            order_by: Vec::new(),
            limit: None,
            offset: 0,
        }
    }
}

/// Walks the pattern and fills a [`Builder`].
fn build<'a>(tgdb: &'a Tgdb, pattern: &QueryPattern) -> Result<Builder<'a>> {
    let tree = pattern.tree(tgdb, pattern.primary)?;
    let mut b = Builder {
        tgdb,
        from: Vec::new(),
        conditions: Vec::new(),
        reprs: vec![None; pattern.len()],
        next_aux: 0,
    };
    for id in pattern.node_ids() {
        b.init_node(id, pattern)?;
    }
    // Process edges in tree order from the primary so value-node
    // representations exist before dependent edges/conditions.
    for via in tree.iter().filter_map(|step| step.via) {
        b.process_edge(&pattern.edges[via.edge])?;
    }
    for id in pattern.node_ids() {
        // The graph has a value node for every value but NULL.
        if tgdb.schema.node_type(pattern.node(id).node_type).kind != NodeTypeKind::Entity {
            let value = b.repr(id)?.key();
            b.conditions.push(SqlExpr::IsNotNull(Box::new(value)));
        }
        b.process_filter(pattern, id)?;
    }
    Ok(b)
}

/// The executable SQL query over the graph's own database
/// ([`Tgdb::database`]) that returns the distinct primary keys (or values,
/// for MVA/categorical primaries) of the matched primary nodes:
/// `Π_τa(m(Q))` in SQL.
pub fn to_query(tgdb: &Tgdb, pattern: &QueryPattern) -> Result<Query> {
    let b = build(tgdb, pattern)?;
    let key = b.repr(pattern.primary)?.key();
    let items = vec![SelectItem::Expr {
        expr: key,
        alias: None,
    }];
    Ok(b.query(true, items, Vec::new()))
}

/// [`to_query`], printed.
pub fn to_primary_sql(tgdb: &Tgdb, pattern: &QueryPattern) -> Result<String> {
    Ok(to_query(tgdb, pattern)?.to_string())
}

/// Renders the paper's general SQL pattern (§8) for display:
/// `SELECT τa.*, ent-list(t1), ... FROM ... WHERE ... GROUP BY τa`.
///
/// `ent_list` is the pseudo-aggregate the paper compares to PostgreSQL's
/// `json_agg`; the output is documentation, not an executable query. The
/// dialect has no such function, so each call rides through the printer as
/// a column whose name is the call.
pub fn to_sql(tgdb: &Tgdb, pattern: &QueryPattern) -> Result<String> {
    let b = build(tgdb, pattern)?;
    let primary = b.repr(pattern.primary)?;
    let mut items = vec![match primary {
        NodeRepr::Entity { alias, .. } => SelectItem::QualifiedWildcard(alias.clone()),
        NodeRepr::Value(expr) => SelectItem::Expr {
            expr: expr.clone(),
            alias: None,
        },
    }];
    for id in pattern.node_ids().filter(|&id| id != pattern.primary) {
        items.push(SelectItem::Expr {
            expr: SqlExpr::Column(format!("ent_list({})", b.repr(id)?.key())),
            alias: None,
        });
    }
    let group_by = vec![primary.key()];
    Ok(b.query(false, items, group_by).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::pattern::NodeFilter;
    use crate::testutil::academic_tgdb;
    use etable_relational::sql::executor::execute_query;
    use etable_relational::sql::{parse_statement, Statement};

    #[test]
    fn printed_translation_parses_back_to_the_query() {
        // Filter values that need the printer's quoting — an apostrophe in
        // a literal and in a LIKE pattern — and a float that must not print
        // as an INT.
        let tgdb = academic_tgdb();
        let (authors, _) = tgdb.schema.node_type_by_name("Authors").unwrap();
        let q = ops::initiate(&tgdb, authors).unwrap();
        let q = ops::select(&tgdb, &q, NodeFilter::cmp("name", CmpOp::Ne, "O'Brien")).unwrap();
        let q = ops::select(&tgdb, &q, NodeFilter::like("name", "%d'Or%")).unwrap();
        let (pe, _) = tgdb.schema.outgoing_by_name(authors, "Papers").unwrap();
        let q = ops::add(&tgdb, &q, pe).unwrap();
        let q = ops::select(&tgdb, &q, NodeFilter::cmp("year", CmpOp::Lt, 2012.0)).unwrap();
        let query = to_query(&tgdb, &q).unwrap();
        let text = query.to_string();
        assert!(
            text.contains("'O''Brien'") && text.contains("'%d''Or%'"),
            "{text}"
        );
        assert!(text.contains("t1.year < 2012.0"), "{text}");
        assert_eq!(parse_statement(&text), Ok(Statement::Select(query.clone())));
        assert_eq!(to_primary_sql(&tgdb, &q).unwrap(), text);
        assert!(execute_query(tgdb.database(), &query).unwrap().is_empty());
    }
}
