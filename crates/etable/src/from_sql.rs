//! SQL → query pattern (§8, the inward direction).
//!
//! [`from_query`] translates a typical FK–PK join query into an equivalent
//! ETable query pattern, following the three steps of §8. It does not
//! read the SQL itself: `sql::analyze` resolves every name, types every
//! predicate and splits the conjuncts, and the translation reads the
//! resulting [`TypedPlan`](etable_relational::sql::TypedPlan) — `tables` become slots, `edges` become FK /
//! junction / MVA bindings, `scans` become node filters, a `residual` is
//! out of scope. So every name or type error is the analyzer's own, and
//! the queries accepted are exactly the SELECTs the engine accepts whose
//! join graph is an FK tree.

use crate::pattern::{
    FilterAtom, NodeFilter, PatternEdge, PatternNode, PatternNodeId, QueryPattern,
};
use crate::{Error, Result};
use etable_relational::expr::Expr;
use etable_relational::sql::analyze::{analyze, ColumnId, TypedPred};
use etable_relational::sql::ast::{Query, Statement};
use etable_tgm::{EdgeProvenance, EdgeTypeId, NodeTypeId, RelationCategory, Tgdb};

/// What one table of the plan stands for in the pattern.
#[derive(Debug)]
enum Slot<'a> {
    /// An entity table: a pattern node.
    Entity(usize),
    /// A relationship (junction) table: collects the entity bound to each
    /// of its foreign keys as join edges arrive.
    Junction {
        left_col: &'a str,
        right_col: &'a str,
        left: Option<usize>,
        right: Option<usize>,
    },
    /// An MVA table: the owner bound to its foreign key, plus the value
    /// node it contributes.
    Mva {
        fk_col: &'a str,
        value_col: &'a str,
        owner: Option<usize>,
        node: usize,
    },
}

impl Slot<'_> {
    /// The pattern node a filter or GROUP BY on this table refers to.
    fn node(&self) -> Option<usize> {
        match self {
            Slot::Entity(node) | Slot::Mva { node, .. } => Some(*node),
            Slot::Junction { .. } => None,
        }
    }

    /// Binds entity node `n` to the foreign key `col` of a junction or MVA
    /// table; the error says why the join is out of scope.
    fn bind(&mut self, col: &str, n: usize) -> std::result::Result<(), &'static str> {
        let key = match self {
            Slot::Junction { left_col, left, .. } if col == *left_col => left,
            Slot::Junction {
                right_col, right, ..
            } if col == *right_col => right,
            Slot::Mva { fk_col, owner, .. } if col == *fk_col => owner,
            _ => return Err("is not on a foreign key of the junction or MVA table"),
        };
        match key.replace(n) {
            None => Ok(()),
            Some(_) => Err("joins a foreign key that is already joined"),
        }
    }
}

/// Translates a FK–PK join query into an equivalent ETable query pattern.
///
/// Follows §8: (1) the FROM list and equi-join conditions become node
/// occurrences and edge types; (2) remaining selection conditions become
/// node conditions; (3) the GROUP BY attribute (or the first entity table)
/// becomes the primary node type.
///
/// Set operations, disjunctive join graphs and non-FK join conditions are
/// rejected, matching the paper's stated scope ("core relational algebra").
pub fn from_sql(tgdb: &Tgdb, sql: &str) -> Result<QueryPattern> {
    match etable_relational::sql::parse_statement(sql)? {
        Statement::Select(q) => from_query(tgdb, &q),
        _ => Err(Error::SqlTranslate("expected a SELECT query".into())),
    }
}

/// [`from_sql`] over a pre-parsed query, analyzed against the graph's own
/// database ([`Tgdb::database`]).
pub fn from_query(tgdb: &Tgdb, q: &Query) -> Result<QueryPattern> {
    let plan = analyze(tgdb.database(), q)?;
    let col_name = |c: ColumnId| plan.tables[c.table].columns[c.column].name.as_str();

    // Step 1a: every table is an entity (a node), a junction, or an MVA
    // table (a value node).
    let mut nodes: Vec<PatternNode> = Vec::new();
    let mut new_node = |name: &str| -> Result<usize> {
        let (node_type, _) = tgdb
            .schema
            .node_type_by_name(name)
            .ok_or_else(|| Error::SqlTranslate(format!("no node type for `{name}`")))?;
        nodes.push(PatternNode {
            node_type,
            filter: NodeFilter::none(),
        });
        Ok(nodes.len() - 1)
    };
    let mut slots: Vec<Slot> = Vec::with_capacity(plan.tables.len());
    for t in &plan.tables {
        let category = tgdb.categories.get(&t.name).ok_or_else(|| {
            Error::SqlTranslate(format!("table `{}` is unknown to the TGDB", t.name))
        })?;
        slots.push(match category {
            RelationCategory::Entity => Slot::Entity(new_node(&t.name)?),
            RelationCategory::Relationship { left_fk, right_fk } => Slot::Junction {
                left_col: left_fk,
                right_col: right_fk,
                left: None,
                right: None,
            },
            RelationCategory::MultiValuedAttr { fk_col, value_col } => Slot::Mva {
                fk_col,
                value_col,
                owner: None,
                node: new_node(&format!("{}: {value_col}", t.name))?,
            },
        });
    }

    // Step 1b: every join edge either follows a foreign key between two
    // entities or binds an entity to a junction / MVA foreign key.
    let mut edges: Vec<PatternEdge> = Vec::new();
    for e in &plan.edges {
        let out_of_scope = |why: &str| {
            Error::SqlTranslate(format!("join `{} = {}` {why}", e.left_name, e.right_name))
        };
        let (l, r) = (e.left, e.right);
        match (&slots[l.table], &slots[r.table]) {
            (&Slot::Entity(a), &Slot::Entity(b)) => {
                // Either side may be the referencing one.
                let fk = |(c, src, tgt): (ColumnId, usize, usize)| {
                    let (table, column) = (&plan.tables[c.table].name, col_name(c));
                    let edge_type = forward_edge(tgdb, nodes[src].node_type, |p| {
                        matches!(p, EdgeProvenance::ForeignKey { table: t, column: c }
                            if t == table && c == column)
                    })?;
                    Some(PatternEdge {
                        edge_type,
                        from: PatternNodeId(src),
                        to: PatternNodeId(tgt),
                    })
                };
                edges.push(
                    fk((l, a, b))
                        .or_else(|| fk((r, b, a)))
                        .ok_or_else(|| out_of_scope("does not follow a foreign key"))?,
                );
            }
            (&Slot::Entity(n), _) => slots[r.table].bind(col_name(r), n).map_err(out_of_scope)?,
            (_, &Slot::Entity(n)) => slots[l.table].bind(col_name(l), n).map_err(out_of_scope)?,
            _ => return Err(out_of_scope("joins no entity table")),
        }
    }

    // Bound junction and MVA tables -> M:N / MVA edges.
    for (slot, t) in slots.iter().zip(&plan.tables) {
        let (from, to, edge_type) = match slot {
            Slot::Entity(_) => continue,
            Slot::Junction { left, right, .. } => {
                let (Some(l), Some(r)) = (*left, *right) else {
                    return Err(Error::SqlTranslate(format!(
                        "junction `{}` is not joined on both foreign keys",
                        t.alias
                    )));
                };
                let edge_type = forward_edge(
                    tgdb,
                    nodes[l].node_type,
                    |p| matches!(p, EdgeProvenance::Relation { table, .. } if *table == t.name),
                );
                (l, r, edge_type)
            }
            Slot::Mva { owner, node, .. } => {
                let Some(owner) = *owner else {
                    return Err(Error::SqlTranslate(format!(
                        "MVA table `{}` is not joined to its owner",
                        t.alias
                    )));
                };
                let edge_type = forward_edge(
                    tgdb,
                    nodes[owner].node_type,
                    |p| matches!(p, EdgeProvenance::MultiValued { table, .. } if *table == t.name),
                );
                (owner, *node, edge_type)
            }
        };
        edges.push(PatternEdge {
            edge_type: edge_type
                .ok_or_else(|| Error::SqlTranslate(format!("no edge type for `{}`", t.name)))?,
            from: PatternNodeId(from),
            to: PatternNodeId(to),
        });
    }

    // Step 2: single-table conditions onto node filters. Whatever the
    // analyzer could push into neither a scan nor a join edge has no node
    // to sit on.
    if let Some(p) = plan.residual.first() {
        return Err(Error::SqlTranslate(format!(
            "predicate `{}` is neither a condition on one table nor an equi-join",
            p.display()
        )));
    }
    let tables = slots.iter().zip(&plan.tables).zip(&plan.scans);
    for (ti, ((slot, t), preds)) in tables.enumerate() {
        for p in preds {
            let node = slot.node().ok_or_else(|| {
                Error::SqlTranslate(format!(
                    "condition on junction table `{}` is unsupported (the \
                     translation ignores relationship attributes)",
                    t.alias
                ))
            })?;
            // A scan predicate reads its own table's columns.
            let attr = |column: usize| {
                let name = col_name(ColumnId { table: ti, column });
                match slot {
                    Slot::Mva { value_col, .. } if name != *value_col => {
                        Err(Error::SqlTranslate(format!(
                            "condition on MVA key column `{}.{name}` is unsupported",
                            t.alias
                        )))
                    }
                    _ => Ok(name.to_string()),
                }
            };
            nodes[node].filter.atoms.push(pred_atom(p, attr)?);
        }
    }

    // Step 3: primary from GROUP BY, else the first entity in FROM ("if no
    // group by attribute exists, arbitrarily set a primary node type").
    // Global aggregates group on nothing: no primary entity to pivot on.
    let primary = match &plan.grouping {
        Some(g) => {
            let key = g
                .keys
                .first()
                .and_then(|&pos| plan.column_id(pos))
                .ok_or_else(|| {
                    Error::SqlTranslate(
                        "global aggregates have no ETable equivalent (no primary entity)".into(),
                    )
                })?;
            slots[key.table].node().ok_or_else(|| {
                Error::SqlTranslate(format!(
                    "GROUP BY alias `{}` is not an entity or value node",
                    plan.tables[key.table].alias
                ))
            })?
        }
        None => slots
            .iter()
            .find_map(Slot::node)
            .ok_or_else(|| Error::SqlTranslate("no entity table in FROM".into()))?,
    };

    let pattern = QueryPattern {
        nodes,
        edges,
        primary: PatternNodeId(primary),
    };
    pattern.validate(tgdb).map_err(|e| {
        Error::SqlTranslate(format!(
            "join graph is not a connected tree over entities: {e}"
        ))
    })?;
    Ok(pattern)
}

/// The forward edge type leaving `source` whose provenance satisfies `is`.
fn forward_edge(
    tgdb: &Tgdb,
    source: NodeTypeId,
    is: impl Fn(&EdgeProvenance) -> bool,
) -> Option<EdgeTypeId> {
    tgdb.schema
        .edge_types()
        .find(|(_, e)| e.forward && e.source == source && is(&e.provenance))
        .map(|(id, _)| id)
}

/// Converts a typed single-table predicate into a filter atom; `attr`
/// names the attribute a column of that table stands for.
fn pred_atom(p: &TypedPred, attr: impl Fn(usize) -> Result<String>) -> Result<FilterAtom> {
    let unsupported = || {
        Error::SqlTranslate(format!(
            "unsupported predicate `{}` (the ETable interface builds \
             conjunctions of simple predicates)",
            p.display()
        ))
    };
    let column = |e: &Expr| match e {
        Expr::Column(c) => attr(*c),
        _ => Err(unsupported()),
    };
    Ok(match p.expr() {
        Expr::Cmp(op, a, b) => {
            let (side, op, value) = match (a.as_ref(), b.as_ref()) {
                (side, Expr::Literal(v)) => (side, *op, *v),
                (Expr::Literal(v), side) => (side, op.flipped(), *v),
                _ => return Err(unsupported()),
            };
            FilterAtom::Cmp {
                attr: column(side)?,
                op,
                value,
            }
        }
        Expr::Like(a, pattern) => FilterAtom::Like {
            attr: column(a)?,
            pattern: pattern.as_str().to_owned(),
        },
        Expr::Not(inner) => match inner.as_ref() {
            Expr::Like(a, pattern) => FilterAtom::NotLike {
                attr: column(a)?,
                pattern: pattern.as_str().to_owned(),
            },
            _ => return Err(unsupported()),
        },
        Expr::InList(a, values) => FilterAtom::In {
            attr: column(a)?,
            values: values.clone(),
        },
        Expr::IsNull(a) => FilterAtom::IsNull { attr: column(a)? },
        _ => return Err(unsupported()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::academic_tgdb;
    use etable_relational::Error as SqlError;

    #[test]
    fn name_and_type_errors_are_the_analyzers() {
        let tgdb = academic_tgdb();
        let err = |sql: &str| from_sql(&tgdb, sql).unwrap_err();
        // Duplicate alias.
        let e = err("SELECT p.id FROM Papers p, Authors p WHERE p.id = 1");
        assert!(
            matches!(&e, Error::Relational(SqlError::Parse(m)) if m.contains("duplicate table alias `p`")),
            "{e:?}"
        );
        // Ambiguous unqualified column: both tables have an `id`.
        let e = err("SELECT p.id FROM Papers p, Conferences c \
                     WHERE p.conference_id = c.id AND id = 1");
        assert!(
            matches!(&e, Error::Relational(SqlError::Analyze(m)) if m.contains("ambiguous column reference `id`")),
            "{e:?}"
        );
        // Unknown column, qualified and not.
        let e = err("SELECT p.id FROM Papers p WHERE p.nope = 1");
        assert_eq!(
            e,
            Error::Relational(SqlError::UnknownColumn("p.nope".into()))
        );
        let e = err("SELECT p.id FROM Papers p WHERE nope = 1 GROUP BY p.id");
        assert_eq!(e, Error::Relational(SqlError::UnknownColumn("nope".into())));
        // An ill-typed condition the engine refuses is refused here too.
        let e = err("SELECT p.id FROM Papers p WHERE p.year > 'abc'");
        assert!(
            matches!(&e, Error::Relational(SqlError::Analyze(_))),
            "{e:?}"
        );
    }

    #[test]
    fn out_of_scope_joins_and_conditions_say_why() {
        let tgdb = academic_tgdb();
        let msg = |sql: &str| from_sql(&tgdb, sql).unwrap_err().to_string();
        // A condition over two tables that is not an equi-join.
        let m = msg("SELECT p.id FROM Papers p, Conferences c \
                     WHERE p.conference_id = c.id AND p.year > c.id");
        assert!(
            m.contains("neither a condition on one table nor an equi-join"),
            "{m}"
        );
        // A junction joined on one key only, and one joined twice on it.
        let m = msg("SELECT p.id FROM Papers p, Paper_Authors pa WHERE pa.paper_id = p.id");
        assert!(m.contains("not joined on both foreign keys"), "{m}");
        let m = msg("SELECT p.id FROM Papers p, Papers p2, Paper_Authors pa \
                     WHERE pa.paper_id = p.id AND pa.paper_id = p2.id");
        assert!(m.contains("already joined"), "{m}");
        // Conditions on a junction attribute, an MVA key, a disjunction.
        let m = msg("SELECT p.id FROM Papers p, Paper_Authors pa, Authors a \
                     WHERE pa.paper_id = p.id AND pa.author_id = a.id AND pa.ord = 1");
        assert!(m.contains("junction table `pa`"), "{m}");
        let m = msg("SELECT p.id FROM Papers p, Paper_Keywords k \
                     WHERE k.paper_id = p.id AND k.paper_id > 10");
        assert!(m.contains("MVA key column `k.paper_id`"), "{m}");
        let m = msg("SELECT p.id FROM Papers p WHERE p.year < 2008 OR p.year > 2012");
        assert!(m.contains("conjunctions of simple predicates"), "{m}");
    }
}
