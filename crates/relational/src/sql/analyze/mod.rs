//! Static semantic analysis: the pass between the parser and both
//! executors.
//!
//! [`analyze`] takes a parsed [`Query`] and performs
//!
//! * **name resolution** — tables, qualified / unqualified / ambiguous
//!   column references; every surviving reference becomes a column
//!   position,
//! * **type inference** — every expression node's type ([`Ty`]) over
//!   INT / FLOAT / TEXT / BOOL plus nullability, with the executors'
//!   INT→FLOAT widening rule encoded once as the two-element lattice join
//!   [`lub`],
//! * **aggregate / GROUP BY / HAVING validity** — non-grouped columns in
//!   grouped select lists, aggregates nested in aggregates, aggregates in
//!   row context, `HAVING` without a grouped query, non-boolean
//!   predicates, type-mismatched comparisons,
//!
//! one step per clause — FROM, the WHERE / ON conjuncts, grouping and
//! HAVING, the select list, ORDER BY — and produces a [`TypedPlan`]: the
//! [`Expr`](crate::expr::Expr)s, picks, sort keys and aggregate specs the
//! columnar engine ([`super::executor`]) and the naive oracle
//! ([`super::naive`]) both run, each over the position space of its stage
//! (see [`TypedPlan`]). Neither engine resolves a name, checks a type or
//! maps a column reference at runtime, and every semantic error is raised
//! here, **before** any table is scanned or mutated. The DML analyzers
//! ([`analyze_delete`], [`analyze_update`], [`analyze_insert`]) give
//! mutations the same guarantee: an invalid statement touches zero rows.

mod dml;
mod plan;
mod typing;

pub use dml::{analyze_delete, analyze_insert, analyze_update};
pub use plan::{ColumnId, JoinEdge, PlanTable, TypedGrouping, TypedPlan};
pub(crate) use typing::ty_name;
pub use typing::{lub, type_pred, Ty, TypedPred};

use super::ast::{Query, SelectItem, SqlExpr};
use crate::colrel::Pick;
use crate::database::Database;
use crate::exec::agg::{AggFunc, AggSpec};
use crate::expr::CmpOp;
use crate::relation::{RelColumn, SortKey};
use crate::value::DataType;
use crate::{Error, Result};
use typing::{type_expr, type_pred_with};

/// Analyzes a parsed SELECT into a [`TypedPlan`]. All semantic errors —
/// unknown / ambiguous names, type mismatches, grouping violations — are
/// raised here; execution of a returned plan cannot fail on resolution.
pub fn analyze(db: &Database, q: &Query) -> Result<TypedPlan> {
    let mut plan = from_clause(db, q)?;
    classify_conjuncts(&mut plan, q)?;
    let group_tys = group_by(&mut plan, q)?;
    let tail = Tail {
        plan: &plan,
        q,
        grouped: plan.grouping.as_ref().zip(group_tys),
    };
    let having = tail.having()?;
    let (output, picks) = tail.select_list()?;
    let order_by = tail.order_by(&output, &picks)?;
    Ok(TypedPlan {
        having,
        output,
        picks,
        order_by,
        distinct: q.distinct,
        limit: q.limit,
        offset: q.offset,
        ..plan
    })
}

/// FROM + JOIN: the plan's tables, in syntactic order, under unique
/// aliases.
fn from_clause(db: &Database, q: &Query) -> Result<TypedPlan> {
    let mut tables: Vec<PlanTable> = Vec::new();
    for r in q.from.iter().chain(q.joins.iter().map(|j| &j.table)) {
        let alias = r.effective_alias();
        if tables.iter().any(|t| t.alias == alias) {
            return Err(Error::Parse(format!("duplicate table alias `{alias}`")));
        }
        tables.push(PlanTable::new(&r.table, alias, db.table(&r.table)?));
    }
    if tables.is_empty() {
        return Err(Error::Parse("empty FROM".into()));
    }
    let scans = vec![Vec::new(); tables.len()];
    Ok(TypedPlan {
        tables,
        scans,
        ..TypedPlan::default()
    })
}

/// WHERE and JOIN..ON, conjunct by conjunct, classified by the tables each
/// reads: a single-table predicate is pushed into that table's scan (and
/// rebased onto its columns), a two-table `col = col` equality becomes a
/// join edge, the rest is residual.
fn classify_conjuncts(plan: &mut TypedPlan, q: &Query) -> Result<()> {
    let wheres = q.where_clause.iter().flat_map(SqlExpr::conjuncts);
    for c in wheres.chain(q.joins.iter().flat_map(|j| j.on.conjuncts())) {
        let pred = type_pred(c, |name| plan.resolve(name))?;
        let mut tables: Vec<usize> = (pred.expr().referenced_columns())
            .into_iter()
            .filter_map(|pos| plan.column_id(pos))
            .map(|id| id.table)
            .collect();
        tables.dedup();
        match tables[..] {
            [t] => {
                let pred = pred.rebased(plan.offset_of(t), 0);
                plan.scans[t].push(pred);
            }
            [_, _] => match join_edge(plan, c)? {
                Some(edge) => plan.edges.push(edge),
                None => plan.residual.push(pred),
            },
            _ => plan.residual.push(pred),
        }
    }
    Ok(())
}

/// The join edge a two-table conjunct is when it equates two columns.
fn join_edge(plan: &TypedPlan, c: &SqlExpr) -> Result<Option<JoinEdge>> {
    let SqlExpr::Cmp(CmpOp::Eq, x, y) = c else {
        return Ok(None);
    };
    let (SqlExpr::Column(nx), SqlExpr::Column(ny)) = (x.as_ref(), y.as_ref()) else {
        return Ok(None);
    };
    let ((lpos, lty), (rpos, rty)) = (plan.resolve(nx)?, plan.resolve(ny)?);
    Ok(plan
        .column_id(lpos)
        .zip(plan.column_id(rpos))
        .map(|(left, right)| JoinEdge {
            left,
            right,
            left_name: nx.clone(),
            right_name: ny.clone(),
            key_ty: lub(lty.base, rty.base).flatten(),
        }))
}

/// GROUP BY and the aggregates that the select list, HAVING and ORDER BY
/// name, deduplicated by display string (the output-naming rule), as
/// `plan.grouping` — or nothing for a query that neither groups nor
/// aggregates. Returns the grouped row's column types.
fn group_by(plan: &mut TypedPlan, q: &Query) -> Result<Option<Vec<Ty>>> {
    let sources = || {
        let items = q.items.iter().filter_map(|item| match item {
            SelectItem::Expr { expr, .. } => Some(expr),
            _ => None,
        });
        items
            .chain(&q.having)
            .chain(q.order_by.iter().map(|o| &o.expr))
    };
    if q.group_by.is_empty() && !sources().any(SqlExpr::contains_aggregate) {
        return Ok(None);
    }
    // Keys resolve in row context and must be plain columns.
    let flat = plan.tail_columns();
    let (mut keys, mut columns, mut tys) = (Vec::new(), Vec::new(), Vec::new());
    for g in &q.group_by {
        let SqlExpr::Column(name) = g else {
            return Err(Error::Analyze(format!(
                "unsupported GROUP BY expression `{g}`"
            )));
        };
        let (pos, ty) = plan.resolve(name)?;
        keys.push(pos);
        columns.push(flat[pos].clone());
        tys.push(ty);
    }
    let mut found: Vec<&SqlExpr> = Vec::new();
    for s in sources() {
        collect_aggregates(s, &mut found);
    }
    let mut aggregates: Vec<AggSpec> = Vec::new();
    for e in found {
        let key = e.to_string();
        let SqlExpr::Aggregate { func, input } = e else {
            continue;
        };
        if aggregates.iter().any(|a| a.output_name == key) {
            continue;
        }
        let (input, in_ty) = match input.as_deref() {
            None if *func == AggFunc::Count => (None, None),
            None => {
                return Err(Error::Analyze(format!(
                    "aggregate `{key}` requires an input column"
                )))
            }
            Some(arg) if arg.contains_aggregate() => {
                return Err(Error::Analyze(format!(
                    "aggregate nested in aggregate `{key}`"
                )))
            }
            Some(SqlExpr::Column(name)) => {
                let (pos, ty) = plan.resolve(name)?;
                (Some(pos), Some(ty))
            }
            Some(other) => {
                return Err(Error::Analyze(format!(
                    "unsupported aggregate input `{other}`"
                )))
            }
        };
        if let (AggFunc::Sum | AggFunc::Avg, Some(ty)) = (func, in_ty) {
            if !matches!(ty.base, Some(DataType::Int) | Some(DataType::Float)) {
                return Err(Error::Analyze(format!(
                    "aggregate `{key}` requires a numeric input ({} given)",
                    ty.render_base()
                )));
            }
        }
        // COUNT → INT, AVG → FLOAT, SUM / MIN / MAX → the input's type.
        let (base, nullable) = match func {
            AggFunc::Count => (DataType::Int, false),
            AggFunc::Avg => (DataType::Float, true),
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                (in_ty.and_then(|t| t.base).unwrap_or(DataType::Int), true)
            }
        };
        aggregates.push(AggSpec::new(input.map(|c| (*func, c)), key.clone()));
        columns.push(RelColumn::bare(key, base));
        tys.push(Ty {
            base: Some(base),
            nullable,
        });
    }
    plan.grouping = Some(TypedGrouping {
        keys,
        aggregates,
        columns,
    });
    Ok(Some(tys))
}

/// Collects aggregate nodes in appearance order (not descending into
/// their inputs — nesting is checked separately and rejected).
fn collect_aggregates<'a>(e: &'a SqlExpr, out: &mut Vec<&'a SqlExpr>) {
    match e {
        SqlExpr::Aggregate { .. } => out.push(e),
        SqlExpr::Column(_) | SqlExpr::Literal(_) => {}
        SqlExpr::Cmp(_, a, b) | SqlExpr::And(a, b) | SqlExpr::Or(a, b) => {
            collect_aggregates(a, out);
            collect_aggregates(b, out);
        }
        SqlExpr::Like(a, _)
        | SqlExpr::NotLike(a, _)
        | SqlExpr::InList(a, _)
        | SqlExpr::IsNull(a)
        | SqlExpr::IsNotNull(a)
        | SqlExpr::Not(a) => collect_aggregates(a, out),
    }
}

/// What HAVING, the select list and ORDER BY resolve against: the tail
/// input — the flat row of a plain query, the grouped row of a grouped one.
struct Tail<'a> {
    plan: &'a TypedPlan,
    q: &'a Query,
    /// A grouped query's grouping and the grouped row's column types.
    grouped: Option<(&'a TypedGrouping, Vec<Ty>)>,
}

impl Tail<'_> {
    /// The leaf rule of the tail input. A plain query's columns resolve in
    /// the flat row. A grouped query's columns must be GROUP BY keys (by
    /// the key as written or by the key column's names), and its
    /// aggregates are the grouped row's aggregate columns.
    fn leaf(&self, e: &SqlExpr) -> Result<(usize, Ty)> {
        let Some((g, tys)) = &self.grouped else {
            return match e {
                SqlExpr::Column(name) => self.plan.resolve(name),
                _ => Err(Error::Analyze(format!("unsupported expression `{e}`"))),
            };
        };
        let at = |i: usize| (i, tys[i]);
        match e {
            SqlExpr::Column(name) => {
                let is_key = |(k, c): (&SqlExpr, &RelColumn)| {
                    matches!(k, SqlExpr::Column(written) if written == name) || c.matches_name(name)
                };
                let key = self.q.group_by.iter().zip(&g.columns).position(is_key);
                key.map(at).ok_or_else(|| {
                    Error::Analyze(format!(
                        "column `{name}` must appear in GROUP BY or an aggregate"
                    ))
                })
            }
            SqlExpr::Aggregate { .. } => {
                let key = e.to_string();
                let agg = g.aggregates.iter().position(|a| a.output_name == key);
                agg.map(|i| at(g.keys.len() + i))
                    .ok_or_else(|| Error::Analyze(format!("unplanned aggregate `{key}`")))
            }
            _ => Err(Error::Analyze(format!("unsupported expression `{e}`"))),
        }
    }

    /// The tail-input position a select-list or ORDER BY expression reads:
    /// a column or (grouped) an aggregate. Anything else is refused with
    /// `unsupported` — after typing it when grouped, so that an error
    /// inside it is the one reported.
    fn position(&self, e: &SqlExpr, unsupported: impl FnOnce() -> String) -> Result<usize> {
        match e {
            SqlExpr::Column(_) | SqlExpr::Aggregate { .. } => Ok(self.leaf(e)?.0),
            _ if self.grouped.is_none() => Err(Error::Analyze(unsupported())),
            _ => {
                type_expr(e, &mut |leaf| self.leaf(leaf))?;
                Err(Error::Analyze(unsupported()))
            }
        }
    }

    /// HAVING over the grouped row; a query that does not group has none.
    fn having(&self) -> Result<Option<TypedPred>> {
        let Some(h) = &self.q.having else {
            return Ok(None);
        };
        if self.grouped.is_none() {
            return Err(Error::Analyze(format!(
                "HAVING requires GROUP BY or an aggregate: `{h}`"
            )));
        }
        type_pred_with(h, &mut |leaf| self.leaf(leaf)).map(Some)
    }

    /// The select list: output columns and their picks over the tail input.
    /// `*` expands to the flat row in FROM order, or to a grouped row's
    /// keys; `t.*` to those of table `t`. A plain query may pick a literal.
    fn select_list(&self) -> Result<(Vec<RelColumn>, Vec<Pick>)> {
        let columns = self.plan.tail_columns();
        let star = self
            .grouped
            .as_ref()
            .map_or(columns.len(), |(g, _)| g.keys.len());
        let starred = columns[..star].iter().enumerate();
        let mut out: Vec<(RelColumn, Pick)> = Vec::new();
        for item in &self.q.items {
            match item {
                SelectItem::Wildcard => {
                    out.extend(starred.clone().map(|(i, c)| ((*c).clone(), Pick::Col(i))));
                }
                SelectItem::QualifiedWildcard(qual) => {
                    if !self.plan.tables.iter().any(|t| t.alias == *qual) {
                        return Err(Error::UnknownTable(qual.clone()));
                    }
                    let of_qual = |(_, c): &(usize, &&RelColumn)| {
                        c.qualifier.as_deref() == Some(qual.as_str())
                    };
                    let picked = starred.clone().filter(of_qual);
                    out.extend(picked.map(|(i, c)| ((*c).clone(), Pick::Col(i))));
                }
                SelectItem::Expr {
                    expr: expr @ SqlExpr::Literal(v),
                    alias,
                } if self.grouped.is_none() => {
                    let name = alias.clone().unwrap_or_else(|| expr.to_string());
                    let ty = v.data_type().unwrap_or(DataType::Int);
                    out.push((RelColumn::bare(name, ty), Pick::Lit(*v)));
                }
                SelectItem::Expr { expr, alias } => {
                    let i = self.position(expr, || match self.grouped {
                        Some(_) => format!("unsupported grouped select expression `{expr}`"),
                        None => format!("unsupported select expression `{expr}` outside GROUP BY"),
                    })?;
                    let column = match alias {
                        Some(a) => RelColumn::bare(a.clone(), columns[i].data_type),
                        None => columns[i].clone(),
                    };
                    out.push((column, Pick::Col(i)));
                }
            }
        }
        Ok(out.into_iter().unzip())
    }

    /// ORDER BY over the tail input. A name the output columns answer to
    /// (an alias, or a picked column's own name) sorts by what the first
    /// such column picks, unless that is a literal; any other expression
    /// resolves in the tail input.
    fn order_by(&self, output: &[RelColumn], picks: &[Pick]) -> Result<Vec<SortKey>> {
        let by_output =
            |name: &str| match picks[output.iter().position(|c| c.matches_name(name))?] {
                Pick::Col(i) => Some(i),
                Pick::Lit(_) => None,
            };
        let mut keys = Vec::with_capacity(self.q.order_by.len());
        for o in &self.q.order_by {
            let named = match &o.expr {
                SqlExpr::Column(name) => by_output(name),
                _ => None,
            };
            let column = match named {
                Some(i) => i,
                None => self.position(&o.expr, || {
                    format!("unsupported ORDER BY expression `{}`", o.expr)
                })?,
            };
            keys.push(SortKey {
                column,
                descending: o.descending,
            });
        }
        Ok(keys)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sql::{parse_statement, Statement};

    /// `w` typed as a WHERE clause over a row of `columns`, each resolving
    /// by name: how the engine's unit tests build the predicates they
    /// select by.
    pub(crate) fn where_pred(columns: &[RelColumn], w: &str) -> Result<TypedPred> {
        let Statement::Select(q) = parse_statement(&format!("SELECT * FROM t WHERE {w}"))? else {
            panic!("not a SELECT: {w}");
        };
        type_pred(q.where_clause.as_ref().expect("a WHERE clause"), |name| {
            let pos = columns.iter().position(|c| c.matches_name(name));
            let pos = pos.ok_or_else(|| Error::UnknownColumn(name.into()))?;
            let base = Some(columns[pos].data_type);
            Ok((
                pos,
                Ty {
                    base,
                    nullable: true,
                },
            ))
        })
    }
}
