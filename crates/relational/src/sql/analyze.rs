//! Static semantic analysis: the pass between the parser and both
//! executors.
//!
//! [`analyze`] takes a parsed [`Query`] and performs
//!
//! * **name resolution** — tables, qualified / unqualified / ambiguous
//!   column references; every surviving reference becomes a
//!   [`ColumnId`], a resolved `(table_idx, col_idx)` pair,
//! * **type inference** — every expression node's output type
//!   ([`TypedExpr::ty`]) over INT / FLOAT / TEXT / BOOL plus nullability,
//!   with the executors' INT→FLOAT widening rule encoded once as the
//!   two-element lattice join [`lub`],
//! * **aggregate / GROUP BY / HAVING validity** — non-grouped columns in
//!   grouped select lists, aggregates nested in aggregates, aggregates in
//!   row context, `HAVING` without a grouped query, non-boolean
//!   predicates, type-mismatched comparisons,
//!
//! and produces a [`TypedPlan`]. Both executors consume the plan — the
//! columnar engine ([`super::executor`]) maps [`ColumnId`]s into
//! join-order positions, the naive oracle ([`super::naive`]) maps them
//! into syntactic cross-product positions — so neither resolves a name or
//! checks a type at runtime, and every semantic error is raised here,
//! **before** any table is scanned or mutated. The DML analyzers
//! ([`analyze_delete`], [`analyze_update`], [`analyze_insert`]) give
//! mutations the same guarantee: an invalid statement touches zero rows.

use super::ast::{OrderItem, Query, SelectItem, SqlExpr, TableRef};
use crate::database::Database;
use crate::exec::agg::AggFunc;
use crate::expr::{CmpOp, Expr};
use crate::relation::{RelColumn, Relation};
use crate::value::{DataType, Value};
use crate::{Error, Result};

/// A resolved column reference: table position in the plan's syntactic
/// FROM + JOIN order, column position within that table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnId {
    /// Index into [`TypedPlan::tables`].
    pub table: usize,
    /// Column index within that table's schema.
    pub column: usize,
}

/// An inferred expression type: the base [`DataType`] (or `None` for the
/// typeless `NULL` literal) plus whether the expression can evaluate to
/// NULL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ty {
    /// Base type; `None` only for the bare `NULL` literal.
    pub base: Option<DataType>,
    /// Whether the expression may produce NULL.
    pub nullable: bool,
}

impl Ty {
    /// Human-readable base type for diagnostics ("INT", ..., or "NULL").
    pub fn render_base(&self) -> String {
        ty_name(self.base)
    }
}

/// Renders an optional base type for diagnostics and EXPLAIN.
fn ty_name(base: Option<DataType>) -> String {
    base.map(|d| d.to_string()).unwrap_or_else(|| "NULL".into())
}

/// The least upper bound of two base types under the widening lattice:
/// `NULL` (⊥) joins with anything, `INT ⊔ FLOAT = FLOAT`, equal types
/// join trivially, everything else is incomparable (`None`). This is the
/// single encoding of the widening rule both executors' comparison /
/// join / IN-list kernels implement at the value level.
pub fn lub(a: Option<DataType>, b: Option<DataType>) -> Option<Option<DataType>> {
    match (a, b) {
        (None, x) | (x, None) => Some(x),
        (Some(x), Some(y)) if x == y => Some(Some(x)),
        (Some(DataType::Int), Some(DataType::Float))
        | (Some(DataType::Float), Some(DataType::Int)) => Some(Some(DataType::Float)),
        _ => None,
    }
}

/// A fully resolved, typed expression. The leaf parameter `C` is the
/// column-reference representation: [`ColumnId`] in row context (scans,
/// residuals, DML predicates), `usize` positions into the grouped
/// relation in group context (HAVING). `NOT LIKE` / `IS NOT NULL` are
/// lowered to `Not(..)` during typing, mirroring the positional
/// [`Expr`] language.
#[derive(Debug, Clone)]
pub enum TypedExpr<C = ColumnId> {
    /// A resolved column reference carrying its inferred type.
    Column(C, Ty),
    /// A literal value.
    Literal(Value),
    /// Comparison; both sides are lattice-compatible.
    Cmp(CmpOp, Box<TypedExpr<C>>, Box<TypedExpr<C>>),
    /// `LIKE` over a TEXT operand.
    Like(Box<TypedExpr<C>>, String),
    /// `IN (...)`; every list value is lattice-compatible with the input.
    InList(Box<TypedExpr<C>>, Vec<Value>),
    /// `IS NULL`.
    IsNull(Box<TypedExpr<C>>),
    /// Conjunction of boolean operands.
    And(Box<TypedExpr<C>>, Box<TypedExpr<C>>),
    /// Disjunction of boolean operands.
    Or(Box<TypedExpr<C>>, Box<TypedExpr<C>>),
    /// Negation of a boolean operand.
    Not(Box<TypedExpr<C>>),
}

impl<C: Copy> TypedExpr<C> {
    /// The node's output type. Columns carry their resolved type;
    /// every operator node is boolean (the analyzer rejects anything
    /// else), literals report their value type.
    pub fn ty(&self) -> Ty {
        match self {
            TypedExpr::Column(_, ty) => *ty,
            TypedExpr::Literal(v) => Ty {
                base: v.data_type(),
                nullable: v.is_null(),
            },
            _ => Ty {
                base: Some(DataType::Bool),
                nullable: true,
            },
        }
    }

    /// Converts to the positional [`Expr`] language through `pos`, which
    /// maps a column reference to its position in the relation the
    /// expression will run against. `None` from `pos` means the plan and
    /// the executor disagree — an internal error, never a user one.
    pub fn to_expr(&self, pos: &impl Fn(C) -> Option<usize>) -> Result<Expr> {
        let unmapped = || Error::Eval("internal: typed plan column not mapped".into());
        Ok(match self {
            TypedExpr::Column(c, _) => Expr::Column(pos(*c).ok_or_else(unmapped)?),
            TypedExpr::Literal(v) => Expr::Literal(*v),
            TypedExpr::Cmp(op, a, b) => {
                Expr::Cmp(*op, Box::new(a.to_expr(pos)?), Box::new(b.to_expr(pos)?))
            }
            TypedExpr::Like(a, p) => Expr::Like(Box::new(a.to_expr(pos)?), p.clone()),
            TypedExpr::InList(a, l) => Expr::InList(Box::new(a.to_expr(pos)?), l.clone()),
            TypedExpr::IsNull(a) => Expr::IsNull(Box::new(a.to_expr(pos)?)),
            TypedExpr::And(a, b) => a.to_expr(pos)?.and(b.to_expr(pos)?),
            TypedExpr::Or(a, b) => a.to_expr(pos)?.or(b.to_expr(pos)?),
            TypedExpr::Not(a) => a.to_expr(pos)?.not(),
        })
    }
}

impl TypedExpr<ColumnId> {
    /// Collects the distinct table indices the expression reads, sorted.
    fn tables(&self) -> Vec<usize> {
        fn walk(e: &TypedExpr<ColumnId>, out: &mut Vec<usize>) {
            match e {
                TypedExpr::Column(c, _) => out.push(c.table),
                TypedExpr::Literal(_) => {}
                TypedExpr::Cmp(_, a, b) | TypedExpr::And(a, b) | TypedExpr::Or(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                TypedExpr::Like(a, _)
                | TypedExpr::InList(a, _)
                | TypedExpr::IsNull(a)
                | TypedExpr::Not(a) => walk(a, out),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// One base table of the plan, in syntactic FROM + JOIN order.
#[derive(Debug, Clone)]
pub struct PlanTable {
    /// Stored table name.
    pub name: String,
    /// Effective alias (the table name when none was given).
    pub alias: String,
    /// Column shape a scan of this table produces (alias-qualified).
    pub columns: Vec<RelColumn>,
    /// Per-column nullability from the schema.
    pub nullable: Vec<bool>,
}

/// A typed single-table or residual predicate, with its SQL display
/// string for EXPLAIN / trace output.
#[derive(Debug, Clone)]
pub struct TypedPred {
    /// The typed, resolved predicate.
    pub expr: TypedExpr<ColumnId>,
    /// Original SQL rendering (drives the trace lines).
    pub display: String,
}

/// An equi-join conjunct `left = right` across two distinct tables.
#[derive(Debug, Clone)]
pub struct JoinEdge {
    /// Left key as written in the SQL.
    pub left: ColumnId,
    /// Right key as written in the SQL.
    pub right: ColumnId,
    /// Display name of the left key (as written).
    pub left_name: String,
    /// Display name of the right key (as written).
    pub right_name: String,
    /// Joined key type under the widening lattice.
    pub key_ty: Option<DataType>,
}

/// One deduplicated aggregate of a grouped query.
#[derive(Debug, Clone)]
pub struct TypedAggregate {
    /// Which aggregate function.
    pub func: AggFunc,
    /// Resolved input column; `None` for `COUNT(*)`.
    pub input: Option<ColumnId>,
    /// Display string — the dedup key and output column name
    /// (e.g. `COUNT(*)`).
    pub key: String,
    /// Output type (COUNT → INT, AVG → FLOAT, SUM/MIN/MAX → input type).
    pub ty: Ty,
}

/// The grouped shape of a query: key columns, aggregates, and the typed
/// HAVING filter over grouped-relation positions.
#[derive(Debug, Clone)]
pub struct TypedGrouping {
    /// Resolved GROUP BY key columns.
    pub keys: Vec<ColumnId>,
    /// Deduplicated aggregates in first-appearance order.
    pub aggregates: Vec<TypedAggregate>,
    /// Column shape of the grouped relation: the key columns (original
    /// qualified metadata) then one bare column per aggregate.
    pub columns: Vec<RelColumn>,
    /// HAVING over grouped-relation positions.
    pub having: Option<TypedExpr<usize>>,
    /// HAVING's SQL rendering, for EXPLAIN.
    pub having_display: Option<String>,
}

/// How one output column is produced.
#[derive(Debug, Clone, Copy)]
pub enum TypedPick {
    /// A column of the (joined) input relation.
    Input(ColumnId),
    /// A position of the grouped relation (key or aggregate).
    Group(usize),
    /// A constant select-list literal.
    Lit(Value),
}

/// One output column: its metadata (aliased if the query aliased it) and
/// the pick that produces it.
#[derive(Debug, Clone)]
pub struct OutputCol {
    /// Output column metadata.
    pub column: RelColumn,
    /// Where the values come from.
    pub pick: TypedPick,
}

/// An ORDER BY sort target.
#[derive(Debug, Clone, Copy)]
pub enum OrderTarget {
    /// A column of the (joined) input relation.
    Input(ColumnId),
    /// A position of the grouped relation.
    Group(usize),
}

/// One resolved ORDER BY key.
#[derive(Debug, Clone, Copy)]
pub struct TypedOrder {
    /// What to sort by.
    pub target: OrderTarget,
    /// Descending?
    pub descending: bool,
}

/// The analyzed, fully resolved and typed logical plan of a SELECT.
///
/// Every column reference is a [`ColumnId`]; conjuncts are already
/// classified into per-table scan pushdowns, equi-join edges, and
/// residuals; the grouped tail (if any) is resolved against the grouped
/// relation's positions. Executors translate `ColumnId`s into their own
/// physical positions and never consult a name again.
#[derive(Debug, Clone)]
pub struct TypedPlan {
    /// Base tables in syntactic FROM + JOIN order.
    pub tables: Vec<PlanTable>,
    /// Single-table predicates pushed into each table's scan.
    pub scans: Vec<Vec<TypedPred>>,
    /// Equi-join edges across tables.
    pub edges: Vec<JoinEdge>,
    /// Everything else (multi-table non-equi predicates, constants,
    /// non-column equalities).
    pub residual: Vec<TypedPred>,
    /// Grouped tail, when the query groups or aggregates.
    pub grouping: Option<TypedGrouping>,
    /// Output columns in select-list order (wildcards expanded
    /// syntactically).
    pub output: Vec<OutputCol>,
    /// Resolved ORDER BY keys.
    pub order_by: Vec<TypedOrder>,
    /// SELECT DISTINCT?
    pub distinct: bool,
    /// LIMIT row count.
    pub limit: Option<usize>,
    /// OFFSET row count.
    pub offset: usize,
}

impl TypedPlan {
    /// The position of `c` in the syntactic cross product of all plan
    /// tables (the naive oracle's physical layout).
    pub fn flat_pos(&self, c: ColumnId) -> usize {
        self.tables[..c.table]
            .iter()
            .map(|t| t.columns.len())
            .sum::<usize>()
            + c.column
    }

    /// The ORDER BY keys as EXPLAIN prints them: `n DESC, a.name`.
    pub(crate) fn sort_keys_display(&self) -> String {
        self.order_by
            .iter()
            .map(|o| {
                let name = match o.target {
                    OrderTarget::Input(c) => {
                        self.tables[c.table].columns[c.column].qualified_name()
                    }
                    OrderTarget::Group(i) => self
                        .grouping
                        .as_ref()
                        .map(|g| g.columns[i].qualified_name())
                        .unwrap_or_else(|| format!("#{i}")),
                };
                if o.descending {
                    format!("{name} DESC")
                } else {
                    name
                }
            })
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Renders the analyzed plan for EXPLAIN: scans with column types and
    /// pushdowns, join edges with key types, residuals, the grouped
    /// shape, sort keys, and the typed output row.
    pub fn render(&self) -> Vec<String> {
        let mut out = vec!["typed plan:".to_string()];
        for (i, t) in self.tables.iter().enumerate() {
            let cols = t
                .columns
                .iter()
                .zip(&t.nullable)
                .map(|(c, n)| format!("{} {}{}", c.name, c.data_type, if *n { "?" } else { "" }))
                .collect::<Vec<_>>()
                .join(", ");
            let mut line = if t.alias == t.name {
                format!("  from {} [{cols}]", t.name)
            } else {
                format!("  from {} AS {} [{cols}]", t.name, t.alias)
            };
            if !self.scans[i].is_empty() {
                let preds = self.scans[i]
                    .iter()
                    .map(|p| p.display.clone())
                    .collect::<Vec<_>>()
                    .join(" AND ");
                line.push_str(&format!(" pushdown [{preds}]"));
            }
            out.push(line);
        }
        for e in &self.edges {
            out.push(format!(
                "  join edge {} = {} [{}]",
                e.left_name,
                e.right_name,
                ty_name(e.key_ty)
            ));
        }
        for p in &self.residual {
            out.push(format!("  residual [{}]", p.display));
        }
        if let Some(g) = &self.grouping {
            let keys = g.columns[..g.keys.len()]
                .iter()
                .map(RelColumn::qualified_name)
                .collect::<Vec<_>>()
                .join(", ");
            let aggs = g
                .aggregates
                .iter()
                .map(|x| format!("{} {}", x.key, x.ty.render_base()))
                .collect::<Vec<_>>()
                .join(", ");
            out.push(format!("  group keys [{keys}] aggregates [{aggs}]"));
            if let Some(h) = &g.having_display {
                out.push(format!("  having [{h}]"));
            }
        }
        if !self.order_by.is_empty() {
            out.push(format!("  sort keys [{}]", self.sort_keys_display()));
        }
        let cols = self
            .output
            .iter()
            .map(|o| format!("{} {}", o.column.qualified_name(), o.column.data_type))
            .collect::<Vec<_>>()
            .join(", ");
        out.push(format!("  output columns [{cols}]"));
        out.push("execution:".to_string());
        out
    }
}

/// Name-resolution scope over the plan's tables.
struct Scope {
    tables: Vec<PlanTable>,
}

impl Scope {
    /// Resolves a (possibly qualified) name against all tables: zero
    /// matches is unknown, more than one is ambiguous.
    fn resolve(&self, name: &str) -> Result<(ColumnId, Ty)> {
        let mut hit: Option<(usize, usize)> = None;
        for (ti, t) in self.tables.iter().enumerate() {
            for (ci, col) in t.columns.iter().enumerate() {
                if col.matches_name(name) {
                    if hit.is_some() {
                        return Err(Error::Eval(format!("ambiguous column reference `{name}`")));
                    }
                    hit = Some((ti, ci));
                }
            }
        }
        let (ti, ci) = hit.ok_or_else(|| Error::UnknownColumn(name.to_string()))?;
        Ok((
            ColumnId {
                table: ti,
                column: ci,
            },
            Ty {
                base: Some(self.tables[ti].columns[ci].data_type),
                nullable: self.tables[ti].nullable[ci],
            },
        ))
    }
}

/// Types an expression in row context, the rule every WHERE / ON conjunct
/// is checked by: `resolve` maps a column name to its reference and type,
/// aggregates are rejected. Public so that a caller holding names but no
/// [`Database`] — the session typing a node filter against a node type's
/// attributes — is typed by this rule and not by a copy of it.
pub fn type_row<C: Copy>(
    e: &SqlExpr,
    resolve: impl Fn(&str) -> Result<(C, Ty)>,
) -> Result<(TypedExpr<C>, Ty)> {
    type_expr(e, &mut |leaf| match leaf {
        SqlExpr::Column(name) => {
            let (id, ty) = resolve(name)?;
            Ok((TypedExpr::Column(id, ty), ty))
        }
        _ => Err(Error::Eval(
            "aggregate not allowed in row context (WHERE/ON)".into(),
        )),
    })
}

/// Requires a boolean (or NULL-literal) expression where a predicate is
/// expected.
fn require_bool(e: &SqlExpr, ty: Ty) -> Result<()> {
    if matches!(ty.base, None | Some(DataType::Bool)) {
        Ok(())
    } else {
        Err(Error::Analyze(format!(
            "expected a boolean predicate, got `{e}` ({})",
            ty.render_base()
        )))
    }
}

/// The shared typing recursion. `leaf` handles the two context-dependent
/// leaves — column references and aggregates — so the same checker serves
/// row context and group context.
fn type_expr<C: Copy, F>(e: &SqlExpr, leaf: &mut F) -> Result<(TypedExpr<C>, Ty)>
where
    F: FnMut(&SqlExpr) -> Result<(TypedExpr<C>, Ty)>,
{
    let bool_ty = |nullable: bool| Ty {
        base: Some(DataType::Bool),
        nullable,
    };
    match e {
        SqlExpr::Column(_) | SqlExpr::Aggregate { .. } => leaf(e),
        SqlExpr::Literal(v) => Ok((
            TypedExpr::Literal(*v),
            Ty {
                base: v.data_type(),
                nullable: v.is_null(),
            },
        )),
        SqlExpr::Cmp(op, a, b) => {
            let (ta, tya) = type_expr(a, leaf)?;
            let (tb, tyb) = type_expr(b, leaf)?;
            if lub(tya.base, tyb.base).is_none() {
                return Err(Error::Analyze(format!(
                    "type mismatch: cannot compare `{a}` ({}) with `{b}` ({})",
                    tya.render_base(),
                    tyb.render_base()
                )));
            }
            Ok((
                TypedExpr::Cmp(*op, Box::new(ta), Box::new(tb)),
                bool_ty(tya.nullable || tyb.nullable),
            ))
        }
        SqlExpr::Like(a, p) | SqlExpr::NotLike(a, p) => {
            let (ta, tya) = type_expr(a, leaf)?;
            if !matches!(tya.base, None | Some(DataType::Text)) {
                return Err(Error::Analyze(format!(
                    "LIKE requires a TEXT operand, got `{a}` ({})",
                    tya.render_base()
                )));
            }
            let like = TypedExpr::Like(Box::new(ta), p.clone());
            let te = if matches!(e, SqlExpr::NotLike(..)) {
                TypedExpr::Not(Box::new(like))
            } else {
                like
            };
            Ok((te, bool_ty(tya.nullable)))
        }
        SqlExpr::InList(a, l) => {
            let (ta, tya) = type_expr(a, leaf)?;
            for v in l {
                if lub(tya.base, v.data_type()).is_none() {
                    return Err(Error::Analyze(format!(
                        "type mismatch: IN list value {v} is incompatible with `{a}` ({})",
                        tya.render_base()
                    )));
                }
            }
            Ok((TypedExpr::InList(Box::new(ta), l.clone()), bool_ty(true)))
        }
        SqlExpr::IsNull(a) => {
            let (ta, _) = type_expr(a, leaf)?;
            Ok((TypedExpr::IsNull(Box::new(ta)), bool_ty(false)))
        }
        SqlExpr::IsNotNull(a) => {
            let (ta, _) = type_expr(a, leaf)?;
            Ok((
                TypedExpr::Not(Box::new(TypedExpr::IsNull(Box::new(ta)))),
                bool_ty(false),
            ))
        }
        SqlExpr::And(a, b) | SqlExpr::Or(a, b) => {
            let (ta, tya) = type_expr(a, leaf)?;
            let (tb, tyb) = type_expr(b, leaf)?;
            require_bool(a, tya)?;
            require_bool(b, tyb)?;
            let (ba, bb) = (Box::new(ta), Box::new(tb));
            let te = if matches!(e, SqlExpr::And(..)) {
                TypedExpr::And(ba, bb)
            } else {
                TypedExpr::Or(ba, bb)
            };
            Ok((te, bool_ty(tya.nullable || tyb.nullable)))
        }
        SqlExpr::Not(a) => {
            let (ta, tya) = type_expr(a, leaf)?;
            require_bool(a, tya)?;
            Ok((TypedExpr::Not(Box::new(ta)), bool_ty(tya.nullable)))
        }
    }
}

/// Whether the query's select list, HAVING or ORDER BY mention an
/// aggregate (forcing the grouped tail even without GROUP BY).
fn query_has_aggregates(q: &Query) -> bool {
    q.items.iter().any(|it| match it {
        SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
        _ => false,
    }) || q.having.as_ref().is_some_and(|h| h.contains_aggregate())
        || q.order_by.iter().any(|o| o.expr.contains_aggregate())
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

/// Analyzes a parsed SELECT into a [`TypedPlan`]. All semantic errors —
/// unknown / ambiguous names, type mismatches, grouping violations — are
/// raised here; execution of a returned plan cannot fail on resolution.
pub fn analyze(db: &Database, q: &Query) -> Result<TypedPlan> {
    // Tables, in syntactic FROM + JOIN order.
    let mut refs: Vec<&TableRef> = q.from.iter().collect();
    refs.extend(q.joins.iter().map(|j| &j.table));
    let mut tables: Vec<PlanTable> = Vec::with_capacity(refs.len());
    for r in &refs {
        let alias = r.effective_alias().to_string();
        if tables.iter().any(|t| t.alias == alias) {
            return Err(Error::Parse(format!("duplicate table alias `{alias}`")));
        }
        let table = db.table(&r.table)?;
        tables.push(PlanTable {
            name: r.table.clone(),
            alias: alias.clone(),
            columns: Relation::table_columns(table, &alias),
            nullable: table.schema().columns.iter().map(|c| c.nullable).collect(),
        });
    }
    if tables.is_empty() {
        return Err(Error::Parse("empty FROM".into()));
    }
    let scope = Scope { tables };

    // Conjuncts from WHERE and JOIN..ON, classified by the tables they
    // read: single-table predicates push into that table's scan,
    // two-table `col = col` equalities become join edges, the rest is
    // residual.
    let mut conjuncts: Vec<&SqlExpr> = Vec::new();
    if let Some(w) = &q.where_clause {
        conjuncts.extend(w.conjuncts());
    }
    for j in &q.joins {
        conjuncts.extend(j.on.conjuncts());
    }
    let mut scans: Vec<Vec<TypedPred>> = vec![Vec::new(); scope.tables.len()];
    let mut edges: Vec<JoinEdge> = Vec::new();
    let mut residual: Vec<TypedPred> = Vec::new();
    for c in conjuncts {
        let (te, ty) = type_row(c, |name| scope.resolve(name))?;
        require_bool(c, ty)?;
        let touched = te.tables();
        let pred = TypedPred {
            expr: te,
            display: c.to_string(),
        };
        match touched.len() {
            1 => scans[touched[0]].push(pred),
            2 => {
                if let SqlExpr::Cmp(CmpOp::Eq, x, y) = c {
                    if let (SqlExpr::Column(nx), SqlExpr::Column(ny)) = (x.as_ref(), y.as_ref()) {
                        let (lid, lty) = scope.resolve(nx)?;
                        let (rid, rty) = scope.resolve(ny)?;
                        if lid.table != rid.table {
                            edges.push(JoinEdge {
                                left: lid,
                                right: rid,
                                left_name: nx.clone(),
                                right_name: ny.clone(),
                                key_ty: lub(lty.base, rty.base).flatten(),
                            });
                            continue;
                        }
                    }
                }
                residual.push(pred);
            }
            _ => residual.push(pred),
        }
    }

    let grouped = !q.group_by.is_empty() || query_has_aggregates(q);
    let mut output: Vec<OutputCol> = Vec::new();
    let mut order_by: Vec<TypedOrder> = Vec::new();
    let grouping = if grouped {
        // GROUP BY keys resolve in row context and must be plain columns.
        let mut keys: Vec<ColumnId> = Vec::new();
        let mut key_tys: Vec<Ty> = Vec::new();
        for g in &q.group_by {
            match g {
                SqlExpr::Column(name) => {
                    let (id, ty) = scope.resolve(name)?;
                    keys.push(id);
                    key_tys.push(ty);
                }
                other => {
                    return Err(Error::Eval(format!(
                        "unsupported GROUP BY expression `{other}`"
                    )))
                }
            }
        }

        // Aggregates from the select list, HAVING and ORDER BY, deduped
        // by display string (the executors' output-naming rule).
        let mut all_sources: Vec<&SqlExpr> = Vec::new();
        for item in &q.items {
            if let SelectItem::Expr { expr, .. } = item {
                all_sources.push(expr);
            }
        }
        if let Some(h) = &q.having {
            all_sources.push(h);
        }
        for o in &q.order_by {
            all_sources.push(&o.expr);
        }
        let mut agg_exprs: Vec<&SqlExpr> = Vec::new();
        for s in all_sources {
            collect_aggregates(s, &mut agg_exprs);
        }
        let mut aggregates: Vec<TypedAggregate> = Vec::new();
        for e in &agg_exprs {
            let key = e.to_string();
            if aggregates.iter().any(|x| x.key == key) {
                continue;
            }
            let SqlExpr::Aggregate { func, input } = e else {
                continue;
            };
            let (input_id, in_ty) = match input {
                Some(arg) => {
                    if arg.contains_aggregate() {
                        return Err(Error::Analyze(format!(
                            "aggregate nested in aggregate `{key}`"
                        )));
                    }
                    match arg.as_ref() {
                        SqlExpr::Column(name) => {
                            let (id, ty) = scope.resolve(name)?;
                            (Some(id), Some(ty))
                        }
                        other => {
                            return Err(Error::Eval(format!(
                                "unsupported aggregate input `{other}`"
                            )))
                        }
                    }
                }
                None => (None, None),
            };
            if matches!(func, AggFunc::Sum | AggFunc::Avg) {
                if let Some(ty) = in_ty {
                    if !matches!(ty.base, Some(DataType::Int) | Some(DataType::Float)) {
                        return Err(Error::Analyze(format!(
                            "aggregate `{key}` requires a numeric input ({} given)",
                            ty.render_base()
                        )));
                    }
                }
            }
            let ty = match func {
                AggFunc::Count => Ty {
                    base: Some(DataType::Int),
                    nullable: false,
                },
                AggFunc::Avg => Ty {
                    base: Some(DataType::Float),
                    nullable: true,
                },
                AggFunc::Sum | AggFunc::Min | AggFunc::Max => Ty {
                    base: Some(in_ty.and_then(|t| t.base).unwrap_or(DataType::Int)),
                    nullable: true,
                },
            };
            aggregates.push(TypedAggregate {
                func: *func,
                input: input_id,
                key,
                ty,
            });
        }

        // Grouped relation shape: key columns (original metadata) then
        // one bare column per aggregate.
        let mut grouped_cols: Vec<RelColumn> = keys
            .iter()
            .map(|k| scope.tables[k.table].columns[k.column].clone())
            .collect();
        for x in &aggregates {
            grouped_cols.push(RelColumn::bare(
                x.key.clone(),
                x.ty.base.unwrap_or(DataType::Int),
            ));
        }
        let n_keys = keys.len();

        // Group-context leaf: columns must be grouping keys (by the key's
        // written name or the key column's names), aggregates map to
        // their grouped position.
        let mut group_leaf = |e: &SqlExpr| -> Result<(TypedExpr<usize>, Ty)> {
            match e {
                SqlExpr::Column(name) => {
                    for (i, g) in q.group_by.iter().enumerate() {
                        if let SqlExpr::Column(gname) = g {
                            if gname == name || grouped_cols[i].matches_name(name) {
                                return Ok((TypedExpr::Column(i, key_tys[i]), key_tys[i]));
                            }
                        }
                    }
                    Err(Error::Eval(format!(
                        "column `{name}` must appear in GROUP BY or an aggregate"
                    )))
                }
                SqlExpr::Aggregate { .. } => {
                    let key = e.to_string();
                    let pos = aggregates
                        .iter()
                        .position(|x| x.key == key)
                        .ok_or_else(|| Error::Eval(format!("unplanned aggregate `{key}`")))?;
                    let ty = aggregates[pos].ty;
                    Ok((TypedExpr::Column(n_keys + pos, ty), ty))
                }
                other => Err(Error::Eval(format!("unsupported expression `{other}`"))),
            }
        };

        // HAVING.
        let (having, having_display) = match &q.having {
            Some(h) => {
                let (te, ty) = type_expr(h, &mut group_leaf)?;
                require_bool(h, ty)?;
                (Some(te), Some(h.to_string()))
            }
            None => (None, None),
        };

        // Select list over grouped positions.
        for item in &q.items {
            match item {
                SelectItem::Expr { expr, alias } => {
                    let (te, _) = type_expr(expr, &mut group_leaf)?;
                    let TypedExpr::Column(pos, _) = te else {
                        return Err(Error::Eval(format!(
                            "unsupported grouped select expression `{expr}`"
                        )));
                    };
                    let mut c = grouped_cols[pos].clone();
                    if let Some(a) = alias {
                        c = RelColumn::bare(a.clone(), c.data_type);
                    }
                    output.push(OutputCol {
                        column: c,
                        pick: TypedPick::Group(pos),
                    });
                }
                SelectItem::Wildcard => {
                    for (i, c) in grouped_cols.iter().enumerate().take(n_keys) {
                        output.push(OutputCol {
                            column: c.clone(),
                            pick: TypedPick::Group(i),
                        });
                    }
                }
                SelectItem::QualifiedWildcard(qual) => {
                    for (i, c) in grouped_cols.iter().enumerate().take(n_keys) {
                        if c.qualifier.as_deref() == Some(qual.as_str()) {
                            output.push(OutputCol {
                                column: c.clone(),
                                pick: TypedPick::Group(i),
                            });
                        }
                    }
                }
            }
        }

        // ORDER BY over grouped positions; output aliases win first.
        for o in &q.order_by {
            let pos = grouped_order_target(o, &output, &mut group_leaf)?;
            order_by.push(TypedOrder {
                target: OrderTarget::Group(pos),
                descending: o.descending,
            });
        }

        Some(TypedGrouping {
            keys,
            aggregates,
            columns: grouped_cols,
            having,
            having_display,
        })
    } else {
        if let Some(h) = &q.having {
            return Err(Error::Analyze(format!(
                "HAVING requires GROUP BY or an aggregate: `{h}`"
            )));
        }
        // Select list over the joined input, wildcards expanded in
        // syntactic table order.
        for item in &q.items {
            match item {
                SelectItem::Wildcard => {
                    for (ti, t) in scope.tables.iter().enumerate() {
                        for (ci, c) in t.columns.iter().enumerate() {
                            output.push(OutputCol {
                                column: c.clone(),
                                pick: TypedPick::Input(ColumnId {
                                    table: ti,
                                    column: ci,
                                }),
                            });
                        }
                    }
                }
                SelectItem::QualifiedWildcard(qual) => {
                    let mut any = false;
                    for (ti, t) in scope.tables.iter().enumerate() {
                        if t.alias == *qual {
                            for (ci, c) in t.columns.iter().enumerate() {
                                output.push(OutputCol {
                                    column: c.clone(),
                                    pick: TypedPick::Input(ColumnId {
                                        table: ti,
                                        column: ci,
                                    }),
                                });
                                any = true;
                            }
                        }
                    }
                    if !any {
                        return Err(Error::UnknownTable(qual.clone()));
                    }
                }
                SelectItem::Expr { expr, alias } => match expr {
                    SqlExpr::Column(name) => {
                        let (id, _) = scope.resolve(name)?;
                        let mut c = scope.tables[id.table].columns[id.column].clone();
                        if let Some(a) = alias {
                            c = RelColumn::bare(a.clone(), c.data_type);
                        }
                        output.push(OutputCol {
                            column: c,
                            pick: TypedPick::Input(id),
                        });
                    }
                    SqlExpr::Literal(v) => {
                        let ty = v.data_type().unwrap_or(DataType::Int);
                        output.push(OutputCol {
                            column: RelColumn::bare(
                                alias.clone().unwrap_or_else(|| expr.to_string()),
                                ty,
                            ),
                            pick: TypedPick::Lit(*v),
                        });
                    }
                    other => {
                        return Err(Error::Eval(format!(
                            "unsupported select expression `{other}` outside GROUP BY"
                        )))
                    }
                },
            }
        }
        // ORDER BY against the input columns; output aliases that map to
        // input columns win first.
        for o in &q.order_by {
            let id = match &o.expr {
                SqlExpr::Column(name) => {
                    let alias_hit = output
                        .iter()
                        .position(|c| c.column.matches_name(name))
                        .and_then(|p| match output[p].pick {
                            TypedPick::Input(id) => Some(id),
                            _ => None,
                        });
                    match alias_hit {
                        Some(id) => id,
                        None => scope.resolve(name)?.0,
                    }
                }
                other => {
                    return Err(Error::Eval(format!(
                        "unsupported ORDER BY expression `{other}`"
                    )))
                }
            };
            order_by.push(TypedOrder {
                target: OrderTarget::Input(id),
                descending: o.descending,
            });
        }
        None
    };

    Ok(TypedPlan {
        tables: scope.tables,
        scans,
        edges,
        residual,
        grouping,
        output,
        order_by,
        distinct: q.distinct,
        limit: q.limit,
        offset: q.offset,
    })
}

/// Resolves one grouped ORDER BY item to a grouped-relation position:
/// first output column whose name matches wins, otherwise the expression
/// resolves in group context.
fn grouped_order_target<F>(o: &OrderItem, output: &[OutputCol], group_leaf: &mut F) -> Result<usize>
where
    F: FnMut(&SqlExpr) -> Result<(TypedExpr<usize>, Ty)>,
{
    if let SqlExpr::Column(name) = &o.expr {
        let alias_hit = output
            .iter()
            .position(|c| c.column.matches_name(name))
            .and_then(|p| match output[p].pick {
                TypedPick::Group(i) => Some(i),
                _ => None,
            });
        if let Some(i) = alias_hit {
            return Ok(i);
        }
        let (te, _) = type_expr(&o.expr, group_leaf)?;
        return match te {
            TypedExpr::Column(i, _) => Ok(i),
            _ => Err(Error::Eval("bad ORDER BY".into())),
        };
    }
    let (te, _) = type_expr(&o.expr, group_leaf)?;
    match te {
        TypedExpr::Column(i, _) => Ok(i),
        _ => Err(Error::Eval(format!(
            "unsupported ORDER BY expression `{}`",
            o.expr
        ))),
    }
}

/// Builds the single-table scope a DML statement's WHERE resolves in.
fn dml_scope(db: &Database, table: &str) -> Result<Scope> {
    let t = db.table(table)?;
    Ok(Scope {
        tables: vec![PlanTable {
            name: table.to_string(),
            alias: table.to_string(),
            columns: Relation::table_columns(t, table),
            nullable: t.schema().columns.iter().map(|c| c.nullable).collect(),
        }],
    })
}

/// Types an optional DML WHERE clause against a single table and lowers
/// it to a positional predicate (`None` → always true). All name and
/// type errors surface here, before any row is read.
fn dml_predicate(scope: &Scope, where_clause: Option<&SqlExpr>) -> Result<Expr> {
    match where_clause {
        Some(w) => {
            let (te, ty) = type_row(w, |name| scope.resolve(name))?;
            require_bool(w, ty)?;
            te.to_expr(&|c: ColumnId| Some(c.column))
        }
        None => Ok(Expr::Literal(Value::Bool(true))),
    }
}

/// Statically validates a DELETE and returns its positional predicate.
pub fn analyze_delete(db: &Database, table: &str, where_clause: Option<&SqlExpr>) -> Result<Expr> {
    dml_predicate(&dml_scope(db, table)?, where_clause)
}

/// Statically validates an UPDATE — SET columns exist, assigned values
/// fit their column types (INT→FLOAT widening allowed) and nullability —
/// and returns the positional WHERE predicate. An invalid UPDATE
/// therefore touches zero rows.
pub fn analyze_update(
    db: &Database,
    table: &str,
    sets: &[(String, Value)],
    where_clause: Option<&SqlExpr>,
) -> Result<Expr> {
    let schema = db.table(table)?.schema();
    for (name, v) in sets {
        let i = schema
            .column_index(name)
            .ok_or_else(|| Error::UnknownColumn(name.clone()))?;
        let col = &schema.columns[i];
        if v.is_null() {
            if !col.nullable {
                return Err(Error::Analyze(format!(
                    "cannot assign NULL to NOT NULL column `{table}.{name}`"
                )));
            }
        } else if !v.fits(col.data_type) {
            return Err(Error::Analyze(format!(
                "type mismatch: cannot assign {v} to `{table}.{name}` ({})",
                col.data_type
            )));
        }
    }
    dml_predicate(&dml_scope(db, table)?, where_clause)
}

/// Statically validates every INSERT row — arity, value/column type fit,
/// nullability — before any row is stored, so a bad later row can no
/// longer leave earlier rows behind. (PK/FK uniqueness stays a runtime
/// constraint check.)
pub fn analyze_insert(db: &Database, table: &str, rows: &[Vec<Value>]) -> Result<()> {
    let schema = db.table(table)?.schema();
    for row in rows {
        if row.len() != schema.columns.len() {
            return Err(Error::Analyze(format!(
                "INSERT row has {} values but table `{table}` has {} columns",
                row.len(),
                schema.columns.len()
            )));
        }
        for (v, col) in row.iter().zip(&schema.columns) {
            if v.is_null() {
                if !col.nullable {
                    return Err(Error::Analyze(format!(
                        "cannot insert NULL into NOT NULL column `{table}.{}`",
                        col.name
                    )));
                }
            } else if !v.fits(col.data_type) {
                return Err(Error::Analyze(format!(
                    "type mismatch: cannot insert {v} into `{table}.{}` ({})",
                    col.name, col.data_type
                )));
            }
        }
    }
    Ok(())
}
