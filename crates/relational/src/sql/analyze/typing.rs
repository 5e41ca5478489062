//! Expression typing: one recursion turns a [`SqlExpr`] into the
//! positional [`Expr`] the engines run, checking types on the way; a
//! predicate leaves as a [`TypedPred`].

use super::super::ast::SqlExpr;
use crate::expr::Expr;
use crate::value::{DataType, Value};
use crate::{Error, Result};

/// A predicate typing accepted, beside its SQL text (for EXPLAIN): the
/// only predicate the engine's selections take, so every shape that
/// could raise on a row — `LIKE` over a non-TEXT input, a non-BOOL
/// predicate, incomparable operands, an unknown column — was
/// refused before any row was read. Only typing creates one: the
/// analyzer (scans, residuals, HAVING, `analyze_delete` /
/// `analyze_update`) and [`type_pred`]; in the crate, a few shapes that
/// cannot raise are built directly. It is valid over the row it was typed
/// against.
#[derive(Debug, Clone)]
pub struct TypedPred {
    expr: Expr,
    display: String,
}

impl TypedPred {
    /// The predicate, over the position space of the stage it runs at.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// The SQL text it was typed from.
    pub fn display(&self) -> &str {
        &self.display
    }

    /// The conjunction of `preds`, shown as their texts joined by `AND`;
    /// `None` for no predicate.
    pub(crate) fn all(preds: &[TypedPred]) -> Option<TypedPred> {
        let expr = preds.iter().map(|p| p.expr.clone()).reduce(Expr::and)?;
        let texts: Vec<&str> = preds.iter().map(|p| p.display.as_str()).collect();
        let display = texts.join(" AND ");
        Some(TypedPred { expr, display })
    }

    /// The same predicate over a row layout in which its columns start at
    /// `to` instead of `from` ([`Expr::rebased`]).
    pub(crate) fn rebased(&self, from: usize, to: usize) -> TypedPred {
        let (expr, display) = (self.expr.rebased(from, to), self.display.clone());
        TypedPred { expr, display }
    }

    /// `a = b` over two columns: a join key equality.
    pub(crate) fn columns_equal(a: usize, b: usize) -> TypedPred {
        let expr = Expr::col(a).eq(Expr::col(b));
        TypedPred {
            display: expr.to_string(),
            expr,
        }
    }

    /// `c₁ = v₁ AND …` over `(column, literal)` pairs, TRUE for none: a
    /// key lookup.
    pub(crate) fn equal_to(pairs: impl IntoIterator<Item = (usize, Value)>) -> TypedPred {
        let eq = |(c, v)| Expr::col(c).eq(Expr::lit(v));
        let expr = pairs.into_iter().map(eq).reduce(Expr::and);
        let expr = expr.unwrap_or_else(|| Expr::lit(true));
        TypedPred {
            display: expr.to_string(),
            expr,
        }
    }
}

/// Types `e` as a predicate in row context, the rule every WHERE / ON
/// conjunct is checked by: `resolve` maps a column name to its position in
/// the row the predicate reads and its type, an aggregate is refused, and
/// the result must be boolean. Public so that a caller holding names but
/// no [`Database`](crate::database::Database) — the session typing a node
/// filter against a node type's attributes — is typed by this rule and not
/// by a copy of it.
pub fn type_pred(e: &SqlExpr, resolve: impl Fn(&str) -> Result<(usize, Ty)>) -> Result<TypedPred> {
    type_pred_with(e, &mut |leaf| match leaf {
        SqlExpr::Column(name) => resolve(name),
        _ => Err(Error::Analyze(
            "aggregate not allowed in row context (WHERE/ON)".into(),
        )),
    })
}

/// Types `e` as a predicate under the leaf rule `leaf` (HAVING's: the
/// grouped row).
pub(super) fn type_pred_with(
    e: &SqlExpr,
    leaf: &mut impl FnMut(&SqlExpr) -> Result<(usize, Ty)>,
) -> Result<TypedPred> {
    let (expr, ty) = type_expr(e, leaf)?;
    require_bool(e, ty)?;
    let display = e.to_string();
    Ok(TypedPred { expr, display })
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
pub(crate) fn ty_name(base: Option<DataType>) -> String {
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

/// The typing recursion. `leaf` maps the two context-dependent leaves —
/// column references and aggregates — to a column position and its type,
/// so the same checker serves row context and the tail. `NOT LIKE` / `IS
/// NOT NULL` are lowered to `Not(..)`.
pub(super) fn type_expr<F>(e: &SqlExpr, leaf: &mut F) -> Result<(Expr, Ty)>
where
    F: FnMut(&SqlExpr) -> Result<(usize, Ty)>,
{
    let bool_ty = |nullable: bool| Ty {
        base: Some(DataType::Bool),
        nullable,
    };
    match e {
        SqlExpr::Column(_) | SqlExpr::Aggregate { .. } => {
            let (pos, ty) = leaf(e)?;
            Ok((Expr::Column(pos), ty))
        }
        SqlExpr::Literal(v) => Ok((
            Expr::Literal(*v),
            Ty {
                base: v.data_type(),
                nullable: v.is_null(),
            },
        )),
        SqlExpr::Cmp(op, a, b) => {
            let (ea, tya) = type_expr(a, leaf)?;
            let (eb, tyb) = type_expr(b, leaf)?;
            if lub(tya.base, tyb.base).is_none() {
                return Err(Error::Analyze(format!(
                    "type mismatch: cannot compare `{a}` ({}) with `{b}` ({})",
                    tya.render_base(),
                    tyb.render_base()
                )));
            }
            Ok((
                Expr::Cmp(*op, Box::new(ea), Box::new(eb)),
                bool_ty(tya.nullable || tyb.nullable),
            ))
        }
        SqlExpr::Like(a, p) | SqlExpr::NotLike(a, p) => {
            let (ea, tya) = type_expr(a, leaf)?;
            if !matches!(tya.base, None | Some(DataType::Text)) {
                return Err(Error::Analyze(format!(
                    "LIKE requires a TEXT operand, got `{a}` ({})",
                    tya.render_base()
                )));
            }
            let like = ea.like(p.clone());
            let like = if matches!(e, SqlExpr::NotLike(..)) {
                like.not()
            } else {
                like
            };
            Ok((like, bool_ty(tya.nullable)))
        }
        SqlExpr::InList(a, l) => {
            let (ea, tya) = type_expr(a, leaf)?;
            for v in l {
                if lub(tya.base, v.data_type()).is_none() {
                    return Err(Error::Analyze(format!(
                        "type mismatch: IN list value {v} is incompatible with `{a}` ({})",
                        tya.render_base()
                    )));
                }
            }
            Ok((Expr::InList(Box::new(ea), l.clone()), bool_ty(true)))
        }
        SqlExpr::IsNull(a) => {
            let (ea, _) = type_expr(a, leaf)?;
            Ok((Expr::IsNull(Box::new(ea)), bool_ty(false)))
        }
        SqlExpr::IsNotNull(a) => {
            let (ea, _) = type_expr(a, leaf)?;
            Ok((Expr::IsNull(Box::new(ea)).not(), bool_ty(false)))
        }
        SqlExpr::And(a, b) | SqlExpr::Or(a, b) => {
            let (ea, tya) = type_expr(a, leaf)?;
            let (eb, tyb) = type_expr(b, leaf)?;
            require_bool(a, tya)?;
            require_bool(b, tyb)?;
            let e = if matches!(e, SqlExpr::And(..)) {
                ea.and(eb)
            } else {
                ea.or(eb)
            };
            Ok((e, bool_ty(tya.nullable || tyb.nullable)))
        }
        SqlExpr::Not(a) => {
            let (ea, tya) = type_expr(a, leaf)?;
            require_bool(a, tya)?;
            Ok((ea.not(), bool_ty(tya.nullable)))
        }
    }
}
