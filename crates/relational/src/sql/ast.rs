//! SQL abstract syntax tree.

use crate::value::{DataType, Value};
use std::fmt;

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `SELECT ...`
    Select(Query),
    /// `EXPLAIN SELECT ...` — returns the optimizer's plan as text rows.
    Explain(Query),
    /// `CREATE TABLE name (cols...)`
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<ColumnDef>,
        /// Primary key column names.
        primary_key: Vec<String>,
        /// Foreign keys: (columns, referenced table, referenced columns).
        foreign_keys: Vec<(Vec<String>, String, Vec<String>)>,
    },
    /// `INSERT INTO name VALUES (...), (...)`
    Insert {
        /// Target table.
        table: String,
        /// Row literals.
        rows: Vec<Vec<Value>>,
    },
    /// `DELETE FROM name [WHERE ...]`
    Delete {
        /// Target table.
        table: String,
        /// Row predicate; `None` deletes everything.
        where_clause: Option<SqlExpr>,
    },
    /// `UPDATE name SET col = lit [, ...] [WHERE ...]`
    Update {
        /// Target table.
        table: String,
        /// Column assignments (literals only).
        sets: Vec<(String, Value)>,
        /// Row predicate; `None` updates everything.
        where_clause: Option<SqlExpr>,
    },
}

/// A column definition in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Column type.
    pub data_type: DataType,
    /// Whether NULL is allowed.
    pub nullable: bool,
}

/// A SELECT query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// DISTINCT flag.
    pub distinct: bool,
    /// Select list.
    pub items: Vec<SelectItem>,
    /// First FROM table.
    pub from: Vec<TableRef>,
    /// JOIN clauses applied in order after `from`.
    pub joins: Vec<JoinClause>,
    /// WHERE predicate.
    pub where_clause: Option<SqlExpr>,
    /// GROUP BY column references.
    pub group_by: Vec<SqlExpr>,
    /// HAVING predicate (references output columns or aggregates).
    pub having: Option<SqlExpr>,
    /// ORDER BY items.
    pub order_by: Vec<OrderItem>,
    /// LIMIT.
    pub limit: Option<usize>,
    /// OFFSET (rows skipped before LIMIT applies).
    pub offset: usize,
}

/// A table reference with an optional alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// Table name in the catalog.
    pub table: String,
    /// Alias (defaults to the table name).
    pub alias: Option<String>,
}

impl TableRef {
    /// Effective name used to qualify columns.
    pub fn effective_alias(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// An `INNER JOIN <table> ON <pred>` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// The joined table.
    pub table: TableRef,
    /// The ON predicate.
    pub on: SqlExpr,
}

/// One item in the select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// Expression with optional output alias.
    Expr {
        /// The expression.
        expr: SqlExpr,
        /// `AS alias`.
        alias: Option<String>,
    },
}

/// One ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Sort expression (column reference or output-column name).
    pub expr: SqlExpr,
    /// Descending?
    pub descending: bool,
}

/// A SQL scalar expression (name-based; resolved to positional
/// [`crate::expr::Expr`] during execution).
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    /// Possibly-qualified column reference.
    Column(String),
    /// Literal.
    Literal(Value),
    /// Aggregate call; input `None` means `COUNT(*)`.
    Aggregate {
        /// Which function.
        func: crate::exec::agg::AggFunc,
        /// Input column reference.
        input: Option<Box<SqlExpr>>,
    },
    /// Binary comparison.
    Cmp(crate::expr::CmpOp, Box<SqlExpr>, Box<SqlExpr>),
    /// LIKE.
    Like(Box<SqlExpr>, String),
    /// NOT LIKE.
    NotLike(Box<SqlExpr>, String),
    /// IN list.
    InList(Box<SqlExpr>, Vec<Value>),
    /// IS NULL.
    IsNull(Box<SqlExpr>),
    /// IS NOT NULL.
    IsNotNull(Box<SqlExpr>),
    /// AND.
    And(Box<SqlExpr>, Box<SqlExpr>),
    /// OR.
    Or(Box<SqlExpr>, Box<SqlExpr>),
    /// NOT.
    Not(Box<SqlExpr>),
}

impl SqlExpr {
    /// Splits a conjunction into its conjuncts.
    pub fn conjuncts(&self) -> Vec<&SqlExpr> {
        match self {
            SqlExpr::And(a, b) => {
                let mut out = a.conjuncts();
                out.extend(b.conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// True when the expression contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            SqlExpr::Aggregate { .. } => true,
            SqlExpr::Column(_) | SqlExpr::Literal(_) => false,
            SqlExpr::Cmp(_, a, b) | SqlExpr::And(a, b) | SqlExpr::Or(a, b) => {
                a.contains_aggregate() || b.contains_aggregate()
            }
            SqlExpr::Like(e, _)
            | SqlExpr::NotLike(e, _)
            | SqlExpr::InList(e, _)
            | SqlExpr::IsNull(e)
            | SqlExpr::IsNotNull(e)
            | SqlExpr::Not(e) => e.contains_aggregate(),
        }
    }

    /// Qualified column names referenced (excluding aggregate internals).
    pub fn referenced_names(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_names(&mut out);
        out
    }

    fn collect_names<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            SqlExpr::Column(n) => out.push(n),
            SqlExpr::Literal(_) => {}
            SqlExpr::Aggregate { input, .. } => {
                if let Some(e) = input {
                    e.collect_names(out);
                }
            }
            SqlExpr::Cmp(_, a, b) | SqlExpr::And(a, b) | SqlExpr::Or(a, b) => {
                a.collect_names(out);
                b.collect_names(out);
            }
            SqlExpr::Like(e, _)
            | SqlExpr::NotLike(e, _)
            | SqlExpr::InList(e, _)
            | SqlExpr::IsNull(e)
            | SqlExpr::IsNotNull(e)
            | SqlExpr::Not(e) => e.collect_names(out),
        }
    }
}

impl fmt::Display for SqlExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlExpr::Column(n) => write!(f, "{n}"),
            SqlExpr::Literal(Value::Text(s)) => write!(f, "'{s}'"),
            SqlExpr::Literal(v) => write!(f, "{v}"),
            SqlExpr::Aggregate { func, input } => {
                let name = func.sql_name();
                match input {
                    Some(e) => write!(f, "{name}({e})"),
                    None => write!(f, "{name}(*)"),
                }
            }
            SqlExpr::Cmp(op, a, b) => write!(f, "{a} {op} {b}"),
            SqlExpr::Like(e, p) => write!(f, "{e} LIKE '{p}'"),
            SqlExpr::NotLike(e, p) => write!(f, "{e} NOT LIKE '{p}'"),
            SqlExpr::InList(e, l) => {
                write!(f, "{e} IN (")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match v {
                        Value::Text(s) => write!(f, "'{s}'")?,
                        other => write!(f, "{other}")?,
                    }
                }
                write!(f, ")")
            }
            SqlExpr::IsNull(e) => write!(f, "{e} IS NULL"),
            SqlExpr::IsNotNull(e) => write!(f, "{e} IS NOT NULL"),
            SqlExpr::And(a, b) => write!(f, "{a} AND {b}"),
            SqlExpr::Or(a, b) => write!(f, "({a} OR {b})"),
            SqlExpr::Not(e) => write!(f, "NOT ({e})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjuncts_flatten() {
        let e = SqlExpr::And(
            Box::new(SqlExpr::And(
                Box::new(SqlExpr::Column("a".into())),
                Box::new(SqlExpr::Column("b".into())),
            )),
            Box::new(SqlExpr::Column("c".into())),
        );
        assert_eq!(e.conjuncts().len(), 3);
    }

    #[test]
    fn aggregate_detection() {
        let agg = SqlExpr::Aggregate {
            func: crate::exec::agg::AggFunc::Count,
            input: None,
        };
        assert!(agg.contains_aggregate());
        let cmp = SqlExpr::Cmp(
            crate::expr::CmpOp::Gt,
            Box::new(agg),
            Box::new(SqlExpr::Literal(Value::Int(3))),
        );
        assert!(cmp.contains_aggregate());
        assert!(!SqlExpr::Column("x".into()).contains_aggregate());
    }

    #[test]
    fn display_round_trip_shape() {
        let e = SqlExpr::Cmp(
            crate::expr::CmpOp::Ge,
            Box::new(SqlExpr::Column("Papers.year".into())),
            Box::new(SqlExpr::Literal(Value::Int(2005))),
        );
        assert_eq!(e.to_string(), "Papers.year >= 2005");
    }
}
