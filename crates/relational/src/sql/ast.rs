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
}

/// A string as a SQL literal: quoted, with every `'` doubled — what the
/// lexer undoes, so the printed form re-lexes to the same string.
fn quote(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

/// A literal as the lexer reads it back: text quoted, a float in its
/// `{:?}` form (`2.0`, never `2`, which would re-lex as an INT — the
/// rule `lexer::render_tokens` follows), everything else as displayed.
fn literal(v: &Value) -> String {
    match v {
        Value::Text(s) => quote(s.as_str()),
        Value::Float(x) => format!("{x:?}"),
        other => other.to_string(),
    }
}

/// Writes `items` separated by `, `.
fn comma<T: fmt::Display>(
    f: &mut fmt::Formatter<'_>,
    items: impl IntoIterator<Item = T>,
) -> fmt::Result {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            f.write_str(", ")?;
        }
        write!(f, "{item}")?;
    }
    Ok(())
}

impl fmt::Display for SqlExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlExpr::Column(n) => write!(f, "{n}"),
            SqlExpr::Literal(v) => f.write_str(&literal(v)),
            SqlExpr::Aggregate { func, input } => {
                let name = func.sql_name();
                match input {
                    Some(e) => write!(f, "{name}({e})"),
                    None => write!(f, "{name}(*)"),
                }
            }
            SqlExpr::Cmp(op, a, b) => write!(f, "{a} {op} {b}"),
            SqlExpr::Like(e, p) => write!(f, "{e} LIKE {}", quote(p)),
            SqlExpr::NotLike(e, p) => write!(f, "{e} NOT LIKE {}", quote(p)),
            SqlExpr::InList(e, l) => {
                write!(f, "{e} IN (")?;
                comma(f, l.iter().map(literal))?;
                write!(f, ")")
            }
            SqlExpr::IsNull(e) => write!(f, "{e} IS NULL"),
            SqlExpr::IsNotNull(e) => write!(f, "{e} IS NOT NULL"),
            // AND parses left-associatively, so only a right operand that
            // is itself a conjunction needs its parentheses back.
            SqlExpr::And(a, b) if matches!(**b, SqlExpr::And(..)) => write!(f, "{a} AND ({b})"),
            SqlExpr::And(a, b) => write!(f, "{a} AND {b}"),
            SqlExpr::Or(a, b) => write!(f, "({a} OR {b})"),
            SqlExpr::Not(e) => write!(f, "NOT ({e})"),
        }
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.alias {
            Some(alias) => write!(f, "{} {alias}", self.table),
            None => write!(f, "{}", self.table),
        }
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => write!(f, "*"),
            SelectItem::QualifiedWildcard(q) => write!(f, "{q}.*"),
            SelectItem::Expr { expr, alias: None } => write!(f, "{expr}"),
            SelectItem::Expr {
                expr,
                alias: Some(alias),
            } => write!(f, "{expr} AS {alias}"),
        }
    }
}

impl fmt::Display for OrderItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.expr)?;
        if self.descending {
            write!(f, " DESC")?;
        }
        Ok(())
    }
}

/// The one SQL printer: the text form of a query is this rendering, and
/// parsing it yields the same AST (pinned in `tests/sql_roundtrip.rs`).
impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        comma(f, &self.items)?;
        write!(f, " FROM ")?;
        comma(f, &self.from)?;
        for j in &self.joins {
            write!(f, " JOIN {} ON {}", j.table, j.on)?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            comma(f, &self.group_by)?;
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            comma(f, &self.order_by)?;
        }
        if let Some(n) = self.limit {
            write!(f, " LIMIT {n}")?;
        }
        if self.offset > 0 {
            write!(f, " OFFSET {}", self.offset)?;
        }
        Ok(())
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

    /// Parses `sql` as a SELECT.
    fn parse(sql: &str) -> Query {
        match crate::sql::parse_statement(sql) {
            Ok(Statement::Select(q)) => q,
            other => panic!("not a SELECT: {sql:?} -> {other:?}"),
        }
    }

    #[test]
    fn printed_literals_parse_back_to_the_same_ast() {
        // A quote inside a text literal, a LIKE pattern and an IN list,
        // and a float that `Value`'s own `Display` would print as an INT.
        let col = || Box::new(SqlExpr::Column("a.name".into()));
        let conjuncts = [
            SqlExpr::Cmp(
                crate::expr::CmpOp::Eq,
                col(),
                Box::new(SqlExpr::Literal(Value::from("O'Brien"))),
            ),
            SqlExpr::Like(col(), "%d'Or%".into()),
            SqlExpr::NotLike(col(), "'%".into()),
            SqlExpr::InList(col(), vec![Value::from("it's"), Value::Null]),
            SqlExpr::Cmp(
                crate::expr::CmpOp::Lt,
                Box::new(SqlExpr::Column("a.score".into())),
                Box::new(SqlExpr::Literal(Value::Float(2.0))),
            ),
            SqlExpr::InList(
                Box::new(SqlExpr::Column("a.score".into())),
                vec![Value::Float(-1.0), Value::Float(1e-7), Value::Int(3)],
            ),
        ];
        for c in conjuncts {
            let q = parse(&format!("SELECT a.id FROM Authors a WHERE {c}"));
            assert_eq!(q.where_clause, Some(c));
        }
    }

    #[test]
    fn printed_query_keeps_every_clause_and_nested_conjunctions() {
        for sql in [
            "SELECT DISTINCT a.name AS n, COUNT(*) FROM Authors a JOIN Paper_Authors pa \
             ON pa.author_id = a.id, Institutions i WHERE a.institution_id = i.id \
             AND (i.country = 'USA' OR NOT (a.name IS NOT NULL)) GROUP BY a.name \
             HAVING COUNT(*) >= 2 ORDER BY n DESC, COUNT(*) LIMIT 5 OFFSET 2",
            "SELECT *, p.* FROM Papers p WHERE p.year > 2000 AND (p.year < 2010 AND p.id <> 3)",
        ] {
            let q = parse(sql);
            assert_eq!(parse(&q.to_string()), q, "{q}");
        }
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
