//! A small SQL dialect: lexer, AST, recursive-descent parser, static
//! semantic analyzer, and executor with a greedy hash-join planner.
//!
//! The dialect covers what the paper's §8 expressiveness bridge needs —
//! `SELECT` / `FROM` / `JOIN..ON` / `WHERE` / `GROUP BY` / `HAVING` /
//! `ORDER BY` / `LIMIT`, aggregates, `LIKE`, `IN`, `IS NULL` — plus
//! `CREATE TABLE` and `INSERT` for completeness.
//!
//! Every statement flows parser → [`analyze`](mod@analyze) → executor: the analyzer
//! resolves names, infers types and validates aggregates/DML against
//! the schema, producing the [`TypedPlan`] both the optimizing executor
//! ([`executor`]) and the naive differential oracle ([`naive`]) consume
//! — so semantic errors are reported before any data is touched, and
//! the two engines cannot disagree on what a query means.

pub mod analyze;
pub mod ast;
pub mod executor;
pub mod lexer;
pub mod naive;
pub mod parser;

pub use analyze::{analyze, TypedPlan};
pub use ast::{ColumnDef, JoinClause, OrderItem, Query, SelectItem, SqlExpr, Statement, TableRef};
pub use executor::{execute, execute_read, execute_statement, is_read_only};
pub use lexer::{tokenize, Token};
pub use parser::parse_statement;
