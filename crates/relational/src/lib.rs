//! # etable-relational
//!
//! An in-memory relational database engine: the substrate underneath the
//! ETable reproduction (the original system used PostgreSQL; see DESIGN.md
//! for the substitution rationale).
//!
//! Provides:
//!
//! * typed scalar [`value::Value`]s (text interned through [`intern::Sym`])
//!   and schemas with primary/foreign keys,
//! * constraint-checked columnar storage ([`table::ColumnData`]) with an
//!   ordered primary-key index and a row-facade API, and beside it, per
//!   single-column foreign key onto a primary key, a stored index from
//!   each referencing row to its referenced row, carried across writes
//!   ([`database::Database`]),
//! * one evaluator — columnar intermediate relations
//!   ([`colrel::ColRelation`]): selection vectors over column stores with
//!   build/probe hash joins (array reads along a stored foreign-key
//!   index), and grouped aggregation ([`exec::agg`]) into
//!   typed stores that the same relation type reads back, so HAVING,
//!   ORDER BY / top-k and the final projection run once for every SELECT,
//!   and no intermediate row is materialized from the scan to that
//!   projection,
//! * a result container ([`relation::Relation`]: DISTINCT, OFFSET/LIMIT),
//! * a small SQL dialect ([`sql`]) with a greedy hash-join planner, and
//!   one oracle ([`sql::naive`]) the evaluator is checked against. Both
//!   run the analyzer's [`sql::TypedPlan`] as it stands: its predicates
//!   ([`expr::Expr`]), picks, sort keys and aggregate specs are already
//!   column positions, so neither engine resolves a name or maps a column
//!   reference,
//! * selections that take only a [`sql::analyze::TypedPred`], which typing
//!   alone creates: an accepted statement fails only with a resource
//!   error (spill I/O, the `u32` row-id space), never on a row's type.
//!
//! ```
//! use etable_relational::database::Database;
//! use etable_relational::sql::execute;
//!
//! let mut db = Database::new();
//! execute(&mut db, "CREATE TABLE t (id INT PRIMARY KEY, name TEXT)").unwrap();
//! execute(&mut db, "INSERT INTO t VALUES (1, 'a'), (2, 'b')").unwrap();
//! let r = execute(&mut db, "SELECT name FROM t WHERE id = 2").unwrap();
//! assert_eq!(r.get(0, 0), "b".into());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod colrel;
pub mod database;
pub mod exec;
pub mod expr;
pub mod fk_index;
pub mod intern;
mod pk_index;
pub mod relation;
pub mod scan;
pub mod schema;
pub mod shared;
pub mod sql;
pub mod storage;
pub mod table;
pub mod value;
pub mod work;

use std::fmt;

/// Recovers the guard of a poisoned lock. Poisoning only says that some
/// thread panicked while it held the guard; every lock in this crate (the
/// interner's three, the shared database's two) guards state that is
/// consistent at each point a panic can occur — each says why where it is
/// declared — so recovering is safe, and one connection's panic cannot
/// make every later statement on every other connection panic too.
pub(crate) fn unpoison<G>(r: std::sync::LockResult<G>) -> G {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Errors produced by the relational engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Schema definition problem.
    Schema(String),
    /// Constraint violation (PK, FK, type, nullability).
    Constraint(String),
    /// Unknown table.
    UnknownTable(String),
    /// Unknown column.
    UnknownColumn(String),
    /// Expression evaluation problem.
    Eval(String),
    /// SQL parse error.
    Parse(String),
    /// Static semantic analysis rejection (see [`sql::analyze`](mod@sql::analyze)).
    Analyze(String),
    /// On-disk storage problem: truncated or corrupt file, bad magic,
    /// unsupported format version, checksum mismatch (see [`storage`]).
    /// The message always names the offending path and segment.
    Storage(String),
    /// Wire-protocol problem: malformed or oversized frame, bad magic or
    /// protocol version, frame checksum mismatch, unknown message type.
    /// Produced by the `etable-server` framing layer, which shares this
    /// error type so protocol failures travel the same `Result` rails as
    /// engine errors.
    Protocol(String),
}

/// Stable numeric codes for every [`Error`] class, used by the wire
/// protocol and embedders that need machine-readable errors.
///
/// The numbers are **frozen**: `1xx` schema/catalog and constraint
/// errors, `2xx` evaluation, `3xx` parse/analyze, `4xx` storage, `5xx`
/// protocol. Never renumber or reuse a code — append new ones. The
/// `error_codes` integration test pins every assignment and the
/// `u16 -> code -> u16` round trip, so a silent renumbering cannot
/// survive CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum ErrorCode {
    /// Schema definition problem ([`Error::Schema`]).
    Schema = 100,
    /// Constraint violation ([`Error::Constraint`]).
    Constraint = 101,
    /// Unknown table ([`Error::UnknownTable`]).
    UnknownTable = 102,
    /// Unknown column ([`Error::UnknownColumn`]).
    UnknownColumn = 103,
    /// Expression evaluation problem ([`Error::Eval`]).
    Eval = 200,
    /// SQL parse error ([`Error::Parse`]).
    Parse = 300,
    /// Static semantic analysis rejection ([`Error::Analyze`]).
    Analyze = 301,
    /// On-disk storage problem ([`Error::Storage`]).
    Storage = 400,
    /// Wire-protocol problem ([`Error::Protocol`]).
    Protocol = 500,
}

impl ErrorCode {
    /// Every code, in ascending numeric order (handy for pinning tests).
    pub const ALL: [ErrorCode; 9] = [
        ErrorCode::Schema,
        ErrorCode::Constraint,
        ErrorCode::UnknownTable,
        ErrorCode::UnknownColumn,
        ErrorCode::Eval,
        ErrorCode::Parse,
        ErrorCode::Analyze,
        ErrorCode::Storage,
        ErrorCode::Protocol,
    ];

    /// The stable numeric value carried on the wire.
    pub fn as_u16(self) -> u16 {
        self as u16
    }

    /// Decodes a wire value back to its code; `None` for unassigned
    /// numbers (a forward-compatibility hole, not an error class).
    pub fn from_u16(n: u16) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|c| c.as_u16() == n)
    }
}

impl Error {
    /// The stable numeric code of this error's class.
    pub fn code(&self) -> ErrorCode {
        match self {
            Error::Schema(_) => ErrorCode::Schema,
            Error::Constraint(_) => ErrorCode::Constraint,
            Error::UnknownTable(_) => ErrorCode::UnknownTable,
            Error::UnknownColumn(_) => ErrorCode::UnknownColumn,
            Error::Eval(_) => ErrorCode::Eval,
            Error::Parse(_) => ErrorCode::Parse,
            Error::Analyze(_) => ErrorCode::Analyze,
            Error::Storage(_) => ErrorCode::Storage,
            Error::Protocol(_) => ErrorCode::Protocol,
        }
    }

    /// The class-free message payload — what goes on the wire next to
    /// the numeric code, so rehydration via [`Error::from_code`] does
    /// not stack a second class prefix onto the rendered message.
    pub fn message(&self) -> &str {
        match self {
            Error::Schema(m)
            | Error::Constraint(m)
            | Error::UnknownTable(m)
            | Error::UnknownColumn(m)
            | Error::Eval(m)
            | Error::Parse(m)
            | Error::Analyze(m)
            | Error::Storage(m)
            | Error::Protocol(m) => m,
        }
    }

    /// Rebuilds an error of the class named by `code` (the inverse of
    /// [`Error::code`], used by wire clients to rehydrate server errors).
    pub fn from_code(code: ErrorCode, message: impl Into<String>) -> Error {
        let m = message.into();
        match code {
            ErrorCode::Schema => Error::Schema(m),
            ErrorCode::Constraint => Error::Constraint(m),
            ErrorCode::UnknownTable => Error::UnknownTable(m),
            ErrorCode::UnknownColumn => Error::UnknownColumn(m),
            ErrorCode::Eval => Error::Eval(m),
            ErrorCode::Parse => Error::Parse(m),
            ErrorCode::Analyze => Error::Analyze(m),
            ErrorCode::Storage => Error::Storage(m),
            ErrorCode::Protocol => Error::Protocol(m),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Schema(m) => write!(f, "schema error: {m}"),
            Error::Constraint(m) => write!(f, "constraint violation: {m}"),
            Error::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            Error::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            Error::Eval(m) => write!(f, "evaluation error: {m}"),
            Error::Parse(m) => write!(f, "SQL parse error: {m}"),
            Error::Analyze(m) => write!(f, "analysis error: {m}"),
            Error::Storage(m) => write!(f, "storage error: {m}"),
            Error::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias for the crate.
pub type Result<T> = std::result::Result<T, Error>;
