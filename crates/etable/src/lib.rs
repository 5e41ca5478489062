//! # etable-core
//!
//! The ETable presentation data model — the primary contribution of
//! *"Interactive Browsing and Navigation in Relational Databases"* (VLDB
//! 2016): query patterns over a typed graph database, the four primitive
//! operators (`Initiate`/`Select`/`Add`/`Shift`), a graph relation algebra
//! with instance matching, format transformation into enriched tables whose
//! cells hold sets of entity references, user-level actions, an interactive
//! session with history, and a bidirectional SQL translation (§8:
//! [`to_sql`] and [`from_sql`], both over the SQL front end's AST).
//!
//! ```
//! use etable_core::{ops, transform, pattern::NodeFilter};
//! use etable_core::testutil::academic_tgdb;
//! use etable_relational::expr::CmpOp;
//!
//! let tgdb = academic_tgdb();
//! let (papers, _) = tgdb.schema.node_type_by_name("Papers").unwrap();
//! let q = ops::initiate(&tgdb, papers).unwrap();
//! let q = ops::select(&tgdb, &q, NodeFilter::cmp("year", CmpOp::Gt, 2010)).unwrap();
//! let table = transform::execute(&tgdb, &q).unwrap();
//! assert_eq!(table.primary_type_name, "Papers");
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod actions;
pub mod column_rank;
pub mod connection;
pub mod etable;
pub mod export;
pub mod filter;
pub mod from_sql;
pub mod graph_relation;
pub mod matching;
pub mod ops;
pub mod pattern;
pub mod render;
pub mod session;
pub mod to_sql;
pub mod transform;
pub mod work;

#[cfg(test)]
#[path = "sql_translate_tests.rs"]
mod sql_translate;

#[doc(hidden)]
pub mod testutil;

use std::fmt;

/// Errors produced by the ETable layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A pattern with no nodes.
    EmptyPattern,
    /// A pattern node reference is invalid.
    InvalidNode(String),
    /// A pattern edge is inconsistent with the schema graph.
    InvalidEdge(String),
    /// The pattern graph is not a tree.
    NotATree(String),
    /// The pattern graph is disconnected.
    Disconnected,
    /// A filter references an attribute the node type does not have.
    UnknownAttribute {
        /// Node type name.
        node_type: String,
        /// The missing attribute.
        attr: String,
    },
    /// A user action referenced a column that does not exist.
    UnknownColumn(String),
    /// A user action was invalid in the current state.
    InvalidAction(String),
    /// SQL translation failed.
    SqlTranslate(String),
    /// Underlying relational engine error.
    Relational(etable_relational::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::EmptyPattern => write!(f, "query pattern has no nodes"),
            Error::InvalidNode(m) => write!(f, "invalid pattern node: {m}"),
            Error::InvalidEdge(m) => write!(f, "invalid pattern edge: {m}"),
            Error::NotATree(m) => write!(f, "pattern is not a tree: {m}"),
            Error::Disconnected => write!(f, "pattern is disconnected"),
            Error::UnknownAttribute { node_type, attr } => {
                write!(f, "node type `{node_type}` has no attribute `{attr}`")
            }
            Error::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            Error::InvalidAction(m) => write!(f, "invalid action: {m}"),
            Error::SqlTranslate(m) => write!(f, "SQL translation error: {m}"),
            Error::Relational(e) => write!(f, "relational error: {e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<etable_relational::Error> for Error {
    fn from(e: etable_relational::Error) -> Self {
        Error::Relational(e)
    }
}

/// Result alias for the crate.
pub type Result<T> = std::result::Result<T, Error>;
